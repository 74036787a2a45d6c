"""Property tests: the kind of a finite pair depends only on P = J A^T mod N.

Two moves of Z_N^d keep what the classification sees:

- a unit u mod N: (u^{-1} j) . (u a) = j . a mod N for every entry, so
  (uA, u^{-1}J) has the same evaluation matrix as (A, J), and every
  reported float is the same bit for bit;
- a translation: A + t multiplies row s of F by omega^{j_s . t}, J + t
  multiplies column r by omega^{t . a_r}; unimodular diagonal factors keep
  the singular values and unitarity, hence the kind.

Transposition keeps the kind of a basis too: F^T is invertible or
unitary up to scale exactly when F is.  And the stacked rule, which
evaluates the unitary defect only where the squared singular values lie
close enough together for it to pass, classifies every stack as the rule
that evaluates the defect everywhere does, bit for bit.

The rounding bounds decide kinds the exact facts allow: a point added to J
never lowers the kind (a row can only raise sigma_min), square pairs at a
prime are Riesz bases (Chebotarev's theorem), and for N <= 64 the bounds
give the kinds that the set float thresholds they replaced gave.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import classify as reference_classify
from reference import classify_stacked as reference_classify_stacked
from strategies import LARGE_PRIME_PAIRS, P40, P42, sized_sets

from spectralpairs import (FiniteSet, PairKind, SymmetryUndefinedError, build_evaluation_matrix,
                           classify_finite_pair, transpose_pair)
from spectralpairs._exact import cis
from spectralpairs.finite_pairs import _KINDS, TOLERANCES, _classify_stacked


def classification_bits(c):
    return c.kind, c.lower.hex(), c.upper.hex(), c.condition_number.hex()


def _point(index, n, d):
    return tuple(index // n**e % n for e in range(d))


@st.composite
def pairs(draw, extra=2, moduli=st.integers(1, 12)):
    """(A, J) in Z_N^d with N drawn from ``moduli`` (N <= 12 by default), d <= 2,
    1 <= #A <= 4 and #A <= #J <= #A + extra."""
    d = draw(st.integers(1, 2))
    n = draw(moduli)
    k = draw(st.integers(1, min(4, n**d)))
    m = draw(st.integers(k, min(k + extra, n**d)))
    a, j = (
        FiniteSet(n, d, tuple(_point(i, n, d) for i in draw(
            st.lists(st.integers(0, n**d - 1), min_size=c, max_size=c, unique=True))))
        for c in (k, m)
    )
    return a, j


def _scaled(s: FiniteSet, u: int) -> FiniteSet:
    return FiniteSet(s.modulus, s.dimension, tuple(tuple(u * c for c in p) for p in s.points))


@settings(max_examples=40, deadline=None)
@given(pairs(), st.data())
def test_units_keep_the_classification_bit_for_bit(pair, data):
    a, j = pair
    n = a.modulus
    u = data.draw(st.sampled_from([u for u in range(1, n + 1) if math.gcd(u, n) == 1]))
    moved = classify_finite_pair(_scaled(a, u), _scaled(j, pow(u, -1, n)))
    assert classification_bits(moved) == classification_bits(classify_finite_pair(a, j))


@settings(max_examples=40, deadline=None)
@given(pairs(), st.data())
def test_translations_keep_the_kind(pair, data):
    a, j = pair
    n, d = a.modulus, a.dimension
    s, t = (_point(data.draw(st.integers(0, n**d - 1)), n, d) for _ in range(2))
    kind = classify_finite_pair(a, j).kind
    assert classify_finite_pair(a.translate(s), j).kind is kind
    assert classify_finite_pair(a, j.translate(t)).kind is kind


@settings(max_examples=40, deadline=None)
@given(pairs(extra=0))
def test_transposition_keeps_the_basis_kind(pair):
    a, j = pair
    kind = classify_finite_pair(a, j).kind
    if not kind.at_least(PairKind.RIESZ_BASIS):
        with pytest.raises(SymmetryUndefinedError):
            transpose_pair(a, j)
        return
    assert transpose_pair(a, j) == (j, a)
    assert classify_finite_pair(j, a).kind is kind


@st.composite
def phase_stacks(draw):
    """A stack of evaluation matrices cis(-P, N), P = J A^T mod N, of pairs in Z_N^d with
    N <= 64, d <= 2, #A = k <= 5 and #J = k (square) or up to k + 2 (tall); a square
    stack mixes in Fourier pairs (A on the multiples of N/k, J a residue system mod k),
    which are orthogonal."""
    d = draw(st.integers(1, 2))
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 64)))  # small N: singular pairs too
    k = draw(st.integers(1, min(5, n**d)))
    m = draw(st.sampled_from([k, min(k + 2, n**d)]))

    def points(c):
        codes = draw(st.lists(st.integers(0, n**d - 1), min_size=c, max_size=c, unique=True))
        return np.array([_point(i, n, d) for i in codes])

    stack = []
    for _ in range(draw(st.integers(1, 6))):
        a, j = points(k), points(m)
        if m == k and n % k == 0 and draw(st.booleans()):
            a[:] = 0
            a[:, 0] = np.arange(k) * (n // k)
            j[:, 0] = np.arange(k) + k * np.array(draw(
                st.lists(st.integers(0, n // k - 1), min_size=k, max_size=k)))
        stack.append(cis(-(j @ a.T % n), n))
    return np.stack(stack)


def assert_same_classification(f):
    for least in PairKind:
        got, want = _classify_stacked(f, least), reference_classify_stacked(f, least)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want]


@settings(max_examples=100, deadline=None)
@given(phase_stacks())
def test_skipped_defects_change_no_classification(f):
    assert_same_classification(f)


# two pinned pairs: at N = 2^40 + 15 the defect 2.9e-12 is past its bound 1.2e-14 and the
# spread of sigma^2, 5.7e-12, is past the band 4 n delta_gram = 9.9e-14, so the defect is never
# evaluated and the pair is a Riesz basis; the 36 x 36 level-1 pair of a 6 x 6 tiling in
# Z_12^2 lies inside the band and is orthogonal
GRID = [(x, y) for x in range(6) for y in range(6)]


@pytest.mark.parametrize(
    "a,j,inside,kind",
    [
        (*LARGE_PRIME_PAIRS["n2-40-far-rows"][:2], False, PairKind.RIESZ_BASIS),
        (FiniteSet(12, 2, [(2 * x, 2 * y) for x, y in GRID]),
         FiniteSet(12, 2, [(x + 5, y + 3) for x, y in GRID]), True, PairKind.ORTHOGONAL_BASIS),
    ],
    ids=["large-prime-pair", "tiling-level-1"],
)
def test_skipped_defects_pinned_pairs(a, j, inside, kind):
    f = build_evaluation_matrix(a, j).entries[None]
    assert_same_classification(f)
    ranks, lower, upper, _, _ = _classify_stacked(f)
    assert (upper - lower <= 4 * len(a) * TOLERANCES.gram_bound(len(j))) == inside
    assert _KINDS[ranks[0]] is kind


def threshold_kind(a: FiniteSet, j: FiniteSet) -> PairKind:
    """The kind rule of set float thresholds that the rounding bounds replaced: a unitary
    defect below 1e-10 is orthogonal, a condition number below 1e12 a Riesz basis, and
    sigma_min^2 above 1e-10 a frame."""
    c = reference_classify(a, j)
    f = build_evaluation_matrix(a, j).entries
    defect = np.abs(f.conj().T @ f - len(j) * np.eye(len(a))).max()
    if len(a) == len(j) and defect < 1e-10:
        return PairKind.ORTHOGONAL_BASIS
    if len(a) == len(j) and c.condition_number < 1e12:
        return PairKind.RIESZ_BASIS
    return PairKind.FRAME if c.lower > 1e-10 else PairKind.NONE


@settings(max_examples=200, deadline=None)
@given(pairs(moduli=st.integers(1, 64)))
def test_rounding_bounds_keep_the_threshold_kinds_at_small_moduli(pair):
    # for N <= 64 and at most four points in A, every value sits far from both rules'
    # cut-offs, so the bounds change no kind there
    assert classify_finite_pair(*pair).kind is threshold_kind(*pair)


@settings(max_examples=100, deadline=None)
@given(pairs(extra=1, moduli=st.integers(1, 64) | st.sampled_from([1_000_003, P40, P42])),
       st.data())
def test_a_point_added_to_j_never_lowers_the_kind(pair, data):
    # a row added to F can only raise sigma_min, so a frame stays a frame; past #J = #A no
    # pair is more than a frame (the large primes are those of the pinned pairs)
    a, j = pair
    n, d = a.modulus, a.dimension
    assume(len(j) < n**d)
    new = data.draw(st.integers(0, n**d - 1).map(lambda i: _point(i, n, d)).filter(
        lambda p: p not in j.points))
    kind = classify_finite_pair(a, j).kind
    more = classify_finite_pair(a, FiniteSet(n, d, j.points + (new,))).kind
    assert more.at_least(min(kind, PairKind.FRAME, key=lambda k: k.rank))


PRIMES = [p for p in range(2, 62) if all(p % q for q in range(2, p))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 12), st.data())
def test_square_pairs_at_a_prime_are_riesz_bases(p, k, data):
    # Chebotarev's theorem: every square minor of the Fourier matrix of prime order is
    # invertible (Tao, Math. Res. Lett. 12, 2005); up to 12 points each clears its bound
    a, j = (data.draw(sized_sets(p, 1, min(k, p))) for _ in range(2))
    assert classify_finite_pair(a, j).kind.at_least(PairKind.RIESZ_BASIS)


@pytest.mark.xfail(strict=True, reason="floats cannot prove the rank of an ill-conditioned minor")
def test_chebotarev_minor_past_what_floats_can_prove():
    # A = J = {0, ..., 30} in Z_61 is invertible, but its sigma_min sits at the rounding floor,
    # inside delta_rank, so the float rule calls it singular; only an exact rank test settles it
    s = FiniteSet.from_ints(61, range(31))
    assert classify_finite_pair(s, s).kind is PairKind.RIESZ_BASIS
