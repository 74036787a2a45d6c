"""The hypothesis strategies, pinned cases and byte views that more than one test file
uses, or whose name another file would otherwise give to a different strategy."""

from fractions import Fraction

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st
from reference import box_overlap

from spectralpairs import BoxDomain, DuplicateSpectrumError, FiniteSet, PairKind, Spectrum

BIG = 2**63 + 1
RATIONALS = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))
SMALL_RATIONALS = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))
SHEARS = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 3))
NONZERO = st.builds(Fraction, st.integers(1, 4), st.integers(1, 3)).flatmap(
    lambda x: st.sampled_from([x, -x])
)
RADII = st.sampled_from([0, Fraction(1, 2), 1, Fraction(5, 3), 2, 3]).map(Fraction)
WIDE_RADII = st.one_of(
    st.builds(Fraction, st.integers(1, 40), st.integers(1, 12)),
    # past 2**62 over one denominator: the sup norms compare as Python ints
    st.builds(Fraction, st.integers(2**70, 3 * 2**70), st.just(2**70 + 1)),
)
BELOW_2_62 = st.integers(-(2**62) + 1, 2**62 - 1)
UP_TO_2_62 = st.integers(-(2**62), 2**62)
# the 18 benchmark reference queries (N, d, k, kind)
SEARCH_QUERIES = [(n, d, k, kind) for kind in ("orthogonal", "riesz") for n, d, k in (
    (8, 1, 4), (9, 1, 4), (10, 1, 4), (11, 1, 3), (12, 1, 3), (15, 1, 3),
    (3, 2, 3), (3, 2, 4), (4, 2, 3))]


def bits(values):
    """The bytes of complex values, for bit-for-bit comparison."""
    return np.array(values, dtype=complex).tobytes()


@st.composite
def box_domains(draw, d):
    """1-5 disjoint boxes with rational corners."""
    kept = []
    for _ in range(draw(st.integers(1, 5))):
        lo = draw(st.tuples(*[SMALL_RATIONALS] * d))
        hi = tuple(c + draw(NONZERO.map(abs)) for c in lo)
        if all(not box_overlap((lo, hi), box) for box in kept):
            kept.append((lo, hi))
    return BoxDomain(d, tuple(kept))


@st.composite
def slab_domains(draw, dimension):
    """Up to four boxes, disjoint along the first axis, with rational corners."""
    cuts = sorted(draw(st.sets(RATIONALS, min_size=2, max_size=8)))
    boxes = []
    for lo, hi in zip(cuts[::2], cuts[1::2]):
        rest = [sorted(draw(st.sets(RATIONALS, min_size=2, max_size=2)))
                for _ in range(dimension - 1)]
        boxes.append(((lo, *(c[0] for c in rest)), (hi, *(c[1] for c in rest))))
    return BoxDomain(dimension, tuple(boxes))


@st.composite
def sheared_bases(draw, d):
    """Generators G = L U, L unit lower and U upper triangular, with rational entries."""
    diag = [draw(NONZERO) for _ in range(d)]
    lower = [[Fraction(int(i == k)) if i <= k else draw(SHEARS) for k in range(d)]
             for i in range(d)]
    upper = [[diag[i] if i == k else draw(SHEARS) if i < k else Fraction(0)
              for k in range(d)] for i in range(d)]
    return tuple(tuple(sum(lower[i][m] * upper[m][k] for m in range(d)) for k in range(d))
                 for i in range(d))


@st.composite
def sheared_spectra(draw, d=None):
    """A sheared lattice with 1-4 shifts, distinct modulo the lattice."""
    d = d or draw(st.integers(1, 2))
    basis, shifts = draw(sheared_bases(d)), []
    for _ in range(draw(st.integers(1, 4))):
        v = draw(st.tuples(*[SMALL_RATIONALS] * d))
        try:
            Spectrum(d, basis, (*shifts, v))
            shifts.append(v)
        except DuplicateSpectrumError:
            pass
    return Spectrum(d, basis, tuple(shifts))


@st.composite
def diagonal_spectra(draw, dimension):
    """A lattice with positive rational diagonal (sheared in 2-d) and 1-3 shifts."""
    scales = [Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 3))) for _ in range(dimension)]
    basis = [[scales[k] if i == k else Fraction(0) for k in range(dimension)]
             for i in range(dimension)]
    if dimension == 2:
        basis[1][0] = draw(RATIONALS)
    shifts = draw(st.lists(st.tuples(*[RATIONALS] * dimension), min_size=1, max_size=3))
    try:
        return Spectrum(dimension, tuple(map(tuple, basis)), tuple(shifts))
    except DuplicateSpectrumError:
        assume(False)


@st.composite
def small_sets(draw, d):
    """Up to four points of Z_N^d, N <= 6."""
    n = draw(st.integers(1, 6))
    points = draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * d), max_size=4, unique=True))
    return FiniteSet(n, d, tuple(points))


@st.composite
def sized_sets(draw, n, d, size):
    """Exactly ``size`` points of Z_n^d."""
    elements = st.tuples(*[st.integers(0, n - 1)] * d)
    return FiniteSet(n, d, tuple(draw(st.lists(elements, min_size=size, max_size=size,
                                                 unique=True))))


@st.composite
def indexed_sets(draw, n, d, size):
    """``size`` points of Z_n^d, the first of a permutation of the element indices: drawn
    without unique-list filtering."""
    elements = list(np.ndindex(*[n] * d))
    return FiniteSet(n, d, tuple(elements[i] for i in draw(st.permutations(range(n**d)))[:size]))


def pinned_past_2_62():
    """A 2-d domain, spectrum, sets A1, A2, J1, J2 and vector whose integer forms run past
    2**62, so that they take the Python-int path of ``_exact.int_array``."""
    eps = Fraction(1, BIG)
    dom = BoxDomain(2, (((eps, 0), (1, Fraction(1, 2))), ((0, Fraction(1, 2)), (1 - eps, 1))))
    basis = ((Fraction(BIG, 2**63), Fraction(1, 3)), (Fraction(1, 5), Fraction(BIG, 2**64)))
    spec = Spectrum(2, basis, ((Fraction(1, 3), Fraction(-2, 7)),))
    sets = [FiniteSet(4, 2, ((0, 0), (1, 1), (2, 0))), FiniteSet(8, 2, ((0, 0), (1, 1))),
            FiniteSet(4, 2, ((0, 0), (1, 2), (3, 1))), FiniteSet(3, 2, ((0, 0), (1, 0)))]
    return dom, spec, sets, (Fraction(1, BIG + 2), Fraction(-1, 3))


def _pair(n, a, j, kind):
    return FiniteSet.from_ints(n, a), FiniteSet.from_ints(n, j), kind


# pairs in Z_p, p prime, whose kinds float thresholds once got wrong, with their exact kinds:
# 1 + omega^u != 0, so no two-point pair is orthogonal, every square pair is invertible
# (Chebotarev's theorem) and a row added to one keeps its rank
P40, P42 = 2**40 + 15, 2**42 + 15
LARGE_PRIME_PAIRS = {
    "n2-40-far-rows": _pair(P40, [0, 1], [0, P40 // 2], PairKind.RIESZ_BASIS),
    "n1000003-square": _pair(1_000_003, [0, 1], [0, 1], PairKind.RIESZ_BASIS),
    "n1000003-frame": _pair(1_000_003, [0, 1], [0, 1, 2], PairKind.FRAME),
    "n2-42-square": _pair(P42, [0, 1], [0, 1], PairKind.RIESZ_BASIS),
}
