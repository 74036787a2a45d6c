"""Property tests: the kind of a finite pair depends only on P = J A^T mod N.

Two moves of Z_N^d keep what the classification sees:

- a unit u mod N: (u^{-1} j) . (u a) = j . a mod N for every entry, so
  (uA, u^{-1}J) has the same evaluation matrix as (A, J), and every
  reported float is the same bit for bit;
- a translation: A + t multiplies row s of F by omega^{j_s . t}, J + t
  multiplies column r by omega^{t . a_r}; unimodular diagonal factors keep
  the singular values and unitarity, hence the kind.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from spectralpairs import FiniteSet, classify_finite_pair


def bits(c):
    return c.kind, c.lower.hex(), c.upper.hex(), c.condition_number.hex()


def _point(index, n, d):
    return tuple(index // n**e % n for e in range(d))


@st.composite
def pairs(draw):
    """(A, J) in Z_N^d with N <= 12, d <= 2, 1 <= #A <= 4 and #A <= #J <= #A + 2."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 12))
    size = n**d
    k = draw(st.integers(1, min(4, size)))
    m = draw(st.integers(k, min(k + 2, size)))
    a, j = (
        FiniteSet(n, d, tuple(_point(i, n, d) for i in draw(
            st.lists(st.integers(0, size - 1), min_size=c, max_size=c, unique=True))))
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
    assert bits(moved) == bits(classify_finite_pair(a, j))


@settings(max_examples=40, deadline=None)
@given(pairs(), st.data())
def test_translations_keep_the_kind(pair, data):
    a, j = pair
    n, d = a.modulus, a.dimension
    s, t = (_point(data.draw(st.integers(0, n**d - 1)), n, d) for _ in range(2))
    kind = classify_finite_pair(a, j).kind
    assert classify_finite_pair(a.translate(s), j).kind is kind
    assert classify_finite_pair(a, j.translate(t)).kind is kind

