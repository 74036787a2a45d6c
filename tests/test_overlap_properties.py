"""Differential tests: the sort-and-sweep overlap test against pairwise scans.

``BoxDomain`` and ``minkowski_translate`` decide overlaps with one sweep
along the first axis.  The references in ``reference`` are plain pairwise
scans: every box pair in index order, and every translate pair in the
order of A.  Both must accept the same inputs, and on overlap both must
name the same pair with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import box_overlap, fraction_minkowski, reference_first_box_pair

from spectralpairs import BoxDomain, FiniteSet, OverlapError, minkowski_translate

COORDS = st.builds(Fraction, st.integers(0, 8), st.sampled_from([1, 2, 3]))


@st.composite
def boxes(draw, dimension, max_boxes=6):
    out = []
    for _ in range(draw(st.integers(1, max_boxes))):
        lo, hi = [], []
        for _ in range(dimension):
            x, y = draw(COORDS), draw(COORDS)
            if x == y:
                y = x + 1
            lo.append(min(x, y))
            hi.append(max(x, y))
        out.append((tuple(lo), tuple(hi)))
    return out


@st.composite
def domain_and_set(draw):
    d = draw(st.integers(1, 3))
    kept = []
    for box in draw(boxes(d)):  # greedily keep a valid base domain
        if not any(box_overlap(box, other) for other in kept):
            kept.append(box)
    n = draw(st.integers(2, 8))
    points = draw(
        st.lists(st.tuples(*[st.integers(0, n - 1)] * d), min_size=1, max_size=5, unique=True)
    )
    return BoxDomain(d, tuple(kept)), FiniteSet(n, d, tuple(points))


@settings(deadline=None, max_examples=300)
@given(st.integers(1, 3).flatmap(boxes))
def test_box_domain_agrees_with_pairwise_scan(bs):
    expected = reference_first_box_pair(bs)
    try:
        domain = BoxDomain(len(bs[0][0]), tuple(bs))
    except OverlapError as exc:
        assert expected is not None
        i, k = expected
        assert str(exc) == "boxes %d and %d intersect with positive measure" % (i, k)
        assert exc.offending == (bs[i], bs[k])
    else:
        assert expected is None
        assert domain.boxes == tuple(bs)


@settings(deadline=None, max_examples=300)
@given(domain_and_set())
def test_minkowski_translate_agrees_with_translate_scan(case):
    base, a = case
    try:
        expected = fraction_minkowski(base, a)
    except OverlapError as exc:
        expected = exc
    try:
        got = minkowski_translate(base, a)
    except OverlapError as exc:
        assert isinstance(expected, OverlapError)
        assert str(exc) == str(expected)
        assert exc.offending == expected.offending
    else:
        assert isinstance(expected, BoxDomain)
        assert got == expected


def test_first_translate_pair_not_first_box_pair():
    # boxes 0 and 4 ([0,2) and its translate [1,3) by 1) are the first overlapping
    # box pair, but the translates by 0 and 4 ([5,7) and [4,6)) come first in A
    base = BoxDomain(1, ((0, 2), (5, 7)))
    with pytest.raises(OverlapError) as err:
        minkowski_translate(base, FiniteSet.from_ints(16, [0, 4, 1]))
    assert err.value.offending == ((0,), (4,))
    assert str(err.value) == "translates by (0,) and (4,) overlap with positive measure"
