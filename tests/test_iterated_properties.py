"""Property test: combining twice.

The first combination is an orthogonal pair on [0,1) with Z, the second
adds a finite pair (A, J) that ``combine_riesz`` accepts.  The dual of
e_p on the twice-combined pair needs the s with p - j_s/N in the
once-combined spectrum Z + J_1/N_1.  The index of a point's stored shift
mod #J_2 must be that s for every enumerated point, as ``shift_spectrum``
lays the shifts out.  The reference is an exact membership test in
rational arithmetic on the first combination's data.
"""

import functools
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import reference_in_first_spectrum

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    FiniteSet,
    SearchQuery,
    combine_orthogonal,
    combine_riesz,
    enumerate_pairs,
    enumerate_spectrum,
    integer_lattice,
)
from spectralpairs.domains import _window_rows

UNIT = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), integer_lattice(1))


@functools.lru_cache(maxsize=None)
def orthogonal_pairs(n, k):
    return enumerate_pairs(SearchQuery(n, 1, k)).matches


@st.composite
def twice_combined(draw):
    n1 = draw(st.sampled_from([2, 3, 4, 6]))
    k1 = draw(st.sampled_from([k for k in (1, 2, 3) if n1 % k == 0]))
    match = draw(st.sampled_from(orthogonal_pairs(n1, k1)))
    a1 = match.a.translate(draw(st.integers(0, n1 - 1)))
    j1 = match.j.translate(draw(st.integers(0, n1 - 1)))
    first = combine_orthogonal(UNIT, a1, j1)
    assert first.ok
    # translates by multiples of N_1 keep [0,1) + A_1 inside [0, N_1) disjoint
    # and satisfy the root-of-unity condition on Z + J_1/N_1
    q = draw(st.integers(2, 6))
    k2 = draw(st.integers(1, min(3, q)))
    multiples = draw(st.lists(st.integers(0, q - 1), min_size=k2, max_size=k2, unique=True))
    n2 = n1 * q
    a2 = FiniteSet.from_ints(n2, [n1 * c for c in multiples])
    j2 = FiniteSet.from_ints(
        n2, draw(st.lists(st.integers(0, n2 - 1), min_size=k2, max_size=k2, unique=True))
    )
    second = combine_riesz(first.pair, a2, j2)
    assume(second.ok)
    return j1, j2, second.pair.spectrum


@settings(max_examples=200, deadline=None)
@given(twice_combined(), st.integers(1, 4))
def test_combining_twice_tags_every_point(data, radius):
    j1, j2, spectrum = data
    points = enumerate_spectrum(spectrum, radius)
    tags = _window_rows(spectrum, radius)[2] % len(j2)
    assert len(tags) == len(points)
    for (x,), s in zip(points, tags):
        assert reference_in_first_spectrum(x - Fraction(j2.points[s][0], j2.modulus), j1)
