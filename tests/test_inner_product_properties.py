"""Differential tests: the array inner-product kernel against the scalar closed form.

``build_gram``, ``estimate_frame_bounds``, ``verify_biorthogonality`` and
``exp_inner_product`` evaluate <e_lam, e_mu> over a box union through one
array kernel.  The references in ``reference`` are the per-entry scalar path it
replaced: the closed form per axis and box, multiplied into
``complex(1.0)`` and summed box by box, one entry at a time.  The kernel
must reproduce those floats bit for bit, not just to a tolerance.

``reconstruct_function`` sums its expansion through one matrix product
(BLAS), so it meets the per-point ``Fraction`` expansion of
``reference_reconstruction`` within a bound set by the term count and the
phases.  The library reads each term's J-index off ``shift_spectrum``'s
layout, the reference finds it by exact lattice reduction (``shift_tags``).
"""

import itertools
import math
from fractions import Fraction

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference import (fraction_window_bounds, reference_biorthogonality, reference_bounds,
                       reference_gram, reference_inner_product, reference_reconstruction)
from strategies import RATIONALS, WIDE_RADII, bits, diagonal_spectra, slab_domains

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    DualBasis,
    DuplicateSpectrumError,
    FiniteSet,
    NonInvertibleError,
    PairKind,
    Spectrum,
    build_gram,
    combine_orthogonal,
    enumerate_spectrum,
    estimate_frame_bounds,
    exp_inner_product,
    integer_lattice,
    reconstruct_function,
    shift_spectrum,
    verify_biorthogonality,
)


@st.composite
def domain_and_spectrum(draw):
    d = draw(st.sampled_from([1, 2]))
    radius = draw(st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2), 2, 3] if d == 1
                                  else [Fraction(1, 2), 1, Fraction(3, 2)]))
    return draw(slab_domains(d)), draw(diagonal_spectra(d)), radius


@settings(max_examples=150, deadline=None)
@given(domain_and_spectrum())
def test_gram_entries_are_bit_identical(case):
    dom, spec, radius = case
    assume(0 < len(enumerate_spectrum(spec, radius)) <= 60)
    got = build_gram(dom, spec, radius).entries
    assert got.tobytes() == reference_gram(dom, spec, radius).tobytes()


@settings(max_examples=80, deadline=None)
@given(domain_and_spectrum(), st.sampled_from([Fraction(1, 2), 1]))
def test_nested_bounds_equal_per_radius_grams(case, first):
    dom, spec, radius = case
    radii = sorted({first, Fraction(radius)})
    assume(enumerate_spectrum(spec, radii[0]) and len(enumerate_spectrum(spec, radii[-1])) <= 40)
    assert estimate_frame_bounds(dom, spec, radii) == reference_bounds(dom, spec, radii)


@settings(max_examples=100, deadline=None)
@given(domain_and_spectrum(), st.lists(WIDE_RADII, min_size=1, max_size=3), st.data())
def test_window_selection_equals_fraction_sup_norms(case, radii, data):
    """Bit for bit, with one radius at a point's sup norm: windows are closed."""
    dom, spec, _ = case
    points = enumerate_spectrum(spec, max(radii))
    assume(0 < len(points) <= 40)
    radii = sorted({*radii, max(map(abs, data.draw(st.sampled_from(points))))})
    assume(enumerate_spectrum(spec, radii[0]))
    got = estimate_frame_bounds(dom, spec, radii)
    assert [(lo.hex(), hi.hex()) for lo, hi in got] == [
        (lo.hex(), hi.hex()) for lo, hi in fraction_window_bounds(dom, spec, radii)
    ]


@settings(max_examples=80, deadline=None)
@given(domain_and_spectrum(), st.sampled_from([Fraction(1, 4), Fraction(1, 2), 1]))
def test_gram_is_the_principal_submatrix_of_a_larger_window(case, smaller):
    """build_gram at r < R: the rows and columns of the points within r, bit for bit."""
    dom, spec, radius = case
    assume(smaller < radius and enumerate_spectrum(spec, smaller))
    assume(len(enumerate_spectrum(spec, radius)) <= 60)
    small, large = build_gram(dom, spec, smaller), build_gram(dom, spec, radius)
    keep = [i for i, p in enumerate(large.points) if max(map(abs, p)) <= smaller]
    assert small.points == tuple(large.points[i] for i in keep)
    assert small.entries.tobytes() == large.entries[np.ix_(keep, keep)].tobytes()


@st.composite
def orthogonal_combinations(draw):
    """[t, t + 1)^d with Z^d, combined with A = m {0..k-1} and J = {s + k c_s : s < k} in
    Z_{km} (in 2-d the product of two such sets): an orthogonal pair on a union of #A boxes."""
    d = draw(st.sampled_from([1, 2]))
    k, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    axes = [(draw(st.integers(0, k * m - 1)), [draw(st.integers(0, m - 1)) for _ in range(k)])
            for _ in range(d)]
    a = [[(t + m * i) % (k * m) for i in range(k)] for t, _ in axes]
    j = [[s + k * c for s, c in enumerate(cs)] for _, cs in axes]
    a, j = (FiniteSet(k * m, d, tuple(itertools.product(*sets))) for sets in (a, j))
    t = draw(RATIONALS)
    base = ContinuousPair.orthogonal(BoxDomain(d, (((t,) * d, (t + 1,) * d),)),
                                     integer_lattice(d))
    return base, a, j


@settings(max_examples=60, deadline=None)
@given(orthogonal_combinations(), st.sampled_from([Fraction(1, 2), 1, Fraction(3, 2)]))
def test_orthogonal_combination_gram_is_measure_times_identity(case, radius):
    base, a, j = case
    result = combine_orthogonal(base, a, j)
    assert result.ok and result.kind is PairKind.ORTHOGONAL_BASIS
    gram = build_gram(result.pair.domain, result.pair.spectrum, radius)
    measure = float(result.pair.domain.measure)
    assert measure == len(a)
    assert np.abs(gram.entries - measure * np.eye(len(gram))).max() < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.integers(2**50, 2**54), st.data())
def test_wide_differences_keep_correctly_rounded_quotients(q, data):
    """Frequencies over one denominator q near 2**53 and corners of at most 8: the
    differences, past 2**53, stay int64, and their float quotients still round correctly."""
    cuts = sorted(data.draw(st.sets(st.builds(Fraction, st.integers(-8, 8), st.integers(1, 8)),
                                    min_size=2, max_size=6)))
    dom = BoxDomain(1, tuple(zip(cuts[::2], cuts[1::2])))
    lam, mu = (Fraction(data.draw(st.integers(-2 * q, 2 * q)), q) for _ in range(2))
    got = exp_inner_product(dom, lam, mu)
    assert bits(got) == bits(reference_inner_product(dom, (lam,), (mu,)))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_exp_inner_product_is_bit_identical(data):
    d = data.draw(st.sampled_from([1, 2]))
    dom = data.draw(slab_domains(d))
    lam, mu = (data.draw(st.tuples(*[RATIONALS] * d)) for _ in range(2))
    got = exp_inner_product(dom, lam, mu)
    assert type(got) is complex
    assert bits(got) == bits(reference_inner_product(dom, lam, mu))


@st.composite
def biorthogonal_cases(draw):
    d = draw(st.sampled_from([1, 2]))
    n = draw(st.integers(2, 6))
    k = draw(st.integers(1, min(3, n ** d)))
    elements = st.tuples(*[st.integers(0, n - 1)] * d)
    a = FiniteSet(n, d, tuple(draw(st.lists(elements, min_size=k, max_size=k, unique=True))))
    j = FiniteSet(n, d, tuple(draw(st.lists(elements, min_size=k, max_size=k, unique=True))))
    try:
        DualBasis.build(BoxDomain.interval(0, 1), a, j)
        spec = draw(diagonal_spectra(d))
        shift_spectrum(spec, j, n)
    except (NonInvertibleError, DuplicateSpectrumError):
        assume(False)
    radius = draw(st.sampled_from([1, 2] if d == 1 else [Fraction(1, 2), 1]))
    combined = shift_spectrum(spec, j, n)
    assume(0 < len(enumerate_spectrum(combined, radius)) <= 40)
    return draw(slab_domains(d)), spec, a, j, radius


@settings(max_examples=100, deadline=None)
@given(biorthogonal_cases())
def test_biorthogonality_defect_equals_triple_loop(case):
    dom1, spec, a, j, radius = case
    got = verify_biorthogonality(dom1, spec, a, j, radius)
    assert type(got) is float
    assert got == reference_biorthogonality(dom1, spec, a, j, radius)


@st.composite
def reconstruction_cases(draw):
    """A base pair, an invertible (A, J) and a radius: a slab domain with a lattice of 1-3
    shifts in 1-d or 2-d, or an iterated construction, whose base is an orthogonal
    combination (its spectrum Z^d + J_1/N_1).  Then coefficients, and grid points k/16 in and
    around the translates, so that each lies exactly where its float does."""
    if draw(st.booleans()):
        dom1, spec, a, j, radius = draw(biorthogonal_cases())
    else:
        base, a1, j1 = draw(orthogonal_combinations())
        first = combine_orthogonal(base, a1, j1).pair
        dom1, spec, d = first.domain, first.spectrum, first.domain.dimension
        n = draw(st.integers(2, 6))
        elements = st.tuples(*[st.integers(0, n - 1)] * d)
        a, j = (FiniteSet(n, d, tuple(draw(st.lists(elements, min_size=2, max_size=2,
                                                    unique=True)))) for _ in range(2))
        radius = draw(st.sampled_from([Fraction(1, 2), 1]))
        try:
            DualBasis.build(dom1, a, j)
            combined = shift_spectrum(spec, j, n)
        except (NonInvertibleError, DuplicateSpectrumError):
            assume(False)
        assume(0 < len(enumerate_spectrum(combined, radius)) <= 40)
    size = len(enumerate_spectrum(shift_spectrum(spec, j, j.modulus), radius))
    part = st.floats(-4, 4, allow_nan=False, allow_infinity=False)
    coefficients = draw(st.lists(st.builds(complex, part, part), min_size=size, max_size=size))
    corners = [c for lo, hi in dom1.boxes for c in (*lo, *hi)]
    reach = st.integers(16 * math.floor(min(corners)) - 16,
                        16 * (math.ceil(max(corners)) + a.modulus)).map(lambda k: Fraction(k, 16))
    grid = draw(st.lists(st.tuples(*[reach] * dom1.dimension), min_size=1, max_size=8))
    return spec, DualBasis.build(dom1, a, j), coefficients, grid, radius


@settings(max_examples=100, deadline=None)
@given(reconstruction_cases())
def test_reconstruction_agrees_with_per_point_expansion(case):
    spec, dual, coefficients, grid, radius = case
    floats = np.array([[float(c) for c in x] for x in grid])
    got = reconstruct_function(spec, dual, coefficients, floats, radius)
    want = reference_reconstruction(spec, dual, coefficients, grid, radius)
    # each term's phase 2 pi mu . x is off by a few ulps of its size, and the sum adds n ulps
    phase = 2 * np.pi * dual.a.dimension * float(radius) * np.abs(floats).max()
    terms = np.abs(coefficients).sum() * np.abs(dual.piece_coefficients).max()
    bound = 4 * np.finfo(float).eps * (len(coefficients) + phase + 4) * terms
    assert np.abs(got - want).max() <= bound / float(dual.base_domain.measure * len(dual.a))


def test_numerators_past_2_62_take_python_ints():
    # shifts over 2**31 and 3**20: over their common denominator the points
    # of sup-norm 1 have numerators in [2**62, 2**63), whose differences
    # int64 cannot hold
    den = 2**31 * 3**20
    assert 2**62 <= den < 2**63
    spec = Spectrum(1, ((1,),), ((0,), (Fraction(1, 2**31),), (Fraction(1, 3**20),)))
    dom = BoxDomain(1, ((0, Fraction(1, 2)), (1, Fraction(5, 3))))
    assert max(abs(p[0]) for p in enumerate_spectrum(spec, 1)) == 1
    assert build_gram(dom, spec, 1).entries.tobytes() == reference_gram(dom, spec, 1).tobytes()
    radii = [Fraction(1, 2), 1]
    assert estimate_frame_bounds(dom, spec, radii) == reference_bounds(dom, spec, radii)
    a, j = FiniteSet.from_ints(5, [0, 2]), FiniteSet.from_ints(5, [0, 1])
    defect = verify_biorthogonality(dom, spec, a, j, 1)
    assert defect == reference_biorthogonality(dom, spec, a, j, 1)
