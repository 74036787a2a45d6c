"""Differential tests: integer geometry in ``domains`` against the Fraction path.

``Spectrum`` reduction, ``enumerate_spectrum`` and the shift of each of its
points, and ``root_of_unity_condition`` decide on integer numerators over
one denominator; the J-index of a point of ``shift_spectrum(base, J, N)`` is
its shift's index mod #J, as ``shift_spectrum`` lays the shifts out.  The
references in ``reference`` are the Fraction functions they replaced.
Results, their order and the text of every error must be the same.  The
builders ``minkowski_translate``, ``BoxDomain.translate``, ``shift_spectrum``
and ``cartesian_product`` skip the constructors' coercion; what they build
must equal a rebuild through the public constructors from Fractions.  Each
check also has one pinned case with integers past 2**62, which takes the
Python-int path of ``_exact.int_array``.
"""

from fractions import Fraction

import pytest
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import fraction_minkowski, fraction_product, fraction_shift
from strategies import (BIG, RADII, SMALL_RATIONALS, box_domains, pinned_past_2_62, sheared_bases,
                        sheared_spectra, small_sets)

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    DuplicateSpectrumError,
    FiniteSet,
    NonInvertibleError,
    OverlapError,
    SamplePattern,
    Spectrum,
    cartesian_product,
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    root_of_unity_condition,
    shift_spectrum,
    verify_biorthogonality,
)
from spectralpairs.domains import _numerators, _window_rows


def outcome(fn, *args):
    """The value of fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (DuplicateSpectrumError, NonInvertibleError) as exc:
        return type(exc), str(exc)


@settings(max_examples=100, deadline=None)
@given(sheared_spectra(), RADII)
def test_enumerate_spectrum_agrees_with_fraction_path(s, radius):
    got = enumerate_spectrum(s, radius)
    assert got == ref.enumerate_spectrum(s, radius)
    assert all(type(c) is Fraction for p in got for c in p)
    shift = _window_rows(s, radius)[2]
    assert [s.shifts[i] for i in shift.tolist()] == ref.window_shifts(s, radius)


@st.composite
def reduction_cases(draw):
    """Generators (sometimes singular) and shifts, some equal modulo the lattice."""
    d = draw(st.integers(1, 3))
    basis = draw(sheared_bases(d))
    if draw(st.integers(0, 3)) == 0:
        basis = basis[:-1] + (tuple(2 * c for c in basis[0]),) if d > 1 else ((Fraction(0),),)
    shifts = draw(st.lists(st.tuples(*[SMALL_RATIONALS] * d), min_size=1, max_size=4))
    for _ in range(draw(st.integers(0, 3)) // 2):  # a shift plus a lattice vector
        z = draw(st.lists(st.integers(-2, 2), min_size=d, max_size=d))
        v = draw(st.sampled_from(shifts))
        shifts.append(ref.vec_add(v, ref.lattice_point(basis, z)))
    return d, basis, tuple(draw(st.permutations(shifts)))


@settings(max_examples=200, deadline=None)
@given(reduction_cases())
def test_spectrum_reduction_agrees_with_fraction_path(case):
    d, basis, shifts = case
    got = outcome(lambda: Spectrum(d, basis, shifts).shifts)
    assert got == outcome(ref.reduced_shifts, basis, shifts)


@st.composite
def spectrum_and_set(draw, min_size=0):
    """A spectrum and a set of multiples of step in Z_N, N = step q."""
    s = draw(sheared_spectra())
    step, q = draw(st.sampled_from([1, 2, 3, 6])), draw(st.integers(1, 4))
    points = draw(st.lists(st.tuples(*[st.integers(0, q - 1)] * s.dimension),
                           min_size=min_size, max_size=4, unique=True))
    return s, FiniteSet(step * q, s.dimension, tuple(tuple(step * c for c in p) for p in points))


@settings(max_examples=200, deadline=None)
@given(spectrum_and_set())
def test_root_of_unity_agrees_with_fraction_path(case):
    s, a = case
    assert root_of_unity_condition(s, a) == ref.root_of_unity_condition(s, a)


@settings(max_examples=100, deadline=None)
@given(spectrum_and_set(min_size=1), RADII)
def test_shift_tags_agree_with_fraction_path(case, radius):
    base, j = case
    try:
        spec = shift_spectrum(base, j, j.modulus)
    except DuplicateSpectrumError:
        return
    points = enumerate_spectrum(spec, radius)
    tags = _window_rows(spec, radius)[2] % len(j)
    assert tags.tolist() == ref.shift_tags(spec, j, points)


def test_numerators_past_2_62_take_python_ints():
    g = Fraction(BIG, 2**63)
    basis = ((g, Fraction(1, 3)), (Fraction(1, 5), Fraction(BIG, 2**64)))
    shifts = ((Fraction(1, 3), Fraction(-2, 7)), (Fraction(BIG, 11), Fraction(1, 2)))
    assert _numerators([*basis, *shifts], 2)[0].dtype == object
    s = Spectrum(2, basis, shifts)
    assert s.shifts == ref.reduced_shifts(basis, shifts)
    for radius in (0, 1, Fraction(7, 2)):
        assert enumerate_spectrum(s, radius) == ref.enumerate_spectrum(s, radius)
    assert len(enumerate_spectrum(s, Fraction(7, 2))) > 4
    # a shift plus a lattice vector, and a singular basis, raise with the same text
    dup = shifts + (ref.vec_add(shifts[0], ref.lattice_point(basis, (2, -1))),)
    assert outcome(lambda: Spectrum(2, basis, dup)) == outcome(ref.reduced_shifts, basis, dup)
    singular = (basis[0], tuple(3 * c for c in basis[0]))
    assert outcome(lambda: Spectrum(2, singular, shifts)) == (
        NonInvertibleError, "lattice generators are linearly dependent")
    # generators with numerators past 2**62 over the denominator 3
    tall = Spectrum(2, ((Fraction(1, 3), Fraction(0)), (Fraction(0), Fraction(2**64, 3))))
    for points in ([(3, 0), (0, 6)], [(3, 0), (1, 3)], []):
        a = FiniteSet(12, 2, tuple(points))
        assert root_of_unity_condition(tall, a) == ref.root_of_unity_condition(tall, a)
    assert root_of_unity_condition(tall, FiniteSet(12, 2, ((3, 0), (0, 3))))
    assert not root_of_unity_condition(tall, FiniteSet(12, 2, ((1, 0),)))
    tiny = Spectrum(1, ((Fraction(3, 2**64 + 1),),))  # small numerators, denominator past 2**63
    for points in ([(0,)], [(0,), (2,)]):
        a = FiniteSet(4, 1, tuple(points))
        assert root_of_unity_condition(tiny, a) == ref.root_of_unity_condition(tiny, a)
    j = FiniteSet(4, 2, ((0, 0), (1, 2), (3, 1)))
    spec = shift_spectrum(Spectrum(2, basis, shifts[:1]), j, 4)
    points = enumerate_spectrum(spec, 3)
    tags = _window_rows(spec, 3)[2] % len(j)
    assert tags.tolist() == ref.shift_tags(spec, j, points)
    # boxes and sample points over a denominator past 2**62
    base = BoxDomain.interval(Fraction(1, BIG), 1 + Fraction(1, BIG))  # A holds 0
    pair = FiniteSet.from_ints(2, [0, 1])
    assert verify_biorthogonality(base, integer_lattice(1), pair, pair, 3) < 1e-10
    pattern = SamplePattern((Fraction(2, 3), Fraction(0), Fraction(1, BIG)), 2)
    assert pattern.points() == sorted(Fraction(n) + s for s in pattern.shifts for n in range(-2, 3))


def test_overlap_past_2_62_names_the_first_pair():
    eps = Fraction(1, BIG)
    boxes = (((0,), (1,)), ((1,), (2,)), ((2 - eps,), (3,)), ((1 - eps,), (1,)))
    with pytest.raises(OverlapError) as err:
        BoxDomain(1, boxes)
    assert str(err.value) == "boxes 0 and 3 intersect with positive measure"
    assert err.value.offending == (((0,), (1,)), ((1 - eps,), (1,)))
    assert BoxDomain(1, boxes[:2] + (((2,), (2 + eps,)),)).measure == 2 + eps


def built(make):
    """What make() builds, as the object and its JSON, or the type, text and
    offending pair of its error; the carried integer form must be the one the
    constructor derives from the object's own Fractions."""
    try:
        x = make()
    except (OverlapError, DuplicateSpectrumError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "offending", None)
    if isinstance(x, BoxDomain):
        carried, rows = (x._corners, x._den), [c for box in x.boxes for c in box]
    else:
        carried, rows = (x._nums, x._den), [*x.basis, *x.shifts]
    nums, den = _numerators(rows, x.dimension)
    assert (carried[0].tolist(), carried[1]) == (nums.tolist(), den)
    assert all(type(c) is Fraction for row in rows for c in row)
    return x, x.to_json_dict()


def check_builders(dom, spec, sets, v):
    """translate, then A1, A2 and J1, J2 applied in turn, against the constructor rebuilds;
    the zero vector and the set {0} too, which leave the denominator as it is."""
    assert built(lambda: dom.translate(v)) == built(lambda: BoxDomain(
        dom.dimension, tuple((ref.vec_add(lo, v), ref.vec_add(hi, v)) for lo, hi in dom.boxes)))
    zero = (Fraction(0),) * dom.dimension
    origin = FiniteSet(1, dom.dimension, ((0,) * dom.dimension,))
    assert built(lambda: dom.translate(zero)) == built(lambda: BoxDomain(dom.dimension, dom.boxes))
    assert built(lambda: shift_spectrum(spec, origin, 1)) == built(
        lambda: fraction_shift(spec, origin))
    for a in sets[:2]:
        got = built(lambda: minkowski_translate(dom, a))
        assert got == built(lambda: fraction_minkowski(dom, a))
        if not isinstance(got[0], BoxDomain):
            break
        dom = got[0]
    for j in sets[2:]:
        got = built(lambda: shift_spectrum(spec, j, j.modulus))
        assert got == built(lambda: fraction_shift(spec, j))
        if not isinstance(got[0], Spectrum):
            break
        spec = got[0]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    box_domains(d), sheared_spectra(d), st.lists(small_sets(d), min_size=4, max_size=4),
    st.tuples(*[SMALL_RATIONALS] * d))))
@example(pinned_past_2_62())
@example((BoxDomain(1, ((("1/2",), ("3/2",)),)), Spectrum(1, (("1/2",),), (("1/4",),)),
          [FiniteSet.from_ints(4, [0, 1]), FiniteSet.from_ints(4, [0, 2]),
           FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(2, [0, 1])], (Fraction(1, 2),)))
def test_builders_match_the_fraction_constructors(case):
    check_builders(*case)


def _pinned_product_past_2_62():
    dom, spec, _, _ = pinned_past_2_62()
    other = BoxDomain(1, (((Fraction(-1, BIG),), (0,)), ((1,), (Fraction(BIG, 3),))))
    return dom, spec, other, Spectrum(1, ((Fraction(2, BIG),),), ((0,), (Fraction(1, BIG),)))


@settings(max_examples=100, deadline=None)
@given(st.tuples(st.integers(1, 2), st.integers(1, 2)).flatmap(
    lambda ds: st.tuples(box_domains(ds[0]), sheared_spectra(ds[0]),
                         box_domains(ds[1]), sheared_spectra(ds[1]))))
@example(_pinned_product_past_2_62())
def test_cartesian_product_matches_the_fraction_constructors(case):
    dom1, spec1, dom2, spec2 = case
    p1, p2 = ContinuousPair.orthogonal(dom1, spec1), ContinuousPair.orthogonal(dom2, spec2)
    product, (domain, spectrum) = cartesian_product(p1, p2), fraction_product(p1, p2)
    assert built(lambda: product.domain) == built(lambda: domain)
    assert built(lambda: product.spectrum) == built(lambda: spectrum)
    assert (product.domain.boxes, product.spectrum.basis, product.spectrum.shifts) == (
        domain.boxes, spectrum.basis, spectrum.shifts)
