"""The ``Fraction`` views of domains and spectra, built on first read.

Validation keeps only the integer form: numerators over one least common
denominator.  ``boxes``, ``basis`` and ``shifts`` are built from it the first
time they are read and then kept.  The reference is the eager construction
they replaced, which ran at validation: every carried row through the
dict-based ``_fractions`` kept in ``reference``.  Views must equal it, with
the same types, for objects from every builder, Python ints past 2**62
included, and the dataclass protocols must work before and after the first
read.
"""

import copy
import dataclasses
import itertools
import pickle
from fractions import Fraction

import numpy as np
import reference as ref
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_fractions
from strategies import (BIG, RADII, SMALL_RATIONALS, UP_TO_2_62, box_domains, pinned_past_2_62,
                        sheared_spectra, small_sets)

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    DualBasis,
    DuplicateSpectrumError,
    FiniteSet,
    OverlapError,
    Spectrum,
    cartesian_product,
    check_completeness_hypotheses,
    combine_orthogonal,
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    reconstruct_function,
    scaled_lattice,
    shift_spectrum,
    unit_box,
    verify_biorthogonality,
)
from spectralpairs.domains import _fractions, _window_rows

VIEWS = ("boxes", "basis", "shifts")


def eager_views(x):
    """The views as validation built them before they were made on-demand."""
    if isinstance(x, BoxDomain):
        rows = reference_fractions(x._corners.tolist(), x._den)
        return {"boxes": tuple(zip(rows[0::2], rows[1::2]))}
    rows = reference_fractions(x._nums.tolist(), x._den)
    return {"basis": tuple(rows[:x.dimension]), "shifts": tuple(rows[x.dimension:])}


def check_views(x):
    """x holds no view until one is read; then each equals the eager one, type for type,
    and is kept."""
    assert not set(VIEWS) & set(vars(x))
    for name, want in eager_views(x).items():
        got = getattr(x, name)
        assert got == want and vars(x)[name] is got
        assert type(got) is tuple and all(type(row) is tuple for row in got)
        flat = [c for row in got for c in (itertools.chain(*row) if name == "boxes" else row)]
        assert all(type(c) is Fraction for c in flat)


def built(make):
    """make(), or None when the inputs it was drawn from do not build."""
    try:
        return make()
    except (OverlapError, DuplicateSpectrumError, ValueError):  # ValueError: an empty A
        return None


def pinned_pair_past_2_62():
    """The builders' pinned case past 2**62 with its first A and its first J."""
    dom, spec, (a, _, j, _), v = pinned_past_2_62()
    return dom, spec, [a, j], v


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    box_domains(d), sheared_spectra(d), st.lists(small_sets(d), min_size=2, max_size=2),
    st.tuples(*[SMALL_RATIONALS] * d))))
@example(pinned_pair_past_2_62())
def test_views_from_every_builder_equal_the_eager_ones(case):
    dom, spec, (a, j), v = case
    d = dom.dimension
    boxes = [tuple(map(str, c)) for box in dom.boxes for c in box]
    pair = ContinuousPair.orthogonal(dom, spec)
    made = [
        BoxDomain(d, tuple(zip(boxes[0::2], boxes[1::2]))),
        BoxDomain(d, dom.boxes),
        BoxDomain.from_json_dict(dom.to_json_dict()),
        BoxDomain.interval(v[0], v[0] + 1),
        unit_box(d),
        dom.translate(v),
        built(lambda: minkowski_translate(dom, a)),
        Spectrum(d, spec.basis, spec.shifts),
        Spectrum.from_json_dict(spec.to_json_dict()),
        built(lambda: shift_spectrum(spec, j, j.modulus)),
        integer_lattice(d),
        scaled_lattice(d, v[0] or 1),
        *vars(cartesian_product(pair, pair)).values(),
    ]
    for x in made:
        if isinstance(x, (BoxDomain, Spectrum)):
            check_views(x)


def test_builders_leave_the_views_unbuilt():
    """Builders, decisions and JSON read the integer form only: no view is built on what
    they return, nor on the base pair an iterated construction starts from."""
    a, j = FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1])
    a2, j2 = FiniteSet.from_ints(8, [0, 4]), FiniteSet.from_ints(8, [0, 1])
    level1 = combine_orthogonal(ContinuousPair.orthogonal(unit_box(1), integer_lattice(1)),
                                a, j).pair
    base = level1.domain, level1.spectrum
    dom, spec = minkowski_translate(level1.domain, a2), shift_spectrum(level1.spectrum, j2, 8)
    assert check_completeness_hypotheses(level1, a2, j2).applies
    assert verify_biorthogonality(*base, a2, j2, 1) < 1e-10
    points = enumerate_spectrum(spec, 1)
    assert (_window_rows(spec, 1)[2] % len(j2)).tolist() == [0, 1, 0, 1, 0, 1, 0, 1, 0]
    dual = DualBasis.build(level1.domain, a2, j2)
    zeros = np.zeros(len(points))
    assert reconstruct_function(level1.spectrum, dual, zeros, [0.5], 1).shape == (1,)
    for x in (*base, dom, spec):
        assert not set(VIEWS) & set(vars(x))
    assert dom.measure == 4 and len(points) == 9
    assert dom.to_json_dict()["boxes"][3] == {"lo": ["6"], "hi": ["7"]}
    assert spec.to_json_dict()["shifts"] == [["0"], ["1/8"], ["1/4"], ["3/8"]]
    for x in (*base, dom, spec):
        assert not set(VIEWS) & set(vars(x))


def fresh():
    """Equal objects, unread, built through the constructors and through the builders."""
    dom = minkowski_translate(BoxDomain(1, (("1/2", 1), (2, 3))),
                              FiniteSet.from_ints(8, [0, 4]))
    spec = shift_spectrum(scaled_lattice(1, "1/2"), FiniteSet.from_ints(4, [0, 1]), 4)
    twins = (BoxDomain(1, (((Fraction(1, 2),), (1,)), ((2,), (3,)), (("9/2",), (5,)),
                           ((6,), (7,)))),
             Spectrum(1, ((Fraction(1, 2),),), ((0,), ("1/4",))))
    return (dom, spec), twins


def test_dataclass_protocols_before_and_after_the_first_read():
    for read in (False, True):
        for x, twin in zip(*fresh()):
            if read:
                getattr(x, "boxes" if isinstance(x, BoxDomain) else "shifts")
            for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
                assert set(vars(y)) == set(vars(x))
                assert y.to_json_dict() == x.to_json_dict()
                assert y == twin and hash(y) == hash(twin)
        for x, twin in zip(*fresh()):
            assert x == twin and hash(x) == hash(twin) and repr(x) == repr(twin)
        for x, twin in zip(*fresh()):
            assert dataclasses.replace(x) == twin
    dom, spec = fresh()[0]
    assert repr(dom).startswith("BoxDomain(dimension=1, boxes=(((Fraction(1, 2),), (Fraction(1")
    assert repr(spec) == ("Spectrum(dimension=1, basis=((Fraction(1, 2),),), "
                          "shifts=((Fraction(0, 1),), (Fraction(1, 4),)))")
    assert dataclasses.replace(spec, shifts=()) == scaled_lattice(1, "1/2")
    assert Spectrum(1, ((1,),)).shifts == ((Fraction(0),),)


def test_missing_attributes_raise_attribute_error():
    dom, spec = unit_box(1), integer_lattice(1)
    for x, name in ((dom, "basis"), (spec, "boxes"), (dom, "_nums"), (spec, "_corners")):
        assert not hasattr(x, name)
    blank = object.__new__(BoxDomain)  # as pickle and copy see it before the state is set
    assert not hasattr(blank, "boxes") and not hasattr(object.__new__(Spectrum), "shifts")


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 3).flatmap(lambda d: st.tuples(
    st.lists(st.tuples(*[st.one_of(UP_TO_2_62, st.integers(-5, 5))] * d), max_size=8),
    st.just(d))), st.integers(1, 2**64), st.booleans(), st.booleans())
@example(([(BIG, -BIG), (0, BIG)], 2), 2**63, False, True)
@example(([], 1), 3, True, False)
def test_fractions_match_the_dict_reference(case, den, text, huge):
    rows, d = case
    if huge:  # Python ints past 2**62 in an object array take the same path
        rows = [tuple(c * 2**8 + 1 for c in row) for row in rows]
    nums = np.array(rows, dtype=object if huge else np.int64).reshape(-1, d)
    got = _fractions(nums, den, text)
    want = reference_fractions(rows, den, text)
    assert got == want
    assert all(type(c) is (str if text else Fraction) for row in got for c in row)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 2).flatmap(lambda d: st.tuples(
    sheared_spectra(d), st.lists(small_sets(d), max_size=2))), RADII)
def test_enumeration_is_sorted_and_repeats_no_point(case, radius):
    """Iterated spectra (shifts of shifts): the points of the Fraction path, sorted, none
    repeated, every coordinate a Fraction."""
    s, sets = case
    for j in (j for j in sets if len(j)):
        try:
            s = shift_spectrum(s, j, j.modulus)
        except DuplicateSpectrumError:
            pass
    got = enumerate_spectrum(s, radius)
    assert got == sorted(set(got)) == ref.enumerate_spectrum(s, radius)
    assert all(type(c) is Fraction for p in got for c in p)
    shift = _window_rows(s, radius)[2]
    assert [s.shifts[i] for i in shift.tolist()] == ref.window_shifts(s, radius)
