import ast
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
import reference as ref

from spectralpairs import (
    BoxDomain,
    DimensionMismatchError,
    DuplicateSpectrumError,
    FiniteSet,
    NonInvertibleError,
    OverlapError,
    Spectrum,
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    root_of_unity_condition,
    scaled_lattice,
    shift_spectrum,
    unit_box,
)


class TestBoxDomain:
    def test_measure(self):
        dom = BoxDomain(1, ((0, 1), (2, 3)))
        assert dom.measure == 2

    def test_rational_corners(self):
        dom = BoxDomain(1, (("1/3", "2/3"),))
        assert dom.measure == Fraction(1, 3)

    def test_no_boxes_rejected(self):
        with pytest.raises(ValueError, match="a domain needs at least one box"):
            BoxDomain(1, ())

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            BoxDomain(1, ((1, 1),))

    def test_overlapping_boxes_rejected(self):
        with pytest.raises(OverlapError):
            BoxDomain(1, ((0, 2), (1, 3)))

    def test_touching_boxes_allowed(self):
        dom = BoxDomain(1, ((0, 1), (1, 2)))
        assert dom.measure == 2

    def test_json_roundtrip_bytestable(self):
        import json

        dom = BoxDomain(1, (("0", "1/3"), ("1/2", "5/2")))
        blob = json.dumps(dom.to_json_dict())
        again = BoxDomain.from_json_dict(json.loads(blob))
        assert again == dom
        assert json.dumps(again.to_json_dict()) == blob

    def test_two_dimensional(self):
        dom = BoxDomain(2, (((0, 0), (1, 1)), ((2, 0), (3, 1))))
        assert dom.dimension == 2
        assert dom.measure == 2


class TestMinkowskiTranslate:
    def test_two_interval_example(self):
        dom = minkowski_translate(BoxDomain.interval(0, 1), FiniteSet.from_ints(4, [0, 2]))
        assert dom.boxes == (
            ((Fraction(0),), (Fraction(1),)),
            ((Fraction(2),), (Fraction(3),)),
        )
        assert dom.measure == 2

    def test_identity_translate(self):
        base = BoxDomain(1, ((0, 1), (2, 3)))
        assert minkowski_translate(base, FiniteSet.from_ints(7, [0])) == base

    def test_two_dimensional_translates(self):
        square = BoxDomain(2, (((0, 0), (1, 1)),))
        a = FiniteSet(4, 2, ((0, 0), (2, 0)))
        dom = minkowski_translate(square, a)
        assert len(dom.boxes) == 2
        assert dom.measure == 2

    def test_measure_scales_with_cardinality(self):
        base = BoxDomain(1, (("0", "1/2"), ("3/4", "1")))
        a = FiniteSet.from_ints(9, [0, 2, 5])
        assert minkowski_translate(base, a).measure == 3 * base.measure

    def test_overlap_names_offenders(self):
        base = BoxDomain.interval(0, 2)
        with pytest.raises(OverlapError) as err:
            minkowski_translate(base, FiniteSet.from_ints(6, [0, 1]))
        assert err.value.offending == ((0,), (1,))

    def test_touching_translates_allowed(self):
        dom = minkowski_translate(BoxDomain.interval(0, 1), FiniteSet.from_ints(4, [0, 1]))
        assert dom.measure == 2

    def test_empty_a_is_rejected_by_name(self):
        with pytest.raises(ValueError, match="A is empty"):
            minkowski_translate(unit_box(1), FiniteSet(4, 1, ()))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            minkowski_translate(unit_box(2), FiniteSet.from_ints(4, [0, 1]))


class TestSpectrum:
    def test_singular_basis_rejected(self):
        with pytest.raises(NonInvertibleError):
            Spectrum(2, (("1", "2"), ("2", "4")))

    def test_shifts_reduced_and_distinct(self):
        s = Spectrum(1, (("1",),), (("5/4",), ("1/2",)))
        assert s.shifts == ((Fraction(1, 4),), (Fraction(1, 2),))
        with pytest.raises(DuplicateSpectrumError):
            Spectrum(1, (("1",),), (("1/4",), ("5/4",)))

    def test_json_roundtrip_bytestable(self):
        import json

        s = Spectrum(2, (("1/2", "0"), ("1/3", "1")), (("0", "0"), ("1/4", "1/6")))
        blob = json.dumps(s.to_json_dict())
        again = Spectrum.from_json_dict(json.loads(blob))
        assert again == s
        assert json.dumps(again.to_json_dict()) == blob


class TestShiftSpectrum:
    def test_quarter_shifts(self):
        s = shift_spectrum(integer_lattice(1), FiniteSet.from_ints(4, [0, 1]), 4)
        assert s.shifts == ((Fraction(0),), (Fraction(1, 4),))

    def test_trivial_shift(self):
        base = integer_lattice(1)
        assert shift_spectrum(base, FiniteSet.from_ints(4, [0]), 4) == base

    def test_two_dimensional(self):
        j = FiniteSet(4, 2, ((0, 0), (1, 0)))
        s = shift_spectrum(integer_lattice(2), j, 4)
        assert s.shifts == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(0)),
        )

    def test_collision_mod_lattice(self):
        # 2/4 lies inside the lattice (1/2)Z: both shifts reduce to 0
        with pytest.raises(DuplicateSpectrumError):
            shift_spectrum(scaled_lattice(1, "1/2"), FiniteSet.from_ints(4, [0, 2]), 4)

    def test_modulus_must_match(self):
        with pytest.raises(ValueError):
            shift_spectrum(integer_lattice(1), FiniteSet.from_ints(4, [0, 1]), 5)

    def test_empty_j_is_rejected_not_the_zero_shift(self):
        with pytest.raises(ValueError, match="J is empty"):
            shift_spectrum(integer_lattice(1), FiniteSet(4, 1, ()), 4)


class TestEnumerateSpectrum:
    def test_quarter_shift_example(self):
        s = shift_spectrum(integer_lattice(1), FiniteSet.from_ints(4, [0, 1]), 4)
        pts = enumerate_spectrum(s, 1)
        assert pts == [
            (Fraction(-1),),
            (Fraction(-3, 4),),
            (Fraction(0),),
            (Fraction(1, 4),),
            (Fraction(1),),
        ]

    def test_radius_zero(self):
        pts = enumerate_spectrum(integer_lattice(1), 0)
        assert pts == [(Fraction(0),)]

    def test_plain_lattice(self):
        pts = enumerate_spectrum(integer_lattice(1), 2)
        assert pts == [(Fraction(n),) for n in range(-2, 3)]

    def test_sorted_and_unique(self):
        s = Spectrum(1, (("1/2",),), (("0",), ("1/6",)))
        pts = enumerate_spectrum(s, 4)
        assert pts == sorted(set(pts))
        assert len(pts) == 33

    def test_growing_radius_is_monotone(self):
        s = shift_spectrum(integer_lattice(1), FiniteSet.from_ints(4, [0, 1]), 4)
        small = set(enumerate_spectrum(s, 3))
        large = set(enumerate_spectrum(s, 6))
        assert small <= large

    def test_two_dimensional_counts(self):
        pts = enumerate_spectrum(integer_lattice(2), 1)
        assert len(pts) == 9

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            enumerate_spectrum(integer_lattice(1), -1)

    def test_grid_follows_each_shift(self):
        # Z x nZ with the shifts (0, k), k < n, is Z^2; the radius-1 window holds 9 points.
        # A grid bounded by the largest shift would hold 3 (2n + 1) rows for every shift.
        for n in (40, 1000):
            s = Spectrum(2, ((1, 0), (0, n)), [(0, k) for k in range(n)])
            tracemalloc.start()
            try:
                points = enumerate_spectrum(s, 1)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert points == ref.enumerate_spectrum(s if n == 40 else integer_lattice(2), 1)
            assert len(points) == 9
            assert peak < 2_000_000


class TestRootOfUnityCondition:
    def test_integer_lattice_integer_points(self):
        assert root_of_unity_condition(integer_lattice(1), FiniteSet.from_ints(4, [0, 2]))

    def test_half_lattice_odd_translate_fails(self):
        # lambda = 1/2, a = 3: e^{3 pi i} = -1
        assert not root_of_unity_condition(scaled_lattice(1, "1/2"), FiniteSet.from_ints(6, [0, 3]))

    def test_half_lattice_even_translates(self):
        assert root_of_unity_condition(scaled_lattice(1, "1/2"), FiniteSet.from_ints(8, [0, 2, 4]))

    def test_trivial_set(self):
        assert root_of_unity_condition(scaled_lattice(1, "1/3"), FiniteSet.from_ints(6, [0]))

    def test_shift_vectors_participate(self):
        s = Spectrum(1, (("1",),), (("0",), ("1/3",)))
        assert not root_of_unity_condition(s, FiniteSet.from_ints(6, [0, 2]))
        assert root_of_unity_condition(s, FiniteSet.from_ints(6, [0, 3]))


def round_trips(package: Path) -> list[str]:
    """Calls outside a ``__post_init__`` that coerce an object's own ``boxes``, ``basis``
    or ``shifts`` through ``to_vector`` or ``_numerators``.

    Helpers count as coercing when they pass a parameter on to a coercing
    call, and a class does when its ``__post_init__`` coerces.  A value
    reaches a call through the names bound to it (assignments, loop and
    comprehension targets), followed back inside the enclosing function.
    """
    functions = []
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef):
                functions += [(path.name, node.name, f) for f in node.body
                              if isinstance(f, ast.FunctionDef)]
            elif isinstance(node, ast.FunctionDef):
                functions.append((path.name, None, node))

    def reach(fn, call):
        """Every node whose value can flow into the arguments of ``call`` inside ``fn``."""
        bound = {}
        for node in ast.walk(fn):
            pairs = []
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                pairs = [(t, node.value) for t in targets]
            elif isinstance(node, (ast.For, ast.comprehension)):
                pairs = [(node.target, node.iter)]
            while pairs:
                target, value = pairs.pop()
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple) and len(
                    target.elts) == len(value.elts):  # a, b = x, y binds a to x alone
                    pairs += zip(target.elts, value.elts)
                    continue
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        bound.setdefault(name.id, []).append(value)
        seen, todo = [], list(call.args) + [k.value for k in call.keywords]
        while todo:
            node = todo.pop()
            if any(node is s for s in seen):
                continue
            seen.append(node)
            todo += list(ast.iter_child_nodes(node))
            if isinstance(node, ast.Name):
                todo += bound.get(node.id, [])
        return seen

    def callee(call):
        return getattr(call.func, "id", None) or getattr(call.func, "attr", None)

    coercers, grown = {"to_vector", "_numerators"}, True
    while grown:
        grown = False
        for _, cls, fn in functions:
            params = {a.arg for a in fn.args.args + fn.args.kwonlyargs}
            name = cls if fn.name == "__post_init__" else fn.name
            if name in coercers:
                continue
            for call in ast.walk(fn):
                if isinstance(call, ast.Call) and callee(call) in coercers and any(
                    isinstance(n, ast.Name) and n.id in params for n in reach(fn, call)
                ):
                    coercers.add(name)
                    grown = True
                    break
    offenders = []
    for module, _, fn in functions:
        if fn.name == "__post_init__":
            continue
        for call in ast.walk(fn):
            if isinstance(call, ast.Call) and callee(call) in coercers and any(
                isinstance(n, ast.Attribute) and n.attr in ("boxes", "basis", "shifts")
                for n in reach(fn, call)
            ):
                offenders.append("%s:%d %s" % (module, call.lineno, fn.name))
    return offenders


def test_own_fields_are_coerced_only_at_construction():
    # builders and readers, cartesian_product included, use the carried integer form
    package = Path(__file__).resolve().parents[1] / "src" / "spectralpairs"
    assert round_trips(package) == []
