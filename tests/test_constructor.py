import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import indexed_sets

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    FiniteSet,
    OverlapError,
    PairKind,
    UnsupportedPairError,
    build_gram,
    cartesian_product,
    check_completeness_hypotheses,
    classify_finite_pair,
    combine_frame,
    combine_orthogonal,
    combine_riesz,
    enumerate_spectrum,
    exp_inner_product,
    integer_lattice,
    minkowski_translate,
    scaled_lattice,
    shift_spectrum,
    unit_box,
)


def counterexample_base():
    """[0,2) with the half-integer lattice: orthogonal, constants 2."""
    return ContinuousPair.orthogonal(BoxDomain.interval(0, 2), scaled_lattice(1, "1/2"))


class TestCombineFrame:
    def test_two_interval_example(self, unit_base, two_interval_sets):
        a, j = two_interval_sets
        result = combine_frame(unit_base, a, j)
        assert result.ok
        assert result.predicted_lower == pytest.approx(2, abs=1e-10)
        assert result.predicted_upper == pytest.approx(2, abs=1e-10)
        assert result.pair.domain.measure == 2
        assert result.pair.spectrum.shifts == ((Fraction(0),), (Fraction(1, 4),))

    def test_trivial_sets_keep_base(self, unit_base):
        one = FiniteSet.from_ints(4, [0])
        result = combine_frame(unit_base, one, one)
        assert result.ok
        assert result.pair.domain == unit_base.domain
        assert result.predicted_lower == pytest.approx(unit_base.lower)
        assert result.predicted_upper == pytest.approx(unit_base.upper)

    def test_root_of_unity_failure_still_builds_pair(self):
        result = combine_frame(
            counterexample_base(), FiniteSet.from_ints(6, [0, 3]), FiniteSet.from_ints(6, [0, 1])
        )
        assert not result.ok
        assert [c.name for c in result.failed_checks()] == ["root-of-unity"]
        assert result.kind == PairKind.NONE
        assert result.pair is not None  # diagnostic pair for the analytics module
        assert result.pair.domain.measure == 4

    def test_overlap_failure_has_no_pair(self, unit_base):
        wide = ContinuousPair.orthogonal(BoxDomain.interval(0, 2), scaled_lattice(1, "1/2"))
        result = combine_frame(wide, FiniteSet.from_ints(6, [0, 1]), FiniteSet.from_ints(6, [0, 1]))
        assert not result.ok
        assert any(c.name == "disjoint-translates" for c in result.failed_checks())
        assert result.pair is None

    def test_rectangular_frame_allowed(self, unit_base):
        a = FiniteSet.from_ints(4, [0])
        j = FiniteSet.from_ints(4, [0, 1])
        result = combine_frame(unit_base, a, j)
        assert result.ok
        assert result.predicted_lower == pytest.approx(2)
        assert result.predicted_upper == pytest.approx(2)


class TestCombineRieszAndOrthogonal:
    def test_planar_example(self):
        base = ContinuousPair.orthogonal(unit_box(2), integer_lattice(2))
        a = FiniteSet(4, 2, ((0, 0), (2, 0)))
        j = FiniteSet(4, 2, ((0, 0), (1, 0)))
        result = combine_riesz(base, a, j)
        assert result.ok
        assert result.kind == PairKind.RIESZ_BASIS
        assert result.pair.spectrum.shifts == (
            (Fraction(0), Fraction(0)),
            (Fraction(1, 4), Fraction(0)),
        )

    def test_golden_pair_riesz_but_not_orthogonal(self, unit_base, golden_sets):
        a, j = golden_sets
        riesz = combine_riesz(unit_base, a, j)
        assert riesz.ok
        gap = 2 * math.cos(2 * math.pi / 5)
        assert riesz.predicted_lower == pytest.approx(2 - gap, abs=1e-12)
        assert riesz.predicted_upper == pytest.approx(2 + gap, abs=1e-12)
        orth = combine_orthogonal(unit_base, a, j)
        assert not orth.ok
        assert [c.name for c in orth.failed_checks()] == ["finite-kind"]

    def test_singular_matrix_fails(self, unit_base):
        result = combine_riesz(
            unit_base, FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 2])
        )
        assert not result.ok
        assert any(c.name == "finite-kind" for c in result.failed_checks())

    def test_unitary_example_orthogonal(self, unit_base, two_interval_sets):
        a, j = two_interval_sets
        result = combine_orthogonal(unit_base, a, j)
        assert result.ok
        assert result.kind == PairKind.ORTHOGONAL_BASIS

    def test_swapped_sets_give_symmetric_pair(self, unit_base, two_interval_sets):
        # swapping (A, J) tiles [0,2) with spectrum (1/2)Z
        a, j = two_interval_sets
        result = combine_orthogonal(unit_base, j, a)
        assert result.ok
        assert result.pair.domain.boxes == (
            ((Fraction(0),), (Fraction(1),)),
            ((Fraction(1),), (Fraction(2),)),
        )
        assert result.pair.spectrum.shifts == ((Fraction(0),), (Fraction(1, 2),))

    def test_kind_monotonicity(self):
        # success at a stronger kind implies success at every weaker kind
        base = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), integer_lattice(1))
        for n in range(2, 8):
            for a_pts, j_pts in itertools.product(itertools.combinations(range(n), 2), repeat=2):
                a = FiniteSet.from_ints(n, a_pts)
                j = FiniteSet.from_ints(n, j_pts)
                frame_ok = combine_frame(base, a, j).ok
                riesz_ok = combine_riesz(base, a, j).ok
                orth_ok = combine_orthogonal(base, a, j).ok
                if orth_ok:
                    assert riesz_ok
                if riesz_ok:
                    assert frame_ok

    def test_orthogonal_combination_gram_is_scaled_identity(self, unit_base):
        for n, a_pts, j_pts in [(4, [0, 2], [0, 1]), (6, [0, 3], [0, 1]), (8, [0, 4], [0, 1])]:
            result = combine_orthogonal(
                unit_base, FiniteSet.from_ints(n, a_pts), FiniteSet.from_ints(n, j_pts)
            )
            assert result.ok
            gram = build_gram(result.pair.domain, result.pair.spectrum, 3)
            expected = 2.0  # #A * |base domain|
            assert np.abs(gram.entries - expected * np.eye(len(gram))).max() < 1e-9


class TestCartesianProduct:
    def test_square_of_two_interval_pair(self, two_interval_pair):
        product = cartesian_product(two_interval_pair, two_interval_pair)
        assert product.domain.dimension == 2
        assert len(product.domain.boxes) == 4
        assert product.domain.measure == 4
        assert len(product.spectrum.shifts) == 4
        assert product.kind == PairKind.ORTHOGONAL_BASIS
        # the product system is orthogonal: certified on a truncation
        gram = build_gram(product.domain, product.spectrum, 2)
        assert gram.max_offdiagonal() < 1e-10

    def test_unit_tiles_product(self):
        tile = ContinuousPair.orthogonal(BoxDomain.interval(0, 1), integer_lattice(1))
        product = cartesian_product(tile, tile)
        assert product.domain == unit_box(2)
        assert product.spectrum == integer_lattice(2)

    def test_rejects_non_orthogonal(self, unit_base, golden_sets):
        a, j = golden_sets
        riesz_pair = combine_riesz(unit_base, a, j).pair
        with pytest.raises(UnsupportedPairError):
            cartesian_product(riesz_pair, riesz_pair)


class TestCompleteness:
    def test_applies_for_valid_inputs(self, unit_base, two_interval_sets):
        a, j = two_interval_sets
        assert check_completeness_hypotheses(unit_base, a, j).applies

    def test_counterexample_does_not_apply(self):
        report = check_completeness_hypotheses(
            counterexample_base(), FiniteSet.from_ints(6, [0, 3]), FiniteSet.from_ints(6, [0, 1])
        )
        assert not report.applies

    def test_empty_a_is_rejected_by_name(self, unit_base):
        with pytest.raises(ValueError, match="A is empty"):
            check_completeness_hypotheses(unit_base, FiniteSet(4, 1, ()),
                                          FiniteSet.from_ints(4, [0, 1]))

    @pytest.mark.parametrize("combine", [combine_frame, combine_riesz, combine_orthogonal])
    def test_empty_j_is_rejected_by_name(self, unit_base, combine):
        with pytest.raises(ValueError, match="J is empty"):
            combine(unit_base, FiniteSet.from_ints(4, [0]), FiniteSet(4, 1, ()))

    def test_trivial_translate_applies(self, unit_base):
        report = check_completeness_hypotheses(
            unit_base, FiniteSet.from_ints(4, [0]), FiniteSet.from_ints(4, [0, 1])
        )
        assert report.applies

    def test_overlapping_translates_named_as_minkowski_translate_names_them(self):
        # [0, 2) + {0, 3, 1}: the copies by 0 and 1 overlap, found without building the domain
        base = ContinuousPair.orthogonal(BoxDomain(1, ((0, 1), (1, 2))),
                                         scaled_lattice(1, "1/2"))
        a, j = FiniteSet.from_ints(6, [0, 3, 1]), FiniteSet.from_ints(6, [0, 1, 2])
        report = check_completeness_hypotheses(base, a, j)
        assert not report.applies
        check = report.checks[0]
        assert (check.name, check.passed) == ("disjoint-translates", False)
        with pytest.raises(OverlapError) as raised:
            minkowski_translate(base.domain, a)
        assert check.detail == str(raised.value)
        assert check.detail == "translates by (0,) and (1,) overlap with positive measure"
        assert raised.value.offending == ((0,), (1,))
        assert combine_riesz(base, a, j).checks[2] == check


class TestContinuousPair:
    @pytest.mark.parametrize(
        "kind,lower,upper",
        [(PairKind.ORTHOGONAL_BASIS, math.inf, math.inf), (PairKind.FRAME, 1.0, math.inf),
         (PairKind.NONE, math.nan, 0.0), (PairKind.NONE, -math.inf, 0.0)],
        ids=["both-infinite", "upper-infinite", "lower-nan", "lower-minus-infinite"],
    )
    def test_constants_must_be_finite(self, unit_base, kind, lower, upper):
        with pytest.raises(ValueError, match="pair constants must be finite"):
            ContinuousPair(unit_base.domain, unit_base.spectrum, kind, lower, upper)

    def test_json_infinity_rejected(self, unit_base):
        data = {**unit_base.to_json_dict(), "lower": math.inf, "upper": math.inf}
        with pytest.raises(ValueError, match="pair constants must be finite"):
            ContinuousPair.from_json_dict(data)

    def test_kind_given_as_its_string_value(self, unit_base):
        pair = ContinuousPair(unit_base.domain, unit_base.spectrum, "orthogonal-basis", 1.0, 1.0)
        assert pair.kind is PairKind.ORTHOGONAL_BASIS and pair == unit_base
        with pytest.raises(ValueError, match="'orthogonal'"):
            ContinuousPair(unit_base.domain, unit_base.spectrum, "orthogonal", 1.0, 1.0)

    def test_json_float_dimension_rejected(self, unit_base):
        data = unit_base.to_json_dict()
        with pytest.raises(TypeError):
            BoxDomain.from_json_dict({**data["domain"], "d": 1.5})


class TestBesselConstant:
    def test_per_translate_bound_holds_but_global_refinement_fails(self, unit_base, golden_sets):
        """The per-translate energy bound (#J) C is sharp-side valid; promoting
        it to the whole domain is not, since the true upper Riesz constant
        2 + 2 cos(2 pi / 5) exceeds 2.  Random vectors witness both facts.
        The global bound is the coarse #A #J |Omega_1|."""
        a, j = golden_sets
        per_translate = len(j) * unit_base.upper
        coarse = len(a) * len(j) * float(unit_base.domain.measure)
        dom = minkowski_translate(unit_base.domain, a)
        spec = shift_spectrum(unit_base.spectrum, j, j.modulus)
        points = enumerate_spectrum(spec, 4)
        full = build_gram(dom, spec, 4).entries
        translate_grams = []
        for p in a.points:
            piece = unit_base.domain.translate(p)
            n = len(points)
            entries = np.empty((n, n), dtype=complex)
            for i in range(n):
                for k in range(n):
                    entries[i, k] = exp_inner_product(piece, points[i], points[k])
            translate_grams.append(entries)

        rng = np.random.default_rng(20240817)
        global_max = 0.0
        per_translate_max = 0.0
        for _ in range(200):
            c = rng.standard_normal(len(points)) + 1j * rng.standard_normal(len(points))
            norm2 = float(np.vdot(c, c).real)
            global_max = max(global_max, float(np.vdot(c, full @ c).real) / norm2)
            for g in translate_grams:
                per_translate_max = max(
                    per_translate_max, float(np.vdot(c, g @ c).real) / norm2
                )
        assert per_translate_max <= per_translate + 1e-9
        assert global_max <= coarse + 1e-9
        assert global_max > per_translate  # the literal global refinement fails


class TestPredictedConstants:
    def test_products_exact(self, unit_base):
        for n, a_pts, j_pts in [(4, [0, 2], [0, 1]), (5, [0, 2], [0, 1]), (7, [0, 3], [0, 2])]:
            a = FiniteSet.from_ints(n, a_pts)
            j = FiniteSet.from_ints(n, j_pts)
            finite = classify_finite_pair(a, j)
            result = combine_frame(unit_base, a, j)
            assert result.predicted_lower == unit_base.lower * finite.lower
            assert result.predicted_upper == unit_base.upper * finite.upper

    def test_truncated_bounds_respect_prediction(self, unit_base, golden_sets):
        a, j = golden_sets
        result = combine_riesz(unit_base, a, j)
        gram = build_gram(result.pair.domain, result.pair.spectrum, 6)
        eigs = gram.eigenvalues()
        assert eigs[0] >= result.predicted_lower - 1e-9
        assert eigs[-1] <= result.predicted_upper + 1e-9


@st.composite
def combinations(draw):
    """[0,1)^d with Z^d claimed as any kind with drawn constants, and (A, J) in Z_N^d with
    #J on both sides of #A."""
    d = draw(st.integers(1, 2))
    lower, upper = sorted(draw(st.floats(1e-3, 1e3)) for _ in range(2))
    base = ContinuousPair(unit_box(d), integer_lattice(d), draw(st.sampled_from(PairKind)),
                          lower, upper)
    n = draw(st.integers(1, 12 if d == 1 else 4))
    k = draw(st.integers(1, min(4, n**d)))
    m = draw(st.integers(max(1, k - 1), min(k + 2, n**d)))
    return base, draw(indexed_sets(n, d, k)), draw(indexed_sets(n, d, m))


@settings(max_examples=100, deadline=None)
@given(combinations())
def test_predicted_constants_are_the_exact_products(case):
    """Bit for bit, for each target: base constant times finite constant, and the combined
    pair carries them when every hypothesis holds; NaN when #J rules out the target."""
    base, a, j = case
    for combine in (combine_frame, combine_riesz, combine_orthogonal):
        result = combine(base, a, j)
        predicted = result.predicted_lower, result.predicted_upper
        if result.finite is None:
            assert all(map(math.isnan, predicted))
            continue
        finite = classify_finite_pair(a, j)
        assert result.finite == finite
        assert [x.hex() for x in predicted] == [
            (base.lower * finite.lower).hex(), (base.upper * finite.upper).hex()]
        if result.ok:
            assert [result.pair.lower.hex(), result.pair.upper.hex()] == [
                x.hex() for x in predicted]
