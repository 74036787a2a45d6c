import functools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from spectralpairs import (
    BoxDomain,
    DualBasis,
    EmptySpectrumError,
    FiniteSet,
    NonInvertibleError,
    PairKind,
    ShapeMismatchError,
    Spectrum,
    build_evaluation_matrix,
    build_gram,
    classify_finite_pair,
    combine_orthogonal,
    combine_riesz,
    enumerate_spectrum,
    estimate_frame_bounds,
    exp_inner_product,
    integer_lattice,
    reconstruct_function,
    scaled_lattice,
    shift_spectrum,
    verify_biorthogonality,
)


def unit_dual(a, j) -> DualBasis:
    """The dual data of (A, J) over the base [0, 1)."""
    return DualBasis.build(BoxDomain.interval(0, 1), a, j)


def quad_inner_product(dom: BoxDomain, lam, mu) -> complex:
    """Independent quadrature evaluation of <e_lam, e_mu> for 1-d domains."""
    nu = float(Fraction(lam) - Fraction(mu))
    total = 0j
    for (lo,), (hi,) in dom.boxes:
        re, _ = integrate.quad(lambda x: math.cos(2 * math.pi * nu * x), float(lo), float(hi))
        im, _ = integrate.quad(lambda x: math.sin(2 * math.pi * nu * x), float(lo), float(hi))
        total += complex(re, im)
    return total


class TestExpInnerProduct:
    def test_measure_on_diagonal(self):
        assert exp_inner_product(BoxDomain.interval(0, 1), 0, 0) == 1

    def test_forced_cancellation_is_exact(self):
        dom = BoxDomain(1, ((0, 1), (2, 3)))
        assert exp_inner_product(dom, 0, Fraction(1, 4)) == 0

    def test_full_period_vanishes(self):
        assert exp_inner_product(BoxDomain.interval(0, 1), 1, 0) == 0

    def test_against_quadrature(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            lo = Fraction(int(rng.integers(-4, 3)), int(rng.integers(1, 5)))
            width = Fraction(int(rng.integers(1, 6)), int(rng.integers(1, 4)))
            dom = BoxDomain.interval(lo, lo + width)
            lam = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
            mu = Fraction(int(rng.integers(-8, 9)), int(rng.integers(1, 6)))
            assert abs(exp_inner_product(dom, lam, mu) - quad_inner_product(dom, lam, mu)) < 1e-9

    def test_two_dimensional_factorizes(self):
        dom = BoxDomain(2, (((0, 0), (1, 2)),))
        lam = (Fraction(1, 3), Fraction(0))
        got = exp_inner_product(dom, lam, (0, 0))
        x_part = exp_inner_product(BoxDomain.interval(0, 1), Fraction(1, 3), 0)
        assert abs(got - 2 * x_part) < 1e-12


class TestGram:
    def test_two_interval_gram_is_twice_identity(self, two_interval_pair):
        gram = build_gram(two_interval_pair.domain, two_interval_pair.spectrum, 2)
        assert np.abs(gram.entries - 2 * np.eye(len(gram))).max() < 1e-10

    def test_single_point(self):
        dom = BoxDomain(1, ((0, 1), (2, 3)))
        gram = build_gram(dom, integer_lattice(1), 0)
        assert gram.entries.shape == (1, 1)
        assert abs(gram.entries[0, 0] - 2) < 1e-12

    def test_golden_pair_positive_definite(self, unit_base, golden_sets):
        a, j = golden_sets
        pair = combine_riesz(unit_base, a, j).pair
        gram = build_gram(pair.domain, pair.spectrum, 3)
        assert gram.max_offdiagonal() > 0.1  # genuinely non-orthogonal
        assert gram.eigenvalues()[0] > 0

    def test_hermitian_exactly_as_computed(self, unit_base, golden_sets):
        a, j = golden_sets
        pair = combine_riesz(unit_base, a, j).pair
        gram = build_gram(pair.domain, pair.spectrum, 3)
        assert np.array_equal(gram.entries, gram.entries.conj().T)

    def test_diagonal_is_measure(self, unit_base, golden_sets):
        a, j = golden_sets
        pair = combine_riesz(unit_base, a, j).pair
        diag = np.diag(build_gram(pair.domain, pair.spectrum, 3).entries)
        assert np.abs(diag - 2.0).max() < 1e-12

    def test_json_matches_per_entry_conversion(self, unit_base, golden_sets):
        # complex matrices go to JSON in one array pass, with the text of converting
        # each entry on its own: -0.0 parts and last bits included
        a, j = golden_sets
        pair = combine_riesz(unit_base, a, j).pair
        gram = build_gram(pair.domain, pair.spectrum, 3)
        dual = DualBasis.build(unit_base.domain, a, j)
        for matrix, got in [(gram.entries, gram.to_json_dict()["entries"]),
                            (dual.finite_dual, dual.to_json_dict()["finite_dual"]),
                            (dual.piece_coefficients, dual.to_json_dict()["piece_coefficients"])]:
            expected = [[[z.real, z.imag] for z in row] for row in matrix.tolist()]
            assert json.dumps(got) == json.dumps(expected)
            assert all(type(x) is float for row in got for z in row for x in z)
        assert "-0.0" in json.dumps(gram.to_json_dict())

    def test_empty_enumeration_raises(self):
        spec = Spectrum(1, (("1",),), (("1/2",),))
        with pytest.raises(EmptySpectrumError):
            build_gram(BoxDomain.interval(0, 1), spec, Fraction(1, 4))


class TestFrameBounds:
    def test_orthogonal_pair_flat_bounds(self, two_interval_pair):
        bounds = estimate_frame_bounds(two_interval_pair.domain, two_interval_pair.spectrum, [1, 2, 3])
        for lo, hi in bounds:
            assert abs(lo - 2) < 1e-9
            assert abs(hi - 2) < 1e-9

    def test_empty_radii(self, two_interval_pair):
        assert estimate_frame_bounds(two_interval_pair.domain, two_interval_pair.spectrum, []) == []

    def test_empty_smallest_window_raises(self):
        spec = Spectrum(1, (("1",),), (("1/2",),))
        with pytest.raises(EmptySpectrumError, match="radius 1/4"):
            estimate_frame_bounds(BoxDomain.interval(0, 1), spec, [Fraction(1, 4), 2])

    def test_negative_radius_rejected(self, two_interval_pair):
        with pytest.raises(ValueError, match="nonnegative"):
            estimate_frame_bounds(two_interval_pair.domain, two_interval_pair.spectrum, [-1, 2])

    def test_radii_must_increase(self, two_interval_pair):
        with pytest.raises(ValueError):
            estimate_frame_bounds(two_interval_pair.domain, two_interval_pair.spectrum, [3, 2])

    def test_golden_pair_bounds_stabilize(self, unit_base, golden_sets):
        a, j = golden_sets
        pair = combine_riesz(unit_base, a, j).pair
        (lo1, hi1), (lo2, hi2) = estimate_frame_bounds(pair.domain, pair.spectrum, [4, 8])
        assert 0 < lo1 < 2 and 0 < lo2 < 2
        assert abs(lo1 - lo2) < 0.1 * lo1
        assert abs(hi1 - hi2) < 0.1 * hi1


class TestFiniteDual:
    def test_unitary_pair_self_inverse(self, two_interval_sets):
        a, j = two_interval_sets
        g = unit_dual(a, j).finite_dual
        assert np.abs(g - np.array([[1, 1], [1, -1]])).max() < 1e-12

    def test_identity_for_single_point(self):
        one = FiniteSet.from_ints(4, [0])
        assert np.abs(unit_dual(one, one).finite_dual - np.eye(1)).max() < 1e-12

    def test_scaled_inverse(self, golden_sets):
        a, j = golden_sets
        f = build_evaluation_matrix(a, j).entries
        g = unit_dual(a, j).finite_dual
        assert np.abs(g - 2 * np.linalg.inv(f)).max() < 1e-12
        assert np.abs(f @ g - 2 * np.eye(2)).max() < 1e-10

    def test_biorthogonality_in_counting_inner_product(self, golden_sets):
        # (1/k) sum_r G[r,s] conj(E_{j_s'}(a_r)) = delta_{s,s'}
        a, j = golden_sets
        f = build_evaluation_matrix(a, j).entries
        g = unit_dual(a, j).finite_dual
        k = len(a)
        product = (f @ g) / k
        assert np.abs(product - np.eye(k)).max() < 1e-10

    def test_singular_pair_raises(self):
        with pytest.raises(NonInvertibleError):
            unit_dual(FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 2]))

    def test_rectangular_raises(self):
        with pytest.raises(NonInvertibleError):
            unit_dual(FiniteSet.from_ints(4, [0]), FiniteSet.from_ints(4, [0, 1]))

    def test_self_duality_is_the_rank_the_inverse_check_decided(
            self, monkeypatch, two_interval_sets, golden_sets):
        # one classification per dual: its JSON runs no second SVD
        from spectralpairs import finite_pairs

        classify, calls = finite_pairs._classify_stacked, []
        monkeypatch.setattr(finite_pairs, "_classify_stacked",
                            lambda *args: calls.append(args) or classify(*args))
        for sets, self_dual in ((two_interval_sets, True), (golden_sets, False)):
            calls.clear()
            assert unit_dual(*sets).to_json_dict()["self_dual"] is self_dual
            assert len(calls) == 1


class TestDualPieceCoefficients:
    def test_unitary_pair_coefficients_are_one(self, two_interval_sets):
        a, j = two_interval_sets
        c = unit_dual(a, j).piece_coefficients
        assert np.abs(c - 1).max() < 1e-12

    def test_single_point(self):
        one = FiniteSet.from_ints(4, [0])
        c = unit_dual(one, one).piece_coefficients
        assert np.abs(c - np.array([[1.0]])).max() < 1e-12

    def test_matches_inverse_times_phase(self, golden_sets):
        a, j = golden_sets
        f = build_evaluation_matrix(a, j).entries
        inv = np.linalg.inv(f)
        c = unit_dual(a, j).piece_coefficients
        w = np.exp(-2j * np.pi / 5)
        for r, (ar,) in enumerate(a.points):
            for s, (js,) in enumerate(j.points):
                assert abs(c[r, s] - 2 * inv[r, s] * w ** (ar * js)) < 1e-12

    def test_unimodular_iff_orthogonal(self):
        # |c[r,s]| = 1 for every entry exactly when the pair is orthogonal
        for n, a_pts, j_pts in [(4, [0, 2], [0, 1]), (5, [0, 2], [0, 1]),
                                (6, [0, 3], [0, 1]), (8, [0, 2], [0, 1])]:
            a = FiniteSet.from_ints(n, a_pts)
            j = FiniteSet.from_ints(n, j_pts)
            if classify_finite_pair(a, j).kind == PairKind.NONE:
                continue
            c = unit_dual(a, j).piece_coefficients
            unimodular = np.abs(np.abs(c) - 1).max() < 1e-10
            orthogonal = classify_finite_pair(a, j).kind == PairKind.ORTHOGONAL_BASIS
            assert unimodular == orthogonal

    def test_golden_pair_coefficient_modulus(self, golden_sets):
        # |c| = 1/sin(2 pi/5) for the extreme entries of the inverse
        a, j = golden_sets
        c = unit_dual(a, j).piece_coefficients
        expected = 1 / math.sin(2 * math.pi / 5)
        assert abs(abs(c[0, 0]) - expected) < 1e-12


class TestBiorthogonality:
    def test_two_interval_pair_self_dual(self, unit_base, two_interval_sets):
        a, j = two_interval_sets
        defect = verify_biorthogonality(unit_base.domain, unit_base.spectrum, a, j, 3)
        assert defect < 1e-10

    def test_golden_pair(self, unit_base, golden_sets):
        a, j = golden_sets
        defect = verify_biorthogonality(unit_base.domain, unit_base.spectrum, a, j, 2)
        assert defect < 1e-8

    def test_full_tile_single_translate(self, unit_base):
        one = FiniteSet.from_ints(4, [0])
        defect = verify_biorthogonality(unit_base.domain, unit_base.spectrum, one, one, 3)
        assert defect < 1e-12

    def test_planar_example(self):
        base_dom = BoxDomain(2, (((0, 0), (1, 1)),))
        a = FiniteSet(4, 2, ((0, 0), (2, 0)))
        j = FiniteSet(4, 2, ((0, 0), (1, 0)))
        defect = verify_biorthogonality(base_dom, integer_lattice(2), a, j, 2)
        assert defect < 1e-8

    def test_returns_python_float(self, unit_base, golden_sets):
        a, j = golden_sets
        assert type(verify_biorthogonality(unit_base.domain, unit_base.spectrum, a, j, 2)) is float

    def test_empty_window_raises(self, unit_base):
        # Z + {1/4, 1/2} has no point of sup-norm 0: no certificate over no points
        a, j = FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [1, 2])
        with pytest.raises(EmptySpectrumError, match="radius 0"):
            verify_biorthogonality(unit_base.domain, unit_base.spectrum, a, j, 0)

    def test_internal_enumeration_matches_public_one(self, unit_base, golden_sets):
        # every point enumerate_spectrum yields on the combined spectrum is
        # tagged with the s for which point - j_s/N lies in the base Z
        from spectralpairs.domains import _window_rows

        a, j = golden_sets
        combined = shift_spectrum(unit_base.spectrum, j, j.modulus)
        points = enumerate_spectrum(combined, 4)
        tags = _window_rows(combined, 4)[2] % len(j)
        assert len(tags) == len(points) == 17
        for p, s in zip(points, tags):
            assert (p[0] - Fraction(j.points[s][0], j.modulus)).denominator == 1


class TestReconstructFunction:
    def _setup(self, unit_base, sets, radius):
        a, j = sets
        pair = combine_riesz(unit_base, a, j).pair
        dual = DualBasis.build(unit_base.domain, a, j)
        points = enumerate_spectrum(pair.spectrum, radius)
        return pair, dual, points

    def test_recovers_single_exponential(self, unit_base, two_interval_sets):
        # orthogonal pair: the coefficient vector of e_target has one nonzero
        # entry and the expansion returns e_target up to roundoff
        pair, dual, points = self._setup(unit_base, two_interval_sets, 3)
        target = points[len(points) // 2]
        coeffs = [exp_inner_product(pair.domain, target, p) for p in points]
        grid = np.concatenate(
            [np.linspace(0, 1, 40, endpoint=False) + 0.0125,
             np.linspace(2, 3, 40, endpoint=False) + 0.0125]
        )
        values = reconstruct_function(unit_base.spectrum, dual, coeffs, grid, radius=3)
        expected = np.exp(2j * np.pi * float(target[0]) * grid)
        assert np.abs(values - expected).max() < 1e-8

    def test_zero_function(self, unit_base, golden_sets):
        pair, dual, points = self._setup(unit_base, golden_sets, 2)
        grid = np.array([0.25, 2.75])
        values = reconstruct_function(
            unit_base.spectrum, dual, np.zeros(len(points)), grid, radius=2
        )
        assert np.abs(values).max() == 0

    def test_outside_domain_evaluates_to_zero(self, unit_base, golden_sets):
        pair, dual, points = self._setup(unit_base, golden_sets, 2)
        values = reconstruct_function(
            unit_base.spectrum, dual, np.ones(len(points)), np.array([1.5]), radius=2
        )
        assert values[0] == 0

    @staticmethod
    def _piece_value(spec, dual, radius, x, r):
        """The unit-coefficient expansion at x with translate r's multipliers."""
        from spectralpairs.domains import _window_rows

        points = enumerate_spectrum(spec, radius)
        tags = _window_rows(spec, radius)[2] % len(dual.j)
        return sum(
            np.exp(2j * np.pi * float(p[0]) * x) * dual.piece_coefficients[r, s]
            for p, s in zip(points, tags)
        ) / float(dual.base_domain.measure * len(dual.a))

    def test_grid_points_take_the_first_translate_holding_them(self, unit_base):
        # translates [0,1) and [1,2) touch: the half-open boxes put 0 in the
        # first, 1 in the second, and 2 outside the domain
        a, j = FiniteSet.from_ints(5, [0, 1]), FiniteSet.from_ints(5, [0, 2])
        pair, dual, points = self._setup(unit_base, (a, j), 2)
        values = reconstruct_function(
            unit_base.spectrum, dual, np.ones(len(points)), np.array([0.0, 1.0, 2.0]), radius=2
        )
        value = functools.partial(self._piece_value, pair.spectrum, dual, 2)
        assert abs(values[0] - value(0.0, 0)) < 1e-12
        assert abs(values[1] - value(1.0, 1)) < 1e-12
        assert abs(values[1] - value(1.0, 0)) > 1e-3
        assert values[2] == 0

    def test_overlapping_translates_give_the_point_to_the_first(self):
        # [0,2) and [1,3) share [1,2), where translate 0's multipliers apply
        base = BoxDomain.interval(0, 2)
        a, j = FiniteSet.from_ints(5, [0, 1]), FiniteSet.from_ints(5, [0, 2])
        half = scaled_lattice(1, Fraction(1, 2))
        spec = shift_spectrum(half, j, 5)
        dual = DualBasis.build(base, a, j)
        ones = np.ones(len(enumerate_spectrum(spec, 1)))
        value = reconstruct_function(half, dual, ones, np.array([1.5]), radius=1)[0]
        assert abs(value - self._piece_value(spec, dual, 1, 1.5, 0)) < 1e-12
        assert abs(value - self._piece_value(spec, dual, 1, 1.5, 1)) > 1e-3

    def test_indicator_error_decays_with_radius(self, unit_base, two_interval_sets):
        a, j = two_interval_sets
        pair = combine_orthogonal(unit_base, a, j).pair
        dual = DualBasis.build(unit_base.domain, a, j)
        grid = np.concatenate(
            [np.linspace(0, 1, 256, endpoint=False) + 1 / 512,
             np.linspace(2, 3, 256, endpoint=False) + 1 / 512]
        )
        truth = np.where(grid < 1.5, 1.0, 0.0)
        errors = []
        for radius in (2, 4, 8):
            points = enumerate_spectrum(pair.spectrum, radius)
            coeffs = [
                exp_inner_product(BoxDomain.interval(0, 1), Fraction(0), p) for p in points
            ]
            values = reconstruct_function(unit_base.spectrum, dual, coeffs, grid, radius=radius)
            errors.append(float(np.sqrt(np.mean(np.abs(values - truth) ** 2))))
        assert errors[1] < errors[0] * 1.05
        assert errors[2] < errors[1] * 1.05
        assert errors[2] < errors[0]

    def test_iterated_construction_error_decays_with_radius(self, two_interval_pair):
        # fig2 + A={0,4}, J={0,1} in Z_16: the base spectrum Z u Z+1/4 has two
        # shifts, so a point's dual coefficient depends on its base shift too
        a, j = FiniteSet.from_ints(16, [0, 4]), FiniteSet.from_ints(16, [0, 1])
        pair = combine_riesz(two_interval_pair, a, j).pair
        dual = DualBasis.build(two_interval_pair.domain, a, j)
        grid = np.concatenate(
            [float(lo[0]) + (np.arange(64) + 0.5) / 64 for lo, _ in pair.domain.boxes]
        )
        target = Fraction(1, 16)
        truth = np.exp(2j * np.pi * float(target) * grid)
        errors = []
        for radius in (2, 4, 8):
            points = enumerate_spectrum(pair.spectrum, radius)
            coeffs = [exp_inner_product(pair.domain, target, p) for p in points]
            values = reconstruct_function(
                two_interval_pair.spectrum, dual, coeffs, grid, radius=radius
            )
            errors.append(float(np.sqrt(np.mean(np.abs(values - truth) ** 2))))
        assert errors[2] < errors[1] < errors[0]

    def test_empty_window_raises(self, unit_base):
        a, j = FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [1, 2])
        dual = DualBasis.build(unit_base.domain, a, j)
        with pytest.raises(EmptySpectrumError, match="radius 0"):
            reconstruct_function(unit_base.spectrum, dual, [], np.array([0.5]), radius=0)

    def test_coefficient_count_checked(self, unit_base, golden_sets):
        pair, dual, points = self._setup(unit_base, golden_sets, 2)
        with pytest.raises(ShapeMismatchError):
            reconstruct_function(
                unit_base.spectrum, dual, np.ones(len(points) + 1), np.array([0.5]), radius=2
            )


def test_only_build_gram_converts_the_window_to_fractions(monkeypatch, two_interval_pair):
    """Bounds, the biorthogonality defect and reconstruction read the integer window;
    only ``GramMatrix.points`` is built from Fractions, for its report."""
    import spectralpairs

    a, j = FiniteSet.from_ints(16, [0, 4]), FiniteSet.from_ints(16, [0, 1])
    pair = combine_riesz(two_interval_pair, a, j).pair  # iterated: the base has two shifts
    dual = DualBasis.build(two_interval_pair.domain, a, j)
    points = enumerate_spectrum(pair.spectrum, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a Fraction window was built")

    for module in (spectralpairs.domains, spectralpairs.analytics):
        monkeypatch.setattr(module, "_fractions", refuse)
    assert len(estimate_frame_bounds(pair.domain, pair.spectrum, [1, 2])) == 2
    assert verify_biorthogonality(two_interval_pair.domain, two_interval_pair.spectrum,
                                  a, j, 2) < 1e-10
    ones = np.ones(len(points))
    assert reconstruct_function(two_interval_pair.spectrum, dual, ones, [0.5], 2).shape == (1,)
    with pytest.raises(AssertionError, match="Fraction window"):
        build_gram(pair.domain, pair.spectrum, 2)
    monkeypatch.undo()
    gram = build_gram(pair.domain, pair.spectrum, 2)
    assert gram.points == tuple(points) and type(gram.points[0][0]) is Fraction
