import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import reference_alias, reference_hat
from scipy import integrate
from strategies import bits

from spectralpairs import (
    AliasReport,
    BandlimitedSignal,
    BoxDomain,
    FiniteSet,
    SamplePattern,
    minkowski_translate,
    reconstruct_spectrum,
    sample_signal,
    symbol_of_set,
    unit_box,
    verify_alias_cancellation,
)
from spectralpairs.finite_pairs import _symbols


def two_interval_domain():
    return minkowski_translate(unit_box(1), FiniteSet.from_ints(4, [0, 2]))


def reconstruction_grid(domain, per_box):
    return np.concatenate(
        [
            float(lo[0]) + (np.arange(per_box) + 0.5) * (float(hi[0]) - float(lo[0])) / per_box
            for lo, hi in domain.boxes
        ]
    )


class TestBandlimitedSignal:
    def test_indicator_sample_at_zero_is_measure(self):
        signal = BandlimitedSignal.indicator(two_interval_domain())
        assert signal.sample(0) == 2

    def test_zero_signal(self):
        signal = BandlimitedSignal(two_interval_domain(), ((0.0,), (0.0,)))
        pattern = SamplePattern.from_finite_set(FiniteSet.from_ints(4, [0, 1]), 4)
        assert all(v == 0 for v in sample_signal(signal, pattern))

    def test_unit_interval_quarter_sample(self):
        signal = BandlimitedSignal.indicator(BoxDomain.interval(0, 1))
        got = signal.sample(Fraction(1, 4))
        expected = (np.exp(1j * np.pi / 2) - 1) / (2j * np.pi * 0.25)
        assert abs(got - expected) < 1e-14

    def test_polynomial_piece_against_quadrature(self):
        # hat f = (xi - lo)^2 - 0.3 (xi - lo) on one box, sampled in closed form
        dom = BoxDomain.interval("1/2", "7/4")
        signal = BandlimitedSignal(dom, ((0.0, -0.3, 1.0),))
        for lam in (Fraction(0), Fraction(1, 3), Fraction(-5, 4), Fraction(2)):
            re, _ = integrate.quad(
                lambda x: (signal.hat(x) * np.exp(2j * np.pi * x * float(lam))).real, 0.5, 1.75
            )
            im, _ = integrate.quad(
                lambda x: (signal.hat(x) * np.exp(2j * np.pi * x * float(lam))).imag, 0.5, 1.75
            )
            assert abs(signal.sample(lam) - complex(re, im)) < 1e-10

    def test_hat_vanishes_off_domain(self):
        signal = BandlimitedSignal.indicator(two_interval_domain())
        assert signal.hat(1.5) == 0
        assert signal.hat(-0.1) == 0
        assert signal.hat(0.5) == 1


class TestSamplePattern:
    def test_points_sorted(self):
        pattern = SamplePattern.from_finite_set(FiniteSet.from_ints(4, [0, 1]), 2)
        expected = sorted(
            Fraction(n) + s for n in range(-2, 3) for s in (Fraction(0), Fraction(1, 4))
        )
        assert pattern.points() == expected
        assert len(pattern.points()) == 10

    def test_shift_validation(self):
        with pytest.raises(ValueError):
            SamplePattern((Fraction(1, 4), Fraction(1, 4)), 3)
        with pytest.raises(ValueError):
            SamplePattern((Fraction(5, 4),), 3)

    def test_truncation_is_an_integer(self):
        # a float truncation used to build, then fail in points() and sample_signal
        with pytest.raises(TypeError):
            SamplePattern((Fraction(0),), 1.5)
        shifts = (Fraction(0), Fraction(1, 2**70))  # numerators past int64
        pattern = SamplePattern(shifts, np.int64(2))
        assert type(pattern.truncation) is np.int64
        assert pattern.points() == SamplePattern(shifts, 2).points() and len(pattern.points()) == 10
        with pytest.raises(ValueError, match="truncation 2097152 gives over 4194304 pattern"):
            SamplePattern((Fraction(0),), 2**21)  # 2**22 + 1 points, refused before any is made


class TestAliasCoefficients:
    def test_two_interval_values(self):
        a = FiniteSet.from_ints(4, [0, 2])
        j = FiniteSet.from_ints(4, [0, 1])
        assert symbol_of_set(j, 0) == 2
        assert abs(symbol_of_set(j, 2)) == 0
        assert abs(symbol_of_set(j, -2)) == 0
        report = verify_alias_cancellation(a, j, (-3, 3))
        assert report.cancelled == (-2, 2)  # A - A = {-2, 0, 2}
        assert 1 in report.disjoint

    def test_singleton_j_constant(self):
        j = FiniteSet.from_ints(5, [0])
        assert all(symbol_of_set(j, k) == 1 for k in range(-7, 8))

    def test_order_six(self):
        j = FiniteSet.from_ints(6, [0, 1])
        assert abs(symbol_of_set(j, 3)) == 0  # 1 + e^{-pi i}


class TestAliasCancellation:
    def test_orthogonal_pair_passes(self):
        report = verify_alias_cancellation(
            FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]), (-5, 5)
        )
        assert isinstance(report, AliasReport)
        assert report.passed
        assert report.dc_value == 2.0
        assert set(report.cancelled) == {-2, 2}
        assert set(report.disjoint) == {-5, -4, -3, -1, 1, 3, 4, 5}
        assert not report.overlap_violations

    def test_non_orthogonal_j_names_violation(self):
        report = verify_alias_cancellation(
            FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 2]), (-5, 5)
        )
        assert not report.passed
        violated = {k for k, _ in report.symbol_violations}
        assert 2 in violated
        table = dict(report.symbol_violations)
        assert table[2] == pytest.approx(2.0)

    def test_singleton_a_vacuous(self):
        report = verify_alias_cancellation(
            FiniteSet.from_ints(4, [1]), FiniteSet.from_ints(4, [0, 1]), (-4, 4)
        )
        assert report.passed
        assert report.cancelled == ()

    def test_empty_j_is_rejected_by_name(self):
        # no shift leaves no pattern: the reconstruction would divide by #J = 0
        a, empty = FiniteSet.from_ints(4, [0, 2]), FiniteSet(4, 1, ())
        with pytest.raises(ValueError, match="J is empty"):
            SamplePattern.from_finite_set(empty, 2)
        with pytest.raises(ValueError, match="J is empty"):
            verify_alias_cancellation(a, empty, (-2, 2))

    def test_k_range_ends_must_be_integers(self):
        a, j = FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1])
        for k_range in ((-2.7, 2.9), (-2, 2.0), (Fraction(-2), 2)):
            with pytest.raises(TypeError):
                verify_alias_cancellation(a, j, k_range)
        got = verify_alias_cancellation(a, j, (np.int64(-2), np.int64(2)))
        assert got.to_json_dict() == verify_alias_cancellation(a, j, (-2, 2)).to_json_dict()

    def test_exact_dc_for_search_hits(self):
        from spectralpairs import PairKind, SearchQuery, enumerate_pairs

        for n in (4, 6, 8):
            result = enumerate_pairs(SearchQuery(n, 1, 2, PairKind.ORTHOGONAL_BASIS))
            for match in result.matches:
                report = verify_alias_cancellation(match.a, match.j, (-n, n))
                assert report.dc_value == 2.0
                assert report.passed


class TestReconstruction:
    def test_full_indicator_recovered_exactly(self):
        # hat f = chi_Omega is proportional to one basis exponential: every
        # truncation reproduces it to machine precision
        omega = two_interval_domain()
        signal = BandlimitedSignal.indicator(omega)
        j = FiniteSet.from_ints(4, [0, 1])
        grid = reconstruction_grid(omega, 128)
        for m in (8, 16):
            pattern = SamplePattern.from_finite_set(j, m)
            samples = sample_signal(signal, pattern)
            est = reconstruct_spectrum(samples, pattern, j, grid)
            assert np.abs(est - 1.0).max() < 1e-12

    def test_zero_signal_reconstructs_to_zero(self):
        omega = two_interval_domain()
        signal = BandlimitedSignal(omega, ((0.0,), (0.0,)))
        j = FiniteSet.from_ints(4, [0, 1])
        pattern = SamplePattern.from_finite_set(j, 4)
        est = reconstruct_spectrum(
            sample_signal(signal, pattern), pattern, j, np.array([0.1, 2.3])
        )
        assert np.abs(est).max() == 0

    def test_kernel_past_limit_refused_before_allocation(self):
        j = FiniteSet.from_ints(2, [0, 1])
        pattern = SamplePattern.from_finite_set(j, 2**10)  # 4,098 points
        with pytest.raises(ValueError, match="4097 x 4098 kernel entries, over 16777216"):
            reconstruct_spectrum(np.zeros(4098), pattern, j, np.zeros(4097))

    def test_single_sample_constant(self):
        j = FiniteSet.from_ints(1, [0])
        pattern = SamplePattern.from_finite_set(j, 0)
        est = reconstruct_spectrum([1.0], pattern, j, np.array([0.0, 0.3, 0.9]))
        assert np.abs(est - 1.0).max() < 1e-14

    def test_one_translate_indicator_error_decays(self):
        # a signal whose expansion has infinitely many terms: truncation error
        # must fall as the pattern grows (values frozen from an oracle run:
        # 0.0766, 0.0539, 0.0349, 0.0081)
        omega = two_interval_domain()
        signal = BandlimitedSignal(omega, ((1.0,), (0.0,)))
        j = FiniteSet.from_ints(4, [0, 1])
        grid = reconstruction_grid(omega, 128)
        truth = np.array([signal.hat(x) for x in grid])
        denom = math.sqrt(float(np.mean(np.abs(truth) ** 2)))
        errors = []
        for m in (8, 16, 32, 64):
            pattern = SamplePattern.from_finite_set(j, m)
            samples = sample_signal(signal, pattern)
            est = reconstruct_spectrum(samples, pattern, j, grid)
            errors.append(math.sqrt(float(np.mean(np.abs(est - truth) ** 2))) / denom)
        for earlier, later in zip(errors, errors[1:]):
            assert later < earlier * 1.05
        assert errors[-1] < errors[0]
        assert errors[0] == pytest.approx(0.0766, abs=5e-3)

    def test_roundtrip_samples_of_reconstruction(self):
        # closed-form samples of f agree with numerically re-integrating the
        # truncated reconstruction of hat f (consistency of conventions)
        omega = two_interval_domain()
        signal = BandlimitedSignal(omega, ((1.0,), (0.5,)))
        j = FiniteSet.from_ints(4, [0, 1])
        pattern = SamplePattern.from_finite_set(j, 48)
        samples = sample_signal(signal, pattern)
        grid = reconstruction_grid(omega, 512)
        est = reconstruct_spectrum(samples, pattern, j, grid)
        # f(0) = integral of hat f: compare against the trapezoid of est
        recovered = float(np.mean(est.real) * float(omega.measure))
        assert recovered == pytest.approx(float(signal.sample(0).real), abs=5e-3)


# Differential tests: the alias table takes every k of the range at once (one
# ``cis`` call for the symbol, one integer overlap test for Omega and Omega + k).
# The references in ``reference`` are the per-k paths it replaced: the symbol summed
# term by term from the scalar phase kernel, and the exact intersection measure of
# the rational domains Omega and Omega + k.


@st.composite
def alias_cases(draw):
    n = draw(st.integers(1, 24))
    a, j = (FiniteSet.from_ints(n, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                                 max_size=min(n, 5), unique=True)))
            for _ in range(2))
    k_min = draw(st.integers(-3 * n, 1))
    return a, j, (k_min, draw(st.integers(k_min - 1, 3 * n)))  # may be empty, which is refused


@settings(max_examples=200, deadline=None)
@given(alias_cases())
@example((FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]), (-8, 8)))
@example((FiniteSet.from_ints(6, [0, 3]), FiniteSet.from_ints(6, [0, 3]), (-12, 12)))
@example((FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]), (5, -5)))
@example((FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]), (3, 3)))
def test_alias_table_matches_per_k_reference(case):
    a, j, k_range = case
    if k_range[0] > k_range[1]:  # an empty range would test no k and pass vacuously
        with pytest.raises(ValueError, match="empty k range"):
            verify_alias_cancellation(a, j, k_range)
        return
    table, report = reference_alias(a, j, k_range)
    got = _symbols(j, [[k % j.modulus] for k, _, _ in table])  # the symbols the report reads
    assert got.tobytes() == np.array([v for _, v, _ in table], dtype=complex).tobytes()
    got = verify_alias_cancellation(a, j, k_range)
    assert got.to_json_dict() == report.to_json_dict()
    assert repr(got.to_json_dict()) == repr(report.to_json_dict())  # the float bits too


def test_alias_table_past_2_62_takes_python_ints():
    n = 3 * 2**70
    a = FiniteSet(n, 1, ((0,), (n // 3,), (n // 2,)))
    j = FiniteSet(n, 1, ((0,), (1,), (n - 5,)))
    table, report = reference_alias(a, j, (-4, 4))
    got = verify_alias_cancellation(a, j, (-4, 4))
    assert repr(got.to_json_dict()) == repr(report.to_json_dict())
    values = _symbols(j, [[k % n] for k, _, _ in table])
    assert values.tobytes() == np.array([v for _, v, _ in table]).tobytes()


@settings(max_examples=100, deadline=None)
@given(st.sets(st.builds(Fraction, st.integers(-40, 40), st.integers(1, 7)), min_size=2,
               max_size=8),
       st.lists(st.floats(-7, 7, allow_nan=False), min_size=1, max_size=20))
def test_hat_edges_converted_once_keep_the_bits(cuts, xs):
    cuts = sorted(cuts)
    dom = BoxDomain(1, tuple(zip(cuts[::2], cuts[1::2])))
    signal = BandlimitedSignal(dom, tuple((1.5, -0.25 + 1j, 0.125)[:1 + i % 3]
                                          for i in range(len(dom.boxes))))
    points = xs + [float(c) for c in cuts] + [np.float64(x) for x in xs]
    got = [signal.hat(x) for x in points]
    expected = [reference_hat(signal, x) for x in points]
    assert [type(z) for z in got] == [type(z) for z in expected]
    assert bits(got) == bits(expected)
