"""Acceptance gate: one test per top-level guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the PASS/FAIL
lines.  Tolerances are fixed here, not configurable.
"""

import time

import numpy as np

from spectralpairs import (
    BoxDomain,
    ContinuousPair,
    FiniteSet,
    PairKind,
    SearchQuery,
    build_gram,
    classify_finite_pair,
    combine_orthogonal,
    combine_riesz,
    enumerate_pairs,
    enumerate_spectrum,
    estimate_frame_bounds,
    exp_inner_product,
    hadamard_report,
    integer_lattice,
    minkowski_translate,
    root_of_unity_condition,
    sample_signal,
    scaled_lattice,
    shift_spectrum,
    symbol_of_set,
    transpose_pair,
    unit_box,
    verify_alias_cancellation,
    verify_biorthogonality,
)
from spectralpairs.sampling import BandlimitedSignal, SamplePattern, reconstruct_spectrum


def conclude(index: int, description: str, failures: list[str]) -> None:
    status = "FAIL" if failures else "PASS"
    print("[%s] acceptance %02d: %s" % (status, index, description))
    assert not failures, "; ".join(failures)


def best_of(calls: int, fn) -> float:
    """Best wall-clock time of several runs, in seconds."""
    best = float("inf")
    for _ in range(calls):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def test_01_unitary_pair_classification():
    failures = []
    a = FiniteSet.from_ints(4, [0, 2])
    j = FiniteSet.from_ints(4, [0, 1])
    c = classify_finite_pair(a, j)
    if c.kind != PairKind.ORTHOGONAL_BASIS:
        failures.append("kind %s" % c.kind.value)
    if abs(c.lower - 2) > 1e-10 or abs(c.upper - 2) > 1e-10:
        failures.append("constants (%r, %r) != (2, 2)" % (c.lower, c.upper))
    ta, tj = transpose_pair(a, j)
    if classify_finite_pair(ta, tj).kind != c.kind:
        failures.append("transposed pair classified differently")
    classify_finite_pair(FiniteSet.from_ints(6, [0, 3]), FiniteSet.from_ints(6, [0, 1]))
    elapsed = best_of(5, lambda: classify_finite_pair(a, j))
    if elapsed >= 1e-3:
        failures.append("classification took %.2e s (limit 1 ms)" % elapsed)
    conclude(1, "2x2 unitary pair: orthogonal, constants 2 = 2, symmetric, < 1 ms", failures)


def test_02_two_interval_gram_is_scaled_identity(unit_base):
    failures = []
    result = combine_orthogonal(
        unit_base, FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1])
    )
    if not result.ok:
        failures.append("combination unexpectedly failed")
    pair = result.pair
    t0 = time.perf_counter()
    gram = build_gram(pair.domain, pair.spectrum, 5)
    elapsed = time.perf_counter() - t0
    # ball of radius 5: 11 integers and 10 quarter-shifted points
    if len(gram) != 21:
        failures.append("expected 21 exponentials, got %d" % len(gram))
    if gram.max_offdiagonal() >= 1e-10:
        failures.append("off-diagonal %e" % gram.max_offdiagonal())
    if np.abs(np.diag(gram.entries) - 2.0).max() >= 1e-10:
        failures.append("diagonal differs from 2")
    if elapsed >= 0.1:
        failures.append("gram took %.3f s (limit 0.1 s)" % elapsed)
    conclude(2, "[0,1)u[2,3) with Z u Z+1/4: Gram = 2 I at radius 5, < 0.1 s", failures)


def test_03_root_condition_necessity_exhibited():
    failures = []
    a = FiniteSet.from_ints(6, [0, 3])
    j = FiniteSet.from_ints(6, [0, 1])
    if classify_finite_pair(a, j).kind != PairKind.ORTHOGONAL_BASIS:
        failures.append("finite pair not orthogonal")
    base = ContinuousPair.orthogonal(BoxDomain.interval(0, 2), scaled_lattice(1, "1/2"))
    if root_of_unity_condition(base.spectrum, a):
        failures.append("root-of-unity condition unexpectedly holds")
    result = combine_orthogonal(base, a, j)
    if result.ok or result.pair is None:
        failures.append("combination should fail but still yield a diagnostic pair")
    if [c.name for c in result.failed_checks()] != ["root-of-unity"]:
        failures.append("unexpected failing checks %r" % [c.name for c in result.failed_checks()])
    gram = build_gram(result.pair.domain, result.pair.spectrum, 4)
    if gram.max_offdiagonal() <= 0.1:
        failures.append("off-diagonal %.4f not > 0.1" % gram.max_offdiagonal())
    conclude(
        3,
        "orthogonal mod-6 pair on (1/2)Z: root condition fails, Gram off-diagonal > 0.1",
        failures,
    )


def test_04_truncated_bounds_inside_predicted_constants(unit_base):
    failures = []
    a = FiniteSet.from_ints(5, [0, 2])
    j = FiniteSet.from_ints(5, [0, 1])
    result = combine_riesz(unit_base, a, j)
    if not result.ok:
        failures.append("combination failed")
    predicted_low = result.predicted_lower  # alpha*c with alpha = 1
    predicted_high = result.predicted_upper
    bounds = estimate_frame_bounds(result.pair.domain, result.pair.spectrum, [4, 8])
    for radius, (low, high) in zip((4, 8), bounds):
        if not (predicted_low * 0.9 <= low and high <= predicted_high * 1.1):
            failures.append(
                "radius %d bounds (%.4f, %.4f) outside [%.4f, %.4f]"
                % (radius, low, high, predicted_low * 0.9, predicted_high * 1.1)
            )
    conclude(
        4,
        "mod-5 pair: truncated Gram bounds within 10%% of predicted products "
        "(%.4f, %.4f)" % (predicted_low, predicted_high),
        failures,
    )


def test_05_dual_basis_biorthogonality_and_self_duality(unit_base):
    failures = []
    # two-dimensional pair: translates (0,0), (2,0); shifts (0,0), (1,0)/4
    dom2 = BoxDomain(2, (((0, 0), (1, 1)),))
    a2 = FiniteSet(4, 2, ((0, 0), (2, 0)))
    j2 = FiniteSet(4, 2, ((0, 0), (1, 0)))
    defect2 = verify_biorthogonality(dom2, integer_lattice(2), a2, j2, 3)
    if defect2 >= 1e-8:
        failures.append("planar defect %e" % defect2)
    a5 = FiniteSet.from_ints(5, [0, 2])
    j5 = FiniteSet.from_ints(5, [0, 1])
    defect5 = verify_biorthogonality(unit_base.domain, unit_base.spectrum, a5, j5, 3)
    if defect5 >= 1e-8:
        failures.append("golden-ratio pair defect %e" % defect5)
    unitary = hadamard_report(FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]))
    if not (unitary.is_hadamard and unitary.self_dual):
        failures.append("unitary pair not detected self-dual")
    golden = hadamard_report(a5, j5)
    if golden.is_hadamard or golden.self_dual:
        failures.append("non-unitary pair wrongly detected self-dual")
    conclude(
        5,
        "dual bases biorthogonal to 1e-8 (planar and mod-5 pairs); self-dual iff Hadamard",
        failures,
    )


def test_06_alias_cancellation_certificate():
    failures = []
    a = FiniteSet.from_ints(4, [0, 2])
    j = FiniteSet.from_ints(4, [0, 1])
    t0 = time.perf_counter()
    report = verify_alias_cancellation(a, j, (-6, 6))
    elapsed = time.perf_counter() - t0
    if report.dc_value != 2.0:
        failures.append("dc coefficient %r != 2" % report.dc_value)
    for k in (-2, 2):
        if abs(symbol_of_set(j, k)) >= 1e-10:
            failures.append("symbol at %d not cancelled" % k)
    expected_disjoint = {k for k in range(-6, 7) if k not in (-2, 0, 2)}
    if set(report.disjoint) != expected_disjoint:
        failures.append("disjoint set %r" % (sorted(report.disjoint),))
    if report.overlap_violations or report.symbol_violations:
        failures.append("unexpected violations")
    if elapsed >= 0.01:
        failures.append("check took %.4f s (limit 10 ms)" % elapsed)
    conclude(
        6,
        "aliasing: dc = 2 exactly, symbol vanishes on +-2, all other shifts disjoint, < 10 ms",
        failures,
    )


def test_07_sampling_reconstruction_error_never_grows():
    failures = []
    t0 = time.perf_counter()
    omega = minkowski_translate(unit_box(1), FiniteSet.from_ints(4, [0, 2]))
    signal = BandlimitedSignal.indicator(omega)
    j = FiniteSet.from_ints(4, [0, 1])
    per_box = 128
    grid = np.concatenate(
        [
            float(lo[0]) + (np.arange(per_box) + 0.5) / per_box
            for lo, _ in omega.boxes
        ]
    )
    truth = np.ones_like(grid)
    errors = []
    for m in (8, 16, 32, 64):
        pattern = SamplePattern.from_finite_set(j, m)
        samples = sample_signal(signal, pattern)
        est = reconstruct_spectrum(samples, pattern, j, grid)
        errors.append(float(np.sqrt(np.mean(np.abs(est - truth) ** 2))))
    elapsed = time.perf_counter() - t0
    # the indicator of the whole domain is one basis exponential, so the
    # expansion is a single term and every truncation is already exact at
    # machine precision; decay is asserted up to 5% jitter with that floor
    for earlier, later in zip(errors, errors[1:]):
        if later > earlier * 1.05 + 1e-10:
            failures.append("error grew: %s" % errors)
    if errors[-1] >= 1e-10:
        failures.append("final error %e not at the exact-recovery floor" % errors[-1])
    if elapsed >= 2:
        failures.append("reconstruction took %.2f s (limit 2 s)" % elapsed)
    conclude(
        7,
        "sampling recovery on a 256-point grid: error non-increasing over M = 8..64 "
        "(exact recovery, max %.1e), < 2 s" % max(errors),
        failures,
    )


def test_08_exhaustive_search_small_moduli():
    failures = []
    t0 = time.perf_counter()
    found = enumerate_pairs(SearchQuery(4, 1, 2, PairKind.ORTHOGONAL_BASIS))
    pair_points = {(m.a.points, m.j.points) for m in found.matches}
    if (((0,), (2,)), ((0,), (1,))) not in pair_points:
        failures.append("mod-4 search missed the two-interval pair")
    for m in found.matches:
        if classify_finite_pair(m.a, m.j).kind != m.classification.kind:
            failures.append("search disagrees with classifier on %r" % (m,))
    empty = enumerate_pairs(SearchQuery(3, 1, 2, PairKind.ORTHOGONAL_BASIS))
    if empty.matches:
        failures.append("mod-3 orthogonal search should be empty")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1:
        failures.append("search took %.2f s (limit 1 s)" % elapsed)
    conclude(
        8,
        "search: mod-4 finds the unitary pair and agrees with the classifier; mod-3 empty; < 1 s",
        failures,
    )


def test_09_bessel_bounds_and_tight_subcase(unit_base):
    failures = []
    a = FiniteSet.from_ints(5, [0, 2])
    j = FiniteSet.from_ints(5, [0, 1])
    per_translate = len(j) * unit_base.upper  # #J C, C the base Bessel constant
    coarse = len(a) * len(j) * float(unit_base.domain.measure)  # #A #J |Omega_1|

    spec = shift_spectrum(unit_base.spectrum, j, 5)
    points = enumerate_spectrum(spec, 4)
    dom = minkowski_translate(unit_base.domain, a)
    full_gram = build_gram(dom, spec, 4).entries
    n = len(points)
    translate_grams = []
    for p in a.points:
        piece = unit_base.domain.translate(p)
        g = np.empty((n, n), dtype=complex)
        for i in range(n):
            for k in range(n):
                g[i, k] = exp_inner_product(piece, points[i], points[k])
        translate_grams.append(g)

    rng = np.random.default_rng(5_2_1)
    for _ in range(200):
        c = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        norm2 = float(np.vdot(c, c).real)
        for g in translate_grams:
            if float(np.vdot(c, g @ c).real) > per_translate * norm2 + 1e-9:
                failures.append("per-translate energy bound violated")
        if float(np.vdot(c, full_gram @ c).real) > coarse * norm2 + 1e-9:
            failures.append("global energy bound violated")

    single = FiniteSet.from_ints(5, [0])
    tight = classify_finite_pair(single, j)
    ratio = tight.upper / tight.lower
    if ratio >= 1 + 1e-9:
        failures.append("single-translate pair not tight: ratio %r" % ratio)
    conclude(
        9,
        "energy bounds: per-translate 2, global 4, over 200 random vectors; "
        "single-translate case tight (ratio %.1e above 1)" % (ratio - 1),
        failures,
    )
