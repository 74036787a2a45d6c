"""The three workloads: seeded inputs, one job per input, and its gate.

Every job calls the public API of ``spectralpairs`` in the order the
matching CLI subcommands use, then serialises the reports the CLI would
write.  Each call into a layer is wrapped in a span keyed by the layer
(``analytics.gram``, ``domains``, ...); counts of the work each call did,
nested work included, are added from the inputs and outputs the job sees.

Inputs come in rounds.  A round holds every template of the workload once,
in a seeded order and with seeded parameters, so every seed runs the same
mix and any seed is valid.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import spectralpairs as sp
from spectralpairs import analytics as _analytics

GATE_TOL = 1e-9


def _rng(workload: str, seed: int, round_index: int) -> random.Random:
    # str seeds are hashed with sha512, so this is stable across processes
    return random.Random("%s:%d:%d" % (workload, seed, round_index))


def _finite(modulus: int, dimension: int, points) -> sp.FiniteSet:
    return sp.FiniteSet(modulus, dimension,
                        tuple((p,) if isinstance(p, int) else tuple(p) for p in points))


def _offset_base(dimension: int, offset: Fraction) -> sp.ContinuousPair:
    """[t, t+1)^d with Z^d: an orthogonal pair whose phases are fresh per job."""
    lo = (offset,) * dimension
    hi = (offset + 1,) * dimension
    return sp.ContinuousPair.orthogonal(sp.BoxDomain(dimension, ((lo, hi),)),
                                        sp.integer_lattice(dimension))


_OFFSET_DENOMINATORS = (53, 59, 61, 67, 71, 73, 79, 83, 89, 97)


def _rational_offset(rng: random.Random) -> Fraction:
    # prime denominators, so every offset is a fraction of the same size
    q = rng.choice(_OFFSET_DENOMINATORS)
    return Fraction(rng.randrange(1, q), q)


def count_points(spectrum: sp.Spectrum, radius) -> int:
    """Number of spectrum points with sup-norm <= radius, for a diagonal lattice basis.

    Used for counts and for the tiling gate, so it is computed here in
    integer arithmetic rather than by the library's enumeration.
    """
    r = Fraction(radius)
    d = spectrum.dimension
    scales = []
    for i, g in enumerate(spectrum.basis):
        if any(c != 0 for k, c in enumerate(g) if k != i):
            return len(sp.enumerate_spectrum(spectrum, radius))
        scales.append(abs(g[i]))
    total = 0
    for shift in spectrum.shifts:
        n = 1
        for i in range(d):
            b, s = scales[i], shift[i]
            n *= max(0, math.floor((r - s) / b) - math.ceil((-r - s) / b) + 1)
        total += n
    return total


def _dumps(report) -> str:
    """The bytes ``spectralpairs`` CLI writes for a JSON report."""
    return json.dumps(report, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    fh = io.StringIO(newline="")
    writer = csv.writer(fh)
    writer.writerow(header)
    writer.writerows(rows)
    return fh.getvalue()


def _check_names(checks) -> list[str]:
    return [c.name for c in checks if not c.passed]


# ------------------------------------------------------------------ certify

# name: (dimension, kind, N, A, J)
CERTIFY_TEMPLATES = {
    "interval-orthogonal-z4": (1, "orthogonal", 4, [0, 2], [0, 1]),
    "interval-orthogonal-z6": (1, "orthogonal", 6, [0, 3], [0, 1]),
    "interval-riesz-z5": (1, "riesz", 5, [0, 2], [0, 1]),
    "interval-frame-z5": (1, "frame", 5, [0, 2], [0, 1, 2]),
    "interval-frame-z6": (1, "frame", 6, [0, 3], [0, 1, 2]),
    "square-orthogonal-z4": (2, "orthogonal", 4, [(0, 0), (2, 0)], [(0, 0), (1, 0)]),
    "square-riesz-z5": (2, "riesz", 5, [(0, 0), (2, 0)], [(0, 0), (1, 0)]),
    "square-frame-z5": (2, "frame", 5, [(0, 0), (2, 0)], [(0, 0), (1, 0), (0, 1)]),
}

# per dimension: Gram radius, nested bound radii, biorthogonality radius
CERTIFY_RADII = {1: (16, (2, 4, 8, 16), 6), 2: (2, (1, 2), 2)}
SAMPLE_TRUNCATION = 32  # CLI sample-recon defaults
SAMPLE_GRID = 256

_COMBINE = {
    "orthogonal": sp.combine_orthogonal,
    "riesz": sp.combine_riesz,
    "frame": sp.combine_frame,
}


@dataclass(frozen=True)
class CertifyInput:
    template: str
    dimension: int
    kind: str
    modulus: int
    a: tuple
    j: tuple
    offset: Fraction
    gram_radius: int
    bound_radii: tuple
    biorth_radius: int
    sample_truncation: int
    sample_grid: int


def _certify_input(template, offset, radii=None, truncation=SAMPLE_TRUNCATION,
                   grid=SAMPLE_GRID) -> CertifyInput:
    d, kind, n, a, j = CERTIFY_TEMPLATES[template]
    gram_r, bound_r, biorth_r = radii or CERTIFY_RADII[d]
    return CertifyInput(template, d, kind, n, tuple(a), tuple(j), offset,
                        gram_r, tuple(bound_r), biorth_r, truncation, grid)


def certify_round(seed: int, round_index: int) -> list[CertifyInput]:
    rng = _rng("certify", seed, round_index)
    names = sorted(CERTIFY_TEMPLATES)
    rng.shuffle(names)
    return [_certify_input(name, _rational_offset(rng)) for name in names]


def certify_warmup() -> list[CertifyInput]:
    return [_certify_input("interval-orthogonal-z4", Fraction(1, 3), (2, (1, 2), 1), 4, 16),
            _certify_input("square-riesz-z5", Fraction(1, 3), (1, (1,), 1))]


def run_certify(inp: CertifyInput, tr) -> dict:
    d = inp.dimension
    base = _offset_base(d, inp.offset)
    a = _finite(inp.modulus, d, inp.a)
    j = _finite(inp.modulus, d, inp.j)
    square = len(a) == len(j)

    with tr.span("constructor", "combine_" + inp.kind):
        result = _COMBINE[inp.kind](base, a, j)
    pair = result.pair
    with tr.span("analytics.gram", "build_gram"):
        gram = sp.build_gram(pair.domain, pair.spectrum, inp.gram_radius)
        eigenvalues = gram.eigenvalues()
        max_off = gram.max_offdiagonal()
    with tr.span("analytics.bounds", "estimate_frame_bounds"):
        bounds = sp.estimate_frame_bounds(pair.domain, pair.spectrum, inp.bound_radii)
    dual = defect = None
    if square:
        with tr.span("analytics.biorth", "DualBasis.build"):
            dual = sp.DualBasis.build(base.domain, a, j)
        with tr.span("analytics.biorth", "verify_biorthogonality"):
            defect = sp.verify_biorthogonality(base.domain, base.spectrum, a, j, inp.biorth_radius)
    recon = None
    if d == 1:
        with tr.span("domains", "minkowski_translate"):
            omega = sp.minkowski_translate(base.domain, a)
        with tr.span("sampling", "sample_signal"):
            signal = sp.BandlimitedSignal.indicator(omega)
            pattern = sp.SamplePattern.from_finite_set(j, inp.sample_truncation)
            samples = sp.sample_signal(signal, pattern)
        with tr.span("sampling", "reconstruct_spectrum"):
            per_box = max(1, inp.sample_grid // len(omega.boxes))
            xs = np.concatenate([
                float(lo[0]) + (np.arange(per_box) + 0.5) * (float(hi[0]) - float(lo[0])) / per_box
                for lo, hi in omega.boxes
            ])
            estimates = sp.reconstruct_spectrum(samples, pattern, j, xs)
            truth = np.array([signal.hat(x) for x in xs])
        with tr.span("sampling", "verify_alias_cancellation"):
            k_max = 2 * a.modulus
            alias = sp.verify_alias_cancellation(a, j, (-k_max, k_max))
        recon = (omega, samples, xs, estimates, truth, alias)

    with tr.span("cli.report", "report"):
        texts = [_dumps(result.to_json_dict())]
        texts.append(_dumps({
            "radius": str(Fraction(inp.gram_radius)),
            "measure": float(pair.domain.measure),
            "max_offdiagonal": max_off,
            "eigenvalues": [float(e) for e in eigenvalues],
            **gram.to_json_dict(),
        }))
        texts.append(_dumps({
            "label": "estimated",
            "radii": [str(Fraction(r)) for r in inp.bound_radii],
            "bounds": [[lo, hi] for lo, hi in bounds],
        }))
        if square:
            texts.append(_dumps({"A": a.to_json_dict(), "J": j.to_json_dict(),
                                 **dual.to_json_dict()}))
            texts.append(_dumps({
                "radius": str(Fraction(inp.biorth_radius)),
                "measure": float(base.domain.measure) * len(a),
                "max_defect": defect,
            }))
        if recon is not None:
            omega, samples, xs, estimates, truth, alias = recon
            texts.append(_csv_text(
                ["xi", "re", "im", "error"],
                [[x, e.real, e.imag, abs(e - t)] for x, e, t in zip(xs, estimates, truth)],
            ))
            rel = float(np.sqrt(np.mean(np.abs(estimates - truth) ** 2)
                                / np.mean(np.abs(truth) ** 2)))
            texts.append(_dumps({"csv": "sample_recon.csv", "samples": len(samples),
                                 "relative_l2_error": rel, "alias": alias.to_json_dict()}))

    if tr.enabled:
        grams = [len(gram)] + [count_points(pair.spectrum, r) for r in inp.bound_radii]
        tr.count("analytics.gram_entries", sum(n * n for n in grams))
        tr.count("domains.points_enumerated", sum(grams))
        tr.count("domains.calls", 1 + len(grams))  # minkowski in combine, one enumeration per Gram
        tr.count("domains.boxes_built", len(pair.domain.boxes))
        tr.count("constructor.calls", 1)
        tr.count("constructor.failed_checks", len(result.failed_checks()))
        tr.count("finite_pairs.calls", 1)
        tr.count("finite_pairs.matrix_entries", len(a) * len(j))
        if recon is not None:
            tr.count("domains.calls", 1)
            tr.count("domains.boxes_built", len(recon[0].boxes))
            tr.count("sampling.samples", len(recon[1]))
        tr.count("cli.report_bytes", sum(len(t.encode()) for t in texts))
        factor = _factor_cache()
        if factor is not None:  # emptied before the job, so these are this job's lookups
            info = factor.cache_info()
            tr.count("analytics.factor_cache_hits", info.hits)
            tr.count("analytics.factor_cache_misses", info.misses)

    return {"result": result, "gram": gram, "eigenvalues": eigenvalues, "bounds": bounds,
            "defect": defect, "alias": None if recon is None else recon[5]}


def check_certify(inp: CertifyInput, out: dict) -> list[str]:
    problems = []
    result = out["result"]
    expected_kind = {"orthogonal": "orthogonal-basis", "riesz": "riesz-basis",
                     "frame": "frame"}[inp.kind]
    if not result.ok or result.kind.value != expected_kind:
        problems.append("combination is %s with failed checks %s"
                        % (result.kind.value, _check_names(result.checks)))
        return problems
    lower, upper = result.predicted_lower, result.predicted_upper
    slack = GATE_TOL * max(1.0, upper)
    eig = out["eigenvalues"]
    if inp.kind == "orthogonal":
        measure = float(result.pair.domain.measure)
        entries = out["gram"].entries
        dev = float(np.abs(entries - measure * np.eye(len(entries))).max())
        if dev > GATE_TOL:
            problems.append("Gram differs from |Omega| I by %.3g" % dev)
    if inp.kind in ("orthogonal", "riesz"):
        if eig[0] < lower - slack or eig[-1] > upper + slack:
            problems.append("Gram eigenvalues [%.12g, %.12g] outside [%.12g, %.12g]"
                            % (eig[0], eig[-1], lower, upper))
        for lo, hi in out["bounds"]:
            if lo < lower - slack or hi > upper + slack:
                problems.append("bound estimate (%.12g, %.12g) outside [%.12g, %.12g]"
                                % (lo, hi, lower, upper))
        if not out["defect"] < GATE_TOL:
            problems.append("biorthogonality defect %.3g" % out["defect"])
    else:
        # a frame's truncated Gram may be singular; only the upper bound holds
        if eig[-1] > upper + slack:
            problems.append("Gram eigenvalue %.12g above %.12g" % (eig[-1], upper))
        if any(hi > upper + slack for _, hi in out["bounds"]):
            problems.append("bound estimates %s above %.12g" % (out["bounds"], upper))
    alias = out["alias"]
    if alias is not None and alias.passed != (inp.kind == "orthogonal"):
        problems.append("alias cancellation passed=%s for a %s pair" % (alias.passed, inp.kind))
    return problems


def exact_certify(inp: CertifyInput, out: dict):
    result, alias = out["result"], out["alias"]
    return {
        "template": inp.template,
        "offset": str(inp.offset),
        "kind": result.kind.value,
        "finite_kind": result.finite.kind.value,
        "checks": [[c.name, c.passed] for c in result.checks],
        "domain": result.pair.domain.to_json_dict(),
        "spectrum": result.pair.spectrum.to_json_dict(),
        "gram_points": [[str(c) for c in p] for p in out["gram"].points],
        "alias": None if alias is None else [alias.passed, list(alias.cancelled),
                                             list(alias.disjoint),
                                             [k for k, _ in alias.symbol_violations]],
    }


# ------------------------------------------------------------------- search

# (N, d, k, target) -> number of matches, recorded with the exhaustive
# translation-deduplicated search of the first released version.
SEARCH_REFERENCE = {
    (8, 1, 4, "orthogonal-basis"): 5,
    (9, 1, 4, "orthogonal-basis"): 0,
    (10, 1, 4, "orthogonal-basis"): 0,
    (11, 1, 3, "orthogonal-basis"): 0,
    (12, 1, 3, "orthogonal-basis"): 12,
    (15, 1, 3, "orthogonal-basis"): 17,
    (3, 2, 3, "orthogonal-basis"): 28,
    (3, 2, 4, "orthogonal-basis"): 0,
    (4, 2, 3, "orthogonal-basis"): 0,
    (8, 1, 4, "riesz-basis"): 75,
    (9, 1, 4, "riesz-basis"): 180,
    (10, 1, 4, "riesz-basis"): 412,
    (11, 1, 3, "riesz-basis"): 225,
    (12, 1, 3, "riesz-basis"): 297,
    (15, 1, 3, "riesz-basis"): 869,
    (3, 2, 3, "riesz-basis"): 92,
    (3, 2, 4, "riesz-basis"): 126,
    (4, 2, 3, "riesz-basis"): 912,
}
SEARCH_WARMUP = {
    (4, 1, 2, "orthogonal-basis"): 2,
    (2, 2, 2, "riesz-basis"): 6,
}


@dataclass(frozen=True)
class SearchInput:
    modulus: int
    dimension: int
    cardinality: int
    target: str


def search_round(seed: int, round_index: int) -> list[SearchInput]:
    rng = _rng("search", seed, round_index)
    menu = sorted(SEARCH_REFERENCE)
    rng.shuffle(menu)
    return [SearchInput(*key) for key in menu]


def search_warmup() -> list[SearchInput]:
    return [SearchInput(*key) for key in SEARCH_WARMUP]


def run_search(inp: SearchInput, tr) -> dict:
    query = sp.SearchQuery(inp.modulus, inp.dimension, inp.cardinality, sp.PairKind(inp.target))
    with tr.span("search", "enumerate_pairs"):
        result = sp.enumerate_pairs(query)
    with tr.span("cli.report", "report"):
        lines = [json.dumps(m.to_json_dict()) for m in result.matches]
        meta = json.dumps({"meta": {"exhaustive": result.exhaustive, "partial": result.partial,
                                    "examined": result.examined, "seed": result.seed}})
        texts = ["\n".join(lines + [meta]) + "\n"]
    if tr.enabled:
        k = inp.cardinality
        tr.count("search.examined", result.examined)
        tr.count("search.matches", len(result.matches))
        tr.count("finite_pairs.calls", result.examined)
        tr.count("finite_pairs.matrix_entries", result.examined * k * k)
        tr.count("cli.report_bytes", sum(len(t.encode()) for t in texts))
    return {"result": result}


def check_search(inp: SearchInput, out: dict) -> list[str]:
    result = out["result"]
    key = (inp.modulus, inp.dimension, inp.cardinality, inp.target)
    reference = SEARCH_REFERENCE.get(key, SEARCH_WARMUP.get(key))
    problems = []
    if not result.exhaustive or result.partial:
        problems.append("search was not exhaustive and complete")
    if len(result.matches) != reference:
        problems.append("%d matches for %s, reference %s" % (len(result.matches), key, reference))
    if any(not m.classification.kind.at_least(sp.PairKind(inp.target)) for m in result.matches):
        problems.append("a match is weaker than the target kind")
    return problems


def exact_search(inp: SearchInput, out: dict):
    return {
        "query": [inp.modulus, inp.dimension, inp.cardinality, inp.target],
        "matches": [[m.a.points, m.j.points, m.classification.kind.value]
                    for m in out["result"].matches],
    }


# ------------------------------------------------------------------- tiling

TILING_SIDES = (4, 5, 6)
# level-2 variants and the hypothesis checks each is built to fail
TILING_VARIANTS = {
    "pass": [],
    "root": ["root-of-unity"],
    "overlap": ["disjoint-translates", "root-of-unity", "finite-kind"],
}
COMPLETENESS_FAILS = {
    "pass": [],
    "root": ["root-of-unity"],
    "overlap": ["disjoint-translates", "root-of-unity"],
}
TILING_RADIUS = 1


@dataclass(frozen=True)
class TilingInput:
    side: int  # k: level 1 has k^2 translates
    offset: Fraction
    shift: tuple  # t, the translation of J inside Z_{2k}^2
    variant: str
    radius: int


def tiling_round(seed: int, round_index: int) -> list[TilingInput]:
    rng = _rng("tiling", seed, round_index)
    jobs = []
    for k in TILING_SIDES:
        for variant in TILING_VARIANTS:
            shift = (rng.randrange(2 * k), rng.randrange(2 * k))
            jobs.append(TilingInput(k, _rational_offset(rng), shift, variant, TILING_RADIUS))
    rng.shuffle(jobs)
    return jobs


def tiling_warmup() -> list[TilingInput]:
    return [TilingInput(2, Fraction(1, 3), (1, 0), v, 1) for v in TILING_VARIANTS]


def _grid(k: int, scale: int = 1):
    return [(scale * x, scale * y) for x in range(k) for y in range(k)]


def tiling_sets(inp: TilingInput):
    """Level-1 and level-2 finite pairs for one attempt."""
    k = inp.side
    n1 = 2 * k
    a1 = _finite(n1, 2, _grid(k, 2))
    j1 = _finite(n1, 2, [(x + inp.shift[0], y + inp.shift[1]) for x, y in _grid(k)])
    n2 = 4 * k
    a_step, j_step = {"pass": (2 * k, 1), "root": (2 * k + 1, 2 * k), "overlap": (2, 1)}[inp.variant]
    a2 = _finite(n2, 2, _grid(2, a_step))
    j2 = _finite(n2, 2, _grid(2, j_step))
    return a1, j1, a2, j2


def _classify_report(a, j, classification, matrix) -> dict:
    return {"A": a.to_json_dict(), "J": j.to_json_dict(), **classification.to_json_dict(),
            "matrix": [[[z.real, z.imag] for z in row] for row in matrix.entries]}


def run_tiling(inp: TilingInput, tr) -> dict:
    base = _offset_base(2, inp.offset)
    a1, j1, a2, j2 = tiling_sets(inp)
    with tr.span("finite_pairs", "classify_finite_pair"):
        c1 = sp.classify_finite_pair(a1, j1)
        m1 = sp.build_evaluation_matrix(a1, j1)
    with tr.span("constructor", "combine_orthogonal"):
        level1 = sp.combine_orthogonal(base, a1, j1)
    with tr.span("finite_pairs", "classify_finite_pair"):
        c2 = sp.classify_finite_pair(a2, j2)
        m2 = sp.build_evaluation_matrix(a2, j2)
    with tr.span("constructor", "combine_orthogonal"):
        level2 = sp.combine_orthogonal(level1.pair, a2, j2)
    with tr.span("constructor", "check_completeness_hypotheses"):
        completeness = sp.check_completeness_hypotheses(level1.pair, a2, j2)
    domain = None
    with tr.span("domains", "minkowski_translate", expected=sp.OverlapError):
        try:
            domain = sp.minkowski_translate(level1.pair.domain, a2)
        except sp.OverlapError:
            pass
    with tr.span("domains", "shift_spectrum"):
        spectrum = sp.shift_spectrum(level1.pair.spectrum, j2, j2.modulus)
    with tr.span("domains", "enumerate_spectrum"):
        points = sp.enumerate_spectrum(spectrum, inp.radius)

    with tr.span("cli.report", "report"):
        texts = [
            _dumps(_classify_report(a1, j1, c1, m1)),
            _dumps(level1.to_json_dict()),
            _dumps(_classify_report(a2, j2, c2, m2)),
            _dumps(level2.to_json_dict()),
            _dumps(completeness.to_json_dict()),
            _csv_text(["x", "y"], [[str(c) for c in p] for p in points]),
        ]

    if tr.enabled:
        n1, n2 = len(level1.pair.domain.boxes), len(a2) * len(level1.pair.domain.boxes)
        level2_built = level2.pair is not None
        tr.count("finite_pairs.calls", 4)  # direct and inside each combination
        tr.count("finite_pairs.matrix_entries", 2 * (len(a1) * len(j1) + len(a2) * len(j2)))
        tr.count("constructor.calls", 3)
        tr.count("constructor.failed_checks",
                 len(level1.failed_checks()) + len(level2.failed_checks())
                 + len(_check_names(completeness.checks)))
        # minkowski_translate in both combinations, the completeness check and directly,
        # and one enumeration
        tr.count("domains.calls", 4 + 1)
        tr.count("domains.boxes_built", n1 + (n2 * 3 if level2_built else 0))
        tr.count("domains.points_enumerated", len(points))
        tr.count("cli.report_bytes", sum(len(t.encode()) for t in texts))

    return {"level1": level1, "level2": level2, "c1": c1, "c2": c2,
            "completeness": completeness, "domain": domain, "spectrum": spectrum,
            "points": points}


def check_tiling(inp: TilingInput, out: dict) -> list[str]:
    problems = []
    k = inp.side
    level1, level2 = out["level1"], out["level2"]
    if not level1.ok or level1.kind.value != "orthogonal-basis":
        problems.append("level 1 failed %s" % _check_names(level1.checks))
    elif len(level1.pair.domain.boxes) != k * k or level1.pair.domain.measure != k * k:
        problems.append("level-1 domain is not k^2 unit squares")
    if out["c1"].kind.value != "orthogonal-basis":
        problems.append("level-1 finite pair is %s" % out["c1"].kind.value)
    failed = _check_names(level2.checks)
    if failed != TILING_VARIANTS[inp.variant]:
        problems.append("level 2 failed %s, expected %s" % (failed, TILING_VARIANTS[inp.variant]))
    completeness_failed = _check_names(out["completeness"].checks)
    if completeness_failed != COMPLETENESS_FAILS[inp.variant]:
        problems.append("completeness failed %s, expected %s"
                        % (completeness_failed, COMPLETENESS_FAILS[inp.variant]))
    overlapping = inp.variant == "overlap"
    if (out["domain"] is None) != overlapping:
        problems.append("direct Minkowski sum %s" % ("built" if overlapping else "raised"))
    if out["domain"] is not None and len(out["domain"].boxes) != 4 * k * k:
        problems.append("level-2 domain has %d boxes" % len(out["domain"].boxes))
    if inp.variant == "pass" and (level2.kind.value != "orthogonal-basis"
                                  or len(level2.pair.domain.boxes) != 4 * k * k):
        problems.append("level 2 is %s" % level2.kind.value)
    expected_points = count_points(out["spectrum"], inp.radius)
    if len(out["points"]) != expected_points:
        problems.append("%d spectrum points, expected %d" % (len(out["points"]), expected_points))
    return problems


def exact_tiling(inp: TilingInput, out: dict):
    level2 = out["level2"]
    return {
        "input": [inp.side, str(inp.offset), list(inp.shift), inp.variant, inp.radius],
        "kinds": [out["c1"].kind.value, out["c2"].kind.value,
                  out["level1"].kind.value, level2.kind.value],
        "checks": [[c.name, c.passed] for c in level2.checks],
        "completeness": [[c.name, c.passed] for c in out["completeness"].checks],
        "domain": None if level2.pair is None else level2.pair.domain.to_json_dict(),
        "spectrum": out["spectrum"].to_json_dict(),
        "points": [[str(c) for c in p] for p in out["points"]],
    }


# ---------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    round: object
    warmup: object
    run: object
    check: object
    exact: object


REGISTRY = {
    "certify": Workload("certify", certify_round, certify_warmup, run_certify,
                        check_certify, exact_certify),
    "search": Workload("search", search_round, search_warmup, run_search,
                       check_search, exact_search),
    "tiling": Workload("tiling", tiling_round, tiling_warmup, run_tiling,
                       check_tiling, exact_tiling),
}


def describe(workload: str) -> dict:
    """Workload parameters recorded with every run."""
    if workload == "certify":
        return {"templates": CERTIFY_TEMPLATES,
                "radii": {"%d-d" % d: {"gram": g, "bounds": b, "biorth": r}
                          for d, (g, b, r) in CERTIFY_RADII.items()},
                "sample_truncation": SAMPLE_TRUNCATION, "sample_grid": SAMPLE_GRID,
                "offset": "p/q, q a prime in [53, 97], fresh per job"}
    if workload == "search":
        return {"menu": [list(key) + [count] for key, count in sorted(SEARCH_REFERENCE.items())],
                "dedup_translates": True}
    return {"sides": TILING_SIDES, "variants": TILING_VARIANTS,
            "completeness_fails": COMPLETENESS_FAILS, "radius": TILING_RADIUS,
            "offset": "p/q, q a prime in [53, 97], fresh per job"}


def _factor_cache():
    """The analytics interval-factor cache, or None once it is gone."""
    factor = getattr(_analytics, "_interval_factor", None)
    return factor if hasattr(factor, "cache_clear") else None


FACTOR_CACHE_PRESENT = _factor_cache() is not None


def clear_caches() -> None:
    """Empty the library's caches, which a fresh CLI process starts without.

    Otherwise the cache would grow with the number of jobs a run completes,
    and a faster program would show a larger peak memory.
    """
    factor = _factor_cache()
    if factor is not None:
        factor.cache_clear()
