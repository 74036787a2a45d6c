"""Command-line front end: classification, construction, certification, figures.

Subcommands: classify, construct, gram, bounds, dual, biorth,
sample-recon, search, figure.  Reports are JSON; plot data is RFC-4180
CSV with a header row and complex values split into two columns.

Exit codes: 0 success, 1 malformed input, 2 method hypotheses violated
(a diagnostic report is still written in that case).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np

from .analytics import (
    DualBasis,
    build_gram,
    estimate_frame_bounds,
    verify_biorthogonality,
)
from .constructor import (
    CombinedPairResult,
    ContinuousPair,
    cartesian_product,
    combine_frame,
    combine_orthogonal,
    combine_riesz,
)
from .domains import (
    BoxDomain,
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    shift_spectrum,
    unit_box,
)
from .errors import InputError, SpectralPairError
from .finite_pairs import FiniteSet, PairKind, Tolerances, build_evaluation_matrix, classify_finite_pair
from .sampling import (
    BandlimitedSignal,
    SamplePattern,
    reconstruct_spectrum,
    sample_signal,
    verify_alias_cancellation,
)
from .search import SearchQuery, enumerate_pairs

_COMBINERS = {
    "frame": combine_frame,
    "riesz": combine_riesz,
    "orthogonal": combine_orthogonal,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as InputError (exit code 1)."""

    def error(self, message):
        raise InputError(message)


def _parse_points(text: str) -> tuple[tuple[int, ...], ...]:
    """'0,2' -> 1-d points; '0,0;2,0' -> 2-d points."""
    text = text.strip()
    if ";" in text:
        vectors = [tok for tok in text.split(";") if tok.strip()]
        return tuple(tuple(int(c) for c in tok.split(",")) for tok in vectors)
    return tuple((int(tok),) for tok in text.split(","))


def _finite_set(ns, attr: str) -> FiniteSet:
    raw = getattr(ns, attr, None)
    if raw is None:
        raise InputError("--%s is required for this subcommand" % attr)
    if ns.N is None:
        raise InputError("--N is required for this subcommand")
    points = _parse_points(raw)
    return FiniteSet(ns.N, len(points[0]), points)


def _load_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise InputError("no such file: %s" % path)
    except json.JSONDecodeError as exc:
        raise InputError(
            "malformed JSON in %s: %s (line %d, column %d)"
            % (path, exc.msg, exc.lineno, exc.colno)
        )


def _parse_json(path: str, parse):
    """parse(data) for the JSON in path; a missing key or a value of the
    wrong shape is malformed input, not a crash."""
    data = _load_json(path)
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError("malformed input in %s: missing key %s" % (path, exc)) from None
    except (TypeError, IndexError) as exc:
        raise InputError("malformed input in %s: %s" % (path, exc)) from None


def _emit_json(data: dict, out: str | None) -> None:
    text = json.dumps(data, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _tolerances(ns) -> Tolerances:
    tol = getattr(ns, "tol", None)
    if tol is None:
        return Tolerances()
    if not 0 < tol < 1e-3:
        raise InputError("--tol must lie strictly between 0 and 1e-3")
    return Tolerances(unitary=tol, frame_lower=tol)


def _base_pair(ns, dimension: int) -> ContinuousPair:
    path = getattr(ns, "base", None)
    if path:
        return _parse_json(path, ContinuousPair.from_json_dict)
    return ContinuousPair.orthogonal(unit_box(dimension), integer_lattice(dimension))


def _finite_pair(ns) -> tuple[FiniteSet, FiniteSet]:
    path = getattr(ns, "finite", None)
    if path:
        return _parse_json(
            path,
            lambda data: (FiniteSet.from_json_dict(data["A"]), FiniteSet.from_json_dict(data["J"])),
        )
    return _finite_set(ns, "A"), _finite_set(ns, "J")


def _combined_pair(ns) -> ContinuousPair:
    """Pair from --pair JSON, or constructed from --N/--A/--J (+ optional --base).

    Built unconditionally (no hypothesis gate) so that failing pairs can
    still be examined numerically; the kind label is left unclaimed.
    """
    path = getattr(ns, "pair", None)
    if path:
        return _parse_json(path, ContinuousPair.from_json_dict)
    a, j = _finite_pair(ns)
    base = _base_pair(ns, a.dimension)
    domain = minkowski_translate(base.domain, a)
    spectrum = shift_spectrum(base.spectrum, j, j.modulus)
    return ContinuousPair(domain, spectrum, PairKind.NONE, 0.0, 0.0)


# ---------------------------------------------------------------- handlers


def _cmd_classify(ns) -> int:
    a, j = _finite_pair(ns)
    classification = classify_finite_pair(a, j, _tolerances(ns))
    matrix = build_evaluation_matrix(a, j)
    report = {
        "A": a.to_json_dict(),
        "J": j.to_json_dict(),
        **classification.to_json_dict(),
        "matrix": [[[z.real, z.imag] for z in row] for row in matrix.entries],
    }
    _emit_json(report, ns.out)
    return 0


def _cmd_construct(ns) -> int:
    a, j = _finite_pair(ns)
    base = _base_pair(ns, a.dimension)
    result: CombinedPairResult = _COMBINERS[ns.kind](base, a, j, _tolerances(ns))
    _emit_json(result.to_json_dict(), ns.out)
    if not result.ok:
        for check in result.failed_checks():
            print("hypothesis failed: %s -- %s" % (check.name, check.detail), file=sys.stderr)
        return 2
    return 0


def _cmd_gram(ns) -> int:
    pair = _combined_pair(ns)
    gram = build_gram(pair.domain, pair.spectrum, Fraction(ns.radius))
    report = {
        "radius": str(Fraction(ns.radius)),
        "measure": float(pair.domain.measure),
        "max_offdiagonal": gram.max_offdiagonal(),
        "eigenvalues": [float(e) for e in gram.eigenvalues()],
        **gram.to_json_dict(),
    }
    _emit_json(report, ns.out)
    return 0


def _cmd_bounds(ns) -> int:
    pair = _combined_pair(ns)
    radii = [Fraction(tok) for tok in ns.radii.split(",") if tok.strip()]
    bounds = estimate_frame_bounds(pair.domain, pair.spectrum, radii)
    report = {
        "label": "estimated",  # truncated-Gram values, not certificates
        "radii": [str(r) for r in radii],
        "bounds": [[lo, hi] for lo, hi in bounds],
    }
    _emit_json(report, ns.out)
    if ns.csv:
        _write_csv(
            ns.csv,
            ["radius", "lower", "upper"],
            [[str(r), lo, hi] for r, (lo, hi) in zip(radii, bounds)],
        )
    return 0


def _cmd_dual(ns) -> int:
    a, j = _finite_pair(ns)
    base = _base_pair(ns, a.dimension)
    dual = DualBasis.build(base.domain, a, j)
    _emit_json({"A": a.to_json_dict(), "J": j.to_json_dict(), **dual.to_json_dict()}, ns.out)
    if ns.csv:
        rows = [
            [r, s, dual.piece_coefficients[r, s].real, dual.piece_coefficients[r, s].imag]
            for r in range(len(a))
            for s in range(len(j))
        ]
        _write_csv(ns.csv, ["translate", "shift", "re", "im"], rows)
    return 0


def _cmd_biorth(ns) -> int:
    a, j = _finite_pair(ns)
    base = _base_pair(ns, a.dimension)
    defect = verify_biorthogonality(base.domain, base.spectrum, a, j, Fraction(ns.radius))
    measure = float(base.domain.measure) * len(a)
    _emit_json(
        {"radius": str(Fraction(ns.radius)), "measure": measure, "max_defect": defect},
        ns.out,
    )
    return 0


def _cmd_sample_recon(ns) -> int:
    a, j = _finite_pair(ns)
    if a.dimension != 1:
        raise InputError("sample-recon is one-dimensional")
    omega = minkowski_translate(_base_pair(ns, 1).domain, a)
    signal = BandlimitedSignal.indicator(omega)
    pattern = SamplePattern.from_finite_set(j, ns.M)
    samples = sample_signal(signal, pattern)

    per_box = max(1, ns.grid // len(omega.boxes))
    xs = np.concatenate(
        [
            float(lo[0]) + (np.arange(per_box) + 0.5) * (float(hi[0]) - float(lo[0])) / per_box
            for lo, hi in omega.boxes
        ]
    )
    estimates = reconstruct_spectrum(samples, pattern, j, xs)
    truth = np.array([signal.hat(x) for x in xs])
    rows = [
        [x, est.real, est.imag, abs(est - t)]
        for x, est, t in zip(xs, estimates, truth)
    ]
    out_csv = ns.out or "sample_recon.csv"
    _write_csv(out_csv, ["xi", "re", "im", "error"], rows)

    k_max = 2 * a.modulus
    report = verify_alias_cancellation(a, j, (-k_max, k_max))
    rel_error = float(
        np.sqrt(np.mean(np.abs(estimates - truth) ** 2) / np.mean(np.abs(truth) ** 2))
    )
    _emit_json(
        {"csv": out_csv, "samples": len(samples), "relative_l2_error": rel_error,
         "alias": report.to_json_dict()},
        ns.report,
    )
    return 0 if report.passed else 2


def _cmd_search(ns) -> int:
    query = SearchQuery(
        modulus=ns.N,
        dimension=ns.d,
        cardinality=ns.k,
        target_kind=PairKind.RIESZ_BASIS if ns.kind == "riesz" else PairKind.ORTHOGONAL_BASIS,
        max_results=ns.limit,
        time_budget=ns.budget,
        dedup_translates=not ns.no_dedup,
        seed=ns.seed,
    )
    result = enumerate_pairs(query, _tolerances(ns))
    lines = [json.dumps(m.to_json_dict()) for m in result.matches]
    meta = json.dumps(
        {
            "meta": {
                "exhaustive": result.exhaustive,
                "partial": result.partial,
                "examined": result.examined,
                "seed": result.seed,
            }
        }
    )
    text = "\n".join(lines + [meta])
    if ns.out:
        with open(ns.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _figure_pairs() -> dict[str, tuple[ContinuousPair, tuple[str, ...]]]:
    """Figure name -> (pair, the CSV files written for it: domain and/or points)."""
    fig2_a = FiniteSet.from_ints(4, [0, 2])
    fig2_j = FiniteSet.from_ints(4, [0, 1])
    base1 = ContinuousPair.orthogonal(
        BoxDomain.interval(0, 1), integer_lattice(1)
    )
    fig2 = combine_orthogonal(base1, fig2_a, fig2_j).pair
    fig3 = cartesian_product(fig2, fig2)
    base2 = ContinuousPair.orthogonal(
        BoxDomain.from_boxes([((0, 0), (1, 1))]), integer_lattice(2)
    )
    fig1 = combine_riesz(
        base2,
        FiniteSet(4, 2, ((0, 0), (2, 0))),
        FiniteSet(4, 2, ((0, 0), (1, 0))),
    ).pair
    both = ("domain", "spectrum")
    return {
        "fig1": (fig1, both),
        "fig2": (fig2, both),
        "fig3": (fig3, both),
        "fig4": (fig2, ("pattern",)),  # fig2's spectrum as a sampling pattern
    }


def _cmd_figure(ns) -> int:
    pairs = _figure_pairs()
    if ns.name not in pairs:
        raise InputError("unknown figure %r (use fig1..fig4)" % ns.name)
    pair, files = pairs[ns.name]
    os.makedirs(ns.out, exist_ok=True)
    # the window |x_i| <= 21/4 (1-d) or 13/4 (2-d) holds every figure spectrum
    # point B z + shift with lattice indices |z_i| <= 5 (1-d) or 3 (2-d)
    radius = Fraction(21, 4) if pair.domain.dimension == 1 else Fraction(13, 4)
    coord_names = ["x", "y", "z"][: pair.domain.dimension]
    for name in files:
        path = os.path.join(ns.out, "%s_%s.csv" % (ns.name, name))
        if name == "domain":
            header = ["lo_%s" % c for c in coord_names] + ["hi_%s" % c for c in coord_names]
            rows = [[str(c) for c in lo] + [str(c) for c in hi] for lo, hi in pair.domain.boxes]
        else:
            header = coord_names
            rows = [[str(c) for c in p] for p in enumerate_spectrum(pair.spectrum, radius)]
        _write_csv(path, header, rows)
        print(path)
    return 0


# ---------------------------------------------------------------- wiring


def _add_finite_flags(sub) -> None:
    sub.add_argument("--N", type=int, help="modulus of the finite group")
    sub.add_argument("--A", help="points of A: '0,2' or '0,0;2,0'")
    sub.add_argument("--J", help="points of J: same format as --A")
    sub.add_argument("--finite", help="JSON file with {'A': ..., 'J': ...}")


def build_parser() -> _Parser:
    parser = _Parser(prog="spectralpairs", description=__doc__)
    subs = parser.add_subparsers(dest="command")

    p = subs.add_parser("classify", help="classify a finite pair in Z_N^d")
    _add_finite_flags(p)
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_classify)

    p = subs.add_parser("construct", help="combine a base pair with a finite pair")
    _add_finite_flags(p)
    p.add_argument("--base", help="base pair JSON (default: unit cube with Z^d)")
    p.add_argument("--kind", choices=sorted(_COMBINERS), default="orthogonal")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    p = subs.add_parser("gram", help="Gram matrix of a combined pair")
    _add_finite_flags(p)
    p.add_argument("--base")
    p.add_argument("--pair", help="combined pair JSON")
    p.add_argument("--radius", default="5")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gram)

    p = subs.add_parser("bounds", help="frame-bound estimates over growing radii")
    _add_finite_flags(p)
    p.add_argument("--base")
    p.add_argument("--pair")
    p.add_argument("--radii", default="2,4,8")
    p.add_argument("--csv", help="also write radius/lower/upper CSV here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = subs.add_parser("dual", help="biorthogonal dual data for a finite pair")
    _add_finite_flags(p)
    p.add_argument("--base")
    p.add_argument("--csv", help="also write piecewise dual coefficients here")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_dual)

    p = subs.add_parser("biorth", help="biorthogonality defect of the dual system")
    _add_finite_flags(p)
    p.add_argument("--base")
    p.add_argument("--radius", default="3")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_biorth)

    p = subs.add_parser("sample-recon", help="sampling reconstruction demo data")
    _add_finite_flags(p)
    p.add_argument("--base")
    p.add_argument("--M", type=int, default=32, help="pattern truncation")
    p.add_argument("--grid", type=int, default=256)
    p.add_argument("--out", help="output CSV path")
    p.add_argument("--report", help="JSON report path (default stdout)")
    p.set_defaults(func=_cmd_sample_recon)

    p = subs.add_parser("search", help="enumerate Riesz/orthogonal pairs in Z_N^d")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kind", choices=["riesz", "orthogonal"], default="orthogonal")
    p.add_argument("--limit", type=int)
    p.add_argument("--budget", type=float, help="time budget in seconds")
    p.add_argument("--seed", type=int)
    p.add_argument("--no-dedup", action="store_true")
    p.add_argument("--tol", type=float)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_search)

    p = subs.add_parser("figure", help="CSV data reproducing the bundled figures")
    p.add_argument("name", help="fig1 | fig2 | fig3 | fig4")
    p.add_argument("--out", default=".")
    p.set_defaults(func=_cmd_figure)

    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 1
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "func", None):
            parser.print_usage(sys.stderr)
            return 1
        return ns.func(ns)
    except (SpectralPairError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
