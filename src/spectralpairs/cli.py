"""Command-line front end: classification, construction, certification, figures.

Subcommands: classify, construct, gram, bounds, dual, biorth,
sample-recon, search, figure.  Reports are JSON; plot data is RFC-4180
CSV with a header row and complex values split into two columns.

Exit codes: 0 success, 1 malformed input or an unreadable or unwritable
path, 2 method hypotheses violated (a diagnostic report is still written
in that case).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

import numpy as np

from ._exact import complex_pairs
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
    enumerate_spectrum,
    integer_lattice,
    minkowski_translate,
    shift_spectrum,
    unit_box,
)
from .errors import InputError, SpectralPairError
from .finite_pairs import FiniteSet, PairKind, build_evaluation_matrix, classify_finite_pair
from .sampling import (
    BandlimitedSignal,
    SamplePattern,
    reconstruct_spectrum,
    sample_signal,
    verify_alias_cancellation,
)
from .search import SearchQuery, enumerate_pairs

_GRID_LIMIT = 2**20  # sample-recon --grid points: about 250 bytes each as CSV rows, 256 MiB

_COMBINERS = {
    "frame": combine_frame,
    "riesz": combine_riesz,
    "orthogonal": combine_orthogonal,
}


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as InputError (exit code 1)."""

    def error(self, message):
        raise InputError(message)


def _points(text: str) -> tuple[tuple[int, ...], ...]:
    """'0,2' -> 1-d points; '0,0;2,0' -> 2-d points."""
    text = text.strip()
    vectors = [tok for tok in text.split(";") if tok.strip()] if ";" in text else text.split(",")
    try:
        points = tuple(tuple(int(c) for c in tok.split(",")) for tok in vectors)
        if points:
            return points
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("invalid points %r (use '0,2' or '0,0;2,0')" % text)


def _rational(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError("invalid rational %r" % text) from None


def _rationals(text: str) -> list[Fraction]:
    return [_rational(tok) for tok in text.split(",") if tok.strip()]


def _finite_set(modulus: int | None, points, flag: str) -> FiniteSet:
    if points is None:
        raise InputError("--%s is required for this subcommand" % flag)
    if modulus is None:
        raise InputError("--N is required for this subcommand")
    return FiniteSet(modulus, len(points[0]), points)


def _parse_json(path: str, parse):
    """parse(data) for the JSON in path; malformed JSON, a missing key or a value the
    parser rejects (wrong shape or type, zero denominator, failed check) is malformed
    input naming the path, not a crash."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(
                "malformed JSON in %s: %s (line %d, column %d)"
                % (path, exc.msg, exc.lineno, exc.colno)
            )
        except UnicodeDecodeError as exc:
            raise InputError("malformed JSON in %s: %s" % (path, exc)) from None
    try:
        return parse(data)
    except KeyError as exc:
        raise InputError("malformed input in %s: missing key %s" % (path, exc)) from None
    except (TypeError, IndexError, ValueError, ZeroDivisionError, SpectralPairError) as exc:
        raise InputError("malformed input in %s: %s" % (path, exc)) from None


def _write(text: str, out: str | None) -> None:
    """text and a newline to the file out, or to stdout when out is not given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit_json(data: dict, out: str | None) -> None:
    _write(json.dumps(data, indent=2), out)


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _writable(path: str) -> str:
    """path, or the OSError that writing a file there would raise; leaves no file behind."""
    try:
        open(path, "x").close()
        os.remove(path)
    except FileExistsError:
        open(path, "a").close()
    return path


def _base_pair(path: str | None, dimension: int) -> ContinuousPair:
    """The base pair in the JSON file path; by default the unit cube [0,1)^d with Z^d."""
    if path:
        return _parse_json(path, ContinuousPair.from_json_dict)
    return ContinuousPair.orthogonal(unit_box(dimension), integer_lattice(dimension))


def _finite_json(s: dict, name: str) -> FiniteSet:
    cells = [("N", s["N"]), ("d", s["d"])] + [
        ("points[%d][%d]" % (i, k), x) for i, p in enumerate(s["points"]) for k, x in enumerate(p)]
    for path, value in cells:
        if not hasattr(value, "__index__"):  # as operator.index tests, naming the value's path
            raise TypeError("%s.%s: '%s' object cannot be interpreted as an integer"
                            % (name, path, type(value).__name__))
    return FiniteSet.from_json_dict(s)


def _finite_pair(ns) -> tuple[FiniteSet, FiniteSet]:
    if ns.finite:
        return _parse_json(ns.finite, lambda data: tuple(_finite_json(data[k], k) for k in "AJ"))
    return _finite_set(ns.N, ns.A, "A"), _finite_set(ns.N, ns.J, "J")


def _combined_pair(ns) -> ContinuousPair:
    """Pair from --pair JSON, or constructed from --N/--A/--J (+ optional --base).

    Built unconditionally (no hypothesis gate) so that failing pairs can
    still be examined numerically; the kind label is left unclaimed.
    """
    if ns.pair:
        return _parse_json(ns.pair, ContinuousPair.from_json_dict)
    a, j = _finite_pair(ns)
    base = _base_pair(ns.base, a.dimension)
    domain = minkowski_translate(base.domain, a)
    spectrum = shift_spectrum(base.spectrum, j, j.modulus)
    return ContinuousPair(domain, spectrum, PairKind.NONE, 0.0, 0.0)


# ---------------------------------------------------------------- handlers


def _cmd_classify(ns) -> int:
    a, j = _finite_pair(ns)
    classification = classify_finite_pair(a, j)
    matrix = build_evaluation_matrix(a, j)
    report = {
        "A": a.to_json_dict(),
        "J": j.to_json_dict(),
        **classification.to_json_dict(),
        "matrix": complex_pairs(matrix.entries),
    }
    _emit_json(report, ns.out)
    return 0


def _cmd_construct(ns) -> int:
    a, j = _finite_pair(ns)
    base = _base_pair(ns.base, a.dimension)
    result: CombinedPairResult = _COMBINERS[ns.kind](base, a, j)
    _emit_json(result.to_json_dict(), ns.out)
    if not result.ok:
        for check in result.failed_checks():
            print("hypothesis failed: %s -- %s" % (check.name, check.detail), file=sys.stderr)
        return 2
    return 0


def _cmd_gram(ns) -> int:
    pair = _combined_pair(ns)
    gram = build_gram(pair.domain, pair.spectrum, ns.radius)
    report = {
        "radius": str(ns.radius),
        "measure": float(pair.domain.measure),
        "max_offdiagonal": gram.max_offdiagonal(),
        "eigenvalues": [float(e) for e in gram.eigenvalues()],
        **gram.to_json_dict(),
    }
    _emit_json(report, ns.out)
    return 0


def _cmd_bounds(ns) -> int:
    pair = _combined_pair(ns)
    bounds = estimate_frame_bounds(pair.domain, pair.spectrum, ns.radii)
    report = {
        "label": "estimated",  # truncated-Gram values, not certificates
        "radii": [str(r) for r in ns.radii],
        "bounds": [[lo, hi] for lo, hi in bounds],
    }
    _emit_json(report, ns.out)
    if ns.csv:
        _write_csv(
            ns.csv,
            ["radius", "lower", "upper"],
            [[str(r), lo, hi] for r, (lo, hi) in zip(ns.radii, bounds)],
        )
    return 0


def _cmd_dual(ns) -> int:
    a, j = _finite_pair(ns)
    base = _base_pair(ns.base, a.dimension)
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
    base = _base_pair(ns.base, a.dimension)
    defect = verify_biorthogonality(base.domain, base.spectrum, a, j, ns.radius)
    measure = float(base.domain.measure) * len(a)
    _emit_json({"radius": str(ns.radius), "measure": measure, "max_defect": defect}, ns.out)
    return 0


def _cmd_sample_recon(ns) -> int:
    a, j = _finite_pair(ns)
    if a.dimension != 1:
        raise InputError("sample-recon is one-dimensional")
    if ns.grid < 1:
        raise InputError("--grid %d is below 1 point" % ns.grid)
    if ns.grid > _GRID_LIMIT:
        raise InputError("--grid %d is over %d points" % (ns.grid, _GRID_LIMIT))
    # [0,1) + A sampled on Z + J/N: the setting that verify_alias_cancellation certifies
    omega = minkowski_translate(unit_box(1), a)
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
    _write_csv(ns.out, ["xi", "re", "im", "error"], rows)

    k_max = 2 * a.modulus
    report = verify_alias_cancellation(a, j, (-k_max, k_max))
    rel_error = float(
        np.sqrt(np.mean(np.abs(estimates - truth) ** 2) / np.mean(np.abs(truth) ** 2))
    )
    _emit_json(
        {"csv": ns.out, "samples": len(samples), "relative_l2_error": rel_error,
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
    result = enumerate_pairs(query)
    lines = [json.dumps(m.to_json_dict()) for m in result.matches]
    meta = {"exhaustive": result.exhaustive, "partial": result.partial,
            "examined": result.examined, "seed": result.seed}
    _write("\n".join(lines + [json.dumps({"meta": meta})]), ns.out)
    return 0


def _figure_pairs() -> dict[str, tuple[ContinuousPair, tuple[str, ...]]]:
    """Figure name -> (pair, the CSV files written for it: domain and/or points)."""
    fig2_a = FiniteSet.from_ints(4, [0, 2])
    fig2_j = FiniteSet.from_ints(4, [0, 1])
    fig2 = combine_orthogonal(_base_pair(None, 1), fig2_a, fig2_j).pair
    fig3 = cartesian_product(fig2, fig2)
    fig1 = combine_riesz(
        _base_pair(None, 2),
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

# flags that several subcommands take, each declared once
_SHARED = {
    "--N": dict(type=int, help="modulus of the finite group"),
    "--A": dict(type=_points, help="points of A: '0,2' or '0,0;2,0'"),
    "--J": dict(type=_points, help="points of J: same format as --A"),
    "--finite": dict(help="JSON file with {'A': ..., 'J': ...}"),
    "--base": dict(help="base pair JSON (default: unit cube with Z^d)"),
    "--pair": dict(help="combined pair JSON"),
    "--out": dict(type=_writable, help="report path (default stdout)"),
}
_FINITE = ("--N", "--A", "--J", "--finite")

# subcommand -> (handler, help, the shared flags it takes, its own flags)
_COMMANDS = {
    "classify": (
        _cmd_classify, "classify a finite pair in Z_N^d", _FINITE + ("--out",), {}
    ),
    "construct": (
        _cmd_construct, "combine a base pair with a finite pair",
        _FINITE + ("--base", "--out"),
        {"--kind": dict(choices=sorted(_COMBINERS), default="orthogonal")},
    ),
    "gram": (
        _cmd_gram, "Gram matrix of a combined pair", _FINITE + ("--base", "--pair", "--out"),
        {"--radius": dict(type=_rational, default="5")},
    ),
    "bounds": (
        _cmd_bounds, "frame-bound estimates over growing radii",
        _FINITE + ("--base", "--pair", "--out"),
        {
            "--radii": dict(type=_rationals, default="2,4,8"),
            "--csv": dict(type=_writable, help="also write radius/lower/upper CSV here"),
        },
    ),
    "dual": (
        _cmd_dual, "biorthogonal dual data for a finite pair", _FINITE + ("--base", "--out"),
        {"--csv": dict(type=_writable, help="also write piecewise dual coefficients here")},
    ),
    "biorth": (
        _cmd_biorth, "biorthogonality defect of the dual system", _FINITE + ("--base", "--out"),
        {"--radius": dict(type=_rational, default="3")},
    ),
    "sample-recon": (
        _cmd_sample_recon, "sampling reconstruction on [0,1) + A from Z + J/N", _FINITE,
        {
            "--M": dict(type=int, default=32, help="pattern truncation"),
            "--grid": dict(type=int, default=256),
            "--out": dict(type=_writable, default="sample_recon.csv", help="output CSV path"),
            "--report": dict(type=_writable, help="JSON report path (default stdout)"),
        },
    ),
    "search": (
        _cmd_search, "enumerate Riesz/orthogonal pairs in Z_N^d", ("--out",),
        {
            "--N": dict(_SHARED["--N"], required=True),
            "--d": dict(type=int, default=1),
            "--k": dict(type=int, required=True),
            "--kind": dict(choices=["riesz", "orthogonal"], default="orthogonal"),
            "--limit": dict(type=int),
            "--budget": dict(type=float, help="time budget in seconds"),
            "--seed": dict(type=int),
            "--no-dedup": dict(action="store_true"),
        },
    ),
    "figure": (
        _cmd_figure, "CSV data reproducing the bundled figures", (),
        {"name": dict(help="fig1 | fig2 | fig3 | fig4"), "--out": dict(default=".")},
    ),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="spectralpairs", description=__doc__)
    subs = parser.add_subparsers(dest="command")
    for command, (func, help_text, shared, own) in _COMMANDS.items():
        p = subs.add_parser(command, help=help_text)
        for flag in shared:
            p.add_argument(flag, **_SHARED[flag])
        for flag, spec in own.items():
            p.add_argument(flag, **spec)
        p.set_defaults(func=func)
    return parser


def run(argv=None) -> int:
    """Parse arguments and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        ns = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
        if ns.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return ns.func(ns)
    except (SpectralPairError, ValueError, OSError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
