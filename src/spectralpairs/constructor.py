"""Combining a continuous exponential pair with a finite pair on Z_N^d.

Given a pair (Omega_1, Lambda_1) whose exponentials form a frame, Riesz
basis or orthogonal basis of L^2(Omega_1), and a finite pair (A, J) of
the matching kind on Z_N^d, the Minkowski sums

    Omega = Omega_1 + A,      Lambda = Lambda_1 + J/N

form a pair of the same kind on L^2(Omega), with frame constants equal
to the products of the input constants, provided the translated copies
of Omega_1 are disjoint and every e^{2 pi i lambda . a} equals 1.

Hypothesis failures are reported, not raised: a failing combination is a
first-class diagnostic object whose (still constructible) domain and
spectrum can be handed to the analytics module to exhibit the failure
numerically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domains import (
    BoxDomain,
    Spectrum,
    _scaled,
    _translates,
    minkowski_translate,
    root_of_unity_condition,
    shift_spectrum,
)
from .errors import (
    DimensionMismatchError,
    DuplicateSpectrumError,
    OverlapError,
    UnsupportedPairError,
)
from .finite_pairs import (
    FiniteClassification,
    FiniteSet,
    PairKind,
    classify_finite_pair,
)


@dataclass(frozen=True)
class ContinuousPair:
    """A domain, a spectrum, the claimed kind and its frame/Riesz constants."""

    domain: BoxDomain
    spectrum: Spectrum
    kind: PairKind
    lower: float
    upper: float
    JSON_READERS = {"domain": BoxDomain.JSON_READERS, "spectrum": Spectrum.JSON_READERS,
                    "kind": PairKind, "lower": float, "upper": float}

    def __post_init__(self):
        object.__setattr__(self, "kind", PairKind(self.kind))  # a kind's string value too
        if self.domain.dimension != self.spectrum.dimension:
            raise DimensionMismatchError(
                "domain dimension %d != spectrum dimension %d"
                % (self.domain.dimension, self.spectrum.dimension)
            )
        if not (math.isfinite(self.lower) and math.isfinite(self.upper)):
            raise ValueError("pair constants must be finite")
        if self.lower > self.upper:
            raise ValueError("lower constant exceeds upper constant")
        if self.kind.at_least(PairKind.FRAME) and not self.lower > 0:
            raise ValueError("a %s pair needs a positive lower constant" % self.kind.value)

    @classmethod
    def orthogonal(cls, domain: BoxDomain, spectrum: Spectrum) -> "ContinuousPair":
        """Claim an orthogonal pair; with unnormalized exponentials the
        frame constants are both |Omega|."""
        measure = float(domain.measure)
        return cls(domain, spectrum, PairKind.ORTHOGONAL_BASIS, measure, measure)

    def to_json_dict(self) -> dict:
        return {
            "domain": self.domain.to_json_dict(),
            "spectrum": self.spectrum.to_json_dict(),
            "kind": self.kind.value,
            "lower": self.lower,
            "upper": self.upper,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "ContinuousPair":
        return cls(
            BoxDomain.from_json_dict(data["domain"]),
            Spectrum.from_json_dict(data["spectrum"]),
            PairKind(data["kind"]),
            float(data["lower"]),
            float(data["upper"]),
        )


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


@dataclass(frozen=True, eq=False)
class CombinedPairResult:
    """Outcome of a combination attempt.

    ``pair`` carries the combined kind when every hypothesis holds and
    kind ``none`` otherwise; it is omitted only when the domain or the
    spectrum itself cannot be built (overlapping translates, repeated
    shifts).  Predicted constants are the exact products of the input
    constants, NaN when the finite classification was unavailable.
    """

    pair: ContinuousPair | None
    predicted_lower: float
    predicted_upper: float
    checks: tuple[HypothesisCheck, ...]
    finite: FiniteClassification | None

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def kind(self) -> PairKind:
        return self.pair.kind if self.pair is not None else PairKind.NONE

    def failed_checks(self) -> list[HypothesisCheck]:
        return [c for c in self.checks if not c.passed]

    def to_json_dict(self) -> dict:
        return {
            "pair": None if self.pair is None else self.pair.to_json_dict(),
            "kind": self.kind.value,
            "predicted_lower": _json_float(self.predicted_lower),
            "predicted_upper": _json_float(self.predicted_upper),
            "hypotheses": [c.to_json_dict() for c in self.checks],
            "finite": None if self.finite is None else self.finite.to_json_dict(),
        }


def _json_float(x: float):
    return None if math.isnan(x) else x


def _geometry_checks(base: ContinuousPair, a: FiniteSet, overlap: OverlapError | None) -> list:
    """The two exact geometric hypotheses: disjoint translates (``overlap`` names the
    first overlapping pair, if any), then root of unity."""
    root_ok = root_of_unity_condition(base.spectrum, a)
    return [
        HypothesisCheck("disjoint-translates", overlap is None,
                        "translated copies disjoint" if overlap is None else str(overlap)),
        HypothesisCheck("root-of-unity", root_ok,
                        "e^{2 pi i lambda.a} = 1 for all base spectrum points and a in A"
                        if root_ok else "root-of-unity condition failed"),
    ]


def _kind_check(name: str, role: str, kind: PairKind, target: PairKind) -> HypothesisCheck:
    message = "%s pair is %s, need at least %s" % (role, kind.value, target.value)
    return HypothesisCheck(name, kind.at_least(target), message)


def _combine(
    base: ContinuousPair,
    a: FiniteSet,
    j: FiniteSet,
    target: PairKind,
) -> CombinedPairResult:
    checks = [_kind_check("base-kind", "base", base.kind, target)]

    frame = target == PairKind.FRAME
    card_ok = len(j) >= len(a) if frame else len(j) == len(a)
    card_msg = "#J = %d, #A = %d (need #J %s #A)" % (len(j), len(a), ">=" if frame else "=")
    checks.append(HypothesisCheck("cardinality", card_ok, card_msg))

    domain = overlap = None
    try:  # raises DimensionMismatchError for a base of another dimension than A
        domain = minkowski_translate(base.domain, a)
    except OverlapError as exc:
        overlap = exc
    checks.extend(_geometry_checks(base, a, overlap))

    finite = None
    if card_ok:
        finite = classify_finite_pair(a, j)
        checks.append(_kind_check("finite-kind", "finite", finite.kind, target))
    else:
        checks.append(HypothesisCheck("finite-kind", False, "cardinality precondition failed"))

    spectrum = None
    try:
        spectrum = shift_spectrum(base.spectrum, j, j.modulus)
        checks.append(HypothesisCheck("distinct-shifts", True, "all shifts distinct mod lattice"))
    except DuplicateSpectrumError as exc:
        checks.append(HypothesisCheck("distinct-shifts", False, str(exc)))

    ok = all(c.passed for c in checks)
    if finite is not None:
        predicted_lower = base.lower * finite.lower
        predicted_upper = base.upper * finite.upper
        for side, x, y in ("lower", base.lower, finite.lower), ("upper", base.upper, finite.upper):
            if not math.isfinite(x * y):
                raise ValueError("predicted %s constant overflows: %r * %r" % (side, x, y))
    else:
        predicted_lower = predicted_upper = float("nan")

    pair = None
    if domain is not None and spectrum is not None:
        if ok:
            pair = ContinuousPair(domain, spectrum, target, predicted_lower, predicted_upper)
        else:
            pair = ContinuousPair(domain, spectrum, PairKind.NONE, 0.0, 0.0)
    return CombinedPairResult(pair, predicted_lower, predicted_upper, tuple(checks), finite)


def combine_frame(base: ContinuousPair, a: FiniteSet, j: FiniteSet) -> CombinedPairResult:
    """Frame + frame -> frame, constants (alpha c, beta C)."""
    return _combine(base, a, j, PairKind.FRAME)


def combine_riesz(base: ContinuousPair, a: FiniteSet, j: FiniteSet) -> CombinedPairResult:
    """Riesz basis + invertible square finite pair -> Riesz basis."""
    return _combine(base, a, j, PairKind.RIESZ_BASIS)


def combine_orthogonal(base: ContinuousPair, a: FiniteSet, j: FiniteSet) -> CombinedPairResult:
    """Orthogonal basis + orthogonal finite pair -> orthogonal basis."""
    return _combine(base, a, j, PairKind.ORTHOGONAL_BASIS)


def _joined(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Every x[i] joined with every y[k] along the last axis, i-major."""
    reps = (len(x),) + (1,) * (y.ndim - 1)
    return np.concatenate([np.repeat(x, len(y), axis=0), np.tile(y, reps)], axis=-1)


def cartesian_product(p1: ContinuousPair, p2: ContinuousPair) -> ContinuousPair:
    """Product of two orthogonal pairs, written from their integer forms over the lcm of
    the denominators (still least): the boxes and the shifts are the pairs, first-major, so
    the union stays disjoint, and the generators are block-diagonal."""
    for p in (p1, p2):
        if p.kind != PairKind.ORTHOGONAL_BASIS:
            raise UnsupportedPairError(
                "cartesian products are only taken of orthogonal pairs, got %s" % p.kind.value
            )
    (x, y), (s, t) = (p1.domain, p2.domain), (p1.spectrum, p2.spectrum)
    (d, e), den = (x.dimension, y.dimension), math.lcm(x._den, y._den)
    a, b = (_scaled(z._corners, z._den, den).reshape(-1, 2, z.dimension) for z in (x, y))
    domain = object.__new__(BoxDomain)._validate(_joined(a, b).reshape(-1, d + e), den, True)
    den = math.lcm(s._den, t._den)
    u, v = (_scaled(z._nums, z._den, den) for z in (s, t))
    basis = np.block([[u[:d], np.zeros((d, e), u.dtype)], [np.zeros((e, d), v.dtype), v[:e]]])
    shifts = _joined(u[d:], v[e:])
    spectrum = object.__new__(Spectrum)._validate(np.concatenate([basis, shifts]), den)
    return ContinuousPair.orthogonal(domain, spectrum)


@dataclass(frozen=True)
class CompletenessReport:
    checks: tuple[HypothesisCheck, ...]

    @property
    def applies(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json_dict(self) -> dict:
        return {"applies": self.applies, "checks": [c.to_json_dict() for c in self.checks]}


def check_completeness_hypotheses(
    base: ContinuousPair, a: FiniteSet, j: FiniteSet
) -> CompletenessReport:
    """Whether completeness of the base system transfers to the combined one.

    Needs disjoint translates, the root-of-unity condition, and a base
    system that is itself complete (any frame kind suffices).
    """
    checks = _geometry_checks(base, a, _translates(base.domain, a)[1])
    checks.append(
        HypothesisCheck(
            "base-complete",
            base.kind.at_least(PairKind.FRAME),
            "base kind %s" % base.kind.value,
        )
    )
    return CompletenessReport(tuple(checks))
