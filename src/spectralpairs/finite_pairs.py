"""Finite exponential pairs on Z_N^d.

A pair of subsets (A, J) of Z_N^d is classified through its evaluation
matrix F with entries F[s, r] = omega^(j_s . a_r), omega = e^{-2 pi i/N}:
rows are indexed by J, columns by A, so F maps coefficient vectors on A
to inner products against the exponentials E_j.  Under counting measure
the squared extreme singular values of F are the frame constants, and
(A, J) is an orthogonal pair exactly when F^H F = (#A) I.

One decision rule classifies a stack of evaluation matrices with one
stacked SVD: a single pair is a stack of one, a search chunk a stack of many.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from enum import Enum

import numpy as np

from ._exact import cis, int_array, mul
from .errors import (
    DimensionMismatchError,
    InsufficientSpectrumError,
    NonInvertibleError,
    SymmetryUndefinedError,
)


class PairKind(str, Enum):
    NONE = "none"
    FRAME = "frame"
    RIESZ_BASIS = "riesz-basis"
    ORTHOGONAL_BASIS = "orthogonal-basis"

    @property
    def rank(self) -> int:
        return _KINDS.index(self)

    def at_least(self, other: "PairKind") -> bool:
        return self.rank >= other.rank


_KINDS = tuple(PairKind)  # in rank order: none, frame, riesz-basis, orthogonal-basis


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds for classification decisions.

    Entries of the evaluation matrix are exact roots of unity, so the
    unitarity defect is pure floating evaluation; 1e-10 is generous.
    """

    unitary: float = 1e-10
    condition_cap: float = 1e12
    frame_lower: float = 1e-10


@dataclass(frozen=True)
class FiniteSet:
    """An ordered subset of Z_N^d with exact integer coordinates."""

    modulus: int
    dimension: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("modulus must be a positive integer")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        reduced = []
        for p in self.points:
            if isinstance(p, int):
                p = (p,)
            p = tuple(int(c) % self.modulus for c in p)
            if len(p) != self.dimension:
                raise DimensionMismatchError(
                    "point %r does not have dimension %d" % (p, self.dimension)
                )
            reduced.append(p)
        if len(set(reduced)) != len(reduced):
            raise ValueError("points are not distinct mod %d: %r" % (self.modulus, reduced))
        object.__setattr__(self, "points", tuple(reduced))

    @classmethod
    def from_ints(cls, modulus: int, values) -> "FiniteSet":
        """One-dimensional constructor from plain integers."""
        return cls(modulus, 1, tuple((int(v),) for v in values))

    def __len__(self) -> int:
        return len(self.points)

    def translate(self, t) -> "FiniteSet":
        t = (t,) if isinstance(t, int) else tuple(t)
        pts = tuple(tuple((c + dt) % self.modulus for c, dt in zip(p, t)) for p in self.points)
        return FiniteSet(self.modulus, self.dimension, pts)

    def to_json_dict(self) -> dict:
        return {"N": self.modulus, "d": self.dimension, "points": [list(p) for p in self.points]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteSet":
        return cls(int(data["N"]), int(data["d"]), tuple(tuple(p) for p in data["points"]))


@dataclass(frozen=True, eq=False)
class EvaluationMatrix:
    """The (#J x #A) matrix [omega^{j.a}], rows in the order of J's points, columns in A's."""

    entries: np.ndarray


@dataclass(frozen=True)
class FiniteClassification:
    kind: PairKind
    lower: float
    upper: float
    condition_number: float

    def to_json_dict(self) -> dict:
        cond = self.condition_number
        return {
            "kind": self.kind.value,
            "lower": self.lower,
            "upper": self.upper,
            "condition": None if cond == float("inf") else cond,
        }


def _require_compatible(a: FiniteSet, j: FiniteSet) -> None:
    if a.modulus != j.modulus:
        raise DimensionMismatchError(
            "moduli differ: %d vs %d" % (a.modulus, j.modulus)
        )
    if a.dimension != j.dimension:
        raise DimensionMismatchError(
            "dimensions differ: %d vs %d" % (a.dimension, j.dimension)
        )


def build_evaluation_matrix(a: FiniteSet, j: FiniteSet) -> EvaluationMatrix:
    """Evaluation matrix with rows indexed by J and columns by A."""
    _require_compatible(a, j)
    n, d = a.modulus, a.dimension
    jm, am = (int_array(s.points, d * n * n).reshape(len(s), d) for s in (j, a))
    return EvaluationMatrix(cis(-(jm @ am.T), n))


def _checked_inverse(f: np.ndarray) -> np.ndarray:
    """F^{-1} for a square evaluation matrix that the classification rule calls a Riesz basis."""
    if f.shape[0] != f.shape[1]:
        raise NonInvertibleError("evaluation matrix is %dx%d, need square" % f.shape)
    if _classify_stacked(f[None], Tolerances())[0][0] < PairKind.RIESZ_BASIS.rank:
        raise NonInvertibleError("evaluation matrix is singular or ill-conditioned")
    return np.linalg.inv(f)


def _piece_coefficients(f: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Dual piece multipliers c[r, s] = k inv[r, s] F[s, r], F[s, r] = omega^{j_s . a_r}."""
    return mul(f.shape[1] * inv, f.T)


def _unitary_defect(f: np.ndarray) -> np.ndarray:
    """max |F^H F - (#rows) I| of F, or of each matrix in a stack F: zero exactly
    when the columns of F are mutually orthogonal with squared norm #rows."""
    gram = np.swapaxes(f.conj(), -1, -2) @ f
    return np.abs(gram - f.shape[-2] * np.eye(f.shape[-1])).max(axis=(-2, -1))


def _classify_stacked(f: np.ndarray, tolerances: Tolerances):
    """Kind ranks (indices into _KINDS), lower and upper frame constants and condition
    numbers of each matrix in a stack f of shape (m, #J, #A), #J >= #A."""
    sigma = np.linalg.svd(f, compute_uv=False)
    largest, smallest = sigma[:, 0], sigma[:, -1]
    condition = np.divide(largest, smallest, out=np.full(len(f), np.inf), where=smallest > 0)
    # float_power rounds as a float64 scalar's ** does (libm pow), not as x * x
    lower, upper = np.float_power(smallest, 2), np.float_power(largest, 2)
    square = f.shape[1] == f.shape[2]
    orthogonal = square and _unitary_defect(f) < tolerances.unitary
    riesz = square and condition < tolerances.condition_cap
    ranks = np.select([orthogonal, riesz, lower > tolerances.frame_lower], [3, 2, 1], 0)
    return ranks, lower, upper, condition


def classify_finite_pair(
    a: FiniteSet, j: FiniteSet, tolerances: Tolerances = Tolerances()
) -> FiniteClassification:
    """Classify (A, J) from the singular values of the evaluation matrix.

    Requires #J >= #A; square pairs may be Riesz or orthogonal bases,
    rectangular ones at most frames.  Constants are squared extreme
    singular values under counting measure.
    """
    _require_compatible(a, j)
    if len(j) < len(a):
        raise InsufficientSpectrumError(
            "#J = %d < #A = %d: no frame classification" % (len(j), len(a))
        )
    f = build_evaluation_matrix(a, j).entries[None]
    ranks, lower, upper, condition = _classify_stacked(f, tolerances)
    return FiniteClassification(
        _KINDS[ranks[0]], float(lower[0]), float(upper[0]), float(condition[0])
    )


def check_mutual_orthogonality(a: FiniteSet, j: FiniteSet) -> bool:
    """True iff sum_{a in A} e^{2 pi i (j - j').a / N} vanishes for all j != j'.

    Those sums are the off-diagonal entries of F F^H (rows of F indexed
    by J), whose diagonal is #A.
    """
    return bool(_unitary_defect(build_evaluation_matrix(a, j).entries.T) < Tolerances().unitary)


def transpose_pair(
    a: FiniteSet, j: FiniteSet, tolerances: Tolerances = Tolerances()
) -> tuple[FiniteSet, FiniteSet]:
    """Swap the roles of A and J; defined only for basis kinds.

    Transposing the evaluation matrix preserves invertibility and
    unitarity, so (J, A) has the same basis kind as (A, J).  For a
    rectangular frame (#J > #A) no symmetry is claimed.
    """
    if len(j) != len(a):
        raise SymmetryUndefinedError(
            "transposition undefined for #J = %d != #A = %d" % (len(j), len(a))
        )
    kind = classify_finite_pair(a, j, tolerances).kind
    if kind.rank < PairKind.RIESZ_BASIS.rank:
        raise SymmetryUndefinedError("pair is not a Riesz or orthogonal basis: %s" % kind.value)
    return j, a


def symbol_of_set(j: FiniteSet, k) -> complex:
    """The symbol of J at integer argument k: sum_{j in J} e^{-2 pi i j.k / N}."""
    k = (k,) if isinstance(k, int) else tuple(int(c) for c in k)
    if len(k) != j.dimension:
        raise DimensionMismatchError("argument %r does not have dimension %d" % (k, j.dimension))
    column = build_evaluation_matrix(FiniteSet(j.modulus, j.dimension, (k,)), j).entries[:, 0]
    total = 0j
    for term in column.tolist():
        total += term
    return total


@dataclass(frozen=True)
class HadamardReport:
    """Whether F^H F = k I, and whether the dual system coincides with the primal."""

    is_hadamard: bool
    self_dual: bool
    unitary_defect: float
    coefficient_defect: float

    def to_json_dict(self) -> dict:
        return asdict(self)


def hadamard_report(a: FiniteSet, j: FiniteSet) -> HadamardReport:
    """Unitarity (up to scale) of the evaluation matrix and self-duality of the pair."""
    f = build_evaluation_matrix(a, j).entries
    if f.shape[0] != f.shape[1]:
        raise ValueError("hadamard check needs a square evaluation matrix")
    tolerance = Tolerances().unitary
    unitary_defect = float(_unitary_defect(f))
    try:
        coeff_defect = float(np.abs(_piece_coefficients(f, _checked_inverse(f)) - 1.0).max())
    except NonInvertibleError:
        coeff_defect = float("inf")
    return HadamardReport(
        is_hadamard=unitary_defect < tolerance,
        self_dual=coeff_defect < tolerance,
        unitary_defect=unitary_defect,
        coefficient_defect=coeff_defect,
    )
