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

import operator
from dataclasses import dataclass
from enum import Enum
from numbers import Integral
from typing import NamedTuple

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
    """The one float policy, read through ``TOLERANCES``: rounding bounds, no set thresholds."""
    # e: |cis(u, N) - e^{2 pi i u/N}| <= e eps, eps = 2^-52: the angle 2.0 * math.pi * (u/N) is
    # within 3 pi eps of 2 pi u/N (three roundings), and cos, sin add an ulp each: 10.9 eps in all
    entry_error: float = 12.0
    eigenvalue_floor: float = 1e-12  # Gram eigenvalues below it report as 0

    def gram_bound(self, rows: int) -> float:
        """delta_gram, the error of a float sum of ``rows`` unit products (F^H F) or entries
        (a symbol): per term, in eps, 2e for entries, 2 for a product, rows for the sum."""
        return rows * (2 * self.entry_error + rows + 2) * np.finfo(float).eps


TOLERANCES = Tolerances()


@dataclass(frozen=True)
class FiniteSet:
    """An ordered subset of Z_N^d with exact integer coordinates; the modulus, the
    dimension and every coordinate must be integers (``operator.index``), never truncated."""

    modulus: int
    dimension: int
    points: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n, d = operator.index(self.modulus), operator.index(self.dimension)
        if n < 1:
            raise ValueError("modulus must be a positive integer")
        if d < 1:
            raise ValueError("dimension must be a positive integer")
        reduced = []
        for p in self.points:
            p = (p,) if isinstance(p, Integral) else p  # an integer scalar is a 1-d point
            p = tuple(operator.index(c) % n for c in p)
            if len(p) != d:
                raise DimensionMismatchError("point %r does not have dimension %d" % (p, d))
            reduced.append(p)
        if len(set(reduced)) != len(reduced):
            raise ValueError("points are not distinct mod %d: %r" % (n, reduced))
        vars(self).update(modulus=n, dimension=d, points=tuple(reduced))

    @classmethod
    def from_ints(cls, modulus: int, values) -> "FiniteSet":
        """One-dimensional constructor from plain integers."""
        return cls(modulus, 1, tuple((v,) for v in values))

    def __len__(self) -> int:
        return len(self.points)

    def translate(self, t) -> "FiniteSet":
        t, d = tuple(map(operator.index, (t,) if isinstance(t, Integral) else t)), self.dimension
        if len(t) != d:
            raise DimensionMismatchError("shift %r does not have dimension %d" % (t, d))
        pts = tuple(tuple((c + dt) % self.modulus for c, dt in zip(p, t)) for p in self.points)
        return FiniteSet(self.modulus, self.dimension, pts)

    def to_json_dict(self) -> dict:
        return {"N": self.modulus, "d": self.dimension, "points": self.points}

    @classmethod
    def from_json_dict(cls, data: dict) -> "FiniteSet":
        return cls(data["N"], data["d"], tuple(tuple(p) for p in data["points"]))


@dataclass(frozen=True, eq=False)
class EvaluationMatrix:
    """The (#J x #A) matrix [omega^{j.a}], rows in the order of J's points, columns in A's."""

    entries: np.ndarray


class FiniteClassification(NamedTuple):
    """An immutable, hashable tuple; equals the plain tuple of its fields, unpacks, indexes."""
    kind: PairKind
    lower: float
    upper: float
    condition_number: float

    def to_json_dict(self) -> dict:
        cond = self.condition_number
        return {
            "kind": self.kind._value_,  # the plain attribute behind the ``value`` property
            "lower": self.lower,
            "upper": self.upper,
            "condition": None if cond == np.inf else cond,
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


def _checked_inverse(f: np.ndarray) -> tuple[np.ndarray, int]:
    """F^{-1} and the kind rank of a square evaluation matrix the classifier calls Riesz or more."""
    if f.shape[0] != f.shape[1]:
        raise NonInvertibleError("evaluation matrix is %dx%d, need square" % f.shape)
    rank = _classify_stacked(f[None])[0][0].item()
    if rank < PairKind.RIESZ_BASIS.rank:
        raise NonInvertibleError("evaluation matrix is singular or ill-conditioned")
    return np.linalg.inv(f), rank


def _piece_coefficients(f: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """Dual piece multipliers c[r, s] = k inv[r, s] F[s, r], F[s, r] = omega^{j_s . a_r}."""
    return mul(f.shape[1] * inv, f.T)


def _unitary_defect(f: np.ndarray) -> np.ndarray:
    """max |F^H F - (#rows) I| of F, or of each matrix in a stack F: zero exactly
    when the columns of F are mutually orthogonal with squared norm #rows."""
    gram = np.swapaxes(f.conj(), -1, -2) @ f
    return np.abs(gram - f.shape[-2] * np.eye(f.shape[-1])).max(axis=(-2, -1))


def _classify_stacked(f: np.ndarray, least: PairKind = PairKind.NONE):
    """Kind ranks (indices into _KINDS), lower and upper frame constants, condition numbers and
    stack indices of the matrices of kind at least ``least`` in a stack f of shape (m, #J, #A),
    #J >= #A >= 1.  A float counts as zero inside its rounding bound: sigma_min past delta_rank
    is full rank (a frame, or a Riesz basis when square), and a unitary defect within delta_gram
    alone decides orthogonality, so for an orthogonal ``least`` only what it passes gets an SVD."""
    if not f.shape[2]:
        raise ValueError("A is empty: a pair needs at least one point in A")
    (rows, cols), index = f.shape[1:], np.arange(len(f))
    square, gram_bound, eps = rows == cols, TOLERANCES.gram_bound(rows), np.finfo(float).eps
    screened = square and least is PairKind.ORTHOGONAL_BASIS
    if screened:
        index = np.flatnonzero(_unitary_defect(f) <= gram_bound)
        f = f[index]
    sigma = np.linalg.svd(f, compute_uv=False)
    largest, smallest = sigma[:, 0], sigma[:, -1]
    condition = np.divide(largest, smallest, out=np.full(len(f), np.inf), where=smallest > 0)
    # float_power rounds as a float64 scalar's ** does (libm pow), not as x * x
    lower, upper = np.float_power(smallest, 2), np.float_power(largest, 2)
    orthogonal = np.full(len(f), screened)  # a screened stack holds only what passed
    if square and not screened:
        # a defect within d = delta_gram keeps each sigma^2 within n d + n^2 (n + 2) eps of n = #A
        # and the SVD moves it by 20 n^2 eps at most, so past upper - lower = 4 n d it cannot pass
        near = np.flatnonzero(upper - lower <= 4 * cols * gram_bound)
        orthogonal[near] = _unitary_defect(f[near]) <= gram_bound
    # delta_rank: Weyl, |F~ - F|_2 <= sqrt(#J #A) e eps, plus the SVD's error 10 #J eps sigma_max
    full = smallest > (np.sqrt(rows * cols) * TOLERANCES.entry_error + 10 * rows * largest) * eps
    ranks = np.select([orthogonal, full & square, full], [3, 2, 1], 0)
    keep = ranks >= least.rank
    return ranks[keep], lower[keep], upper[keep], condition[keep], index[keep]


def classify_finite_pair(a: FiniteSet, j: FiniteSet) -> FiniteClassification:
    """Classify (A, J) from the singular values of the evaluation matrix.

    Requires #J >= #A; square pairs may be Riesz or orthogonal bases,
    rectangular ones at most frames.  Constants are squared extreme
    singular values under counting measure.
    """
    f = build_evaluation_matrix(a, j).entries[None]
    if len(j) < len(a):
        raise InsufficientSpectrumError(
            "#J = %d < #A = %d: no frame classification" % (len(j), len(a))
        )
    rank, *bounds = (x[0].item() for x in _classify_stacked(f)[:4])
    return FiniteClassification(_KINDS[rank], *bounds)


def transpose_pair(a: FiniteSet, j: FiniteSet) -> tuple[FiniteSet, FiniteSet]:
    """Swap the roles of A and J; defined only for basis kinds.

    Transposing the evaluation matrix preserves invertibility and
    unitarity, so (J, A) has the same basis kind as (A, J).  For a
    rectangular frame (#J > #A) no symmetry is claimed.
    """
    if len(j) != len(a):
        raise SymmetryUndefinedError(
            "transposition undefined for #J = %d != #A = %d" % (len(j), len(a))
        )
    kind = classify_finite_pair(a, j).kind
    if kind.rank < PairKind.RIESZ_BASIS.rank:
        raise SymmetryUndefinedError("pair is not a Riesz or orthogonal basis: %s" % kind.value)
    return j, a


def symbol_of_set(j: FiniteSet, k) -> complex:
    """The symbol of J at integer argument k: sum_{j in J} e^{-2 pi i j.k / N}."""
    k = tuple(map(operator.index, (k,) if isinstance(k, Integral) else k))
    if len(k) != j.dimension:
        raise DimensionMismatchError("argument %r does not have dimension %d" % (k, j.dimension))
    return complex(_symbols(j, [[c % j.modulus for c in k]])[0])


def _symbols(j: FiniteSet, ks) -> np.ndarray:
    """The symbol of J at each row of ``ks`` (integers in [0, N)), from one ``cis`` call,
    the terms of each sum added in the order of J from 0j."""
    n, d = j.modulus, j.dimension
    jm, km = (int_array(x, d * n * n).reshape(-1, d) for x in (j.points, ks))
    total = np.zeros(len(km), dtype=complex)
    for term in cis(-(jm @ km.T), n):
        total += term
    return total


@dataclass(frozen=True)
class HadamardReport:
    """Whether F^H F = k I and whether the dual system is the primal: one fact (the piece
    coefficients are 1 exactly when F^{-1} = F^H / k), so both are the classifier's orthogonal
    verdict.  The defects are float diagnostics; ``coefficient_defect`` is inf below Riesz."""

    is_hadamard: bool
    self_dual: bool
    unitary_defect: float
    coefficient_defect: float


def hadamard_report(a: FiniteSet, j: FiniteSet) -> HadamardReport:
    """Unitarity (up to scale) of the evaluation matrix and self-duality of the pair."""
    f = build_evaluation_matrix(a, j).entries
    if f.shape[0] != f.shape[1]:
        raise ValueError("hadamard check needs a square evaluation matrix")
    rank, coeff_defect = _classify_stacked(f[None])[0][0], float("inf")
    if rank >= PairKind.RIESZ_BASIS.rank:
        coeff_defect = float(np.abs(_piece_coefficients(f, np.linalg.inv(f)) - 1.0).max())
    orthogonal = bool(rank == PairKind.ORTHOGONAL_BASIS.rank)
    return HadamardReport(orthogonal, orthogonal, float(_unitary_defect(f)), coeff_defect)
