"""Enumeration of Riesz/orthogonal finite pairs in Z_N^d at small N.

Translating A or J multiplies the evaluation matrix by a unimodular
diagonal and so preserves singular values and classification; the
deduplicated search therefore only visits subsets that contain 0 and are
lexicographically minimal among their translates containing 0.  Groups
with more than 16 elements fall back to seeded random sampling.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleError
from .finite_pairs import (
    FiniteClassification,
    FiniteSet,
    PairKind,
    Tolerances,
    _checked_inverse,
    _piece_coefficients,
    _unitary_defect,
    build_evaluation_matrix,
    classify_finite_pair,
)

EXHAUSTIVE_GROUP_LIMIT = 16


@dataclass(frozen=True)
class SearchQuery:
    modulus: int
    dimension: int
    cardinality: int
    target_kind: PairKind = PairKind.ORTHOGONAL_BASIS
    max_results: int | None = None
    time_budget: float | None = None  # seconds
    dedup_translates: bool = True
    seed: int | None = None
    samples: int = 2000  # random pairs examined when not exhaustive

    def __post_init__(self):
        if self.cardinality < 1 or self.cardinality > self.modulus**self.dimension:
            raise ValueError(
                "cardinality %d not in [1, %d]" % (self.cardinality, self.modulus**self.dimension)
            )
        if self.target_kind not in (PairKind.RIESZ_BASIS, PairKind.ORTHOGONAL_BASIS):
            raise ValueError("search targets riesz-basis or orthogonal-basis kinds")


@dataclass(frozen=True)
class SearchMatch:
    a: FiniteSet
    j: FiniteSet
    classification: FiniteClassification

    def to_json_dict(self) -> dict:
        return {
            "A": self.a.to_json_dict(),
            "J": self.j.to_json_dict(),
            "classification": self.classification.to_json_dict(),
        }


@dataclass(frozen=True, eq=False)
class SearchResult:
    matches: tuple[SearchMatch, ...]
    exhaustive: bool
    partial: bool
    examined: int
    seed: int | None


def _group_elements(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=d))


def _translate_subset(subset, t, n):
    return tuple(sorted(tuple((c - tc) % n for c, tc in zip(p, t)) for p in subset))


def canonical_form(subset, n: int) -> tuple:
    """Lexicographically minimal translate of the subset that contains 0."""
    return min(_translate_subset(subset, t, n) for t in subset)


def _subsets(n: int, d: int, k: int, dedup: bool):
    for subset in itertools.combinations(_group_elements(n, d), k):
        if dedup and subset != canonical_form(subset, n):
            continue
        yield subset


def enumerate_pairs(q: SearchQuery, tolerances: Tolerances = Tolerances()) -> SearchResult:
    """All (or sampled) pairs of k-subsets matching the target kind.

    Deduplication keeps one representative per translation orbit of A
    and of J.  The enumeration is exhaustive when the group has at most
    16 elements; larger groups are sampled with the recorded seed.
    """
    n, d, k = q.modulus, q.dimension, q.cardinality
    deadline = None if q.time_budget is None else time.monotonic() + q.time_budget
    exhaustive = n**d <= EXHAUSTIVE_GROUP_LIMIT
    matches: list[SearchMatch] = []
    examined = 0
    partial = False
    seed = None

    if exhaustive:
        subsets = list(_subsets(n, d, k, q.dedup_translates))
        pair_iter = itertools.product(subsets, subsets)
    else:
        seed = q.seed if q.seed is not None else int(np.random.SeedSequence().entropy % 2**32)
        rng = np.random.default_rng(seed)
        elements = _group_elements(n, d)

        def _sampled():
            for _ in range(q.samples):
                a_sel = rng.choice(len(elements), size=k, replace=False)
                j_sel = rng.choice(len(elements), size=k, replace=False)
                a_sub = tuple(sorted(elements[i] for i in a_sel))
                j_sub = tuple(sorted(elements[i] for i in j_sel))
                if q.dedup_translates:
                    a_sub = canonical_form(a_sub, n)
                    j_sub = canonical_form(j_sub, n)
                yield a_sub, j_sub

        pair_iter = _sampled()

    for a_sub, j_sub in pair_iter:
        if deadline is not None and time.monotonic() > deadline:
            partial = True
            break
        if q.max_results is not None and len(matches) >= q.max_results:
            partial = True
            break
        examined += 1
        a = FiniteSet(n, d, a_sub)
        j = FiniteSet(n, d, j_sub)
        classification = classify_finite_pair(a, j, tolerances)
        if classification.kind.at_least(q.target_kind):
            matches.append(SearchMatch(a, j, classification))
    return SearchResult(tuple(matches), exhaustive, partial, examined, seed)


@dataclass(frozen=True)
class HadamardReport:
    """Whether F^H F = k I, and whether the dual system coincides with the primal."""

    is_hadamard: bool
    self_dual: bool
    unitary_defect: float
    coefficient_defect: float

    def to_json_dict(self) -> dict:
        return {
            "is_hadamard": self.is_hadamard,
            "self_dual": self.self_dual,
            "unitary_defect": self.unitary_defect,
            "coefficient_defect": self.coefficient_defect,
        }


def hadamard_report(a: FiniteSet, j: FiniteSet) -> HadamardReport:
    """Unitarity (up to scale) of the evaluation matrix and self-duality of the pair."""
    f = build_evaluation_matrix(a, j).entries
    if f.shape[0] != f.shape[1]:
        raise ValueError("hadamard check needs a square evaluation matrix")
    tolerance = Tolerances().unitary
    unitary_defect = _unitary_defect(f)
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
