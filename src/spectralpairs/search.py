"""Enumeration of Riesz/orthogonal finite pairs in Z_N^d at small N.

Translating A or J multiplies the evaluation matrix by a unimodular
diagonal and so preserves singular values and classification; the
deduplicated search therefore only visits subsets that contain 0 and are
lexicographically minimal among their translates containing 0.  Such a
canonical representative starts with 0, so only subsets holding 0 are
generated.  Groups with more than 16 elements fall back to seeded random
sampling, which draws indices and never builds the group.  Both classify
pairs in fixed-size stacked chunks and build ``FiniteSet``s only for matches.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass

import numpy as np

from ._exact import cis, int_array
from .finite_pairs import (
    FiniteClassification,
    FiniteSet,
    PairKind,
    Tolerances,
    _classify_stacked,
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


def _translate_subset(subset, t, n):
    return tuple(sorted(tuple((c - tc) % n for c, tc in zip(p, t)) for p in subset))


def canonical_form(subset, n: int) -> tuple:
    """Lexicographically minimal translate of the subset that contains 0."""
    return min(_translate_subset(subset, t, n) for t in subset)


def _subsets(n: int, d: int, k: int, dedup: bool) -> list[tuple]:
    """k-subsets of Z_n^d in ``itertools.combinations`` order; with ``dedup``,
    the canonical ones, which all start with 0 and so come first in that order."""
    elements = list(itertools.product(range(n), repeat=d))
    if not dedup:
        return list(itertools.combinations(elements, k))
    candidates = ((elements[0],) + c for c in itertools.combinations(elements[1:], k - 1))
    return [s for s in candidates if s == canonical_form(s, n)]


_CHUNK_ENTRIES = 1 << 20  # evaluation-matrix entries classified per stacked chunk


def _exhaustive_chunks(subsets: list[tuple], size: int):
    """(subsets, ia, ij) for all pairs (subsets[ia], subsets[ij]), A-major, ``size`` at a time."""
    m = len(subsets)
    for start in range(0, m * m, size):
        p = np.arange(start, min(start + size, m * m))
        yield subsets, p // m, p % m


def _sampled_chunks(n: int, d: int, k: int, q: SearchQuery, rng, size: int):
    """The same for ``q.samples`` random pairs, A and J drawn alternately; sorted
    indices give a sorted subset, as row-major order is lexicographic."""
    for start in range(0, q.samples, size):
        draws = 2 * min(size, q.samples - start)
        sel = np.sort([rng.choice(n**d, size=k, replace=False) for _ in range(draws)])
        coords = np.stack(np.unravel_index(sel, (n,) * d), axis=-1).tolist()
        subsets = [tuple(map(tuple, s)) for s in coords]
        if q.dedup_translates:
            subsets = [canonical_form(s, n) for s in subsets]
        yield subsets, np.arange(0, draws, 2), np.arange(1, draws, 2)


def enumerate_pairs(q: SearchQuery, tolerances: Tolerances = Tolerances()) -> SearchResult:
    """All (or sampled) pairs of k-subsets matching the target kind.

    Deduplication keeps one representative per translation orbit of A
    and of J.  The enumeration is exhaustive when the group has at most
    16 elements; larger groups are sampled with the recorded seed.
    ``time_budget`` is checked before each chunk of pairs, so a search it
    stops counts whole chunks in ``examined``; one stopped by
    ``max_results`` counts the pairs up to its last match.
    """
    n, d, k = q.modulus, q.dimension, q.cardinality
    deadline = None if q.time_budget is None else time.monotonic() + q.time_budget
    exhaustive = n**d <= EXHAUSTIVE_GROUP_LIMIT
    size = max(1, _CHUNK_ENTRIES // (k * k))
    seed = None
    if exhaustive:
        subsets = _subsets(n, d, k, q.dedup_translates)
        chunks, total = _exhaustive_chunks(subsets, size), len(subsets) ** 2
    else:
        seed = q.seed if q.seed is not None else int(np.random.SeedSequence().entropy % 2**32)
        rng = np.random.default_rng(seed)
        chunks, total = _sampled_chunks(n, d, k, q, rng, size), q.samples

    limit = total if q.max_results is None else q.max_results  # total: no pair beyond it
    finite = functools.cache(lambda s: FiniteSet(n, d, s))  # one FiniteSet per subset
    kinds = tuple(PairKind)  # in rank order
    matches: list[SearchMatch] = []
    examined, partial = 0, False
    for subsets, ia, ij in chunks:
        if len(matches) >= limit or (deadline is not None and time.monotonic() > deadline):
            partial = True
            break
        points = int_array(subsets, d * n * n).reshape(len(subsets), -1, d)
        f = cis(-(points[ij] @ np.swapaxes(points[ia], 1, 2)), n)
        ranks, lower, upper, condition = _classify_stacked(f, tolerances)
        hits = np.flatnonzero(ranks >= q.target_kind.rank)[: limit - len(matches)]
        for h in hits.tolist():
            a, j = finite(subsets[ia[h]]), finite(subsets[ij[h]])
            kind = kinds[ranks[h]]
            bounds = float(lower[h]), float(upper[h]), float(condition[h])
            matches.append(SearchMatch(a, j, FiniteClassification(kind, *bounds)))
        if len(matches) >= limit:
            examined += int(hits[-1]) + 1
            partial = examined < total
            break
        examined += len(ia)
    return SearchResult(tuple(matches), exhaustive, partial, examined, seed)
