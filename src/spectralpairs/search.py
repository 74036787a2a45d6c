"""Enumeration of Riesz/orthogonal finite pairs in Z_N^d at small N.

Translating A or J multiplies the evaluation matrix by a unimodular
diagonal and so preserves its classification: the deduplicated search
visits only subsets lexicographically minimal among their translates that
contain 0, which start with 0, so only subsets holding 0 are generated.
Groups with more than 16 elements are sampled with a seed instead, drawing
indices and never building the group.  Pairs go in fixed-size chunks.  A
pair's evaluation matrix depends on it only through P = J A^T mod N, so a
chunk classifies one stack of its distinct P, an orthogonal query screening
it on the unitary defect so that only what passes gets an SVD.  One position
table, distinct P -> match class or -1, takes each pair to its match: matches
with one P share a ``FiniteClassification``, and only matches get
``FiniteSet``s, one per subset, shared by every match that holds it.
"""

from __future__ import annotations

import itertools
import operator
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from ._exact import cis, int_array
from .finite_pairs import (
    FiniteClassification,
    FiniteSet,
    PairKind,
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
        names = "modulus", "dimension", "cardinality", "max_results", "samples", "seed"
        vars(self).update({k: operator.index(v) for k in names if (v := vars(self)[k]) is not None})
        vars(self)["target_kind"] = PairKind(self.target_kind)  # a kind's string value too
        for name in ("modulus", "dimension"):
            if getattr(self, name) < 1:
                raise ValueError("%s must be a positive integer" % name)
        if self.modulus**self.dimension >= 1 << 63:  # sampled elements are drawn as int64
            raise ValueError("N^d = %d^%d is not below 2^63" % (self.modulus, self.dimension))
        for name in ("max_results", "samples", "time_budget", "seed"):
            if not (getattr(self, name) or 0) >= 0:  # NaN too
                raise ValueError("%s must be non-negative" % name)
        if self.cardinality < 1 or self.cardinality > self.modulus**self.dimension:
            raise ValueError(
                "cardinality %d not in [1, %d]" % (self.cardinality, self.modulus**self.dimension)
            )
        if self.target_kind not in (PairKind.RIESZ_BASIS, PairKind.ORTHOGONAL_BASIS):
            raise ValueError("search targets riesz-basis or orthogonal-basis kinds")


class SearchMatch(NamedTuple):
    """An immutable, hashable tuple; equals the plain tuple of its fields, unpacks, indexes."""
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


def _canonical(points: np.ndarray, n: int) -> np.ndarray:
    """The canonical form of each subset in an (m, k, d) array of points of Z_n^d: all
    k translates of all m subsets at once, ravelled to sorted rows of row-major element
    codes, of which each subset keeps the lexicographically smallest."""
    m, k, d = points.shape
    place = int_array([n**e for e in range(d - 1, -1, -1)], n**d)
    translates = points[:, None] - points[:, :, None]  # [i, t]: subset i minus its point t
    translates %= n
    codes = np.sort(translates @ place, axis=-1).reshape(m * k, k)
    # codes order points as tuples do; the subset index is the primary sort key
    first = np.lexsort((*codes.T[::-1], np.repeat(np.arange(m), k)))[::k]
    return codes[first, :, None] // place % n


def _subsets(n: int, d: int, k: int, dedup: bool) -> np.ndarray:
    """Points (m, k, d) of the k-subsets of Z_n^d in ``itertools.combinations`` order;
    with ``dedup``, of the canonical ones, which all start with 0 and so come first."""
    codes = itertools.combinations(range(n**d), k)
    if dedup:
        codes = ((0,) + c for c in itertools.combinations(range(1, n**d), k - 1))
    subsets = np.stack(np.unravel_index(np.array(list(codes)), (n,) * d), axis=-1)
    return subsets[(_canonical(subsets, n) == subsets).all(axis=(1, 2))] if dedup else subsets


_CHUNK_ENTRIES = 1 << 20  # evaluation-matrix entries classified per stacked chunk


def _distinct(keys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """One index per distinct row of integers in [0, n), and each row's position among them.
    Rows sort as base-n numbers, packed into the fewest int64 words, each below 2**62."""
    digits = np.arange(keys.shape[1])
    w = max([1] + [e for e in range(1, len(digits) + 1) if n**e < 1 << 62])  # digits per word
    place = np.zeros((len(digits), -(-len(digits) // w)), dtype=np.int64)  # digit -> word
    place[digits, digits // w] = n ** (digits % w)
    keys = keys @ place
    order = np.lexsort(keys.T)
    first = np.concatenate(([True], (keys[order[1:]] != keys[order[:-1]]).any(axis=1)))
    inverse = np.empty_like(order)
    inverse[order] = np.cumsum(first) - 1
    return order[first], inverse


def _exhaustive_chunks(subsets: np.ndarray, size: int):
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
        subsets = np.stack(np.unravel_index(sel, (n,) * d), axis=-1)
        if q.dedup_translates:
            subsets = _canonical(subsets, n)
        yield subsets, np.arange(0, draws, 2), np.arange(1, draws, 2)


def enumerate_pairs(q: SearchQuery) -> SearchResult:
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
    kinds = np.array(tuple(PairKind), dtype=object)  # in rank order
    matches: list[SearchMatch] = []
    examined, partial = 0, False
    finite: dict[int, FiniteSet] = {}  # subset row -> FiniteSet, built for matches only
    for subsets, ia, ij in chunks:
        if len(matches) >= limit or (deadline is not None and time.monotonic() > deadline):
            partial = True
            break
        points = int_array(subsets, d * n * n)
        phases = (points[ij] @ np.swapaxes(points[ia], 1, 2)) % n  # F = cis(-phases, n)
        distinct, inverse = _distinct(phases.reshape(len(ia), -1), n)
        ranks, *bounds, index = _classify_stacked(cis(-phases[distinct], n), q.target_kind)
        position = np.full(len(distinct), -1)  # distinct matrix -> its match class, or -1
        position[index] = np.arange(len(index))
        owner = position[inverse]
        hits = np.flatnonzero(owner >= 0)[: limit - len(matches)]
        # records built as NamedTuple._make builds them, by tuple.__new__, with no Python frame
        fields = zip(kinds[ranks], *(x.tolist() for x in bounds))
        classes = list(map(tuple.__new__, itertools.repeat(FiniteClassification), fields))
        a_rows, j_rows = ia[hits].tolist(), ij[hits].tolist()
        if not exhaustive:
            finite.clear()  # each sampled chunk draws new subsets
        for i in {*a_rows, *j_rows}.difference(finite):
            finite[i] = FiniteSet(n, d, points[i].tolist())
        owners = map(classes.__getitem__, owner[hits].tolist())
        fields = zip(map(finite.get, a_rows), map(finite.get, j_rows), owners)
        matches.extend(map(tuple.__new__, itertools.repeat(SearchMatch), fields))
        if len(matches) >= limit:
            examined += int(hits[-1]) + 1
            partial = examined < total
            break
        examined += len(ia)
    return SearchResult(tuple(matches), exhaustive, partial, examined, seed)
