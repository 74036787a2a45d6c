"""The per-pair search loop that the batched classifier in ``search`` replaced,
the scalar canonical form that its array kernel replaced, and the stacked
classification rule before it skipped the unitary defect of matrices whose
squared singular values are too far apart to pass it.

Kept as the references the differential tests compare against: every pair
gets its own two ``FiniteSet``s, its own evaluation matrix, SVD and
unitarity defect, and the deadline and ``max_results`` are checked
before each pair.  Deduplication filters every k-subset of the group
through ``canonical_form``, which sorts every translate of the subset in
Python, and sampling indexes a list of all group elements.
"""

import itertools
import time

import numpy as np

from spectralpairs import (
    FiniteClassification,
    FiniteSet,
    PairKind,
    SearchMatch,
    SearchResult,
    build_evaluation_matrix,
)
from spectralpairs.finite_pairs import TOLERANCES
from spectralpairs.search import EXHAUSTIVE_GROUP_LIMIT


def _translate_subset(subset, t, n):
    return tuple(sorted(tuple((c - tc) % n for c, tc in zip(p, t)) for p in subset))


def canonical_form(subset, n: int) -> tuple:
    """Lexicographically minimal translate of the subset that contains 0."""
    return min(_translate_subset(subset, t, n) for t in subset)


def classify(a: FiniteSet, j: FiniteSet) -> FiniteClassification:
    f = build_evaluation_matrix(a, j).entries
    sigma = np.linalg.svd(f, compute_uv=False)
    lower = float(sigma[-1] ** 2)
    upper = float(sigma[0] ** 2)
    condition = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else float("inf")
    defect = float(np.abs(f.conj().T @ f - f.shape[0] * np.eye(f.shape[1])).max())

    square = len(a) == len(j)
    if square and defect < TOLERANCES.unitary:
        kind = PairKind.ORTHOGONAL_BASIS
    elif square and condition < TOLERANCES.condition_cap:
        kind = PairKind.RIESZ_BASIS
    elif lower > TOLERANCES.frame_lower:
        kind = PairKind.FRAME
    else:
        kind = PairKind.NONE
    return FiniteClassification(kind, lower, upper, condition)


def classify_stacked(f: np.ndarray, least: PairKind = PairKind.NONE):
    """``finite_pairs._classify_stacked`` with the unitary defect of every matrix evaluated:
    one SVD of the whole stack, the same kind rule, the same five arrays."""
    square = f.shape[1] == f.shape[2]
    sigma = np.linalg.svd(f, compute_uv=False)
    largest, smallest = sigma[:, 0], sigma[:, -1]
    condition = np.divide(largest, smallest, out=np.full(len(f), np.inf), where=smallest > 0)
    lower, upper = np.float_power(smallest, 2), np.float_power(largest, 2)
    gram = np.swapaxes(f.conj(), 1, 2) @ f
    defect = np.abs(gram - f.shape[1] * np.eye(f.shape[2])).max(axis=(1, 2))
    orthogonal = square & (defect < TOLERANCES.unitary)
    riesz = square & (condition < TOLERANCES.condition_cap)
    ranks = np.select([orthogonal, riesz, lower > TOLERANCES.frame_lower], [3, 2, 1], 0)
    keep = np.flatnonzero(ranks >= least.rank)
    return ranks[keep], lower[keep], upper[keep], condition[keep], keep


def group_elements(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=d))


def exhaustive_pairs(n: int, d: int, k: int, dedup: bool) -> list[tuple]:
    """Every (A, J) the exhaustive search visits, in its order."""
    subsets = [
        s
        for s in itertools.combinations(group_elements(n, d), k)
        if not dedup or s == canonical_form(s, n)
    ]
    return list(itertools.product(subsets, subsets))


def enumerate_pairs(q) -> SearchResult:
    n, d, k = q.modulus, q.dimension, q.cardinality
    deadline = None if q.time_budget is None else time.monotonic() + q.time_budget
    exhaustive = n**d <= EXHAUSTIVE_GROUP_LIMIT
    matches = []
    examined = 0
    partial = False
    seed = None

    if exhaustive:
        pair_iter = iter(exhaustive_pairs(n, d, k, q.dedup_translates))
    else:
        seed = q.seed if q.seed is not None else int(np.random.SeedSequence().entropy % 2**32)
        rng = np.random.default_rng(seed)
        elements = group_elements(n, d)

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
        classification = classify(a, j)
        if classification.kind.at_least(q.target_kind):
            matches.append(SearchMatch(a, j, classification))
    return SearchResult(tuple(matches), exhaustive, partial, examined, seed)
