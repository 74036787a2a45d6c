"""Differential test: the chunked search against the per-pair search loop.

``enumerate_pairs`` classifies stacked chunks of pairs with one SVD call
per chunk, one representative per distinct integer phase matrix
P = J A^T mod N, and, with deduplication, generates only subsets that
start with 0.  The reference in ``reference`` is the loop it replaced:
one ``FiniteSet`` pair, evaluation matrix, SVD and classification per
pair, and a canonical-form filter over every k-subset.
Both must visit the same pairs in the same order and report the same
floats bit for bit.  The array kernel that canonicalises a stack of
subsets is checked against the scalar ``canonical_form`` kept there too.
"""

import itertools
from dataclasses import replace
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import canonical_form as reference_canonical_form
from reference import column_grouping
from reference import enumerate_pairs as reference_enumerate_pairs

from spectralpairs import PairKind, SearchQuery, enumerate_pairs, search
from spectralpairs._exact import cis
from spectralpairs.finite_pairs import TOLERANCES, _classify_stacked, _unitary_defect
from spectralpairs.search import _CHUNK_ENTRIES, EXHAUSTIVE_GROUP_LIMIT, _canonical

MAX_REFERENCE_SUBSETS = 60  # keeps the reference loop under ~3,600 pairs


@st.composite
def queries(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 8))
    k = draw(st.integers(1, min(3, n**d)))
    dedup = draw(st.booleans())
    if n**d <= EXHAUSTIVE_GROUP_LIMIT and not dedup:
        k = min(k, max(c for c in range(1, k + 1) if comb(n**d, c) <= MAX_REFERENCE_SUBSETS))
    return SearchQuery(
        n,
        d,
        k,
        draw(st.sampled_from([PairKind.RIESZ_BASIS, PairKind.ORTHOGONAL_BASIS])),
        max_results=draw(st.one_of(st.none(), st.just(1), st.integers(0, 8))),
        dedup_translates=dedup,
        seed=draw(st.integers(0, 2**32 - 1)),
        samples=draw(st.integers(1, 40)),
    )


def _summary(result):
    return (
        [
            (m.a, m.j, m.classification.kind, m.classification.lower.hex(),
             m.classification.upper.hex(), m.classification.condition_number.hex())
            for m in result.matches
        ],
        result.exhaustive,
        result.partial,
        result.examined,
        result.seed,
    )


@settings(max_examples=150, deadline=None)
@given(queries(), st.sampled_from([_CHUNK_ENTRIES, 90]))  # 90 entries: 10 pairs of 3 x 3
# one Riesz pair here has a singular value whose square differs from x * x in the last bit
@example(SearchQuery(10, 1, 4, PairKind.RIESZ_BASIS), _CHUNK_ENTRIES)
# no orthogonal pair: the screen leaves an empty stack for the SVD
@example(SearchQuery(4, 2, 3, PairKind.ORTHOGONAL_BASIS), _CHUNK_ENTRIES)
# a group of exactly EXHAUSTIVE_GROUP_LIMIT elements is still searched exhaustively
@example(SearchQuery(16, 1, 4, PairKind.ORTHOGONAL_BASIS), _CHUNK_ENTRIES)
# the first match is pair 12 of 40: examined counts the 11 screened pairs before it
@example(SearchQuery(6, 2, 2, PairKind.ORTHOGONAL_BASIS, max_results=1, seed=2, samples=40),
         _CHUNK_ENTRIES)
# k = 1: no off-diagonal difference, so the symbol table drops no pair
@example(SearchQuery(5, 1, 1, PairKind.ORTHOGONAL_BASIS), _CHUNK_ENTRIES)
# every subset, not one per translation orbit, screened on the symbol table
@example(SearchQuery(6, 1, 2, PairKind.ORTHOGONAL_BASIS, dedup_translates=False), _CHUNK_ENTRIES)
# the first match is pair 10 of 100, after 9 pairs the symbol table drops
@example(SearchQuery(8, 1, 4, PairKind.ORTHOGONAL_BASIS, max_results=1), _CHUNK_ENTRIES)
# 37 chunks of 10 pairs: the first, all dropped, classifies nothing; the stop is pair 76
@example(SearchQuery(12, 1, 3, PairKind.ORTHOGONAL_BASIS, max_results=2), 90)
def test_chunked_search_matches_per_pair_loop(q, entries):
    with mock.patch.object(search, "_CHUNK_ENTRIES", entries):
        assert _summary(enumerate_pairs(q)) == _summary(reference_enumerate_pairs(q))


@st.composite
def exhaustive_orthogonal_queries(draw):
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, EXHAUSTIVE_GROUP_LIMIT if d == 1 else 4))
    k, dedup = draw(st.integers(1, min(4, n**d))), draw(st.booleans())
    if not dedup:
        k = min(k, max(c for c in range(1, k + 1) if comb(n**d, c) <= MAX_REFERENCE_SUBSETS))
    return SearchQuery(n, d, k, PairKind.ORTHOGONAL_BASIS, dedup_translates=dedup)


@settings(max_examples=100, deadline=None)
@given(exhaustive_orthogonal_queries())
@example(SearchQuery(16, 1, 4, PairKind.ORTHOGONAL_BASIS))
@example(SearchQuery(4, 2, 3, PairKind.ORTHOGONAL_BASIS))
def test_symbol_screen_drops_only_pairs_the_unitary_defect_rejects(q):
    """The screen decides on P = J A^T mod N alone (the symbol of J at a_r' - a_r sums the
    roots of P[s, r'] - P[s, r] in the order of J), so the pairs it drops are those whose P
    never reaches grouping; each of them has a unitary defect past delta_gram."""
    n, k, grouped = q.modulus, q.cardinality, set()

    def spy(keys, modulus):
        grouped.update(map(tuple, keys.tolist()))
        return distinct(keys, modulus)

    distinct = search._distinct
    with mock.patch.object(search, "_distinct", spy):
        result = enumerate_pairs(q)
    subsets = search._subsets(n, q.dimension, k, q.dedup_translates)
    ia, ij = np.divmod(np.arange(len(subsets) ** 2), len(subsets))
    phases = (subsets[ij] @ np.swapaxes(subsets[ia], 1, 2)) % n
    dropped = np.array([p for p in phases if tuple(p.ravel().tolist()) not in grouped])
    assert result.examined == len(phases) and not result.partial
    if len(dropped):
        assert (_unitary_defect(cis(-dropped, n)) > TOLERANCES.gram_bound(k)).all()


def phases(match):
    """The integer matrix P = J A^T mod N on which the evaluation matrix of a match depends."""
    j, a = np.array(match.j.points), np.array(match.a.points)
    return tuple((j @ a.T % match.a.modulus).ravel().tolist())


GROUPED = [
    SearchQuery(4, 2, 3, PairKind.RIESZ_BASIS),  # 1,225 pairs, 202 distinct P
    SearchQuery(4, 2, 3, PairKind.ORTHOGONAL_BASIS),
    SearchQuery(3, 2, 3, PairKind.RIESZ_BASIS),
    SearchQuery(3, 2, 3, PairKind.ORTHOGONAL_BASIS),
    SearchQuery(4, 1, 2, PairKind.RIESZ_BASIS, dedup_translates=False),
    SearchQuery(4, 1, 2, PairKind.ORTHOGONAL_BASIS, dedup_translates=False),
    SearchQuery(4, 2, 3, PairKind.RIESZ_BASIS, max_results=9),
    SearchQuery(4, 1, 2, PairKind.RIESZ_BASIS, dedup_translates=False, max_results=7),
    SearchQuery(40, 1, 3, PairKind.RIESZ_BASIS, seed=7, samples=300),
    SearchQuery(40, 2, 2, PairKind.ORTHOGONAL_BASIS, seed=8, samples=300),
]


@pytest.mark.parametrize("q", GROUPED)
def test_grouped_search_matches_per_pair_loop(q):
    """Matches, order, kinds, float bits (``float.hex``), ``examined`` and ``partial`` as
    the per-pair loop reports them."""
    assert _summary(enumerate_pairs(q)) == _summary(reference_enumerate_pairs(q))


@pytest.mark.parametrize("q", [q for q in GROUPED if q.max_results])
def test_max_results_cut_falls_inside_a_run_of_one_matrix(q):
    """The cut separates two consecutive matches with the same P, so one distinct matrix
    has matches on both sides of it."""
    full = enumerate_pairs(replace(q, max_results=None))
    cut = q.max_results
    assert phases(full.matches[cut - 1]) == phases(full.matches[cut])
    assert enumerate_pairs(q).matches == full.matches[:cut]


def test_each_stack_holds_distinct_matrices(monkeypatch):
    stacks = []

    def spy(f, *args):
        assert len({m.tobytes() for m in f}) == len(f)
        stacks.append(len(f))
        return _classify_stacked(f, *args)

    monkeypatch.setattr(search, "_classify_stacked", spy)
    examined = sum(enumerate_pairs(q).examined for q in GROUPED)
    assert 0 < sum(stacks) < examined


@pytest.mark.parametrize("q", GROUPED)
def test_matches_with_one_matrix_share_one_classification(q):
    result = enumerate_pairs(q)
    owners = {}
    for m in result.matches:
        owners.setdefault(phases(m), set()).add(id(m.classification))
    assert all(len(ids) == 1 for ids in owners.values())
    assert len(set().union(*owners.values())) == len(owners)  # one object per distinct P


@st.composite
def subset_stacks(draw):
    """(n, d, subsets): a few k-subsets of Z_n^d as element codes, in no particular order."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 8))
    k = draw(st.one_of(st.just(1), st.just(n**d), st.integers(1, min(n**d, 12))))
    m = draw(st.integers(1, 4))
    return n, d, [draw(st.permutations(range(n**d)))[:k] for _ in range(m)]


@settings(max_examples=150, deadline=None)
@given(subset_stacks())
@example((8, 3, [list(range(512))]))
@example((5, 2, [[7], [0], [24]]))
def test_canonical_kernel_matches_scalar_reference(case):
    n, d, subsets = case
    elements = list(itertools.product(range(n), repeat=d))  # row-major: code i is elements[i]
    points = [[elements[c] for c in s] for s in subsets]
    want = [reference_canonical_form(s, n) for s in points]
    assert [tuple(map(tuple, s)) for s in _canonical(np.array(points), n).tolist()] == want


@st.composite
def phase_rows(draw):
    """Rows of k*k digits in [0, n), drawn from a few distinct ones so that rows repeat."""
    n, k = draw(st.integers(1, 64)), draw(st.integers(1, 5))
    pool = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=k * k, max_size=k * k),
                         min_size=1, max_size=6))
    return n, np.array(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40)))


@settings(max_examples=200, deadline=None)
@given(phase_rows())
@example((16, np.array([[15] * 16, [0] * 15 + [1], [1] + [0] * 15, [15] * 16])))
@example((64, np.array([[63] * 25, [63] * 24 + [62], [63] * 25])))
@example((2**40, np.array([[2**40 - 1, 5], [0, 1], [2**40 - 1, 5]], dtype=object)))
def test_packed_grouping_matches_column_lexsort(case):
    n, keys = case
    got, want = search._distinct(keys, n), column_grouping(keys)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_packed_grouping_of_z16_k4_phases():
    """The 13,456 phase rows of Z_16 at k = 4, two int64 words each, group as before."""
    points = search._subsets(16, 1, 4, True)
    pairs = np.array(list(itertools.product(range(len(points)), repeat=2)))
    phases = (points[pairs[:, 1]] @ np.swapaxes(points[pairs[:, 0]], 1, 2)) % 16
    keys = phases.reshape(len(pairs), -1)
    got, want = search._distinct(keys, 16), column_grouping(keys)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert len(got[0]) < len(keys)
