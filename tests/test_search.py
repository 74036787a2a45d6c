import itertools
from dataclasses import replace

import numpy as np
import pytest
from reference_search import enumerate_pairs as reference_enumerate_pairs
from reference_search import exhaustive_pairs

from spectralpairs import (
    FiniteSet,
    PairKind,
    SearchQuery,
    canonical_form,
    classify_finite_pair,
    enumerate_pairs,
    hadamard_report,
)


def brute_force_orthogonal_pairs(n, k):
    """Direct unitarity scan over all k-subset pairs, no dedup: the oracle."""
    w = np.exp(-2j * np.pi / n)
    hits = []
    for a in itertools.combinations(range(n), k):
        for j in itertools.combinations(range(n), k):
            f = np.array([[w ** (jj * aa) for aa in a] for jj in j])
            if np.abs(f.conj().T @ f - k * np.eye(k)).max() < 1e-10:
                hits.append((a, j))
    return hits


class TestCanonicalForm:
    def test_contains_zero(self):
        assert canonical_form(((1,), (3,)), 4) == ((0,), (2,))

    def test_picks_lexicographic_minimum(self):
        assert canonical_form(((0,), (3,)), 4) == ((0,), (1,))

    def test_already_canonical(self):
        assert canonical_form(((0,), (1,)), 4) == ((0,), (1,))


class TestEnumeratePairs:
    def test_mod_four_with_dedup(self):
        result = enumerate_pairs(SearchQuery(4, 1, 2))
        assert result.exhaustive and not result.partial
        found = {(m.a.points, m.j.points) for m in result.matches}
        assert (((0,), (2,)), ((0,), (1,))) in found
        # canonical subsets are {0,1} and {0,2}; exactly two orthogonal pairs
        assert len(found) == 2

    def test_mod_four_without_dedup_matches_brute_force(self):
        result = enumerate_pairs(SearchQuery(4, 1, 2, dedup_translates=False))
        found = {
            (tuple(p[0] for p in m.a.points), tuple(p[0] for p in m.j.points))
            for m in result.matches
        }
        assert found == set(brute_force_orthogonal_pairs(4, 2))
        assert ((0, 2), (0, 1)) in found
        assert ((0, 2), (0, 3)) in found

    def test_mod_three_orthogonal_is_empty(self):
        assert brute_force_orthogonal_pairs(3, 2) == []
        result = enumerate_pairs(SearchQuery(3, 1, 2))
        assert result.matches == ()

    def test_trivial_cardinality(self):
        result = enumerate_pairs(SearchQuery(3, 1, 1))
        assert all(m.classification.kind == PairKind.ORTHOGONAL_BASIS for m in result.matches)
        assert len(result.matches) >= 1

    def test_emitted_pairs_agree_with_classifier(self):
        for n in (4, 6, 8):
            result = enumerate_pairs(
                SearchQuery(n, 1, 2, PairKind.RIESZ_BASIS, dedup_translates=False)
            )
            for m in result.matches:
                assert classify_finite_pair(m.a, m.j).kind == m.classification.kind
                assert m.classification.kind.at_least(PairKind.RIESZ_BASIS)

    def test_riesz_target_includes_orthogonal(self):
        result = enumerate_pairs(SearchQuery(4, 1, 2, PairKind.RIESZ_BASIS))
        kinds = {m.classification.kind for m in result.matches}
        assert PairKind.ORTHOGONAL_BASIS in kinds
        assert PairKind.RIESZ_BASIS in kinds

    def test_two_dimensional_group(self):
        result = enumerate_pairs(SearchQuery(2, 2, 2))
        assert result.exhaustive
        found = {(m.a.points, m.j.points) for m in result.matches}
        assert len(found) > 0

    def test_max_results_truncates(self):
        result = enumerate_pairs(SearchQuery(4, 1, 2, PairKind.RIESZ_BASIS, max_results=1))
        assert len(result.matches) == 1
        assert result.partial

    def test_large_group_samples_with_seed(self):
        query = SearchQuery(17, 1, 2, PairKind.RIESZ_BASIS, seed=99, samples=60)
        result = enumerate_pairs(query)
        assert not result.exhaustive
        assert result.seed == 99
        again = enumerate_pairs(query)
        assert [(m.a, m.j) for m in again.matches] == [(m.a, m.j) for m in result.matches]

    # (a[1], j[1]) of each canonical match {0, a[1]}, {0, j[1]}, in order
    SEED_99_Z17 = [
        (7, 6), (1, 4), (6, 3), (8, 8), (4, 5), (8, 3), (3, 1), (6, 6), (6, 5), (1, 8),
        (6, 1), (3, 3), (1, 6), (8, 6), (5, 4), (6, 6), (1, 3), (6, 7), (7, 1), (3, 6),
        (6, 5), (1, 3), (1, 7), (3, 8), (4, 5), (3, 2), (8, 5), (1, 7), (2, 2), (7, 8),
        (1, 7), (2, 3), (3, 2), (7, 6), (4, 1), (1, 2), (8, 4), (7, 1), (1, 3), (5, 3),
        (3, 4), (6, 8), (7, 8), (8, 5), (6, 4), (6, 3), (5, 7), (7, 5), (2, 5), (8, 1),
        (6, 3), (7, 5), (8, 2), (5, 5), (5, 5), (4, 7), (4, 3), (3, 5), (5, 2), (1, 2),
    ]

    def test_seeded_samples_are_pinned(self):
        result = enumerate_pairs(SearchQuery(17, 1, 2, PairKind.RIESZ_BASIS, seed=99, samples=60))
        assert (result.examined, result.partial) == (60, False)
        assert all(m.classification.kind == PairKind.RIESZ_BASIS for m in result.matches)
        assert [(m.a.points, m.j.points) for m in result.matches] == [
            (((0,), (a,)), ((0,), (j,))) for a, j in self.SEED_99_Z17
        ]

    def test_sampling_never_builds_the_group(self):
        # 2^30 elements: a list of all group elements would need tens of GB
        result = enumerate_pairs(SearchQuery(1024, 3, 2, PairKind.RIESZ_BASIS, seed=5, samples=20))
        assert not result.exhaustive and not result.partial
        assert (result.examined, result.seed) == (20, 5)
        for m in result.matches:
            assert m.a.points[0] == m.j.points[0] == (0, 0, 0)
            assert classify_finite_pair(m.a, m.j) == m.classification

    @pytest.mark.parametrize(
        "n, d, k, kind, dedup",
        [
            (4, 1, 2, PairKind.RIESZ_BASIS, False),  # the final pair is a match
            (8, 1, 3, PairKind.RIESZ_BASIS, True),
            (6, 1, 2, PairKind.ORTHOGONAL_BASIS, False),
            (2, 2, 2, PairKind.RIESZ_BASIS, True),
        ],
    )
    def test_max_results_keeps_a_prefix(self, n, d, k, kind, dedup):
        query = SearchQuery(n, d, k, kind, dedup_translates=dedup)
        pairs = exhaustive_pairs(n, d, k, dedup)
        full = reference_enumerate_pairs(query)
        positions = [pairs.index((m.a.points, m.j.points)) for m in full.matches]
        total = len(positions)
        if (n, dedup) == (4, False):
            assert positions[-1] == len(pairs) - 1
        for limit in sorted({1, total - 1, total} - {0}):
            result = enumerate_pairs(replace(query, max_results=limit))
            assert result.matches == full.matches[:limit]
            assert result.examined == positions[limit - 1] + 1
            assert result.partial == (result.examined < len(pairs))

    def test_invalid_cardinality(self):
        with pytest.raises(ValueError):
            SearchQuery(3, 1, 10)

    @pytest.mark.parametrize(
        "args,limit,message",
        [
            ((0, 1, 1), None, "modulus must be a positive integer"),
            ((4, 0, 1), None, "dimension must be a positive integer"),
            ((4, 1, 2), -1, "max_results must be non-negative"),
        ],
    )
    def test_invalid_integers(self, args, limit, message):
        with pytest.raises(ValueError, match=message):
            SearchQuery(*args, max_results=limit)


class TestHadamardReport:
    def test_unitary_pair(self):
        report = hadamard_report(FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1]))
        assert report.is_hadamard and report.self_dual
        assert report.unitary_defect < 1e-12

    def test_golden_pair_not_hadamard(self, golden_sets):
        a, j = golden_sets
        report = hadamard_report(a, j)
        assert not report.is_hadamard and not report.self_dual
        assert report.unitary_defect > 1e-6

    def test_trivial_pair(self):
        one = FiniteSet.from_ints(4, [0])
        report = hadamard_report(one, one)
        assert report.is_hadamard and report.self_dual

    def test_self_duality_iff_hadamard(self):
        for n in range(2, 9):
            for a_pts, j_pts in itertools.product(itertools.combinations(range(n), 2), repeat=2):
                a = FiniteSet.from_ints(n, a_pts)
                j = FiniteSet.from_ints(n, j_pts)
                report = hadamard_report(a, j)
                assert report.is_hadamard == report.self_dual
