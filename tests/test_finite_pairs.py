import itertools

import numpy as np
import pytest

from spectralpairs import (
    DimensionMismatchError,
    FiniteSet,
    InsufficientSpectrumError,
    NonInvertibleError,
    PairKind,
    SymmetryUndefinedError,
    build_evaluation_matrix,
    check_mutual_orthogonality,
    classify_finite_pair,
    symbol_of_set,
    transpose_pair,
)
from spectralpairs.finite_pairs import Tolerances, _checked_inverse, _classify_stacked
from scalar_phases import cis
from fractions import Fraction


class TestFiniteSet:
    def test_points_reduced_mod_n(self):
        s = FiniteSet.from_ints(4, [4, 6])
        assert s.points == ((0,), (2,))

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            FiniteSet.from_ints(3, [0, 0])
        with pytest.raises(ValueError):
            FiniteSet.from_ints(3, [1, 4])  # 4 = 1 mod 3

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            FiniteSet(4, 2, ((0,), (1,)))

    def test_json_roundtrip(self):
        s = FiniteSet(4, 2, ((0, 0), (2, 1)))
        assert FiniteSet.from_json_dict(s.to_json_dict()) == s


class TestEvaluationMatrix:
    def test_unitary_two_by_two(self, two_interval_sets):
        a, j = two_interval_sets
        m = build_evaluation_matrix(a, j)
        assert np.array_equal(m.entries, np.array([[1, 1], [1, -1]], dtype=complex))

    def test_single_character(self):
        a = FiniteSet.from_ints(9, [0])
        j = FiniteSet.from_ints(9, [0])
        m = build_evaluation_matrix(a, j)
        assert np.array_equal(m.entries, np.array([[1.0]], dtype=complex))

    def test_order_six(self):
        # omega = e^{-2 pi i/6}: omega^3 = -1 exactly
        a = FiniteSet.from_ints(6, [0, 3])
        j = FiniteSet.from_ints(6, [0, 1])
        m = build_evaluation_matrix(a, j)
        assert np.array_equal(m.entries, np.array([[1, 1], [1, -1]], dtype=complex))

    def test_entries_unimodular(self):
        a = FiniteSet.from_ints(7, [0, 2, 5])
        j = FiniteSet.from_ints(7, [1, 3, 4])
        m = build_evaluation_matrix(a, j)
        assert np.abs(np.abs(m.entries) - 1).max() < 1e-12

    def test_modulus_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            build_evaluation_matrix(FiniteSet.from_ints(4, [0]), FiniteSet.from_ints(5, [0]))


class TestClassification:
    def test_orthogonal_pair_constants(self, two_interval_sets):
        a, j = two_interval_sets
        c = classify_finite_pair(a, j)
        assert c.kind == PairKind.ORTHOGONAL_BASIS
        assert abs(c.lower - 2) < 1e-10
        assert abs(c.upper - 2) < 1e-10
        assert abs(c.condition_number - 1) < 1e-10

    def test_order_six_orthogonal(self):
        c = classify_finite_pair(FiniteSet.from_ints(6, [0, 3]), FiniteSet.from_ints(6, [0, 1]))
        assert c.kind == PairKind.ORTHOGONAL_BASIS

    def test_golden_pair_is_riesz_not_orthogonal(self, golden_sets):
        a, j = golden_sets
        c = classify_finite_pair(a, j)
        assert c.kind == PairKind.RIESZ_BASIS
        # extreme squared singular values of [[1,1],[1,w^2]] are 2 +- 2cos(2 pi/5)
        gap = 2 * np.cos(2 * np.pi / 5)
        assert abs(c.lower - (2 - gap)) < 1e-12
        assert abs(c.upper - (2 + gap)) < 1e-12

    def test_rank_deficient_pair_is_none(self):
        c = classify_finite_pair(FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 2]))
        assert c.kind == PairKind.NONE
        assert c.lower < 1e-12
        assert c.condition_number == float("inf")

    def test_rectangular_tight_frame(self):
        c = classify_finite_pair(FiniteSet.from_ints(5, [0]), FiniteSet.from_ints(5, [0, 1]))
        assert c.kind == PairKind.FRAME
        assert abs(c.lower - 2) < 1e-12 and abs(c.upper - 2) < 1e-12

    def test_insufficient_spectrum(self):
        with pytest.raises(InsufficientSpectrumError):
            classify_finite_pair(FiniteSet.from_ints(4, [0, 1]), FiniteSet.from_ints(4, [0]))

    def test_singular_values_invariant_under_reordering(self, golden_sets):
        a, j = golden_sets
        c1 = classify_finite_pair(a, j)
        a2 = FiniteSet.from_ints(5, [2, 0])
        j2 = FiniteSet.from_ints(5, [1, 0])
        c2 = classify_finite_pair(a2, j2)
        assert abs(c1.lower - c2.lower) < 1e-12
        assert abs(c1.upper - c2.upper) < 1e-12

    def test_square_gram_identity_for_orthogonal_kind(self):
        # every orthogonal pair satisfies F^H F = k I to floating accuracy
        for n in range(2, 9):
            for a_pts, j_pts in itertools.product(
                itertools.combinations(range(n), 2), repeat=2
            ):
                a = FiniteSet.from_ints(n, a_pts)
                j = FiniteSet.from_ints(n, j_pts)
                c = classify_finite_pair(a, j)
                f = build_evaluation_matrix(a, j).entries
                defect = np.abs(f.conj().T @ f - 2 * np.eye(2)).max()
                assert (c.kind == PairKind.ORTHOGONAL_BASIS) == (defect < 1e-10)

    def test_transpose_preserves_basis_kind(self):
        for n, a_pts, j_pts in [(4, [0, 2], [0, 1]), (6, [0, 3], [0, 1]), (5, [0, 2], [0, 1])]:
            a = FiniteSet.from_ints(n, a_pts)
            j = FiniteSet.from_ints(n, j_pts)
            kind = classify_finite_pair(a, j).kind
            ta, tj = transpose_pair(a, j)
            assert (ta, tj) == (j, a)
            assert classify_finite_pair(ta, tj).kind == kind

    def test_transpose_fixed_point(self):
        a = FiniteSet.from_ints(4, [0])
        assert transpose_pair(a, a) == (a, a)

    def test_transpose_undefined_for_rectangular_frames(self):
        with pytest.raises(SymmetryUndefinedError):
            transpose_pair(FiniteSet.from_ints(4, [0]), FiniteSet.from_ints(4, [0, 1]))

    def test_transpose_undefined_for_singular_pairs(self):
        with pytest.raises(SymmetryUndefinedError):
            transpose_pair(FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 2]))

    def test_translation_invariance_of_kind(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            k = int(rng.integers(1, min(n, 4) + 1))
            a = FiniteSet.from_ints(n, rng.choice(n, size=k, replace=False))
            j = FiniteSet.from_ints(n, rng.choice(n, size=k, replace=False))
            t = int(rng.integers(0, n))
            assert (
                classify_finite_pair(a.translate(t), j).kind
                == classify_finite_pair(a, j).kind
            )

    @pytest.mark.parametrize("largest", [1e12, 1e12 / 2, 4.0])
    def test_inverse_exists_exactly_for_riesz_ranks(self, largest):
        # condition number largest / 1: at the cap the classification says frame, so no inverse
        f = np.diag([largest, 1.0]).astype(complex)
        riesz = _classify_stacked(f[None], Tolerances())[0][0] >= PairKind.RIESZ_BASIS.rank
        assert riesz == (largest < Tolerances().condition_cap)
        if riesz:
            assert np.array_equal(_checked_inverse(f), np.linalg.inv(f))
        else:
            with pytest.raises(NonInvertibleError):
                _checked_inverse(f)


class TestMutualOrthogonality:
    def test_unitary_example(self, two_interval_sets):
        a, j = two_interval_sets
        assert check_mutual_orthogonality(a, j)

    def test_failing_example(self):
        # 1 + e^{-pi i/2} = 1 - i != 0
        a = FiniteSet.from_ints(4, [0, 1])
        j = FiniteSet.from_ints(4, [0, 1])
        assert not check_mutual_orthogonality(a, j)

    def test_vacuous_single_j(self):
        assert check_mutual_orthogonality(
            FiniteSet.from_ints(4, [0, 1]), FiniteSet.from_ints(4, [2])
        )

    def test_matches_orthogonal_classification(self):
        for n in range(2, 9):
            for a_pts, j_pts in itertools.product(
                itertools.combinations(range(n), 2), repeat=2
            ):
                a = FiniteSet.from_ints(n, a_pts)
                j = FiniteSet.from_ints(n, j_pts)
                orth = classify_finite_pair(a, j).kind == PairKind.ORTHOGONAL_BASIS
                assert orth == check_mutual_orthogonality(a, j)


class TestSymbol:
    @pytest.mark.parametrize(
        "n,j_pts,k,expected",
        [
            (4, [0, 1], 2, 0),
            (4, [0, 1], 0, 2),
            (6, [0, 3], 3, 0),
            (4, [0], 7, 1),
        ],
    )
    def test_examples(self, n, j_pts, k, expected):
        value = symbol_of_set(FiniteSet.from_ints(n, j_pts), k)
        assert abs(value - expected) < 1e-12

    def test_brute_force_all_small_moduli(self):
        # symbol(J, j'-j) equals the counting inner product of E_j, E_j' over J
        for n in range(1, 13):
            pts = [0, 1] if n > 1 else [0]
            j = FiniteSet.from_ints(n, pts[: min(len(pts), n)])
            for jj in range(n):
                for jq in range(n):
                    brute = sum(
                        cis(Fraction((jj - jq) * z, n)) for (z,) in j.points
                    )
                    assert abs(symbol_of_set(j, jq - jj) - brute) < 1e-12

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            symbol_of_set(FiniteSet(4, 2, ((0, 0),)), 3)
