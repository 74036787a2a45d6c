import ast
import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from reference import reference_symbol
from strategies import LARGE_PRIME_PAIRS, P42

from spectralpairs import (
    BoxDomain,
    DimensionMismatchError,
    DualBasis,
    FiniteSet,
    InsufficientSpectrumError,
    NonInvertibleError,
    PairKind,
    SymmetryUndefinedError,
    build_evaluation_matrix,
    classify_finite_pair,
    hadamard_report,
    integer_lattice,
    root_of_unity_condition,
    symbol_of_set,
    transpose_pair,
    verify_alias_cancellation,
    verify_biorthogonality,
)
from spectralpairs.finite_pairs import TOLERANCES, _checked_inverse, _classify_stacked


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

    @pytest.mark.parametrize(
        "modulus,dimension,points",
        [(4.5, 1, ((1,),)), (4, 1.0, ((1,),)), (4, 1, ((2.7,),)), (4, 1, (("2",),)),
         (float("inf"), 1, ((0,),))],
        ids=["modulus", "dimension", "point", "string-point", "infinite-modulus"],
    )
    def test_non_integers_rejected_not_truncated(self, modulus, dimension, points):
        with pytest.raises(TypeError):
            FiniteSet(modulus, dimension, points)

    def test_json_non_integers_rejected(self):
        # json reads 4.9 as a float and 1e400 as inf: neither is a modulus
        for n in (4.9, float("inf")):
            with pytest.raises(TypeError):
                FiniteSet.from_json_dict({"N": n, "d": 1, "points": [[0], [1]]})
        with pytest.raises(TypeError):
            FiniteSet.from_json_dict({"N": 4, "d": 1, "points": [[0], [2.7]]})

    def test_integer_types_stored_as_int(self):
        s = FiniteSet(np.int64(4), np.int64(1), ((np.int64(6),),))
        assert s == FiniteSet.from_ints(4, [2])
        assert all(type(x) is int for x in (s.modulus, s.dimension, *s.points[0]))

    def test_integer_scalars_are_one_dimensional_points(self):
        s = FiniteSet(4, 1, (np.int64(2), np.uint8(3)))
        assert s == FiniteSet(4, 1, (2, 3))
        assert s.translate(np.int64(1)) == s.translate(1)
        assert symbol_of_set(s, np.int64(1)) == symbol_of_set(s, 1)
        rows = FiniteSet(4, 2, np.array([[0, 1], [2, 3]]))  # an array row is a point
        assert rows == FiniteSet(4, 2, ((0, 1), (2, 3)))
        assert rows.translate(np.array([1, 1])) == rows.translate((1, 1))
        with pytest.raises(TypeError):
            FiniteSet(4, 1, (2.0,))
        with pytest.raises(TypeError):
            s.translate(1.0)
        for k in (1.0, (1.5,)):
            with pytest.raises(TypeError):
                symbol_of_set(s, k)

    def test_translate_checks_the_shift(self):
        s = FiniteSet(4, 2, ((0, 0), (1, 2)))
        assert s.translate((1, 3)).points == ((1, 3), (2, 1))
        # too long (the 3 was once dropped), too short, a scalar in 2-d: the shift is named
        for shift, text in (((1, 1, 3), "(1, 1, 3)"), ((1,), "(1,)"), (1, "(1,)")):
            with pytest.raises(DimensionMismatchError) as err:
                s.translate(shift)
            assert str(err.value) == "shift %s does not have dimension 2" % text
        with pytest.raises(TypeError):
            s.translate((1, 1.5))

    def test_json_points_are_the_stored_tuple(self):
        s = FiniteSet(4, 2, ((0, 0), (2, 1)))
        data = s.to_json_dict()
        assert data["points"] is s.points
        assert FiniteSet.from_json_dict(data) == s
        assert FiniteSet.from_json_dict(json.loads(json.dumps(data))) == s
        assert json.dumps(data) == '{"N": 4, "d": 2, "points": [[0, 0], [2, 1]]}'


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

    def test_classification_is_an_immutable_hashable_record(self, two_interval_sets):
        c, twin = (classify_finite_pair(*two_interval_sets) for _ in range(2))
        with pytest.raises(AttributeError):
            c.kind = PairKind.NONE
        assert c == twin and hash(c) == hash(twin)
        assert repr(c) == (
            "FiniteClassification(kind=<PairKind.ORTHOGONAL_BASIS: 'orthogonal-basis'>, "
            "lower=1.9999999999999991, upper=2.000000000000001, "
            "condition_number=1.0000000000000004)")

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

    @pytest.mark.parametrize(
        "n,points,riesz",
        [(P42, [0, 1], True), (4, [0, 2], False), (4, [0, 1], True)],
        ids=["riesz-at-a-large-prime", "singular-in-z4", "riesz-in-z4"],
    )
    def test_inverse_exists_exactly_for_riesz_ranks(self, n, points, riesz):
        # A = J: at 2^42 + 15 the condition number is 2.8e12, yet sigma_min clears its bound
        s = FiniteSet.from_ints(n, points)
        f = build_evaluation_matrix(s, s).entries
        assert (_classify_stacked(f[None])[0][0] >= PairKind.RIESZ_BASIS.rank) == riesz
        if riesz:
            assert np.array_equal(_checked_inverse(f)[0], np.linalg.inv(f))
        else:
            with pytest.raises(NonInvertibleError):
                _checked_inverse(f)

    @pytest.mark.parametrize("a,j,kind", LARGE_PRIME_PAIRS.values(), ids=list(LARGE_PRIME_PAIRS))
    def test_large_prime_pairs_get_their_exact_kinds(self, a, j, kind):
        assert classify_finite_pair(a, j).kind is kind
        assert not verify_alias_cancellation(a, j, (-1, 1)).passed
        if len(a) == len(j):
            report = hadamard_report(a, j)
            assert not (report.is_hadamard or report.self_dual)
            assert report.coefficient_defect < np.inf  # inverted, as a Riesz basis
            assert not DualBasis.build(BoxDomain.interval(0, 1), a, j).is_self_dual

    def test_genuine_zeros_stay_inside_their_bounds(self):
        # exact zeros of Z_4, whose phases are exact: the off-diagonal of F^H F for A = {0, 2},
        # J = {0, 1}, and sigma_min for A = J = {0, 2}; inside its bound each counts as zero
        a, j = FiniteSet.from_ints(4, [0, 2]), FiniteSet.from_ints(4, [0, 1])
        assert hadamard_report(a, j).unitary_defect <= TOLERANCES.gram_bound(2)
        assert classify_finite_pair(a, j).kind is PairKind.ORTHOGONAL_BASIS
        singular = classify_finite_pair(a, a)
        assert (singular.lower, singular.kind) == (0.0, PairKind.NONE)


class TestMutualOrthogonality:
    """The exponentials of J are mutually orthogonal on A exactly when F^H F = #A I."""

    def test_unitary_example(self, two_interval_sets):
        a, j = two_interval_sets
        assert hadamard_report(a, j).is_hadamard

    def test_failing_example(self):
        # 1 + e^{-pi i/2} = 1 - i != 0
        a = FiniteSet.from_ints(4, [0, 1])
        j = FiniteSet.from_ints(4, [0, 1])
        assert not hadamard_report(a, j).is_hadamard

    def test_matches_orthogonal_classification(self):
        for n in range(2, 9):
            for a_pts, j_pts in itertools.product(
                itertools.combinations(range(n), 2), repeat=2
            ):
                a = FiniteSet.from_ints(n, a_pts)
                j = FiniteSet.from_ints(n, j_pts)
                orth = classify_finite_pair(a, j).kind == PairKind.ORTHOGONAL_BASIS
                assert orth == hadamard_report(a, j).is_hadamard


class TestEmptySets:
    """An empty A leaves no pair to classify: every path that classifies one names A.
    The matrix, the symbol and the root-of-unity test still take empty sets."""

    EMPTY, ONE = FiniteSet(4, 1, ()), FiniteSet.from_ints(4, [0])

    @pytest.mark.parametrize(
        "call",
        [
            lambda e, one: classify_finite_pair(e, one),
            lambda e, one: classify_finite_pair(e, e),
            lambda e, one: transpose_pair(e, e),
            lambda e, one: hadamard_report(e, e),
            lambda e, one: DualBasis.build(BoxDomain.interval(0, 1), e, e),
            lambda e, one: verify_biorthogonality(
                BoxDomain.interval(0, 1), integer_lattice(1), e, e, 1),
            lambda e, one: verify_alias_cancellation(e, one, (-2, 2)),
        ],
        ids=["classify", "classify-both", "transpose", "hadamard", "dual-basis", "biorth",
             "alias"],
    )
    def test_empty_a_is_rejected_by_name(self, call):
        with pytest.raises(ValueError, match="A is empty"):
            call(self.EMPTY, self.ONE)

    def test_empty_j_is_still_an_insufficient_spectrum(self):
        with pytest.raises(InsufficientSpectrumError):
            classify_finite_pair(self.ONE, self.EMPTY)

    def test_matrix_symbol_and_root_of_unity_take_empty_sets(self):
        assert build_evaluation_matrix(self.EMPTY, self.ONE).entries.shape == (1, 0)
        assert build_evaluation_matrix(self.ONE, self.EMPTY).entries.shape == (0, 1)
        assert symbol_of_set(self.EMPTY, 1) == 0j
        assert root_of_unity_condition(integer_lattice(1), self.EMPTY)


# N = 2^40 + 15 is prime, so 1 + omega^u != 0 and no 2-element pair of Z_N is orthogonal;
# with J = {0, (N - 1)/2} the unitary defect is 2 sin(pi / 2N) ~ 2.9e-12, past its bound
LARGE_PAIR = LARGE_PRIME_PAIRS["n2-40-far-rows"][:2]


@pytest.mark.parametrize(
    "orthogonal",
    [
        lambda a, j: classify_finite_pair(a, j).kind is PairKind.ORTHOGONAL_BASIS,
        lambda a, j: hadamard_report(a, j).is_hadamard,
        lambda a, j: hadamard_report(a, j).self_dual,
        lambda a, j: DualBasis.build(BoxDomain.interval(0, 1), a, j).is_self_dual,
        lambda a, j: verify_alias_cancellation(a, j, (-1, 1)).passed,
    ],
    ids=["classify", "is-hadamard", "self-dual", "dual-basis", "alias"],
)
def test_no_two_point_pair_is_orthogonal_at_a_large_prime(orthogonal):
    assert not orthogonal(*LARGE_PAIR)


def test_every_threshold_reads_the_one_policy():
    # one Tolerances instance; no function takes a tolerance; no float literal in
    # exponent notation (1e-10, 1e12, ...) outside the Tolerances class body
    package = Path(__file__).resolve().parents[1] / "src" / "spectralpairs"
    calls, params, literals = [], [], []
    for path in sorted(package.glob("*.py")):
        source = path.read_text()
        tree = ast.parse(source)
        policy = {id(node) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                  and cls.name == "Tolerances" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "Tolerances":
                calls.append(path.name)
            if isinstance(node, ast.arg) and node.arg in ("tolerance", "tolerances"):
                params.append("%s:%d" % (path.name, node.lineno))
            if (isinstance(node, ast.Constant) and isinstance(node.value, float)
                    and id(node) not in policy and "e" in ast.get_source_segment(source, node)):
                literals.append("%s:%d" % (path.name, node.lineno))
    assert (calls, params, literals) == (["finite_pairs.py"], [], [])


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
                    brute = reference_symbol(j, jq - jj)
                    assert abs(symbol_of_set(j, jq - jj) - brute) < 1e-12

    def test_dimension_checked(self):
        with pytest.raises(DimensionMismatchError):
            symbol_of_set(FiniteSet(4, 2, ((0, 0),)), 3)
