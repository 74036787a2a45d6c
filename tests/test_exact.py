import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from reference import (dot, inverse, lattice_point, reduce_mod_lattice, reference_cis,
                       reference_evaluation_matrix, solve)

from spectralpairs import FiniteSet, build_evaluation_matrix
from spectralpairs._exact import adjugate, cis, int_array, mul, over_2pi_i
from spectralpairs.domains import _reduce


def test_quarter_phases_are_exact():
    got = cis([0, 2, 1, 3, 5, -1], 4)  # 5/4 and -1/4 reduced mod 1
    assert got.tolist() == [1, -1, 1j, -1j, 1j, -1j]
    assert got.tobytes() == np.array([1 + 0j, -1 + 0j, 1j, -1j, 1j, -1j]).tobytes()
    assert cis([2, 4, 6], 8).tolist() == [1j, -1, -1j]  # numerators need not be in lowest terms


def test_cis_matches_direct_evaluation():
    for den in (3, 5, 7, 12):
        nums = np.arange(-7, 8)
        got = cis(nums, den)
        for num, z in zip(nums.tolist(), got.tolist()):
            q = float(Fraction(num, den))
            direct = complex(math.cos(2 * math.pi * q), math.sin(2 * math.pi * q))
            assert abs(z - direct) < 1e-14
        assert got.tobytes() == reference_cis(nums, den).tobytes()


def test_omega_power_reduces_exponent():
    # omega^e = cis(-e, N); omega = e^{-2 pi i / 4} = -i
    assert cis([-1, -2, -5, 1], 4).tolist() == [-1j, -1, -1j, 1j]
    assert cis([-3], 6).tolist() == [-1]


def test_big_exponents_do_not_accumulate():
    v1 = cis([-(7 * 10**8 + 1)], 7)
    v2 = cis([-1], 7)
    assert v1.tobytes() == v2.tobytes()  # identical after exact reduction
    assert cis(np.array([7 * 10**30 + 1], dtype=object), 7).tobytes() == cis([1], 7).tobytes()


def test_shape_is_kept():
    nums = np.arange(24).reshape(2, 3, 4)
    got = cis(nums, 5)
    assert got.shape == (2, 3, 4) and got.dtype == complex
    assert got.ravel().tobytes() == cis(nums.ravel(), 5).tobytes()
    assert cis(np.zeros((2, 0), dtype=np.int64), 3).shape == (2, 0)
    # an empty A gives the empty (#J x 0) evaluation matrix
    f = build_evaluation_matrix(FiniteSet(5, 1, ()), FiniteSet.from_ints(5, [1, 2])).entries
    assert f.shape == (2, 0) and f.dtype == complex


def test_products_past_2_62_take_python_ints():
    n = 2**40 + 15
    assert 2 * n * n > 2**62
    assert int_array([[n - 1, 3]], 2 * n * n).dtype == object
    assert int_array([[n - 1, 3]], 2**62 - 1).dtype == np.int64
    a = FiniteSet(n, 2, ((n - 1, 3), (5, n - 2), (2**39, 1)))
    j = FiniteSet(n, 2, ((n - 7, 1), (2, 2**39)))
    got = build_evaluation_matrix(a, j).entries
    assert got.tobytes() == reference_evaluation_matrix(a, j).tobytes()


def test_complex_arithmetic_rounds_like_python():
    rng = np.random.default_rng(3)
    parts = [0.0, -0.0, 1.0, -2.5] + list(rng.normal(size=6)) + list(rng.normal(size=4) * 1e-300)
    zs = [complex(x, y) for x in parts for y in parts]
    left = np.array(zs)
    for b in zs[::7] + [0.75, -3, 2]:  # complex, float and int operands
        assert mul(left, b).tobytes() == np.array([z * b for z in zs]).tobytes()
    for t in [0.5, -0.5, 3.25, -1e-7, 7e5]:
        got = over_2pi_i(left, np.full(len(zs), t))
        assert got.tobytes() == np.array([z / (2j * math.pi * t) for z in zs]).tobytes()


def test_phases_are_evaluated_only_in_exact():
    # every rational phase goes through _exact.cis; a second evaluator
    # would need its own cos/sin
    package = Path(__file__).resolve().parents[1] / "src" / "spectralpairs"
    offenders = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "_exact.py" and re.search(r"\bmath\.(cos|sin)\b", path.read_text())
    ]
    assert offenders == []


IDENT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_solve_and_det_2d():
    gens = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
    t = solve(gens, (Fraction(3), Fraction(5)))
    assert lattice_point(gens, t) == (Fraction(3), Fraction(5))
    # the integer solve: t = v adj(G) / det(G), G the generator rows
    adj, det = adjugate([[1, 1], [0, 2]])
    assert det == 2
    assert tuple(Fraction(x, det) for x in np.array([3, 5], dtype=object) @ adj) == t


def test_det_singular():
    gens = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    with pytest.raises(ZeroDivisionError):
        solve(gens, (Fraction(1), Fraction(0)))
    assert adjugate([[1, 2], [2, 4]])[1] == 0


def test_inverse_roundtrip():
    gens = ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(1)))
    inv = inverse(gens)
    # inv @ B == I, columns of B are the generators
    for i in range(2):
        col = tuple(gens[i][k] for k in range(2))
        image = tuple(dot(inv[r], col) for r in range(2))
        expected = tuple(Fraction(1) if r == i else Fraction(0) for r in range(2))
        assert image == expected
    # over the denominator 6 the generator rows are [[3, 0], [2, 6]]: B^{-1} = 6 adj^T / det
    adj, det = adjugate([[3, 0], [2, 6]])
    assert tuple(tuple(Fraction(6 * x, det) for x in row) for row in adj.T.tolist()) == inv
    for n in range(1, 6):
        m = np.random.default_rng(n).integers(-9, 10, size=(n, n)).tolist()
        adj, det = adjugate(m)
        assert (np.array(m, dtype=object) @ adj == det * np.identity(n, dtype=int)).all()


def test_reduce_mod_lattice():
    gens = ((Fraction(1),),)
    assert reduce_mod_lattice(gens, (Fraction(5, 4),)) == (Fraction(1, 4),)
    assert reduce_mod_lattice(gens, (Fraction(-1, 4),)) == (Fraction(3, 4),)
    half = ((Fraction(1, 2),),)
    assert reduce_mod_lattice(half, (Fraction(2, 3),)) == (Fraction(1, 6),)
    # the integer reduction: rows over one denominator
    # the integer reduction: representatives over det D (here 1 with 5/4 and -1/4
    # over D = 4, then 1/2 with 2/3 over D = 6)
    rows, det = _reduce(np.array([[4]]), np.array([[5], [-1]]))
    assert [Fraction(x, 4 * det) for x in rows.ravel().tolist()] == [Fraction(1, 4), Fraction(3, 4)]
    rows, det = _reduce(np.array([[3]]), np.array([[4]]))
    assert Fraction(int(rows[0, 0]), 6 * det) == Fraction(1, 6)
