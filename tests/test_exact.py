import math
from fractions import Fraction

import pytest

from spectralpairs._exact import (
    cis,
    dot,
    inverse,
    lattice_point,
    omega_power,
    reduce_mod_lattice,
    solve,
)


def test_quarter_phases_are_exact():
    assert cis(Fraction(0)) == 1
    assert cis(Fraction(1, 2)) == -1
    assert cis(Fraction(1, 4)) == 1j
    assert cis(Fraction(3, 4)) == -1j
    assert cis(Fraction(5, 4)) == 1j  # reduced mod 1
    assert cis(Fraction(-1, 4)) == -1j


def test_cis_matches_direct_evaluation():
    for num in range(-7, 8):
        for den in (3, 5, 7, 12):
            q = Fraction(num, den)
            direct = complex(math.cos(2 * math.pi * float(q)), math.sin(2 * math.pi * float(q)))
            assert abs(cis(q) - direct) < 1e-14


def test_omega_power_reduces_exponent():
    # omega = e^{-2 pi i / 4} = -i
    assert omega_power(1, 4) == -1j
    assert omega_power(2, 4) == -1
    assert omega_power(5, 4) == -1j
    assert omega_power(-1, 4) == 1j
    assert omega_power(3, 6) == -1


def test_big_exponents_do_not_accumulate():
    v1 = omega_power(7 * 10**8 + 1, 7)
    v2 = omega_power(1, 7)
    assert v1 == v2  # identical after exact reduction


IDENT = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_solve_and_det_2d():
    gens = ((Fraction(1), Fraction(1)), (Fraction(0), Fraction(2)))
    t = solve(gens, (Fraction(3), Fraction(5)))
    assert lattice_point(gens, t) == (Fraction(3), Fraction(5))


def test_det_singular():
    gens = ((Fraction(1), Fraction(2)), (Fraction(2), Fraction(4)))
    with pytest.raises(ZeroDivisionError):
        solve(gens, (Fraction(1), Fraction(0)))


def test_inverse_roundtrip():
    gens = ((Fraction(1, 2), Fraction(0)), (Fraction(1, 3), Fraction(1)))
    inv = inverse(gens)
    # inv @ B == I, columns of B are the generators
    for i in range(2):
        col = tuple(gens[i][k] for k in range(2))
        image = tuple(dot(inv[r], col) for r in range(2))
        expected = tuple(Fraction(1) if r == i else Fraction(0) for r in range(2))
        assert image == expected


def test_reduce_mod_lattice():
    gens = ((Fraction(1),),)
    assert reduce_mod_lattice(gens, (Fraction(5, 4),)) == (Fraction(1, 4),)
    assert reduce_mod_lattice(gens, (Fraction(-1, 4),)) == (Fraction(3, 4),)
    half = ((Fraction(1, 2),),)
    assert reduce_mod_lattice(half, (Fraction(2, 3),)) == (Fraction(1, 6),)
