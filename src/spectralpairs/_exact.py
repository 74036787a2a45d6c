"""Exact rational phases and small rational linear algebra.

All geometry in this package is carried by ``fractions.Fraction``;
floating point enters only at the final evaluation of a complex
exponential.  Phases are reduced mod 1 *before* exponentiation, so a
root of unity never accumulates error, and the quarter phases
(0, 1/4, 1/2, 3/4) are returned as exact unit values.  This is what
lets cancellations like 1 + e^{i pi} come out as literal zeros.
"""

from __future__ import annotations

import math
from fractions import Fraction

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]

_QUARTER_PHASES = {
    Fraction(0): 1 + 0j,
    Fraction(1, 4): 1j,
    Fraction(1, 2): -1 + 0j,
    Fraction(3, 4): -1j,
}


def cis(q) -> complex:
    """e^{2 pi i q} for rational q, reduced mod 1 before exponentiating."""
    q = Fraction(q) % 1
    exact = _QUARTER_PHASES.get(q)
    if exact is not None:
        return exact
    t = 2.0 * math.pi * float(q)
    return complex(math.cos(t), math.sin(t))


def omega_power(exponent: int, modulus: int) -> complex:
    """omega^e for omega = e^{-2 pi i / modulus}, exponent reduced mod modulus."""
    return cis(Fraction(-(exponent % modulus), modulus))


def to_fraction(x) -> Fraction:
    """Coerce ints, Fractions and 'p/q' strings (and exact floats) to Fraction."""
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


def to_vector(x, dimension: int) -> Vec:
    """Coerce a scalar (dimension 1) or a sequence to a rational vector."""
    if isinstance(x, (int, float, Fraction, str)):
        if dimension != 1:
            raise ValueError("scalar given for a %d-dimensional vector" % dimension)
        return (to_fraction(x),)
    vec = tuple(to_fraction(c) for c in x)
    if len(vec) != dimension:
        raise ValueError("expected a vector of length %d, got %r" % (dimension, x))
    return vec


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_add(u: Vec, v: Vec) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def lattice_point(generators: Mat, coords) -> Vec:
    """Sum of coords[i] * generators[i]."""
    d = len(generators[0])
    out = [Fraction(0)] * d
    for z, g in zip(coords, generators):
        for k in range(d):
            out[k] += z * g[k]
    return tuple(out)


def solve(generators: Mat, v) -> Vec:
    """Coordinates t with sum(t[i] * generators[i]) == v, by exact elimination."""
    d = len(generators)
    aug = [[generators[j][i] for j in range(d)] + [Fraction(v[i])] for i in range(d)]
    for col in range(d):
        pivot = next((r for r in range(col, d) if aug[r][col] != 0), None)
        if pivot is None:
            raise ZeroDivisionError("singular generator matrix")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        for r in range(d):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col] / aug[col][col]
                for c in range(col, d + 1):
                    aug[r][c] -= factor * aug[col][c]
    return tuple(aug[i][d] / aug[i][i] for i in range(d))


def inverse(generators: Mat) -> Mat:
    """Rows of the inverse of the column matrix built from the generators."""
    d = len(generators)
    cols = []
    for i in range(d):
        unit = tuple(Fraction(1) if k == i else Fraction(0) for k in range(d))
        cols.append(solve(generators, unit))
    # cols[i] solves B t = e_i, i.e. cols[i] is column i of B^{-1}
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def reduce_mod_lattice(generators: Mat, v: Vec) -> Vec:
    """Canonical representative of v modulo the lattice, inside B [0,1)^d."""
    t = solve(generators, v)
    frac = tuple(ti - math.floor(ti) for ti in t)
    return lattice_point(generators, frac)
