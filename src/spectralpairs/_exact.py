"""Exact rational phases, their one evaluation kernel, and small rational linear algebra.

All geometry in this package is carried by ``fractions.Fraction``;
floating point enters only in ``cis``, which evaluates every phase as an
integer over a common denominator, reduced mod the denominator *before*
exponentiation: a root of unity never accumulates error, and the quarter
phases are exact, so cancellations like 1 + e^{i pi} come out as literal
zeros.  ``mul`` and ``over_2pi_i`` round like Python's complex scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Vec = tuple[Fraction, ...]
Mat = tuple[Vec, ...]


def int_array(values, bound: int) -> np.ndarray:
    """``values`` as int64, or as Python ints (dtype object) once ``bound``, a
    bound on every integer formed from them (products, sums, moduli), reaches 2**62."""
    return np.array(values, dtype=np.int64 if bound < 1 << 62 else object)


def cis(nums, den: int) -> np.ndarray:
    """e^{2 pi i nums/den} for an integer array ``nums`` of any shape.

    Each numerator is reduced mod ``den`` and each distinct residue u is
    evaluated once: exactly 1, i, -1, -i at the quarter phases, otherwise
    cos and sin of 2 pi (u/den), where u/den, a quotient of Python ints,
    is correctly rounded.
    """
    nums = np.asarray(nums)
    residues, index = np.unique(nums % den, return_inverse=True)
    table = np.empty(len(residues), dtype=complex)
    for i, u in enumerate(residues.tolist()):
        quarter, rest = divmod(4 * u, den)
        if rest == 0:
            table[i] = (1 + 0j, 1j, -1 + 0j, -1j)[quarter]
        else:
            t = 2.0 * math.pi * (u / den)
            table[i] = complex(math.cos(t), math.sin(t))
    return table[index].reshape(nums.shape)


def mul(a, b) -> np.ndarray:
    """a * b elementwise, rounded as Python multiplies complex numbers (numpy's
    complex product may differ in the last bit); a real operand has imaginary part 0.0."""
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(b)), dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


def over_2pi_i(a, t) -> np.ndarray:
    """a / (2j * math.pi * t) elementwise for nonzero float t, rounded as Python
    divides complex numbers: that divisor has a zero real part, so the ratio is +0.0."""
    w = 2.0 * math.pi * t
    out = np.empty(np.broadcast_shapes(np.shape(a), np.shape(w)), dtype=complex)
    out.real = (a.real * 0.0 + a.imag) / w
    out.imag = (a.imag * 0.0 - a.real) / w
    return out


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
