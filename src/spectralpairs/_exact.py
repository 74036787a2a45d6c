"""Exact rational phases, their one evaluation kernel, and exact integer linear algebra.

Geometry is ``fractions.Fraction`` at the API and integer numerators over
one common denominator inside (``common_denominator``), in int64 arrays or,
once the integers formed could reach 2**62, Python ints (``int_array``).
Floating point enters only in ``cis``, which evaluates every phase as an
integer over a common denominator, reduced mod the denominator *before*
exponentiation: a root of unity never accumulates error, and the quarter
phases are exact, so cancellations like 1 + e^{i pi} come out as literal
zeros.  It evaluates a table of residues in one numpy pass, with the bits of
``math.cos`` and ``math.sin``.  ``mul`` and ``over_2pi_i`` round like Python's
complex scalars.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

Vec = tuple[Fraction, ...]


def int_array(values, bound: int) -> np.ndarray:
    """``values`` as int64, or as Python ints (dtype object) once ``bound``, a
    bound on every integer formed from them (products, sums, moduli), reaches 2**62."""
    return np.array(values, dtype=np.int64 if bound < 1 << 62 else object)


def common_denominator(values) -> tuple[list[int], int]:
    """Numerators over the least common denominator D of the rationals
    ``values``, so that values[i] == nums[i] / D."""
    den = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def adjugate(m) -> tuple[np.ndarray, int]:
    """adj(m) (Python ints, dtype object) and det(m) of a square integer matrix.

    Faddeev-LeVerrier: M_k = m M_{k-1} + c_{n-k+1} I, c_{n-k} = -tr(m M_k)/k
    from M_0 = 0, c_n = 1, every division exact; then adj(m) = (-1)^(n+1) M_n
    and det(m) = (-1)^n c_0.
    """
    m = np.array(m, dtype=object)
    n = len(m)
    eye = np.identity(n, dtype=object)
    mk, c = np.zeros((n, n), dtype=object), 1
    for k in range(1, n + 1):
        mk = m @ mk + c * eye
        c = -np.trace(m @ mk) // k
    sign = (-1) ** n
    return -sign * mk, sign * c


def ratio(nums: np.ndarray, den: int) -> np.ndarray:
    """nums/den for an integer array, correctly rounded: in float64 when every operand is
    exact there (below 2**53), else one quotient of Python ints at a time."""
    if nums.dtype == np.int64 and max(den, int(np.abs(nums).max(initial=0))) < 1 << 53:
        return nums / den
    return np.array([u / den for u in nums.ravel().tolist()]).reshape(nums.shape)


def cis(nums, den: int) -> np.ndarray:
    """e^{2 pi i nums/den} for an integer array ``nums`` of any shape.

    Each numerator is reduced mod ``den`` and a table of residues u is evaluated in
    one array pass: cos and sin of 2 pi (u/den), u/den correctly rounded (``ratio``),
    then exactly 1, i, -1, -i at the quarter phases.  The table holds every residue
    when int64 ``nums`` outnumber them (no sort), else only the distinct ones.
    """
    nums = np.asarray(nums)
    if nums.dtype == np.int64 and den < nums.size:
        residues, index = np.arange(den, dtype=np.int64), nums.ravel() % den
    else:
        residues, index = np.unique(nums.ravel() % den, return_inverse=True)
    t = 2.0 * math.pi * ratio(residues, den)
    table = np.empty(len(residues), dtype=complex)
    table.real, table.imag = np.cos(t), np.sin(t)
    step = den // math.gcd(den, 4)  # the quarter phases are the multiples of den/gcd(den, 4)
    quarter = residues % step == 0
    turn = (residues[quarter] // step).astype(int) * (4 * step // den)
    table[quarter] = np.array((1 + 0j, 1j, -1 + 0j, -1j))[turn]  # -1j has real part -0.0
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


def complex_pairs(m) -> list:
    """A complex array as nested lists of [re, im] Python floats, for JSON."""
    return np.stack((m.real, m.imag), -1).tolist()


def to_vector(x, dimension: int) -> Vec:
    """Coerce a scalar (dimension 1) or a sequence of ints, Fractions, 'p/q' strings
    or floats (at their exact value) to a rational vector."""
    if isinstance(x, (int, float, Fraction, str)):
        if dimension != 1:
            raise ValueError("scalar given for a %d-dimensional vector" % dimension)
        return (Fraction(x),)
    vec = tuple(map(Fraction, x))
    if len(vec) != dimension:
        raise ValueError("expected a vector of length %d, got %r" % (dimension, x))
    return vec
