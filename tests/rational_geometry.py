"""The Fraction geometry the integer code in ``domains`` replaced.

Kept as the reference the differential tests compare against: exact
elimination, lattice reduction, spectrum enumeration, the root-of-unity
test, box intersections and the shift tags of ``analytics``, one
``Fraction`` at a time.
"""

import functools
import itertools
import math
from fractions import Fraction

from spectralpairs import DuplicateSpectrumError, NonInvertibleError, UnsupportedPairError


def dot(u, v) -> Fraction:
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def lattice_point(generators, coords):
    """Sum of coords[i] * generators[i]."""
    d = len(generators[0])
    out = [Fraction(0)] * d
    for z, g in zip(coords, generators):
        for k in range(d):
            out[k] += z * g[k]
    return tuple(out)


def solve(generators, v):
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


def inverse(generators):
    """Rows of the inverse of the column matrix built from the generators."""
    d = len(generators)
    cols = []
    for i in range(d):
        unit = tuple(Fraction(1) if k == i else Fraction(0) for k in range(d))
        cols.append(solve(generators, unit))
    # cols[i] solves B t = e_i, i.e. cols[i] is column i of B^{-1}
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))


def reduce_mod_lattice(generators, v):
    """Canonical representative of v modulo the lattice, inside B [0,1)^d."""
    t = solve(generators, v)
    frac = tuple(ti - math.floor(ti) for ti in t)
    return lattice_point(generators, frac)


def reduced_shifts(basis, shifts):
    """The shifts ``Spectrum`` stores, or the error it raises."""
    try:
        reduced = tuple(reduce_mod_lattice(basis, s) for s in shifts)
    except ZeroDivisionError:
        raise NonInvertibleError("lattice generators are linearly dependent") from None
    seen = {}
    for orig, red in zip(shifts, reduced):
        if red in seen:
            raise DuplicateSpectrumError(
                "shifts %s and %s coincide modulo the lattice" % (seen[red], orig)
            )
        seen[red] = orig
    return reduced


def enumerate_spectrum(s, radius):
    """All spectrum points with sup-norm at most radius, lexicographically sorted."""
    r = Fraction(radius)
    inv = inverse(s.basis)
    points = set()
    for shift in s.shifts:
        shift_bound = max(abs(c) for c in shift)
        bounds = []
        for i in range(s.dimension):
            row_norm = sum(abs(inv[i][k]) for k in range(s.dimension))
            bounds.append(math.floor(row_norm * (r + shift_bound)))
        for coords in itertools.product(*(range(-b, b + 1) for b in bounds)):
            point = vec_add(lattice_point(s.basis, coords), shift)
            if max(abs(c) for c in point) <= r:
                points.add(point)
    return sorted(points)


def root_of_unity_condition(s, a) -> bool:
    """g . a and v . a are integers for every generator g, shift v and a in A."""
    return all(dot(w, p).denominator == 1 for p in a.points for w in s.basis + s.shifts)


def box_overlap(b1, b2) -> bool:
    """Positive-measure intersection test for half-open boxes."""
    return all(max(l1, l2) < min(h1, h2) for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]))


def box_intersection_measure(b1, b2) -> Fraction:
    vol = Fraction(1)
    for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]):
        lo, hi = max(l1, l2), min(h1, h2)
        if hi <= lo:
            return Fraction(0)
        vol *= hi - lo
    return vol


def intersection_measure(dom1, dom2) -> Fraction:
    total = Fraction(0)
    for b1 in dom1.boxes:
        for b2 in dom2.boxes:
            total += box_intersection_measure(b1, b2)
    return total


def shift_tags(spec, j, points):
    """Index s of each point of spec = base + J/N with point - j_s/N in base."""
    m = len(j)
    offsets = [tuple(Fraction(c, j.modulus) for c in p) for p in j.points]
    reduce = functools.partial(reduce_mod_lattice, spec.basis)
    bases = [reduce(vec_sub(v, offsets[i % m])) for i, v in enumerate(spec.shifts)]
    if len(bases) % m or any(bases[i] != bases[i - i % m] for i in range(len(bases))):
        raise UnsupportedPairError(
            "spectrum shifts are not laid out as base + J/N; cannot attach dual coefficients"
        )
    index = {v: i for i, v in enumerate(spec.shifts)}
    return [index[reduce(p)] % m for p in points]
