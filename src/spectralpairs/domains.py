"""Exact rational geometry: unions of half-open boxes and shifted lattices.

Disjointness of translated copies and the root-of-unity condition are
yes/no facts that must be certified, not approximated.  Corners, lattice
generators and shifts are ``Fraction``s at the API (constructors, the
``boxes``/``basis``/``shifts`` tuples, JSON, returned points); every
decision runs on their integer numerators over one common denominator
D > 0, where comparisons and divisibility tests are exact.  Boxes are
half-open, which makes touching translates (such as [0,1) and [1,2))
disjoint without epsilon fiddling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import Vec, adjugate, common_denominator, int_array, to_fraction, to_vector
from .errors import (
    DimensionMismatchError,
    DuplicateSpectrumError,
    NonInvertibleError,
    OverlapError,
)
from .finite_pairs import FiniteSet

Box = tuple[Vec, Vec]  # (lower corner, upper corner)


def _numerators(rows) -> tuple[np.ndarray, int]:
    """Rational rows of one length as an integer array over their common denominator D."""
    nums, den = common_denominator(list(itertools.chain.from_iterable(rows)))
    return int_array(nums, max(map(abs, nums))).reshape(len(rows), -1), den


def _fractions(rows, den: int) -> list[Vec]:
    """Integer rows over ``den`` as Fraction tuples, each distinct numerator converted once."""
    values = {n: Fraction(n, den) for n in set(itertools.chain.from_iterable(rows))}
    return [tuple(values[n] for n in row) for row in rows]


def _overlaps(lo: np.ndarray, hi: np.ndarray) -> list[tuple[int, int]]:
    """Every index pair (i, k), i < k, of boxes [lo, hi) that meet with positive measure.

    Sorted on the first axis, a box can meet only the run of later boxes whose lower
    edge lies before its upper edge; ``searchsorted`` finds it, and all axes are tested at once.
    """
    order = np.argsort(lo[:, 0])
    ends = np.searchsorted(lo[order, 0], hi[order, 0])  # >= position + 1: boxes are not empty
    counts = ends - np.arange(1, len(order) + 1)
    i = order[np.repeat(np.arange(len(order)), counts)]
    k = order[np.arange(counts.sum()) + np.repeat(ends - counts.cumsum(), counts)]
    meet = np.all(np.maximum(lo[i], lo[k]) < np.minimum(hi[i], hi[k]), axis=1)
    return list(zip(np.minimum(i, k)[meet].tolist(), np.maximum(i, k)[meet].tolist()))


@dataclass(frozen=True)
class BoxDomain:
    """A finite union of axis-aligned half-open boxes with rational corners."""

    dimension: int
    boxes: tuple[Box, ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if not self.boxes:
            raise ValueError("a domain needs at least one box")
        norm = [(to_vector(lo, self.dimension), to_vector(hi, self.dimension))
                for lo, hi in self.boxes]
        corners, _ = _numerators([c for box in norm for c in box])
        lo, hi = corners[0::2], corners[1::2]
        empty = np.flatnonzero(~np.all(lo < hi, axis=1))
        if len(empty):
            raise ValueError("empty box: lo=%s hi=%s" % norm[empty[0]])
        overlaps = _overlaps(lo, hi)
        if overlaps:
            i, k = min(overlaps)
            error = OverlapError(
                "boxes %d and %d intersect with positive measure" % (i, k),
                offending=(norm[i], norm[k]),
            )
            error._overlaps = overlaps  # every overlapping pair, for minkowski_translate
            raise error
        object.__setattr__(self, "boxes", tuple(norm))

    @classmethod
    def from_boxes(cls, boxes) -> "BoxDomain":
        """Build from [(lo, hi), ...] with scalar or sequence corners."""
        first_lo = boxes[0][0]
        if isinstance(first_lo, (int, float, Fraction, str)):
            dimension = 1
        else:
            dimension = len(first_lo)
        return cls(dimension, tuple((lo, hi) for lo, hi in boxes))

    @classmethod
    def interval(cls, lo, hi) -> "BoxDomain":
        return cls(1, (((to_fraction(lo),), (to_fraction(hi),)),))

    @property
    def measure(self) -> Fraction:
        total = Fraction(0)
        for lo, hi in self.boxes:
            vol = Fraction(1)
            for l, h in zip(lo, hi):
                vol *= h - l
            total += vol
        return total

    def translate(self, vector) -> "BoxDomain":
        v = to_vector(vector, self.dimension)
        boxes = tuple(
            (tuple(l + c for l, c in zip(lo, v)), tuple(h + c for h, c in zip(hi, v)))
            for lo, hi in self.boxes
        )
        return BoxDomain(self.dimension, boxes)

    def intersection_measure(self, other: "BoxDomain") -> Fraction:
        """|self & other|: over one denominator D, the integer sum of the
        products of the side overlaps of every box pair, divided by D^d."""
        n, d = len(self.boxes), self.dimension
        corners, den = _numerators([c for box in self.boxes + other.boxes for c in box])
        corners = int_array(corners, len(corners) ** 2 * (2 * int(np.abs(corners).max()) + 1) ** d)
        lo, hi = corners[0::2], corners[1::2]
        sides = np.minimum(hi[:n, None], hi[None, n:]) - np.maximum(lo[:n, None], lo[None, n:])
        return Fraction(int(np.prod(np.maximum(sides, 0), axis=2).sum()), den**d)

    def contains(self, point) -> bool:
        """Membership of a (float or rational) point, half-open convention."""
        coords = tuple(point) if hasattr(point, "__len__") else (point,)
        for lo, hi in self.boxes:
            if all(float(l) <= float(c) < float(h) for l, c, h in zip(lo, coords, hi)):
                return True
        return False

    def to_json_dict(self) -> dict:
        return {
            "d": self.dimension,
            "boxes": [
                {"lo": [str(c) for c in lo], "hi": [str(c) for c in hi]}
                for lo, hi in self.boxes
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoxDomain":
        boxes = tuple(
            (tuple(Fraction(c) for c in b["lo"]), tuple(Fraction(c) for c in b["hi"]))
            for b in data["boxes"]
        )
        return cls(int(data["d"]), boxes)


def unit_box(dimension: int) -> BoxDomain:
    """The half-open unit cube [0,1)^d."""
    zero = tuple(Fraction(0) for _ in range(dimension))
    one = tuple(Fraction(1) for _ in range(dimension))
    return BoxDomain(dimension, ((zero, one),))


@dataclass(frozen=True)
class Spectrum:
    """A full-rank rational lattice plus finitely many rational shift vectors.

    The point set is {B z + v : z integer vector, v shift}, B the matrix
    whose columns are the generators.  Shifts are stored reduced into the
    fundamental parallelepiped B [0,1)^d and must be distinct there.
    """

    dimension: int
    basis: tuple[Vec, ...]  # generator vectors (columns of B)
    shifts: tuple[Vec, ...] = ()

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        basis = tuple(to_vector(g, self.dimension) for g in self.basis)
        if len(basis) != self.dimension:
            raise DimensionMismatchError(
                "need %d lattice generators, got %d" % (self.dimension, len(basis))
            )
        shifts = tuple(to_vector(s, self.dimension) for s in self.shifts) or (
            tuple(Fraction(0) for _ in range(self.dimension)),
        )
        reduced, den = _reduce(basis, shifts)
        rows, seen = [tuple(row) for row in reduced.tolist()], {}
        for orig, row in zip(shifts, rows):
            if row in seen:
                raise DuplicateSpectrumError(
                    "shifts %s and %s coincide modulo the lattice" % (seen[row], orig)
                )
            seen[row] = orig
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "shifts", tuple(_fractions(rows, den)))

    def to_json_dict(self) -> dict:
        return {
            "basis": [[str(c) for c in g] for g in self.basis],
            "shifts": [[str(c) for c in s] for s in self.shifts],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Spectrum":
        basis = tuple(tuple(Fraction(c) for c in g) for g in data["basis"])
        shifts = tuple(tuple(Fraction(c) for c in s) for s in data["shifts"])
        return cls(len(basis), basis, shifts)


def _lattice(basis, vectors):
    """Over one denominator D: the generator rows Gn and the vector rows vn
    (G = Gn/D, v = vn/D), D, and adj(Gn) and det(Gn) signed so that det > 0."""
    d = len(basis)
    nums, den = _numerators([*basis, *vectors])
    adj, det = adjugate(nums[:d].tolist())
    if det == 0:
        raise NonInvertibleError("lattice generators are linearly dependent")
    return nums[:d], nums[d:], den, adj * (det // abs(det)), abs(det)


def _reduce(basis, vectors) -> tuple[np.ndarray, int]:
    """The rational ``vectors`` reduced modulo the lattice into B [0,1)^d, as
    integer rows over one denominator: rows are equal exactly when the points are.

    The coordinates t with t G = v are vn adj/det, and the representative
    (t mod 1) G is ((vn adj mod det) Gn)/(det D).
    """
    g, v, den, adj, det = _lattice(basis, vectors)
    big = max(int(np.abs(g).max()), int(np.abs(v).max()))
    bound = len(basis) * max(big * int(np.abs(adj).max()), det * big)
    g, v, adj = (int_array(x, bound) for x in (g, v, adj))
    return (v @ adj % det) @ g, det * den


def integer_lattice(dimension: int) -> Spectrum:
    """Z^d with the trivial shift."""
    return scaled_lattice(dimension, 1)


def scaled_lattice(dimension: int, scale) -> Spectrum:
    """(scale Z)^d, e.g. scale=1/2 for the half-integer lattice."""
    s = to_fraction(scale)
    basis = tuple(
        tuple(s if i == k else Fraction(0) for k in range(dimension))
        for i in range(dimension)
    )
    return Spectrum(dimension, basis)


def minkowski_translate(base: BoxDomain, a: FiniteSet) -> BoxDomain:
    """The union of the translated copies {base + a : a in A}.

    The copies must be pairwise disjoint up to measure zero; a positive
    overlap raises with the offending pair of translation vectors named:
    the first overlapping pair in the order of A.
    """
    if base.dimension != a.dimension:
        raise DimensionMismatchError(
            "domain dimension %d != set dimension %d" % (base.dimension, a.dimension)
        )
    d = base.dimension
    corners, den = _numerators([c for box in base.boxes for c in box])
    bound = int(np.abs(corners).max()) + a.modulus * den
    offsets = int_array(a.points, bound).reshape(-1, 1, d) * den
    corners = _fractions((offsets + int_array(corners, bound)).reshape(-1, d).tolist(), den)
    boxes = tuple(zip(corners[0::2], corners[1::2]))  # translate-major, as A is ordered
    try:
        return BoxDomain(base.dimension, boxes)
    except OverlapError as error:
        m = len(base.boxes)  # box i lies in the translate by a.points[i // m]
        i, k = min((i // m, k // m) for i, k in error._overlaps)
        raise OverlapError(
            "translates by %s and %s overlap with positive measure" % (a.points[i], a.points[k]),
            offending=(a.points[i], a.points[k]),
        ) from None


def shift_spectrum(base: Spectrum, j: FiniteSet, n: int) -> Spectrum:
    """The spectrum base + J/n; shifts must stay distinct modulo the lattice."""
    if base.dimension != j.dimension:
        raise DimensionMismatchError(
            "spectrum dimension %d != set dimension %d" % (base.dimension, j.dimension)
        )
    if n != j.modulus:
        raise ValueError("n = %d does not match the set modulus %d" % (n, j.modulus))
    d = base.dimension
    nums, den = _numerators(base.shifts)
    scale = math.lcm(den, n)  # v + p/n over scale, shift-major
    bound = (int(np.abs(nums).max()) + 1) * scale
    v = int_array(nums, bound).reshape(-1, 1, d) * (scale // den)
    p = int_array(j.points, bound).reshape(-1, d) * (scale // n)
    return Spectrum(d, base.basis, tuple(_fractions((v + p).reshape(-1, d).tolist(), scale)))


def enumerate_spectrum(s: Spectrum, radius) -> list[Vec]:
    """All spectrum points with sup-norm at most radius, lexicographically sorted.

    A point z G + v within radius r has |z_i| <= D sum_k |adj[k, i]| (r + max|v|)/det
    (notation of ``_lattice``), so one integer grid Z covers every shift;
    the points are the rows of vn + Z Gn with |p| <= r D, and as integer
    rows over D > 0 they sort lexicographically.
    """
    r = to_fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    d = s.dimension
    g, v, den, adj, det = _lattice(s.basis, s.shifts)
    reach = r.numerator * den + int(np.abs(v).max()) * r.denominator
    bounds = [sum(map(abs, column)) * reach // (det * r.denominator) for column in adj.T.tolist()]
    grid = np.stack(np.meshgrid(*(np.arange(-b, b + 1) for b in bounds), indexing="ij"), -1)
    big = max(int(np.abs(g).max()), int(np.abs(v).max())) * (1 + d * max(bounds))
    bound = max(big * r.denominator, r.numerator * den)
    g, v, z = (int_array(x, bound) for x in (g, v, grid.reshape(-1, d)))
    points = (v[:, None, :] + (z @ g)[None, :, :]).reshape(-1, d)
    inside = np.all(np.abs(points) * r.denominator <= r.numerator * den, axis=1)
    return _fractions(sorted(set(map(tuple, points[inside].tolist()))), den)


def root_of_unity_condition(s: Spectrum, a: FiniteSet) -> bool:
    """Exact test that e^{2 pi i lambda . a} = 1 for every lattice point and shift.

    Equivalent to: g . a and v . a are integers for every generator g,
    every shift v and every a in A.  Over one denominator D, with W the
    numerators of the generators and shifts, that is D | W a.
    """
    if s.dimension != a.dimension:
        raise DimensionMismatchError(
            "spectrum dimension %d != set dimension %d" % (s.dimension, a.dimension)
        )
    nums, den = _numerators([*s.basis, *s.shifts])
    bound = max(s.dimension * int(np.abs(nums).max()) * a.modulus, den)
    w, points = int_array(nums, bound), int_array(a.points, bound).reshape(-1, a.dimension)
    return bool(np.all(w @ points.T % den == 0))
