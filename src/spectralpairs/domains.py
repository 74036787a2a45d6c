"""Exact rational geometry: unions of half-open boxes and shifted lattices.

Disjointness of translated copies and the root-of-unity condition are
yes/no facts that must be certified, not approximated, so every corner,
lattice generator and shift is a ``Fraction`` and the tests below are
decided exactly.  Boxes are half-open, which makes touching translates
(such as [0,1) and [1,2)) disjoint without epsilon fiddling.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import _exact
from ._exact import Vec, to_fraction, to_vector, vec_add
from .errors import (
    DimensionMismatchError,
    DuplicateSpectrumError,
    NonInvertibleError,
    OverlapError,
)
from .finite_pairs import FiniteSet

Box = tuple[Vec, Vec]  # (lower corner, upper corner)


def _boxes_overlap(b1: Box, b2: Box) -> bool:
    """Positive-measure intersection test for half-open boxes."""
    return all(max(l1, l2) < min(h1, h2) for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]))


def _overlaps(boxes):
    """Every index pair (i, k), i < k, of boxes that meet with positive measure.

    One sort-and-sweep along the first axis: a box is tested only against
    the boxes whose first-axis interval is still open at its lower edge.
    """
    order = sorted(range(len(boxes)), key=lambda i: boxes[i][0][0])
    open_boxes = []
    for k in order:
        edge = boxes[k][0][0]
        open_boxes = [i for i in open_boxes if boxes[i][1][0] > edge]
        for i in open_boxes:
            if _boxes_overlap(boxes[i], boxes[k]):
                yield (i, k) if i < k else (k, i)
        open_boxes.append(k)


def _box_intersection_measure(b1: Box, b2: Box) -> Fraction:
    vol = Fraction(1)
    for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]):
        lo, hi = max(l1, l2), min(h1, h2)
        if hi <= lo:
            return Fraction(0)
        vol *= hi - lo
    return vol


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
        norm = []
        for lo, hi in self.boxes:
            lo = to_vector(lo, self.dimension)
            hi = to_vector(hi, self.dimension)
            if not all(l < h for l, h in zip(lo, hi)):
                raise ValueError("empty box: lo=%s hi=%s" % (lo, hi))
            norm.append((lo, hi))
        overlaps = list(_overlaps(norm))
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
        total = Fraction(0)
        for b1 in self.boxes:
            for b2 in other.boxes:
                total += _box_intersection_measure(b1, b2)
        return total

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
        try:
            reduced = tuple(_exact.reduce_mod_lattice(basis, s) for s in shifts)
        except ZeroDivisionError:
            raise NonInvertibleError("lattice generators are linearly dependent") from None
        if len(set(reduced)) != len(reduced):
            seen = {}
            for orig, red in zip(shifts, reduced):
                if red in seen:
                    raise DuplicateSpectrumError(
                        "shifts %s and %s coincide modulo the lattice" % (seen[red], orig)
                    )
                seen[red] = orig
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "shifts", reduced)

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


def integer_lattice(dimension: int) -> Spectrum:
    """Z^d with the trivial shift."""
    basis = tuple(
        tuple(Fraction(1) if i == k else Fraction(0) for k in range(dimension))
        for i in range(dimension)
    )
    return Spectrum(dimension, basis)


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
    boxes = tuple((vec_add(lo, p), vec_add(hi, p)) for p in a.points for lo, hi in base.boxes)
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
    shifts = tuple(
        tuple(v_c + Fraction(p_c, n) for v_c, p_c in zip(v, p))
        for v in base.shifts
        for p in j.points
    )
    return Spectrum(base.dimension, base.basis, shifts)


def enumerate_spectrum(s: Spectrum, radius) -> list[Vec]:
    """All spectrum points with sup-norm at most radius, lexicographically sorted."""
    r = to_fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    inv = _exact.inverse(s.basis)
    points = set()
    for shift in s.shifts:
        shift_bound = max(abs(c) for c in shift)
        bounds = []
        for i in range(s.dimension):
            row_norm = sum(abs(inv[i][k]) for k in range(s.dimension))
            bounds.append(math.floor(row_norm * (r + shift_bound)))
        for coords in itertools.product(*(range(-b, b + 1) for b in bounds)):
            point = _exact.vec_add(_exact.lattice_point(s.basis, coords), shift)
            if max(abs(c) for c in point) <= r:
                points.add(point)
    return sorted(points)


def root_of_unity_condition(s: Spectrum, a: FiniteSet) -> bool:
    """Exact test that e^{2 pi i lambda . a} = 1 for every lattice point and shift.

    Equivalent to: g . a and v . a are integers for every generator g,
    every shift v and every a in A.  Decided in rational arithmetic.
    """
    if s.dimension != a.dimension:
        raise DimensionMismatchError(
            "spectrum dimension %d != set dimension %d" % (s.dimension, a.dimension)
        )
    for p in a.points:
        for g in s.basis:
            if _exact.dot(g, p).denominator != 1:
                return False
        for v in s.shifts:
            if _exact.dot(v, p).denominator != 1:
                return False
    return True
