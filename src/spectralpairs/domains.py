"""Exact rational geometry: unions of half-open boxes and shifted lattices.

Disjointness of translated copies and the root-of-unity condition are
yes/no facts that must be certified, not approximated.  Corners, lattice
generators and shifts are ``Fraction``s at the API (constructors, the
``boxes``/``basis``/``shifts`` tuples, JSON, returned points).  Each domain
and spectrum carries only its integer form from validation on: the
numerators over their least common denominator D > 0, where every decision
is exact, and the library's builders hand theirs straight to the validation.
The ``Fraction`` tuples are built from it on first read and then kept.
Boxes are half-open, so touching translates ([0,1) and [1,2)) are disjoint.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from decimal import Context
from fractions import Fraction

import numpy as np

from ._exact import Vec, adjugate, common_denominator, int_array, to_vector
from .errors import DimensionMismatchError, DuplicateSpectrumError, NonInvertibleError, OverlapError
from .finite_pairs import FiniteSet

Box = tuple[Vec, Vec]  # (lower corner, upper corner)
_GRID_LIMIT = 2**24  # candidate points of one window: about 60 bytes each in 2-d, 1 GiB


def _numerators(rows, width: int) -> tuple[np.ndarray, int]:
    """Rational rows of one length as an integer array over their least common denominator D."""
    nums, den = common_denominator(list(itertools.chain.from_iterable(rows)))
    return int_array(nums, max(map(abs, nums), default=0)).reshape(-1, width), den


def _top(nums: np.ndarray) -> int:
    return int(np.abs(nums).max(initial=0))


def _scaled(nums: np.ndarray, den: int, to: int) -> np.ndarray:
    """Integer rows over ``den`` as numerators over its multiple ``to``, ready for one sum."""
    return int_array(nums, max(_top(nums), 1) * (to // den)) * (to // den)


def _lowest(nums: np.ndarray, den: int) -> tuple[np.ndarray, int]:
    """Integer rows over ``den`` over their least common denominator instead."""
    g = math.gcd(den, *nums.ravel().tolist())
    return nums // g, den // g


def _fractions(nums: np.ndarray, den: int, text: bool = False) -> list[tuple]:
    """Integer rows over ``den`` as Fraction (or string) tuples, each distinct
    numerator converted once and gathered through one table."""
    values, index = np.unique(nums.ravel(), return_inverse=True)
    values = [Fraction(n, den) for n in values.tolist()]
    table = np.array(list(map(str, values)) if text else values, dtype=object)
    return list(map(tuple, table[index.reshape(nums.shape)].tolist()))


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
    JSON_READERS = {"d": operator.index, "boxes": dict.fromkeys(("lo", "hi"), Fraction)}

    def __post_init__(self):
        if operator.index(self.dimension) < 1:
            raise ValueError("dimension must be at least 1")
        corners = [to_vector(c, self.dimension) for lo, hi in self.boxes for c in (lo, hi)]
        self._validate(*_numerators(corners, self.dimension))

    def _validate(self, corners: np.ndarray, den: int, disjoint: bool = False) -> "BoxDomain":
        """Every check of a domain, on integer corner rows (lower, upper, ...) over their least
        common denominator: at least one box, none empty, none overlapping (unless the caller
        has found them ``disjoint``).  The domain then carries them, and only them: its dimension
        and boxes are read from them, so builders skip coercion."""
        if not len(corners):
            raise ValueError("a domain needs at least one box")
        lo, hi = corners[0::2], corners[1::2]

        def box(i):
            return tuple(_fractions(corners[2 * i:2 * i + 2], den))

        empty = np.flatnonzero(~np.all(lo < hi, axis=1))
        if len(empty):
            raise ValueError("empty box: lo=%s hi=%s" % box(empty[0]))
        overlaps = [] if disjoint else _overlaps(lo, hi)
        if overlaps:
            i, k = min(overlaps)
            raise OverlapError(
                "boxes %d and %d intersect with positive measure" % (i, k),
                offending=(box(i), box(k)),
            )
        vars(self).clear()  # given boxes too: the view is rebuilt, normalised, on first read
        vars(self).update(dimension=corners.shape[1], _corners=corners, _den=den)
        return self

    def __getattr__(self, name):
        """``boxes``, built from the carried corners on first read and then kept."""
        if name != "boxes":  # reading _corners raises too while it is missing
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        rows = _fractions(self._corners, self._den)
        vars(self)["boxes"] = tuple(zip(rows[0::2], rows[1::2]))
        return self.boxes

    @classmethod
    def interval(cls, lo, hi) -> "BoxDomain":
        return cls(1, (((Fraction(lo),), (Fraction(hi),)),))

    @property
    def measure(self) -> Fraction:
        d, corners = self.dimension, self._corners
        corners = int_array(corners, len(corners) * (2 * _top(corners) + 1) ** d)
        return Fraction(int(np.prod(corners[1::2] - corners[0::2], axis=1).sum()), self._den**d)

    def translate(self, vector) -> "BoxDomain":
        v, scale = _numerators([to_vector(vector, self.dimension)], self.dimension)
        den = math.lcm(self._den, scale)
        corners = _scaled(self._corners, self._den, den) + _scaled(v, scale, den)
        return object.__new__(BoxDomain)._validate(*_lowest(corners, den), disjoint=True)

    def to_json_dict(self) -> dict:
        rows = _fractions(self._corners, self._den, text=True)
        boxes = [{"lo": list(lo), "hi": list(hi)} for lo, hi in zip(rows[0::2], rows[1::2])]
        return {"d": self.dimension, "boxes": boxes}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BoxDomain":
        boxes = tuple(
            (tuple(Fraction(c) for c in b["lo"]), tuple(Fraction(c) for c in b["hi"]))
            for b in data["boxes"]
        )
        return cls(data["d"], boxes)


def unit_box(dimension: int) -> BoxDomain:
    """The half-open unit cube [0,1)^d."""
    return BoxDomain(dimension, (((0,) * dimension, (1,) * dimension),))


@dataclass(frozen=True)
class Spectrum:
    """A full-rank rational lattice plus finitely many rational shift vectors.

    The point set is {B z + v : z integer vector, v shift}, B the matrix
    whose columns are the generators.  Shifts are stored reduced into the
    fundamental parallelepiped B [0,1)^d and must be distinct there; no
    shift means the zero shift.
    """

    dimension: int
    basis: tuple[Vec, ...]  # generator vectors (columns of B)
    shifts: tuple[Vec, ...] = field(default_factory=tuple)  # no class default to shadow the view
    JSON_READERS = dict.fromkeys(("basis", "shifts"), Fraction)

    def __post_init__(self):
        if operator.index(self.dimension) < 1:
            raise ValueError("dimension must be at least 1")
        d = self.dimension
        basis = [to_vector(g, d) for g in self.basis]
        if len(basis) != d:
            raise DimensionMismatchError("need %d lattice generators, got %d" % (d, len(basis)))
        self._validate(*_numerators(basis + [to_vector(s, d) for s in self.shifts], d))

    def _validate(self, nums: np.ndarray, den: int) -> "Spectrum":
        """Every check of a spectrum, on integer generator rows, then shift rows, over ``den``:
        independent generators, and shifts distinct modulo the lattice.  The spectrum then
        carries only the generators and reduced shifts over their least common denominator."""
        d = nums.shape[1]
        nums = np.concatenate([nums, np.zeros_like(nums[:1])]) if len(nums) == d else nums
        reps, det = _reduce(nums[:d], nums[d:])
        seen = {}
        for i, row in enumerate(map(tuple, reps.tolist())):
            if seen.setdefault(row, i) != i:
                pair = tuple(_fractions(nums[[d + seen[row], d + i]], den))
                raise DuplicateSpectrumError("shifts %s and %s coincide modulo the lattice" % pair)
        nums, den = _lowest(np.concatenate([_scaled(nums[:d], den, det * den), reps]), det * den)
        vars(self).clear()  # given basis and shifts too: rebuilt, normalised, on first read
        vars(self).update(dimension=d, _nums=nums, _den=den)
        return self

    def __getattr__(self, name):
        """``basis`` and ``shifts``, built from the carried rows on first read and then kept."""
        if name not in ("basis", "shifts"):
            raise AttributeError("%r object has no attribute %r" % (type(self).__name__, name))
        rows = _fractions(self._nums, self._den)
        vars(self).update(basis=tuple(rows[:self.dimension]), shifts=tuple(rows[self.dimension:]))
        return vars(self)[name]

    def to_json_dict(self) -> dict:
        rows = [list(row) for row in _fractions(self._nums, self._den, text=True)]
        return {"basis": rows[:self.dimension], "shifts": rows[self.dimension:]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Spectrum":
        basis = tuple(tuple(Fraction(c) for c in g) for g in data["basis"])
        shifts = tuple(tuple(Fraction(c) for c in s) for s in data["shifts"])
        return cls(len(basis), basis, shifts)


def _lattice(g: np.ndarray) -> tuple[np.ndarray, int]:
    """adj(g) and det(g) of the integer generator rows g, signed so that det > 0."""
    adj, det = adjugate(g)
    if det == 0:
        raise NonInvertibleError("lattice generators are linearly dependent")
    return adj * (det // abs(det)), abs(det)


def _reduce(g: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, int]:
    """Vector rows v reduced modulo the lattice of the generator rows g (integers
    over one D) into G [0,1)^d: the representatives over det D, and det.
    Representatives are equal exactly when the points are.

    The coordinates t with t g = v are v adj/det, and the representative
    (t mod 1) G is ((v adj mod det) g)/(det D).
    """
    adj, det = _lattice(g)
    big = max(_top(g), _top(v))
    bound = len(g) * max(big * _top(adj), det * big)
    g, v, adj = (int_array(x, bound) for x in (g, v, adj))
    return (v @ adj % det) @ g, det


def integer_lattice(dimension: int) -> Spectrum:
    """Z^d with the trivial shift."""
    return scaled_lattice(dimension, 1)


def scaled_lattice(dimension: int, scale) -> Spectrum:
    """(scale Z)^d, e.g. scale=1/2 for the half-integer lattice."""
    s = Fraction(scale)
    basis = tuple(tuple(s * (i == k) for k in range(dimension)) for i in range(dimension))
    return Spectrum(dimension, basis)


def _same_dimension(what: str, x, s: FiniteSet) -> None:
    if x.dimension != s.dimension:
        raise DimensionMismatchError(
            "%s dimension %d != set dimension %d" % (what, x.dimension, s.dimension))


def _translates(base: BoxDomain, a: FiniteSet) -> tuple[np.ndarray, OverlapError | None]:
    """Integer corner rows of the copies base + a, translate-major, over base's denominator
    (integer translates keep it least), and the error naming the first pair of copies, in
    the order of A, that overlap with positive measure (None when they are disjoint)."""
    _same_dimension("domain", base, a)
    if not len(a):
        raise ValueError("A is empty: a domain needs at least one translate")
    d, den, m = base.dimension, base._den, len(base._corners) // 2
    bound = _top(base._corners) + a.modulus * den
    offsets = int_array(a.points, bound).reshape(-1, 1, d) * den
    corners = (offsets + int_array(base._corners, bound)).reshape(-1, d)
    overlaps = _overlaps(corners[0::2], corners[1::2])
    if not overlaps:
        return corners, None
    i, k = min((i // m, k // m) for i, k in overlaps)  # box i lies in the translate i // m
    return corners, OverlapError(
        "translates by %s and %s overlap with positive measure" % (a.points[i], a.points[k]),
        offending=(a.points[i], a.points[k]),
    )


def minkowski_translate(base: BoxDomain, a: FiniteSet) -> BoxDomain:
    """The union of the translated copies {base + a : a in A}.

    The copies must be pairwise disjoint up to measure zero; a positive
    overlap raises with the offending pair of translation vectors named:
    the first overlapping pair in the order of A.
    """
    corners, overlap = _translates(base, a)
    if overlap:
        raise overlap
    return object.__new__(BoxDomain)._validate(corners, base._den, disjoint=True)


def shift_spectrum(base: Spectrum, j: FiniteSet, n: int) -> Spectrum:
    """The spectrum base + J/n; shifts must stay distinct modulo the lattice.  They are laid
    out base-shift-major, as the analytics read them: stored shift b #J + s is v_b + j_s/n."""
    _same_dimension("spectrum", base, j)
    if not len(j):
        raise ValueError("J is empty: a spectrum needs at least one shift")
    if n != j.modulus:
        raise ValueError("n = %d does not match the set modulus %d" % (n, j.modulus))
    d = base.dimension
    scale = math.lcm(base._den, n)  # generators, then v + p/n shift-major, over scale
    nums = _scaled(base._nums, base._den, scale)
    p = _scaled(np.array(j.points, dtype=object).reshape(-1, d), n, scale)
    shifts = (nums[d:, None, :] + p[None, :, :]).reshape(-1, d)
    return object.__new__(Spectrum)._validate(np.concatenate([nums[:d], shifts]), scale)


def enumerate_spectrum(s: Spectrum, radius) -> list[Vec]:
    """All spectrum points with sup-norm at most radius, lexicographically sorted."""
    return _fractions(*_window_rows(s, radius)[:2])


def _radius_text(radius) -> str:
    """The radius as given, or to three digits if its text is long: 1e+400, not 401 digits."""
    text, r = str(radius), Fraction(radius)
    brief = Context(3).divide(r.numerator, r.denominator).normalize()
    return text if len(text) <= 20 else format(brief, "g")


def _window_rows(s: Spectrum, radius) -> tuple[np.ndarray, int, np.ndarray]:
    """The points of ``enumerate_spectrum(s, radius)`` as sorted integer rows over s's D,
    and the index of the stored shift whose grid each row came from.

    Over D, the points of the shift v are (t + z) g with t = v adj(g)/det(g),
    and within radius r, |t_i + z_i| <= b_i = r D sum_k |adj[k, i]|/det.  So
    each shift's grid starts at z_i = ceil(-t_i - b_i) and spans
    floor(2 b_i) + 1 values, whatever the shift.  The points are the rows
    with |p| <= r D; as integer rows over D > 0 they sort lexicographically.
    """
    r = Fraction(radius)
    if r < 0:
        raise ValueError("radius must be nonnegative")
    d, den, rn, rd = s.dimension, s._den, r.numerator, r.denominator
    g, v = s._nums[:d], s._nums[d:]
    adj, det = _lattice(g)
    reach = np.array([rn * den * sum(map(abs, col)) for col in adj.T.tolist()], dtype=object)
    start = v + -((v.astype(object) @ adj * rd + reach) // (det * rd)) @ g
    widths = [2 * b // (det * rd) + 1 for b in reach.tolist()]
    if len(v) * math.prod(widths) > _GRID_LIMIT:
        raise ValueError("radius %s needs more than %d candidate points"
                         % (_radius_text(radius), _GRID_LIMIT))
    grid = np.stack(np.meshgrid(*(np.arange(w) for w in widths), indexing="ij"), -1)
    bound = max((_top(start) + d * max(widths) * _top(g)) * rd, rn * den)
    steps = int_array(grid.reshape(-1, d), bound) @ int_array(g, bound)
    points = (int_array(start, bound)[:, None, :] + steps[None, :, :]).reshape(-1, d)
    inside = np.flatnonzero(np.all(np.abs(points) * rd <= rn * den, axis=1))
    order = inside[np.lexsort(points[inside].T[::-1])]  # distinct: shifts differ mod the lattice
    return points[order], den, order // len(steps)  # the candidates are shift-major


def root_of_unity_condition(s: Spectrum, a: FiniteSet) -> bool:
    """Exact test that e^{2 pi i lambda . a} = 1 for every lattice point and shift.

    Equivalent to: g . a and v . a are integers for every generator g,
    every shift v and every a in A.  Over one denominator D, with W the
    numerators of the generators and shifts, that is D | W a.
    """
    _same_dimension("spectrum", s, a)
    bound = max(s.dimension * _top(s._nums) * a.modulus, s._den)
    w, points = int_array(s._nums, bound), int_array(a.points, bound).reshape(-1, a.dimension)
    return bool(np.all(w @ points.T % s._den == 0))
