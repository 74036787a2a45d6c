"""Sampling and reconstruction for signals with spectrum in a union of intervals.

One-dimensional setting: the frequency support is Omega = [0,1) + A for
A inside Z_N, and samples are taken on the pattern Z + J/N.  The Fourier
transform of the sampled distribution is sum_k chi_hat_J(k) f_hat(. - k)
with chi_hat_J(k) = sum_{j in J} e^{-2 pi i j k / N}, so the aliasing
terms die in two ways: the symbol vanishes on (A - A) \\ {0}, and for the
remaining k the shifted supports Omega and Omega + k do not meet.  When
both happen, f_hat is recovered on Omega as (#J)^{-1} sum f(lambda)
e^{-2 pi i lambda xi}.

Test signals are stored in the frequency domain as per-box polynomials,
so time samples f(lambda) have closed forms and no FFT approximation
enters the verification path.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._exact import cis, common_denominator, int_array, mul, over_2pi_i, ratio
from .domains import BoxDomain
from .errors import DimensionMismatchError
from .finite_pairs import TOLERANCES, FiniteSet, _symbols, symbol_of_set

_PATTERN_LIMIT = 2**22  # pattern points: about 200 bytes each as samples or Fractions, 800 MiB
_KERNEL_LIMIT = 2**24  # reconstruction kernel entries: about 32 bytes each, 512 MiB


@dataclass(frozen=True, eq=False)
class BandlimitedSignal:
    """A signal given by its Fourier transform: one polynomial per box.

    ``pieces[i]`` holds complex coefficients (c_0, c_1, ...) of the
    polynomial sum_m c_m (xi - lo_i)^m on box i of ``spectrum_domain``;
    the transform vanishes off the domain by construction.
    """

    spectrum_domain: BoxDomain
    pieces: tuple[tuple[complex, ...], ...]

    def __post_init__(self):
        if self.spectrum_domain.dimension != 1:
            raise DimensionMismatchError("bandlimited signals are one-dimensional here")
        if len(self.pieces) != len(self.spectrum_domain.boxes):
            raise ValueError(
                "%d coefficient pieces for %d boxes"
                % (len(self.pieces), len(self.spectrum_domain.boxes))
            )
        object.__setattr__(
            self, "pieces", tuple(tuple(complex(c) for c in p) for p in self.pieces)
        )
        edges = [(float(lo[0]), float(hi[0])) for lo, hi in self.spectrum_domain.boxes]
        object.__setattr__(self, "_edges", tuple(edges))  # for hat, converted once

    @classmethod
    def indicator(cls, domain: BoxDomain) -> "BandlimitedSignal":
        """The signal with f_hat = chi of the given union of intervals."""
        return cls(domain, tuple((1.0,) for _ in domain.boxes))

    def hat(self, xi: float) -> complex:
        """Evaluate the Fourier transform at a real frequency."""
        for (lo, hi), coeffs in zip(self._edges, self.pieces):
            if lo <= xi < hi:
                t = xi - lo
                return sum(c * t**m for m, c in enumerate(coeffs))
        return 0j

    def sample(self, lam) -> complex:
        """Time-domain value f(lam) = integral of f_hat(xi) e^{2 pi i xi lam} d xi."""
        lam = Fraction(lam)
        return _samples(self, np.array([lam.numerator], dtype=object), lam.denominator)[0]


def _samples(f: BandlimitedSignal, nums: np.ndarray, scale: int) -> list[complex]:
    """f at every lam = nums/scale (Python ints), each box's closed form evaluated at once.

    On a box [lo, lo + l) the integral of sum c_m (xi-lo)^m e^{2 pi i xi t}
    is e^{2 pi i t lo} sum c_m M_m, with M_0 = (e^{2 pi i t l} - 1)/(2 pi i t)
    and M_m = (l^m e^{2 pi i t l} - m M_{m-1})/(2 pi i t), and it is
    sum c_m l^{m+1}/(m+1) at t = 0.  The arithmetic follows those scalar
    formulas step for step, boxes summed in order from 0j.
    """
    t, zero = ratio(nums, scale), nums == 0  # float(t), correctly rounded
    t[zero] = 1.0
    total = np.zeros(len(nums), dtype=complex)
    for (lo, hi), coeffs in zip(f.spectrum_domain.boxes, f.pieces):
        lo, length = lo[0], hi[0] - lo[0]
        lf = float(length)
        end = cis(nums * length.numerator, scale * length.denominator)
        moment, value = over_2pi_i(end - 1.0, t), np.zeros(len(nums), dtype=complex)
        for m, c in enumerate(coeffs):
            if m:
                moment = over_2pi_i(mul(lf**m, end) - mul(m, moment), t)
            value += mul(c, moment)
        value = mul(cis(nums * lo.numerator, scale * lo.denominator), value)
        value[zero] = sum(c * lf ** (m + 1) / (m + 1) for m, c in enumerate(coeffs))
        total += value
    return total.tolist()


@dataclass(frozen=True)
class SamplePattern:
    """Sample locations {-M..M} + shifts, shifts distinct inside [0,1)."""

    shifts: tuple[Fraction, ...]
    truncation: int

    def __post_init__(self):
        shifts = tuple(map(Fraction, self.shifts))
        if any(not (0 <= s < 1) for s in shifts):
            raise ValueError("pattern shifts must lie in [0, 1)")
        if len(set(shifts)) != len(shifts):
            raise ValueError("pattern shifts must be distinct")
        if operator.index(self.truncation) < 0:
            raise ValueError("truncation must be nonnegative")
        if (2 * operator.index(self.truncation) + 1) * len(shifts) > _PATTERN_LIMIT:
            raise ValueError("truncation %d gives over %d pattern points"
                             % (self.truncation, _PATTERN_LIMIT))
        object.__setattr__(self, "shifts", shifts)

    @classmethod
    def from_finite_set(cls, j: FiniteSet, truncation: int) -> "SamplePattern":
        if j.dimension != 1:
            raise DimensionMismatchError("sampling patterns are one-dimensional here")
        if not len(j):
            raise ValueError("J is empty: Z + J/N needs at least one shift")
        return cls(tuple(Fraction(p[0], j.modulus) for p in j.points), truncation)

    def points(self) -> list[Fraction]:
        nums, den = _pattern(self)
        return [Fraction(n, den) for n in nums.tolist()]


def _pattern(p: SamplePattern) -> tuple[np.ndarray, int]:
    """The sorted points n + s of ``p`` as Python-int numerators n D + s D over
    the lcm D of the shift denominators."""
    shifts, den = common_denominator(p.shifts)
    m, bound = p.truncation, (int(p.truncation) + 1) * den  # den may be past int64
    nums = np.add.outer(int_array(range(-m, m + 1), bound) * den, int_array(shifts, bound))
    return np.sort(nums.ravel()).astype(object), den


def sample_signal(f: BandlimitedSignal, p: SamplePattern) -> list[complex]:
    """f evaluated at every pattern point, aligned with ``p.points()``."""
    return _samples(f, *_pattern(p))


@dataclass(frozen=True, eq=False)
class AliasReport:
    """Aliasing-cancellation certificate for (A, J) on the range of k tested.

    dc: the k = 0 coefficient (must equal #J exactly).
    cancelled: k in (A-A) \\ {0} where |symbol| is within its rounding bound delta_gram.
    symbol_violations: such k where it is past the bound, so proved nonzero.
    disjoint: every k != 0 outside A-A, where Omega and Omega+k are disjoint.
    overlap_violations: always empty, as [a, a+1) meets [a' + k, a' + k + 1) only at k = a - a'.
    """

    dc_value: float
    dc_expected: int
    cancelled: tuple[int, ...]
    symbol_violations: tuple[tuple[int, float], ...]
    disjoint: tuple[int, ...]
    overlap_violations: tuple[tuple[int, str], ...]

    @property
    def passed(self) -> bool:
        return (
            self.dc_value == float(self.dc_expected)
            and not self.symbol_violations
            and not self.overlap_violations
        )

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "dc_value": self.dc_value,
            "dc_expected": self.dc_expected,
            "cancelled": list(self.cancelled),
            "symbol_violations": [[k, v] for k, v in self.symbol_violations],
            "disjoint": list(self.disjoint),
            "overlap_violations": [[k, m] for k, m in self.overlap_violations],
        }


def verify_alias_cancellation(a: FiniteSet, j: FiniteSet, k_range) -> AliasReport:
    """Check the three ways an aliasing term can vanish, k over the given range.

    Case k = 0 contributes the factor #J; k in (A-A) \\ {0} must kill the
    symbol (this is where orthogonality of (A, J) enters and where a
    non-orthogonal J shows up as a named violation); every other k has Omega
    and Omega + k disjoint.  Both ends of the range must be integers.
    """
    if a.dimension != 1 or j.dimension != 1:
        raise DimensionMismatchError("aliasing analysis is one-dimensional here")
    if not len(a):
        raise ValueError("A is empty: Omega = [0, 1) + A needs at least one translate")
    if not len(j):
        raise ValueError("J is empty: Z + J/N needs at least one shift")
    k_min, k_max = operator.index(k_range[0]), operator.index(k_range[1])
    if k_min > k_max:
        raise ValueError("empty k range: %d > %d" % (k_min, k_max))
    ks = int_array(range(k_min, k_max + 1), max(abs(k_min), abs(k_max), j.modulus, a.modulus))
    reps = int_array(a.points, a.modulus).ravel()
    values = _symbols(j, ks[:, None] % j.modulus)  # the symbol chi_hat_J at each k
    differences = np.isin(ks, np.subtract.outer(reps, reps))  # k in A - A
    size = np.hypot(values.real, values.imag)  # abs(value), as Python takes it
    symbol, small = differences & (ks != 0), size <= TOLERANCES.gram_bound(len(j))
    return AliasReport(
        dc_value=symbol_of_set(j, 0).real,
        dc_expected=len(j),
        cancelled=tuple(ks[symbol & small].tolist()),
        symbol_violations=tuple(zip(ks[symbol & ~small].tolist(), size[symbol & ~small].tolist())),
        disjoint=tuple(ks[~differences & (ks != 0)].tolist()),
        overlap_violations=(),
    )


def reconstruct_spectrum(samples, p: SamplePattern, j: FiniteSet, eval_points) -> np.ndarray:
    """Truncated recovery of f_hat on Omega from pattern samples.

    f_hat_M(xi) = (#J)^{-1} sum_lambda f(lambda) e^{-2 pi i lambda xi};
    the exponent sign follows the derivation of the sampled-distribution
    transform (the e^{+2 pi i lambda xi} variant circulating elsewhere
    does not reproduce the samples).
    """
    nums, den = _pattern(p)
    samples = np.asarray(samples, dtype=complex)
    if samples.shape != (len(nums),):
        raise ValueError("%d samples for %d pattern points" % (samples.size, len(nums)))
    xi = np.asarray(eval_points, dtype=float)
    if xi.size * len(nums) > _KERNEL_LIMIT:
        raise ValueError("%d x %d kernel entries, over %d" % (xi.size, len(nums), _KERNEL_LIMIT))
    lams = ratio(nums, den)  # float(lam), correctly rounded
    kernel = np.exp(-2j * np.pi * np.outer(xi, lams))
    return kernel @ samples / len(j)
