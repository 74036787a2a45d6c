"""Analytic inner products, Gram spectra, frame-bound estimates and dual bases.

Every inner product of exponentials over a box union is evaluated from
the closed-form antiderivative, never by quadrature: the orthogonality
certificates downstream are at the 1e-10 level and quadrature noise
would drown them.  Rational phase arguments are reduced mod 1 before
exponentiation (see ``_exact.cis``), so many cancellations are exact.

For a square invertible evaluation matrix F on (A, J), #A = k, the dual
system data are

    G[r, s]  = k (F^{-1})[r, s]            (dual values on A)
    c[r, s]  = k (F^{-1})[r, s] omega^{a_r . j_s}

and the biorthogonal dual of e_{lambda + j_s/N} on Omega = Omega_1 + A
is the piecewise multiple  g(x) = c[r, s] e_{lambda + j_s/N}(x) for
x in Omega_1 + a_r, normalized so that <g_mu, e_nu> = |Omega| delta.
The coefficient formula is locked by the biorthogonality defect check
below rather than trusted.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _exact
from ._exact import Vec, cis, omega_power, to_fraction, to_vector
from .domains import BoxDomain, Spectrum, enumerate_spectrum
from .errors import (
    DuplicateSpectrumError,
    EmptySpectrumError,
    NonInvertibleError,
    ShapeMismatchError,
    UnsupportedPairError,
)
from .finite_pairs import FiniteSet, Tolerances, build_evaluation_matrix

_TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=1 << 16)
def _interval_factor(nu: Fraction, lo: Fraction, hi: Fraction) -> complex:
    """Integral of e^{2 pi i nu x} over [lo, hi)."""
    if nu == 0:
        return complex(float(hi - lo))
    return (cis(nu * hi) - cis(nu * lo)) / (2j * math.pi * float(nu))


def exp_inner_product(dom: BoxDomain, lam, mu) -> complex:
    """<e_lam, e_mu> over the domain, i.e. the integral of e^{2 pi i (lam-mu).x}."""
    lam = to_vector(lam, dom.dimension)
    mu = to_vector(mu, dom.dimension)
    nu = _exact.vec_sub(lam, mu)
    total = 0j
    for lo, hi in dom.boxes:
        term = complex(1.0)
        for k in range(dom.dimension):
            term *= _interval_factor(nu[k], lo[k], hi[k])
        total += term
    return total


@dataclass(frozen=True, eq=False)
class GramMatrix:
    """Hermitian matrix of pairwise exponential inner products over a domain."""

    points: tuple[Vec, ...]
    entries: np.ndarray

    def __len__(self) -> int:
        return len(self.points)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.entries)

    def max_offdiagonal(self) -> float:
        off = self.entries - np.diag(np.diag(self.entries))
        return float(np.abs(off).max()) if len(self.points) > 1 else 0.0

    def to_json_dict(self) -> dict:
        return {
            "points": [[str(c) for c in p] for p in self.points],
            "entries": [
                [[z.real, z.imag] for z in row] for row in self.entries
            ],
        }


def build_gram(dom: BoxDomain, spec: Spectrum, radius) -> GramMatrix:
    """Gram matrix of all spectrum points within the given sup-norm radius."""
    points = enumerate_spectrum(spec, radius)
    if not points:
        raise EmptySpectrumError("no spectrum points within radius %s" % radius)
    n = len(points)
    entries = np.empty((n, n), dtype=complex)
    for i in range(n):
        entries[i, i] = exp_inner_product(dom, points[i], points[i])
        for k in range(i + 1, n):
            val = exp_inner_product(dom, points[i], points[k])
            entries[i, k] = val
            entries[k, i] = val.conjugate()
    return GramMatrix(tuple(points), entries)


def estimate_frame_bounds(dom: BoxDomain, spec: Spectrum, radii) -> list[tuple[float, float]]:
    """(min, max) Gram eigenvalue per truncation radius.

    For a Riesz basis these sit inside the true Riesz bounds at every
    truncation and converge to them; for non-orthogonal pairs they are
    estimates, not certificates.  Eigenvalues below 1e-12 report as 0.
    """
    radii = list(radii)
    if any(to_fraction(r2) <= to_fraction(r1) for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be strictly increasing")
    out = []
    for r in radii:
        eigs = build_gram(dom, spec, r).eigenvalues()
        low = float(eigs[0])
        if low < 1e-12:
            low = 0.0
        out.append((low, float(eigs[-1])))
    return out


def _square_inverse(
    a: FiniteSet, j: FiniteSet, condition_cap: float = Tolerances().condition_cap
) -> np.ndarray:
    f = build_evaluation_matrix(a, j).entries
    if f.shape[0] != f.shape[1]:
        raise NonInvertibleError("evaluation matrix is %dx%d, need square" % f.shape)
    sigma = np.linalg.svd(f, compute_uv=False)
    if sigma[-1] == 0 or sigma[0] / sigma[-1] > condition_cap:
        raise NonInvertibleError("evaluation matrix is singular or ill-conditioned")
    return np.linalg.inv(f)


def finite_dual(a: FiniteSet, j: FiniteSet) -> np.ndarray:
    """Dual values G[r, s] = G_{j_s}(a_r) = k (F^{-1})[r, s]."""
    return len(a) * _square_inverse(a, j)


def dual_piece_coefficients(a: FiniteSet, j: FiniteSet) -> np.ndarray:
    """Piecewise multipliers c[r, s] = k (F^{-1})[r, s] omega^{a_r . j_s}."""
    inv = _square_inverse(a, j)
    n = a.modulus
    k = len(a)
    c = np.empty((k, k), dtype=complex)
    for r, ap in enumerate(a.points):
        for s, jp in enumerate(j.points):
            exponent = sum(ac * jc for ac, jc in zip(ap, jp))
            c[r, s] = k * inv[r, s] * omega_power(exponent, n)
    return c


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Dual data for the combined system built from (base_domain, A, J)."""

    finite_dual: np.ndarray
    piece_coefficients: np.ndarray
    a: FiniteSet
    j: FiniteSet
    base_domain: BoxDomain

    @classmethod
    def build(cls, base_domain: BoxDomain, a: FiniteSet, j: FiniteSet) -> "DualBasis":
        return cls(finite_dual(a, j), dual_piece_coefficients(a, j), a, j, base_domain)

    @property
    def is_self_dual(self) -> bool:
        return bool(np.abs(self.piece_coefficients - 1.0).max() < Tolerances().unitary)

    def to_json_dict(self) -> dict:
        return {
            "finite_dual": [[[z.real, z.imag] for z in row] for row in self.finite_dual],
            "piece_coefficients": [
                [[z.real, z.imag] for z in row] for row in self.piece_coefficients
            ],
            "self_dual": self.is_self_dual,
        }


def _annotated_points(spec: Spectrum, j: FiniteSet, radius) -> list[tuple[Vec, int]]:
    """Combined spectrum points lambda + j_s/N within radius, tagged with s.

    ``spec`` is the base spectrum; the combined points are enumerated in
    the same lexicographic order that ``enumerate_spectrum`` would give
    on the shifted spectrum.
    """
    r = to_fraction(radius)
    n = j.modulus
    shift_vectors = [tuple(Fraction(c, n) for c in p) for p in j.points]
    pad = r + max(max(abs(c) for c in v) for v in shift_vectors)
    base_points = enumerate_spectrum(spec, pad)
    tagged: dict[Vec, int] = {}
    for s, v in enumerate(shift_vectors):
        for lam in base_points:
            point = _exact.vec_add(lam, v)
            if max(abs(c) for c in point) <= r:
                if point in tagged:
                    raise DuplicateSpectrumError(
                        "combined spectrum repeats the point %s" % (point,)
                    )
                tagged[point] = s
    return sorted(tagged.items())


def verify_biorthogonality(
    dom1: BoxDomain, spec: Spectrum, a: FiniteSet, j: FiniteSet, radius
) -> float:
    """Max |<g_mu, e_nu> - |Omega| delta_{mu nu}| over all points within radius.

    The duals g are the piecewise multiples described in the module
    docstring; all inner products are evaluated analytically.  ``spec``
    is the base spectrum (the lattice part), ``dom1`` the base domain.
    """
    coeff = dual_piece_coefficients(a, j)
    translates = [dom1.translate(p) for p in a.points]
    measure = float(dom1.measure) * len(a)
    tagged = _annotated_points(spec, j, radius)
    defect = 0.0
    for mu, s_mu in tagged:
        for nu, _ in tagged:
            value = 0j
            for r in range(len(a.points)):
                value += coeff[r, s_mu] * exp_inner_product(translates[r], mu, nu)
            target = measure if mu == nu else 0.0
            defect = max(defect, abs(value - target))
    return defect


def _decompose_shift(spec: Spectrum, j: FiniteSet, point: Vec) -> int:
    """Index s with point - j_s/N in the lattice of ``spec``."""
    n = j.modulus
    for s, jp in enumerate(j.points):
        residue = tuple(c - Fraction(pc, n) for c, pc in zip(point, jp))
        if _exact.is_integral(_exact.solve(spec.basis, residue)):
            return s
    raise UnsupportedPairError(
        "spectrum point %s is not lattice + J/N; cannot attach a dual coefficient" % (point,)
    )


def reconstruct_function(
    dom: BoxDomain,
    spec: Spectrum,
    dual: DualBasis,
    coefficients,
    eval_grid,
    radius,
) -> np.ndarray:
    """Evaluate the truncated dual expansion |Omega|^{-1} sum <u,e> g at grid points.

    ``coefficients`` must be indexed consistently with
    ``enumerate_spectrum(spec, radius)``; ``spec`` is the combined
    spectrum and ``dom`` the combined domain.  Grid points outside the
    domain evaluate to 0.
    """
    points = enumerate_spectrum(spec, radius)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (len(points),):
        raise ShapeMismatchError(
            "%d coefficients for %d enumerated spectrum points"
            % (coefficients.shape[0] if coefficients.ndim else 1, len(points))
        )
    shift_index = np.array([_decompose_shift(spec, dual.j, p) for p in points])

    grid = np.asarray(eval_grid, dtype=float)
    if dom.dimension == 1 and grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != dom.dimension:
        raise ShapeMismatchError("evaluation grid must be (m, %d) points" % dom.dimension)

    translates = [dual.base_domain.translate(p) for p in dual.a.points]
    piece = np.full(len(grid), -1, dtype=int)
    for r, t in enumerate(translates):
        for g_idx in range(len(grid)):
            if piece[g_idx] < 0 and t.contains(grid[g_idx]):
                piece[g_idx] = r

    freq = np.array([[float(c) for c in p] for p in points])
    phases = np.exp(2j * np.pi * (grid @ freq.T))
    inside = piece >= 0
    multipliers = np.zeros((len(grid), len(points)), dtype=complex)
    multipliers[inside, :] = dual.piece_coefficients[piece[inside][:, None], shift_index[None, :]]
    measure = float(dom.measure)
    return (phases * multipliers) @ coefficients / measure
