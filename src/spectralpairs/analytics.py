"""Analytic inner products, Gram spectra, frame-bound estimates and dual bases.

Every inner product of exponentials over a box union is evaluated from
the closed-form antiderivative, never by quadrature: the orthogonality
certificates downstream are at the 1e-10 level and quadrature noise
would drown them.  Every rational phase goes through the one kernel
``_exact.cis``, reduced before exponentiation, so many cancellations are exact.

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

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import _exact
from ._exact import Vec, to_vector
from .domains import (BoxDomain, Spectrum, _fractions, _numerators, _radius_text, _top,
                      _translates, _window_rows, shift_spectrum)
from .errors import EmptySpectrumError, ShapeMismatchError
from .finite_pairs import (
    TOLERANCES,
    FiniteSet,
    PairKind,
    _checked_inverse,
    _piece_coefficients,
    build_evaluation_matrix,
)

_WINDOW_LIMIT = 2**12  # points: a window's n x n tables take about 120 bytes an entry, 2 GiB


def _inner_products(dom: BoxDomain, rows, cols, den: int) -> np.ndarray:
    """M[i, k] = <e_rows[i], e_cols[k]> over the domain, for integer rows over ``den``.

    An entry is a sum over boxes of products over axes of the integrals of
    e^{2 pi i nu x} over [lo, hi), nu the coordinate difference: (cis(nu hi) -
    cis(nu lo)) / (2 pi i nu), and hi - lo at nu = 0.  Per axis, one ``cis`` call
    covers every distinct difference at every box corner; the factors are
    gathered by index and combined in the order of ``term = complex(1.0);
    term *= factor; total += term``, so every entry has that scalar's bits.
    """
    n, m = len(rows), len(cols)
    corners, scale = dom._corners, dom._den  # lower, upper, ... of each box
    bound = max(2 * max(_top(rows), _top(cols)), den) * max(_top(corners), scale)
    rows, cols, corners = (_exact.int_array(x, bound) for x in (rows, cols, corners))
    tables = []
    for k in range(dom.dimension):
        diffs, index = np.unique(np.subtract.outer(rows[:, k], cols[:, k]), return_inverse=True)
        ends = _exact.cis(np.multiply.outer(corners[:, k], diffs), den * scale)
        nu, zero = _exact.ratio(diffs, den), diffs == 0  # float(nu), correctly rounded
        nu[zero] = 1.0
        factors = _exact.over_2pi_i(ends[1::2] - ends[0::2], nu)
        factors[:, zero] = _exact.ratio(corners[1::2, k] - corners[0::2, k], scale)[:, None]
        tables.append((factors, index.reshape(n, m)))
    total = np.zeros((n, m), dtype=complex)
    for b in range(len(dom._corners) // 2):
        term = np.ones((n, m), dtype=complex)
        for factors, index in tables:
            term = _exact.mul(term, factors[b][index])
        total += term
    return total


def exp_inner_product(dom: BoxDomain, lam, mu) -> complex:
    """<e_lam, e_mu> over the domain, i.e. the integral of e^{2 pi i (lam-mu).x}."""
    d = dom.dimension
    nums, den = _numerators([to_vector(lam, d), to_vector(mu, d)], d)
    return complex(_inner_products(dom, nums[:1], nums[1:], den)[0, 0])


def _window(spec: Spectrum, radius) -> tuple[np.ndarray, int, np.ndarray]:
    """``_window_rows(spec, radius)``: the sorted integer rows and the stored shift of each
    point within the radius; raises if there are none, or more than ``_WINDOW_LIMIT``."""
    rows, den, shift = _window_rows(spec, radius)
    if not len(rows):
        raise EmptySpectrumError("no spectrum points within radius %s" % _radius_text(radius))
    if len(rows) > _WINDOW_LIMIT:
        raise ValueError("radius %s holds %d points, over %d"
                         % (_radius_text(radius), len(rows), _WINDOW_LIMIT))
    return rows, den, shift


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
            "entries": _exact.complex_pairs(self.entries),
        }


def _gram(dom: BoxDomain, rows: np.ndarray, den: int) -> np.ndarray:
    """The Gram entries of integer rows over ``den``."""
    entries = _inner_products(dom, rows, rows, den)
    lower = np.tril_indices(len(rows), -1)
    entries[lower] = entries.T[lower].conj()  # exactly Hermitian: the upper triangle, conjugated
    return entries


def build_gram(dom: BoxDomain, spec: Spectrum, radius) -> GramMatrix:
    """Gram matrix of all spectrum points within the given sup-norm radius."""
    rows, den, _ = _window(spec, radius)
    return GramMatrix(tuple(_fractions(rows, den)), _gram(dom, rows, den))


def estimate_frame_bounds(dom: BoxDomain, spec: Spectrum, radii) -> list[tuple[float, float]]:
    """(min, max) Gram eigenvalue per truncation radius.

    For a Riesz basis these sit inside the true Riesz bounds at every
    truncation and converge to them; for non-orthogonal pairs they are
    estimates, not certificates.  A least eigenvalue below
    ``TOLERANCES.eigenvalue_floor`` (1e-12) reports as 0.
    The windows are nested, so one Gram matrix at the largest radius
    serves all of them through its principal submatrices.
    """
    radii = list(radii)
    bounds = [Fraction(r) for r in radii]
    if any(r2 <= r1 for r1, r2 in zip(bounds, bounds[1:])):
        raise ValueError("radii must be strictly increasing")
    if not radii:
        return []
    _window(spec, radii[0])  # the smallest radius raises as its own Gram matrix would
    rows, den, _ = _window(spec, radii[-1])
    entries = _gram(dom, rows, den)
    norms = np.abs(rows).max(axis=1).astype(object)  # sup norms over den, as Python ints
    out = []
    for r in bounds:
        keep = np.flatnonzero(norms * r.denominator <= r.numerator * den)
        eigs = np.linalg.eigvalsh(entries[np.ix_(keep, keep)])
        low = float(eigs[0])
        if low < TOLERANCES.eigenvalue_floor:
            low = 0.0
        out.append((low, float(eigs[-1])))
    return out


@dataclass(frozen=True, eq=False)
class DualBasis:
    """Dual data for the combined system built from (base_domain, A, J)."""

    finite_dual: np.ndarray
    piece_coefficients: np.ndarray
    a: FiniteSet
    j: FiniteSet
    base_domain: BoxDomain
    is_self_dual: bool = field(init=False)  # the classifier's orthogonal kind, set by build

    @classmethod
    def build(cls, base_domain: BoxDomain, a: FiniteSet, j: FiniteSet) -> "DualBasis":
        f = build_evaluation_matrix(a, j).entries
        inv, rank = _checked_inverse(f)
        dual = cls(len(a) * inv, _piece_coefficients(f, inv), a, j, base_domain)
        vars(dual)["is_self_dual"] = rank == PairKind.ORTHOGONAL_BASIS.rank
        return dual

    def to_json_dict(self) -> dict:
        return {
            "finite_dual": _exact.complex_pairs(self.finite_dual),
            "piece_coefficients": _exact.complex_pairs(self.piece_coefficients),
            "self_dual": self.is_self_dual,
        }


def verify_biorthogonality(
    dom1: BoxDomain, spec: Spectrum, a: FiniteSet, j: FiniteSet, radius
) -> float:
    """Max |<g_mu, e_nu> - |Omega| delta_{mu nu}| over all points within radius.

    The duals g are the piecewise multiples described in the module
    docstring; all inner products are evaluated analytically.  ``spec``
    is the base spectrum, ``dom1`` the base domain.
    """
    coeff = DualBasis.build(dom1, a, j).piece_coefficients
    measure = float(dom1.measure) * len(a)
    rows, den, shift = _window(shift_spectrum(spec, j, j.modulus), radius)
    tags = shift % len(j)  # shift_spectrum's layout: stored shift b #J + s
    n = len(rows)
    value = np.zeros((n, n), dtype=complex)
    for r, p in enumerate(a.points):
        m = _inner_products(dom1.translate(p), rows, rows, den)
        value += _exact.mul(coeff[r, tags][:, None], m)
    value.real[np.diag_indices(n)] -= measure
    return float(np.hypot(value.real, value.imag).max())


def reconstruct_function(spec: Spectrum, dual: DualBasis, coefficients, eval_grid,
                         radius) -> np.ndarray:
    """Evaluate the truncated dual expansion |Omega|^{-1} sum <u,e> g at grid points.

    ``spec`` is the base spectrum, as in ``verify_biorthogonality``: the expansion runs over
    ``shift_spectrum(spec, dual.j, N)`` on Omega = ``dual.base_domain`` + ``dual.a``, and
    ``coefficients`` follow ``enumerate_spectrum`` of that spectrum at the radius.  Grid
    points outside Omega evaluate to 0.
    """
    j, base = dual.j, dual.base_domain
    rows, den, shift = _window(shift_spectrum(spec, j, j.modulus), radius)
    coefficients = np.asarray(coefficients, dtype=complex)
    if coefficients.shape != (len(rows),):
        raise ShapeMismatchError(
            "%d coefficients for %d enumerated spectrum points"
            % (coefficients.shape[0] if coefficients.ndim else 1, len(rows))
        )

    grid = np.asarray(eval_grid, dtype=float)
    if base.dimension == 1 and grid.ndim == 1:
        grid = grid[:, None]
    if grid.ndim != 2 or grid.shape[1] != base.dimension:
        raise ShapeMismatchError("evaluation grid must be (m, %d) points" % base.dimension)

    corners = _exact.ratio(_translates(base, dual.a)[0], base._den)
    inside = np.all((corners[0::2, None] <= grid) & (grid < corners[1::2, None]), axis=2)
    # the first translate holding the point: boxes are translate-major
    piece = np.where(inside.any(axis=0), inside.argmax(axis=0) // (len(base._corners) // 2), -1)

    phases = np.exp(2j * np.pi * (grid @ _exact.ratio(rows, den).T))
    inside = piece >= 0
    multipliers = np.zeros((len(grid), len(rows)), dtype=complex)
    multipliers[inside, :] = dual.piece_coefficients[piece[inside][:, None], shift % len(j)]
    measure = float(base.measure * len(dual.a))  # rounded once: float(|Omega|) for disjoint copies
    return (phases * multipliers) @ coefficients / measure
