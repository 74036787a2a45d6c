"""The exact references of the differential tests, one section per library module.

Each fast path of ``spectralpairs`` is checked against the slower path it
replaced, kept here: scalar phases one ``Fraction`` at a time, ``Fraction``
geometry, per-entry inner products and samples, and the per-pair search
loop.  One reference per library path, and a reference never calls the
path it checks: where one calls the library (module functions through
``sp``, methods of its objects), it calls another path, which tests check
on its own.
"""

import functools
import itertools
import math
import time
from fractions import Fraction

import numpy as np

import spectralpairs as sp
from spectralpairs import (
    AliasReport,
    BoxDomain,
    DuplicateSpectrumError,
    FiniteClassification,
    FiniteSet,
    NonInvertibleError,
    OverlapError,
    PairKind,
    SearchMatch,
    SearchResult,
    Spectrum,
    UnsupportedPairError,
)
from spectralpairs.finite_pairs import TOLERANCES, _checked_inverse
from spectralpairs.search import EXHAUSTIVE_GROUP_LIMIT

# --- _exact: the scalar phase, reduced mod 1, exact at the quarter phases ---------------

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


def reference_cis(nums, den):
    """The scalar kernel on each numerator, in the shape of ``nums``."""
    flat = [cis(Fraction(u, den)) for u in np.ravel(nums).tolist()]
    return np.array(flat, dtype=complex).reshape(np.shape(nums))


# --- finite_pairs: evaluation matrices, dual coefficients, symbols, the kind rule ---------


def reference_evaluation_matrix(a, j):
    n = a.modulus
    entries = np.empty((len(j), len(a)), dtype=complex)
    for s, jp in enumerate(j.points):
        for r, ap in enumerate(a.points):
            exponent = sum(jc * ac for jc, ac in zip(jp, ap))
            entries[s, r] = cis(Fraction(-(exponent % n), n))
    return entries


def reference_piece_coefficients(f):
    inv = _checked_inverse(f)[0]
    k = f.shape[1]
    c = np.empty((k, k), dtype=complex)
    for r in range(k):
        for s in range(k):
            c[r, s] = k * inv[r, s] * f[s, r]
    return c


def reference_symbol(j, k):
    """sum over J of e^{-2 pi i j k/N}, term by term."""
    total = 0j
    for (p,) in j.points:
        total += cis(Fraction(-p * k, j.modulus))
    return total


def reference_rounding_bounds(rows, cols, largest):
    """delta_rank and delta_gram of a rows x cols evaluation matrix with largest singular
    value ``largest``, from the entry error e (in eps): sigma_min(F) >= sigma~_min - delta_rank
    by Weyl's inequality and the SVD's backward error, and an entry of F^H F is within
    delta_gram of the exact one."""
    eps, e = np.finfo(float).eps, TOLERANCES.entry_error
    rank = (math.sqrt(rows * cols) * e + 10 * max(rows, cols) * largest) * eps
    return rank, rows * (2 * e + rows + 2) * eps


def classify(a: FiniteSet, j: FiniteSet) -> FiniteClassification:
    """One pair: its own evaluation matrix, SVD and unitarity defect."""
    f = sp.build_evaluation_matrix(a, j).entries
    sigma = np.linalg.svd(f, compute_uv=False)
    lower = float(sigma[-1] ** 2)
    upper = float(sigma[0] ** 2)
    condition = float(sigma[0] / sigma[-1]) if sigma[-1] > 0 else float("inf")
    defect = float(np.abs(f.conj().T @ f - f.shape[0] * np.eye(f.shape[1])).max())
    rank_bound, gram_bound = reference_rounding_bounds(len(j), len(a), sigma[0])

    square = len(a) == len(j)
    if square and defect <= gram_bound:
        kind = PairKind.ORTHOGONAL_BASIS
    elif square and sigma[-1] > rank_bound:
        kind = PairKind.RIESZ_BASIS
    elif sigma[-1] > rank_bound:
        kind = PairKind.FRAME
    else:
        kind = PairKind.NONE
    return FiniteClassification(kind, lower, upper, condition)


def classify_stacked(f: np.ndarray, least: PairKind = PairKind.NONE):
    """``finite_pairs._classify_stacked`` with the unitary defect of every matrix evaluated:
    one SVD of the whole stack, the same kind rule, the same five arrays."""
    square = f.shape[1] == f.shape[2]
    sigma = np.linalg.svd(f, compute_uv=False)
    largest, smallest = sigma[:, 0], sigma[:, -1]
    condition = np.divide(largest, smallest, out=np.full(len(f), np.inf), where=smallest > 0)
    lower, upper = np.float_power(smallest, 2), np.float_power(largest, 2)
    gram = np.swapaxes(f.conj(), 1, 2) @ f
    defect = np.abs(gram - f.shape[1] * np.eye(f.shape[2])).max(axis=(1, 2))
    rank_bound, gram_bound = reference_rounding_bounds(f.shape[1], f.shape[2], largest)
    orthogonal = square & (defect <= gram_bound)
    full = smallest > rank_bound
    ranks = np.select([orthogonal, square & full, full], [3, 2, 1], 0)
    keep = np.flatnonzero(ranks >= least.rank)
    return ranks[keep], lower[keep], upper[keep], condition[keep], keep


# --- domains: Fraction elimination, lattice reduction, shift tags, boxes, builders --------


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
    """All spectrum points with sup-norm at most radius, lexicographically sorted.

    The coordinate box of each shift comes from the Fraction inverse; the points are
    integer numerators over one denominator D of the generators, shifts and radius, each
    the shift plus one multiple of every generator, and become Fractions once, sorted."""
    r = Fraction(radius)
    inv = inverse(s.basis)
    den = math.lcm(r.denominator, *(c.denominator for v in s.basis + s.shifts for c in v))
    gens = [[c.numerator * (den // c.denominator) for c in g] for g in s.basis]
    reach, points = r.numerator * (den // r.denominator), set()
    for shift in s.shifts:
        bound = r + max(abs(c) for c in shift)
        steps = [[[z * c for c in g] for z in range(-b, b + 1)]
                 for g, b in zip(gens, (math.floor(sum(map(abs, row)) * bound) for row in inv))]
        v = [c.numerator * (den // c.denominator) for c in shift]
        for combo in itertools.product(*steps):
            p = tuple(map(sum, zip(v, *combo)))
            if max(map(abs, p)) <= reach:
                points.add(p)
    return [tuple(Fraction(c, den) for c in p) for p in sorted(points)]


def window_shifts(s, radius):
    """The stored shift of s that each point of ``enumerate_spectrum(s, radius)`` reduces to."""
    return [reduce_mod_lattice(s.basis, p) for p in enumerate_spectrum(s, radius)]


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


def root_of_unity_condition(s, a) -> bool:
    """g . a and v . a are integers for every generator g, shift v and a in A."""
    return all(dot(w, p).denominator == 1 for p in a.points for w in s.basis + s.shifts)


def box_overlap(b1, b2) -> bool:
    """Positive-measure intersection test for half-open boxes."""
    return all(max(l1, l2) < min(h1, h2) for l1, h1, l2, h2 in zip(b1[0], b1[1], b2[0], b2[1]))


def box_holds(box, x) -> bool:
    """Whether the half-open box holds the point x."""
    return all(lo <= c < hi for lo, hi, c in zip(box[0], box[1], x))


def reference_first_box_pair(boxes):
    """The first index pair (i, k), i < k, of overlapping boxes, or None."""
    for i in range(len(boxes)):
        for k in range(i + 1, len(boxes)):
            if box_overlap(boxes[i], boxes[k]):
                return i, k
    return None


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


def fraction_minkowski(dom, a):
    """``minkowski_translate`` through the constructor, naming the first overlapping translates."""
    if not len(a):
        raise ValueError("A is empty: a domain needs at least one translate")
    boxes = tuple((vec_add(lo, p), vec_add(hi, p)) for p in a.points for lo, hi in dom.boxes)
    m = len(dom.boxes)
    meets = [(i // m, k // m) for i, k in itertools.combinations(range(len(boxes)), 2)
             if box_overlap(boxes[i], boxes[k])]
    if meets:
        i, k = min(meets)
        raise OverlapError("translates by %s and %s overlap with positive measure"
                           % (a.points[i], a.points[k]), offending=(a.points[i], a.points[k]))
    return BoxDomain(dom.dimension, boxes)


def fraction_shift(spec, j):
    """``shift_spectrum`` through the constructor; an empty J would mean the zero shift."""
    if not len(j):
        raise ValueError("J is empty: a spectrum needs at least one shift")
    offsets = [tuple(Fraction(c, j.modulus) for c in p) for p in j.points]
    return Spectrum(spec.dimension, spec.basis,
                    tuple(vec_add(v, o) for v in spec.shifts for o in offsets))


def reference_fractions(rows, den, text=False):
    """The dict-based conversion ``_fractions`` replaced: rows of Python ints."""
    values = {n: Fraction(n, den) for n in set(itertools.chain.from_iterable(rows))}
    values = {n: str(v) for n, v in values.items()} if text else values
    return [tuple(map(values.__getitem__, row)) for row in rows]


# --- constructor ----------------------------------------------------------------------------


def fraction_product(p1, p2):
    """``cartesian_product`` through the public constructors, as it was built before it
    wrote the integer forms itself."""
    d1, d2 = p1.domain.dimension, p2.domain.dimension
    boxes = tuple((lo1 + lo2, hi1 + hi2) for (lo1, hi1) in p1.domain.boxes
                  for (lo2, hi2) in p2.domain.boxes)
    zero1, zero2 = (Fraction(0),) * d1, (Fraction(0),) * d2
    basis = tuple(g + zero2 for g in p1.spectrum.basis)
    basis += tuple(zero1 + g for g in p2.spectrum.basis)
    shifts = tuple(s1 + s2 for s1, s2 in itertools.product(p1.spectrum.shifts, p2.spectrum.shifts))
    return BoxDomain(d1 + d2, boxes), Spectrum(d1 + d2, basis, shifts)


# --- analytics: inner products, Gram matrices, bounds, biorthogonality --------------------


def reference_in_first_spectrum(x, j1):
    """x in Z + J_1/N_1, decided exactly."""
    return any((x - Fraction(p, j1.modulus)).denominator == 1 for (p,) in j1.points)


def reference_interval_factor(nu, lo, hi):
    """Integral of e^{2 pi i nu x} over [lo, hi)."""
    if nu == 0:
        return complex(float(hi - lo))
    return (cis(nu * hi) - cis(nu * lo)) / (2j * math.pi * float(nu))


def reference_inner_product(dom, lam, mu):
    nu = tuple(a - b for a, b in zip(lam, mu))
    total = 0j
    for lo, hi in dom.boxes:
        term = complex(1.0)
        for k in range(dom.dimension):
            term *= reference_interval_factor(nu[k], lo[k], hi[k])
        total += term
    return total


def reference_gram(dom, spec, radius):
    points = sp.enumerate_spectrum(spec, radius)
    n = len(points)
    entries = np.empty((n, n), dtype=complex)
    for i in range(n):
        entries[i, i] = reference_inner_product(dom, points[i], points[i])
        for k in range(i + 1, n):
            val = reference_inner_product(dom, points[i], points[k])
            entries[i, k] = val
            entries[k, i] = val.conjugate()
    return entries


def reference_bounds(dom, spec, radii):
    out = []
    for r in radii:
        eigs = np.linalg.eigvalsh(reference_gram(dom, spec, r))
        low = float(eigs[0])
        out.append((0.0 if low < 1e-12 else low, float(eigs[-1])))
    return out


def fraction_window_bounds(dom, spec, radii):
    """The window selection that integer sup norms replaced: one Gram matrix at the
    largest radius, then per radius the points whose ``Fraction`` sup norm is within it."""
    gram = sp.build_gram(dom, spec, radii[-1])
    norms = [max(map(abs, p)) for p in gram.points]
    out = []
    for r in map(Fraction, radii):
        keep = [i for i, s in enumerate(norms) if s <= r]
        eigs = np.linalg.eigvalsh(gram.entries[np.ix_(keep, keep)])
        out.append((0.0 if eigs[0] < 1e-12 else float(eigs[0]), float(eigs[-1])))
    return out


def reference_biorthogonality(dom1, spec, a, j, radius):
    coeff = reference_piece_coefficients(reference_evaluation_matrix(a, j))
    translates = [dom1.translate(p) for p in a.points]
    measure = float(dom1.measure) * len(a)
    combined = fraction_shift(spec, j)
    points = sp.enumerate_spectrum(combined, radius)
    tags = shift_tags(combined, j, points)
    defect = 0.0
    for mu, s_mu in zip(points, tags):
        for nu in points:
            value = 0j
            for r in range(len(a.points)):
                value += coeff[r, s_mu] * reference_inner_product(translates[r], mu, nu)
            target = measure if mu == nu else 0.0
            defect = max(defect, abs(value - target))
    return defect


def reference_reconstruction(spec, dual, coefficients, grid, radius):
    """The truncated dual expansion one rational grid point at a time.  The terms follow
    ``enumerate_spectrum`` of base + J/N, each tagged with its s by ``shift_tags``; a point
    in Omega_1 + a_r, r the first translate whose boxes hold it by the box test, takes
    sum u_mu c[r, s_mu] e^{2 pi i mu . x} / (#A |Omega_1|), and a point outside takes 0."""
    a, j, base = dual.a, dual.j, dual.base_domain
    coeff = reference_piece_coefficients(reference_evaluation_matrix(a, j))
    combined = fraction_shift(spec, j)
    points = sp.enumerate_spectrum(combined, radius)
    tags = shift_tags(combined, j, points)
    measure = float(base.measure * len(a))
    out = []
    for x in grid:
        holds = [any(box_holds((vec_add(lo, p), vec_add(hi, p)), x) for lo, hi in base.boxes)
                 for p in a.points]
        if True not in holds:
            out.append(0j)
            continue
        r = holds.index(True)
        total = 0j
        for mu, s, u in zip(points, tags, coefficients):
            total += u * coeff[r, s] * cis(dot(mu, x))
        out.append(total / measure)
    return np.array(out)


# --- sampling: closed-form samples, the per-k alias table, the transform ------------------


def reference_box_transform(coeffs, lo, hi, t):
    """integral over [lo, hi) of sum c_m (xi-lo)^m e^{2 pi i xi t} d xi, closed form."""
    length = hi - lo
    if t == 0:
        lf = float(length)
        return sum(c * lf ** (m + 1) / (m + 1) for m, c in enumerate(coeffs))
    phase = cis(t * lo)
    end = cis(t * length)
    tw = 2j * math.pi * float(t)
    lf = float(length)
    moments = [(end - 1.0) / tw]
    for m in range(1, len(coeffs)):
        moments.append((lf**m * end - m * moments[m - 1]) / tw)
    return phase * sum(c * moments[m] for m, c in enumerate(coeffs))


def reference_samples(f, p):
    out = []
    for lam in p.points():
        total = 0j
        for (lo, hi), coeffs in zip(f.spectrum_domain.boxes, f.pieces):
            total += reference_box_transform(coeffs, lo[0], hi[0], lam)
        out.append(total)
    return out


def reference_alias(a, j, k_range):
    """The table (k, symbol, k in A - A) over the range and the report built from it, one k
    at a time: the exact measure of Omega and Omega + k decides each k outside A - A."""
    reps = [p[0] for p in a.points]
    differences = {x - y for x in reps for y in reps}
    omega = fraction_minkowski(sp.unit_box(1), a)
    table = [(k, reference_symbol(j, k), k in differences)
             for k in range(k_range[0], k_range[1] + 1)]
    cancelled, violations, disjoint, overlaps = [], [], [], []
    for k, value, in_difference_set in table:
        if k == 0:
            continue
        if in_difference_set:
            if abs(value) < 1e-10:
                cancelled.append(k)
            else:
                violations.append((k, abs(value)))
        else:
            measure = intersection_measure(omega, omega.translate((k,)))
            if measure == 0:
                disjoint.append(k)
            else:
                overlaps.append((k, str(measure)))
    report = AliasReport(reference_symbol(j, 0).real, len(j), tuple(cancelled),
                         tuple(violations), tuple(disjoint), tuple(overlaps))
    return table, report


def reference_hat(signal, xi):
    """The transform with each box edge converted from its Fraction on every call."""
    for (lo, hi), coeffs in zip(signal.spectrum_domain.boxes, signal.pieces):
        if float(lo[0]) <= xi < float(hi[0]):
            t = xi - float(lo[0])
            return sum(c * t**m for m, c in enumerate(coeffs))
    return 0j


# --- search: the per-pair loop, the scalar canonical form, column grouping ----------------


def _translate_subset(subset, t, n):
    return tuple(sorted(tuple((c - tc) % n for c, tc in zip(p, t)) for p in subset))


def canonical_form(subset, n: int) -> tuple:
    """Lexicographically minimal translate of the subset that contains 0."""
    return min(_translate_subset(subset, t, n) for t in subset)


def group_elements(n: int, d: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(n), repeat=d))


def exhaustive_pairs(n: int, d: int, k: int, dedup: bool) -> list[tuple]:
    """Every (A, J) the exhaustive search visits, in its order."""
    subsets = [
        s
        for s in itertools.combinations(group_elements(n, d), k)
        if not dedup or s == canonical_form(s, n)
    ]
    return list(itertools.product(subsets, subsets))


def enumerate_pairs(q) -> SearchResult:
    """Every pair gets its own two ``FiniteSet``s and ``classify``; the deadline and
    ``max_results`` are checked before each pair, and sampling indexes a list of all
    group elements."""
    n, d, k = q.modulus, q.dimension, q.cardinality
    deadline = None if q.time_budget is None else time.monotonic() + q.time_budget
    exhaustive = n**d <= EXHAUSTIVE_GROUP_LIMIT
    matches = []
    examined = 0
    partial = False
    seed = None

    if exhaustive:
        pair_iter = iter(exhaustive_pairs(n, d, k, q.dedup_translates))
    else:
        seed = q.seed if q.seed is not None else int(np.random.SeedSequence().entropy % 2**32)
        rng = np.random.default_rng(seed)
        elements = group_elements(n, d)

        def _sampled():
            for _ in range(q.samples):
                a_sel = rng.choice(len(elements), size=k, replace=False)
                j_sel = rng.choice(len(elements), size=k, replace=False)
                a_sub = tuple(sorted(elements[i] for i in a_sel))
                j_sub = tuple(sorted(elements[i] for i in j_sel))
                if q.dedup_translates:
                    a_sub = canonical_form(a_sub, n)
                    j_sub = canonical_form(j_sub, n)
                yield a_sub, j_sub

        pair_iter = _sampled()

    for a_sub, j_sub in pair_iter:
        if deadline is not None and time.monotonic() > deadline:
            partial = True
            break
        if q.max_results is not None and len(matches) >= q.max_results:
            partial = True
            break
        examined += 1
        a = FiniteSet(n, d, a_sub)
        j = FiniteSet(n, d, j_sub)
        classification = classify(a, j)
        if classification.kind.at_least(q.target_kind):
            matches.append(SearchMatch(a, j, classification))
    return SearchResult(tuple(matches), exhaustive, partial, examined, seed)


def column_grouping(keys):
    """The grouping ``_distinct`` used when a row did not fit one int64: a lexsort over
    every column."""
    order = np.lexsort(keys.T)
    first = np.concatenate(([True], (keys[order[1:]] != keys[order[:-1]]).any(axis=1)))
    labels = np.empty_like(order)
    labels[order] = np.cumsum(first) - 1
    return order[first], labels
