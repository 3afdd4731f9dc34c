"""Finite-scale counting machinery.

Given bounded sets A_1..A_v and mandatory points, build_sample produces a
finite point set lam and a scale N = #(lam in U) (U is the unit interval
embedded on the first axis) such that every count #(lam in A_i) is within
epsilon = 1/m of the measure polynomial of A_i evaluated at N. The
construction partitions U and the outside region into pieces on which all
the A_i agree, finds one N making every piece's polynomial nearly integral
at once, and then places exactly the rounded number of points in each
piece. The pieces (parts) are read off one endpoint grid shared by U, the
mandatory points and the A_i: a part is the kept grid atoms of one
membership signature (in U or not, and in which A_i), decided on the grid
without evaluating a point, so an atom that holds no float is no obstacle.
Every part's polynomial comes from one exact pass over the kept atoms of
that grid, summed by part.
A part takes its new points on the diagonal of its first positive-dimensional
atom in C order (the rule of pick_points_in_cell), skipping an atom too thin
for them: one where two of them round to one float, or one rounds out of the
part or onto a mandatory point. CellTooSmall is raised when no atom of the
part holds them all.

find_near_integer_N is the scale search: a scan over N in chunks
(guaranteed to terminate eventually by equidistribution, though with no
effective bound, hence the explicit n_max) that returns the least N that
qualifies. Each polynomial's test ||p(N)|| < epsilon is one exact test on
integers (_dyadic): one Horner pass over uint64 N, or over Python ints
where the coefficients' common denominator passes 2^63, a mask and a
compare. In a chunk each polynomial is evaluated only at the N the ones
before it passed, the uint64 ones first. The chunks grow from 2^10 N to
2^15, since most searches end within the first.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Sequence

import numpy as np

from .boxset import (_GRID_BUDGET, BoxComplex, Cell, DimensionMismatch, Interval,
                     UnboundedSet, _atom_index, _grids, _index_boxes_to_columns,
                     contains_points, from_cell)
from .measure import _cell_measures, mu
from .xpoly import XPoly, xpoly_eval

# the scan's chunk of N: the first one, and the cap on the doubling that
# bounds the arrays of one chunk
_CHUNK_MIN = 1 << 10
_CHUNK_MAX = 1 << 15


class SearchExhausted(RuntimeError):
    """No admissible N found by n_max; retry with a larger bound."""

    def __init__(self, n_max: int):
        super().__init__(f"no admissible N found up to {n_max}")
        self.n_max = n_max


class CellTooSmall(ValueError):
    """More distinct points requested than a cell, or any atom of a part, holds."""


class SampleTooLarge(ValueError):
    """The sample at the scale found would pass the allocation budget."""


class ConstructionViolation(RuntimeError):
    """A verified invariant of the sample construction failed; this
    indicates a bug, not a legitimate outcome."""


@dataclass(frozen=True)
class PerSetStats:
    count: int
    mu_at_N: float
    discrepancy: float

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class SampleResult:
    points: tuple[tuple[float, ...], ...]
    N: int
    per_set: tuple[PerSetStats, ...]
    epsilon: float

    def to_json(self) -> dict:
        return {
            "N": self.N,
            "epsilon": self.epsilon,
            "points": [list(p) for p in self.points],
            "per_set": [s.to_json() for s in self.per_set],
        }


@dataclass(frozen=True)
class RatioCheck:
    """Finite-scale Hausdorff ratio report: count/N^i against the exact
    i-content, with the certified bound (|lower terms at N| + eps) / N^i."""

    ratio: float
    target: float
    gap: float
    bound: float
    N: int


def _check_search_inputs(polys: Sequence[XPoly], epsilon: float) -> None:
    if not (0.0 < epsilon < 1.0):
        raise ValueError(f"epsilon must lie in (0, 1), got {epsilon}")
    for p in polys:
        if not p.is_finite:
            raise ValueError(f"polynomial {p} has an infinite coefficient")
        if not p.coeff(0).is_integer():
            raise ValueError(f"constant term of {p} is not integral")


def _dyadic(p: XPoly, epsilon: float) -> tuple:
    """The test ||p(N)|| < epsilon on integers, as (dtype, nums, mask, top).
    The coefficients of p are exactly m_i / den, den = 2^s, and epsilon is
    exactly e / q; with b = (e den - 1) // q, the test holds exactly when
    (sum m_i N^i + b) mod den <= 2b. nums are the m_i mod den, leading
    first, with b added to m_0 and zeros in front up to two; mask is
    den - 1 and top 2b. They are uint64 where den <= 2^63, since uint64
    arithmetic is exact modulo 2^64 and so modulo den, Python ints (dtype
    object) otherwise."""
    e, q = epsilon.as_integer_ratio()
    ratios = [c.as_integer_ratio() for c in reversed(p.coeffs)]
    den = max((d for _, d in ratios), default=1)
    b = (e * den - 1) // q
    nums = [0] * (2 - len(ratios)) + [m * (den // d) for m, d in ratios]
    nums[-1] += b
    dtype, cast = (np.uint64, np.uint64) if den <= 1 << 63 else (object, int)
    return dtype, tuple(cast(m % den) for m in nums), cast(den - 1), cast(2 * b)


def _near(form: tuple, ns: np.ndarray) -> np.ndarray:
    """The test of form, a _dyadic tuple, at each N of ns (uint64): one
    Horner pass, then mod den by the mask, a bool per N."""
    dtype, nums, mask, top = form
    x = ns.astype(dtype, copy=False)
    val = x * nums[0]
    val += nums[1]
    for m in nums[2:]:
        val *= x
        val += m
    return (val & mask) <= top


def _scan_chunk(forms: Sequence[tuple], ns: np.ndarray) -> np.ndarray:
    """The N of ns (uint64, ascending) that pass the test of every form. Each
    form is evaluated only at the N that passed the ones before it; a test
    does not depend on which N are evaluated with it, so any order of forms
    leaves the same survivors."""
    for form in forms:
        ns = ns[_near(form, ns)]
    return ns


def find_near_integer_N(polys: Sequence[XPoly], epsilon: float,
                        n_start: int = 1, n_max: int = 10 ** 6,
                        extra_conditions: Callable[[int], bool] | None = None) -> int:
    """The least N in [n_start, n_max] with ||p(N)|| < epsilon for every p and
    extra_conditions(N), where ||.|| is the distance to the nearest integer.

    Every polynomial must have finite coefficients and an integral constant
    term. The distance is decided exactly, on integers formed from the float
    coefficients, so the result holds past 2^53 too; extra_conditions is
    called only at N that pass it, in ascending order. [0, 1/7] at epsilon
    0.2 gives 1.
    """
    polys = list(polys)
    _check_search_inputs(polys, epsilon)
    cond = extra_conditions or (lambda n: True)
    # the uint64 tests first, so the Python-int ones see only their survivors
    forms = sorted((_dyadic(p, epsilon) for p in polys), key=lambda f: f[0] is object)
    start, chunk = max(1, int(n_start)), _CHUNK_MIN
    while start <= n_max:
        stop = min(start + chunk, n_max + 1)
        for n in _scan_chunk(forms, np.arange(start, stop, dtype=np.uint64)).tolist():
            if cond(n):
                return n
        start, chunk = stop, min(2 * chunk, _CHUNK_MAX)
    raise SearchExhausted(n_max)


def _diagonal(ends: np.ndarray, k: int) -> np.ndarray:
    """The k points a + j/(k+1) (b - a), j = 1..k, of the endpoint row
    ends[d, 2]: per axis, [a, b] is the row itself where both ends are finite
    (a point stays pinned), a segment from the finite end of a ray, of length
    1 or k + 1 ulps of that end if longer, or [0, 1] for a full line."""
    lo, hi = ends[:, 0], ends[:, 1]
    s = np.arange(1, k + 1)[:, None] / (k + 1)
    # np.spacing is nan at inf (fmax keeps 1 there) and inf at the float max,
    # where a ray's points come out inf or nan, members of no cell. Where
    # b - a passes the float range, b/2 - a/2 does not; elsewhere the factor
    # is 1 and every step is the plain a + s (b - a).
    with np.errstate(over="ignore", invalid="ignore"):
        unit = np.fmax(1.0, (k + 1) * np.spacing(np.abs(np.where(np.isfinite(lo), lo, hi))))
        a = np.where(np.isfinite(lo), lo, np.where(np.isfinite(hi), hi - unit, 0.0))
        b = np.where(np.isfinite(hi), hi, np.where(np.isfinite(lo), lo + unit, 1.0))
        half = np.where(np.isfinite(b - a), 1.0, 0.5)
        a, b = a * half, b * half
        return (a + s * (b - a)) / half


def _diagonal_ok(pts: np.ndarray, inside: np.ndarray) -> bool:
    """Whether the diagonal points pts are pairwise distinct and all inside,
    a bool per point. The diagonal is monotone on every axis, so equal
    points are adjacent."""
    apart = np.zeros(max(len(pts) - 1, 0), dtype=bool)
    for x in pts.T:  # a column at a time: NumPy reduces a short row slowly
        apart |= x[1:] != x[:-1]
    return bool(apart.all() and inside.all())


def pick_points_in_cell(cell: Cell, k: int) -> list[tuple[float, ...]]:
    """k distinct points inside a cell, placed deterministically along the
    diagonal of a per-axis anchor segment at fractions j/(k+1).

    Degenerate axes stay pinned at their point; unbounded axes use a segment
    from the finite end of length 1, or k + 1 ulps of that end where that is
    longer (or [0, 1] for a full line).
    CellTooSmall when the rounded points are not k distinct members of the
    cell, as in an open cell one ulp wide.
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    if k == 0:
        return []
    if cell.dim == 0:
        if k > 1:
            raise CellTooSmall(f"point cell holds at most 1 point, requested {k}")
        return [tuple(f.lo for f in cell.factors)]
    pts = _diagonal(np.array([(f.lo, f.hi) for f in cell.factors]), k)
    if not _diagonal_ok(pts, contains_points(from_cell(cell), pts)):
        raise CellTooSmall(f"the k = {k} diagonal points of {cell} are not distinct members of it")
    return list(map(tuple, pts.tolist()))


@dataclass(frozen=True, eq=False)
class _Part:
    """The atoms labelled `label` in `home`, a grid over `cuts` shared by all
    parts, where mandatory points are labelled -1: their endpoint rows
    `ends` [n, d, 2] in C order, `marked` of them the part's mandatory points."""

    ends: np.ndarray
    poly: XPoly
    marked: int
    cuts: list[np.ndarray]
    home: np.ndarray
    label: int

    @property
    def is_finite_set(self) -> bool:
        return bool((self.ends[..., 0] == self.ends[..., 1]).all())

    def place(self, k: int) -> np.ndarray:
        """k new points: the diagonal points of the first positive-dimensional
        atom, in C order, whose points are pairwise distinct and all fall in
        the part off its mandatory points. CellTooSmall if no atom qualifies."""
        for row in np.flatnonzero((self.ends[..., 0] != self.ends[..., 1]).any(axis=1)):
            pts = _diagonal(self.ends[row], k)
            if _diagonal_ok(pts, self.home[_atom_index(self.cuts, pts)] == self.label):
                return pts
        raise CellTooSmall(f"no atom of a part holds {k} distinct new points")


def _split_parts(unit: BoxComplex, marks: BoxComplex,
                 sets: Sequence[BoxComplex]) -> tuple[list[_Part], list[_Part]]:
    """The parts of U and of the region outside U covered by marks or a set.

    A part is the kept atoms of the shared endpoint grid of one signature
    (the in-U bit and one membership bit per set, packed into one value per
    atom). A part's ends are one run of the kept atoms' endpoint rows, taken
    by part and in C order within one; mu's column kernel sums every run
    apart, for every part's polynomial. Parts come in order of first atom.
    """
    cuts, (in_u, in_marks, *in_sets) = _grids(unit, marks, *sets)
    keep = np.logical_or.reduce([in_u, in_marks, *in_sets])
    sig = np.stack([g[keep] for g in (in_u, *in_sets)], axis=1)
    packed = np.packbits(sig, axis=1)
    _, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    marked = np.bincount(inverse[in_marks[keep]], minlength=len(first))
    home = np.full(keep.shape, -1)
    home[keep] = inverse
    idx = np.argwhere(keep)[np.argsort(inverse, kind="stable")]  # by part, C order in each
    sizes = np.bincount(inverse)
    starts = (sizes.cumsum() - sizes).tolist()  # the first row of each part
    ends, closed = _index_boxes_to_columns(cuts, idx, idx + 1)
    measures = _cell_measures(ends, closed, starts)
    b_parts, c_parts = [], []
    for g in np.argsort(first):
        rows = ends[starts[g]:starts[g] + sizes[g]]
        part = _Part(rows, measures[g].mu, int(marked[g]), cuts, home, int(g))
        (b_parts if sig[first[g], 0] else c_parts).append(part)
    home[in_marks] = -1  # new points stay off the mandatory points
    return b_parts, c_parts


def build_sample(sets: Sequence[BoxComplex], points: Sequence[Sequence[float]],
                 m: int, n_max: int = 10 ** 6, n_start: int = 1) -> SampleResult:
    """Construct a finite sample lam with prescribed points such that for
    every input set, |#(lam in A_i) - mu_{A_i}(N)| < 1/m, where
    N = #(lam in U) and U = [0,1) x {0}^(d-1).

    Steps: partition U by the traces A_i in U and the outside region by the
    A_i themselves (plus the mandatory points); search for N making every
    piece polynomial nearly integral within 1/(2m*max(u,w)); fill each
    piece up to the rounded value, finite pieces taking all their points;
    verify the guarantees and return the per-set statistics. SampleTooLarge
    is raised before any point is placed when the sample's coordinates would
    pass the budget of an endpoint grid.
    """
    sets = list(sets)
    forced = [tuple(float(v) for v in x) for x in points]
    if m < 1:
        raise ValueError(f"m must be a positive integer, got {m}")
    if sets:
        d = sets[0].ambient_dim
    elif forced:
        d = len(forced[0])
    else:
        raise ValueError("need at least one set or point to fix the dimension")
    if d < 1:
        raise ValueError("ambient dimension must be at least 1")
    for a in sets:
        if a.ambient_dim != d:
            raise DimensionMismatch(f"{a.ambient_dim} vs {d}")
        if not a.is_bounded:
            raise UnboundedSet("all input sets must be bounded")
    for x in forced:
        if len(x) != d:
            raise DimensionMismatch(f"point {x} has {len(x)} coordinates, ambient is {d}")
    if len(set(forced)) != len(forced):
        raise ValueError("mandatory points must be distinct")
    epsilon = 1.0 / m

    unit = BoxComplex(d, [Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * (d - 1))])
    marks = BoxComplex(d, [Cell(Interval.point(v) for v in x) for x in forced])
    b_parts, c_parts = _split_parts(unit, marks, sets)

    def finite_points(parts: list[_Part]) -> set[tuple[float, ...]]:
        return {tuple(x) for p in parts if p.is_finite_set
                for x in p.ends[:, :, 0].tolist()}

    threshold = epsilon / (2 * max(len(b_parts), len(c_parts), 1))
    fixed = set(forced) | finite_points(b_parts)  # of 0.0 and -0.0, a mandatory one stays
    base_size = len(fixed)
    k = len(forced)

    parts = b_parts + c_parts
    polys = [p.poly for p in parts]
    # also a part whose polynomial a float underflow left constant
    growing = [p.poly for p in parts if not p.is_finite_set]

    def admissible(n: int) -> bool:
        return n > base_size and all(xpoly_eval(p, n) > k + 1 for p in growing)

    _check_search_inputs(polys, threshold)  # its errors come first, as in the search
    # no term of degree >= 1 is positive, so the fsum in xpoly_eval never
    # passes the constant term, and no N is admissible
    if any(p.coeff(0) <= k + 1 and all(c <= 0 for c in p.coeffs[1:]) for p in growing):
        raise SearchExhausted(n_max)
    n_scale = find_near_integer_N(polys, threshold, n_start, n_max, admissible)

    values = [xpoly_eval(part.poly, n_scale) for part in parts]
    if sum(values) * d > _GRID_BUDGET:  # also where a value passes the float range
        raise SampleTooLarge(f"a sample of {sum(values):.6g} points in R^{d} at N = {n_scale} "
                             f"passes the budget of {_GRID_BUDGET} coordinates")
    fixed |= finite_points(c_parts)
    lam = np.concatenate([np.array(list(fixed), dtype=np.float64).reshape(-1, d)]
                         + [part.place(round(value) - part.marked)
                            for part, value in zip(parts, values) if not part.is_finite_set])
    in_unit = int(contains_points(unit, lam).sum())
    if in_unit != n_scale:
        raise ConstructionViolation(f"#(lam in U) = {in_unit}, expected N = {n_scale}")

    stats = []
    for a in sets:
        count = int(contains_points(a, lam).sum())
        value = xpoly_eval(mu(a).mu, n_scale)
        disc = abs(count - value)
        if not disc < epsilon:
            raise ConstructionViolation(
                f"discrepancy {disc} >= epsilon {epsilon} for {a}")
        stats.append(PerSetStats(count=count, mu_at_N=value, discrepancy=disc))

    lam = lam[np.lexsort(lam.T[::-1])]  # tuples straight from the columns: no row lists
    return SampleResult(points=tuple(zip(*lam.T.tolist())), N=n_scale,
                        per_set=tuple(stats), epsilon=epsilon)


def hausdorff_ratio_check(a: BoxComplex, i: int, m: int,
                          n_max: int = 10 ** 6, n_start: int = 1) -> RatioCheck:
    """Compare the finite-scale ratio count/N^i against the exact
    i-dimensional content of a bounded set of dimension i."""
    if i != a.dim:
        raise DimensionMismatch(
            f"index {i} does not match the set dimension {a.dim}")
    result = build_sample([a], (), m, n_max=n_max, n_start=n_start)
    n_scale = result.N
    count = result.per_set[0].count
    poly = mu(a).mu
    target = poly.coeff(i)  # i is the dimension, so this is the i-content
    ratio = count / n_scale ** i
    lower = XPoly(poly.coeffs[:i])
    bound = (abs(xpoly_eval(lower, n_scale)) + result.epsilon) / n_scale ** i
    return RatioCheck(ratio=ratio, target=target, gap=abs(ratio - target),
                      bound=bound, N=n_scale)
