"""Finite-scale counting machinery.

Given bounded sets A_1..A_v and mandatory points, build_sample produces a
finite point set lam and a scale N = #(lam in U) (U is the unit interval
embedded on the first axis) such that every count #(lam in A_i) is within
epsilon = 1/m of the measure polynomial of A_i evaluated at N. The
construction partitions U and the outside region into pieces on which all
the A_i agree, finds one N making every piece's polynomial nearly integral
at once, and then places exactly the rounded number of points in each
piece. The pieces (parts) are read off one endpoint grid shared by U, the
mandatory points and the A_i: a part is a group of grid atoms with one
membership signature (in U or not, and in which A_i), decided on the grid
without evaluating a point, so an atom that holds no float is no obstacle.

find_near_integer_N is the scale search: a plain scan over N (guaranteed
to terminate eventually by equidistribution, though with no effective
bound, hence the explicit n_max), with a lattice shortcut when all
coefficients are rational: any common multiple of the denominators makes
the values exactly integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .boxset import (BoxComplex, Cell, DimensionMismatch, Interval,
                     UnboundedSet, _build_from_grid, _grids, contains_points,
                     from_cell)
from .measure import hausdorff_measure, mu
from .xpoly import XPoly, dist_to_nearest_integer, xpoly_eval

_INF = math.inf
_CONST_TOL = 1e-9
_MAX_DENOM = 10 ** 6


class SearchExhausted(RuntimeError):
    """No admissible N found by n_max; retry with a larger bound."""

    def __init__(self, n_max: int):
        super().__init__(f"no admissible N found up to {n_max}")
        self.n_max = n_max


class CellTooSmall(ValueError):
    """More distinct points requested than the cell can hold."""


class ConstructionViolation(RuntimeError):
    """A verified invariant of the sample construction failed; this
    indicates a bug, not a legitimate outcome."""


@dataclass(frozen=True)
class PerSetStats:
    count: int
    mu_at_N: float
    discrepancy: float

    def to_json(self) -> dict:
        return {"count": self.count, "mu_at_N": self.mu_at_N,
                "discrepancy": self.discrepancy}


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
        if dist_to_nearest_integer(p.coeff(0)) > _CONST_TOL:
            raise ValueError(f"constant term of {p} is not integral")


def _rational_coeffs(polys: Sequence[XPoly]) -> list[Fraction] | None:
    """Reconstruct every coefficient as a fraction with denominator up to
    10**6, or None if any resists.

    The acceptance tolerance is a few ulps: a rational stored as a float is
    off by at most half an ulp, while the best bounded-denominator
    approximant of an irrational misses by orders of magnitude more, so
    this cleanly separates the two.
    """
    fracs = []
    for p in polys:
        for c in p.coeffs:
            fr = Fraction(c).limit_denominator(_MAX_DENOM)
            if abs(c - float(fr)) > 4.0 * math.ulp(abs(c)):
                return None
            fracs.append(fr)
    return fracs


def _scan_chunk(polys: Sequence[XPoly], ns: np.ndarray, epsilon: float) -> np.ndarray:
    ok = np.ones(len(ns), dtype=bool)
    for p in polys:
        if p.degree in (None, 0):
            continue  # integral constant, distance ~0 at every N
        val = np.zeros(len(ns))
        for c in reversed(p.coeffs):
            val = val * ns + c
        ok &= np.abs(val - np.rint(val)) < epsilon
    return ok


def _exact_distance(p: XPoly, n: int) -> Fraction:
    """||p(n)|| in exact rational arithmetic; float coefficients are dyadic."""
    value = sum((Fraction(c) * n ** i for i, c in enumerate(p.coeffs)), Fraction(0))
    return abs(value - round(value))


def find_near_integer_N(polys: Sequence[XPoly], epsilon: float,
                        n_start: int = 1, n_max: int = 10 ** 6,
                        extra_conditions: Callable[[int], bool] | None = None) -> int:
    """Least N in [n_start, n_max] with ||p(N)|| < epsilon for every p and
    extra_conditions(N), where ||.|| is the distance to the nearest integer.

    Every polynomial must have finite coefficients and an integral constant
    term. When all coefficients are rational (denominators up to 10**6,
    reconstructed by continued fractions), the scan is replaced by the
    lattice shortcut: the multiples of the lcm of the denominators at or
    above n_start, where the distances of the reconstructed fractions are
    exactly zero. Either way a candidate is accepted only on its exact
    distance, computed in rational arithmetic from the float coefficients.
    """
    polys = list(polys)
    _check_search_inputs(polys, epsilon)
    cond = extra_conditions or (lambda n: True)
    n_start = max(1, int(n_start))

    fracs = _rational_coeffs(polys)
    if fracs is not None:
        lattice = math.lcm(*(fr.denominator for fr in fracs)) if fracs else 1
        n = ((n_start + lattice - 1) // lattice) * lattice
        while n <= n_max:
            # the lattice zeroes the reconstructed fractions; the floats
            # differ from them by a few ulp, which grows with N^degree
            if cond(n) and all(_exact_distance(p, n) < epsilon for p in polys):
                return n
            n += lattice
        raise SearchExhausted(n_max)

    chunk = 1 << 15
    for start in range(n_start, n_max + 1, chunk):
        stop = min(start + chunk, n_max + 1)
        ns = np.arange(start, stop, dtype=np.float64)
        for n in ns[_scan_chunk(polys, ns, epsilon)]:
            n = int(n)
            # the float scan only proposes; once |p(N)| passes 2^53 it
            # cannot tell integers apart, so accept on the exact distance
            if cond(n) and all(_exact_distance(p, n) < epsilon for p in polys):
                return n
    raise SearchExhausted(n_max)


def pick_points_in_cell(cell: Cell, k: int) -> list[tuple[float, ...]]:
    """k distinct points inside a cell, placed deterministically along the
    diagonal of a per-axis anchor segment at fractions j/(k+1).

    Degenerate axes stay pinned at their point; unbounded axes use a unit
    segment starting at the finite end (or [0, 1] for a full line).
    """
    if k < 0:
        raise ValueError("k must be a natural number")
    if k == 0:
        return []
    if cell.dim == 0:
        if k > 1:
            raise CellTooSmall(f"point cell holds at most 1 point, requested {k}")
        return [tuple(f.lo for f in cell.factors)]
    spans: list[tuple[float, float]] = []
    for f in cell.factors:
        if f.is_point:
            spans.append((f.lo, f.lo))
        elif f.is_bounded:
            spans.append((f.lo, f.hi))
        elif math.isfinite(f.lo):
            spans.append((f.lo, f.lo + 1.0))
        elif math.isfinite(f.hi):
            spans.append((f.hi - 1.0, f.hi))
        else:
            spans.append((0.0, 1.0))
    pts = []
    for j in range(1, k + 1):
        s = j / (k + 1)
        pts.append(tuple(a + s * (b - a) for a, b in spans))
    return pts


@dataclass(frozen=True)
class _Part:
    region: BoxComplex
    poly: XPoly

    @property
    def is_finite_set(self) -> bool:
        return self.region.dim == 0


def _count_in(a: BoxComplex, lam: set[tuple[float, ...]]) -> int:
    """#(lam in a), by bulk membership."""
    pts = np.array(list(lam), dtype=np.float64).reshape(len(lam), a.ambient_dim)
    return int(contains_points(a, pts).sum())


def _split_parts(unit: BoxComplex, marks: BoxComplex,
                 sets: Sequence[BoxComplex]) -> tuple[list[_Part], list[_Part]]:
    """The parts of U and of the region outside U covered by marks or a set.

    A part is a group of atoms of the shared endpoint grid with one
    signature: the in-U bit and one membership bit per set, packed into one
    value per atom. Parts come in order of their first atom in C order.
    """
    cuts, (in_u, in_marks, *in_sets) = _grids(unit, marks, *sets)
    keep = np.logical_or.reduce([in_u, in_marks, *in_sets])
    sig = np.stack([g[keep] for g in (in_u, *in_sets)], axis=1)
    packed = np.packbits(sig, axis=1)
    _, first, inverse = np.unique(packed.view(np.dtype((np.void, packed.shape[1]))).ravel(),
                                  return_index=True, return_inverse=True)
    label = np.full(keep.shape, -1)
    label[keep] = inverse
    b_parts, c_parts = [], []
    for g in np.argsort(first):
        region = _build_from_grid(cuts, label == g)
        (b_parts if sig[first[g], 0] else c_parts).append(_Part(region, mu(region).mu))
    return b_parts, c_parts


def _top_up(part: _Part, target: int, lam: set[tuple[float, ...]]) -> None:
    """Add fresh points to lam until the part holds exactly target of them."""
    existing = _count_in(part.region, lam)
    need = target - existing
    if need < 0:
        raise ConstructionViolation(
            f"part already holds {existing} points, target {target}")
    if need == 0:
        return
    cell = next((c for c in part.region.cells if c.dim > 0), None)
    if cell is None:
        raise ConstructionViolation("finite part cannot absorb extra points")
    in_cell = _count_in(from_cell(cell), lam)
    candidates = pick_points_in_cell(cell, need + in_cell)
    fresh = [p for p in candidates if p not in lam][:need]
    if len(fresh) < need:
        raise ConstructionViolation("could not place enough distinct points")
    lam.update(fresh)


def build_sample(sets: Sequence[BoxComplex], points: Sequence[Sequence[float]],
                 m: int, n_max: int = 10 ** 6, n_start: int = 1) -> SampleResult:
    """Construct a finite sample lam with prescribed points such that for
    every input set, |#(lam in A_i) - mu_{A_i}(N)| < 1/m, where
    N = #(lam in U) and U = [0,1) x {0}^(d-1).

    Steps: partition U by the traces A_i in U and the outside region by the
    A_i themselves (plus the mandatory points); search for N making every
    piece polynomial nearly integral within 1/(2m*max(u,w)); fill each
    piece up to the rounded value, finite pieces taking all their points;
    verify the guarantees and return the per-set statistics.
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

    threshold = epsilon / (2 * max(len(b_parts), len(c_parts), 1))
    lam0_prime: set[tuple[float, ...]] = set(forced)
    for part in b_parts:
        if part.is_finite_set:
            lam0_prime.update(map(tuple, part.region.ends[:, :, 0].tolist()))
    base_size = len(lam0_prime)
    k = len(forced)

    polys = [p.poly for p in b_parts + c_parts]
    nonconst = [p for p in polys if p.degree not in (None, 0)]

    def admissible(n: int) -> bool:
        return n > base_size and all(xpoly_eval(p, n) > k + 1 for p in nonconst)

    n_scale = find_near_integer_N(polys, threshold, n_start, n_max, admissible)

    lam = set(lam0_prime)
    for part in b_parts:
        if not part.is_finite_set:
            _top_up(part, round(xpoly_eval(part.poly, n_scale)), lam)
    in_unit = _count_in(unit, lam)
    if in_unit != n_scale:
        raise ConstructionViolation(f"#(lam in U) = {in_unit}, expected N = {n_scale}")

    for part in c_parts:
        if part.is_finite_set:
            lam.update(map(tuple, part.region.ends[:, :, 0].tolist()))
        else:
            _top_up(part, round(xpoly_eval(part.poly, n_scale)), lam)

    stats = []
    for a in sets:
        count = _count_in(a, lam)
        value = xpoly_eval(mu(a).mu, n_scale)
        disc = abs(count - value)
        if not disc < epsilon:
            raise ConstructionViolation(
                f"discrepancy {disc} >= epsilon {epsilon} for {a}")
        stats.append(PerSetStats(count=count, mu_at_N=value, discrepancy=disc))

    return SampleResult(points=tuple(sorted(lam)), N=n_scale,
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
    target = hausdorff_measure(a, i)
    ratio = count / n_scale ** i
    lower = XPoly(mu(a).mu.coeffs[:i])
    bound = (abs(xpoly_eval(lower, n_scale)) + result.epsilon) / n_scale ** i
    return RatioCheck(ratio=ratio, target=target, gap=abs(ratio - target),
                      bound=bound, N=n_scale)
