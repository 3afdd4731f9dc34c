"""Shared generators and independent oracles for the test suite."""

import itertools
import math
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from boxmeasure import (BoxComplex, Cell, DimensionMismatch, IndeterminateCoefficient,
                        Interval, NonpositiveScale, ParseError, SearchExhausted, SetExpr,
                        UnboundedSet, UnknownName, XPoly, boxset, canonicalize,
                        mu_cell, slice_line, xpoly_add)
from boxmeasure import crofton
from boxmeasure import rng as crng
from boxmeasure.boxset import (_build_from_grid, _grids, _index_boxes_to_columns,
                               _merged_index_boxes, bounding_box, contains_points)
from boxmeasure.dsl import _int_args, _print_interval
from boxmeasure.xpoly import format_num

_FLOAT_MAX = sys.float_info.max


def random_interval(rng: random.Random, span: int = 3) -> Interval:
    """Quarter-integer endpoints so grid arithmetic stays exact."""
    a = rng.randrange(-4 * span, 4 * span) / 4
    if rng.random() < 0.15:
        return Interval.point(a)
    b = a + rng.randrange(1, 4 * span) / 4
    lo_c = rng.random() < 0.5
    hi_c = rng.random() < 0.5
    return Interval(a, b, lo_c, hi_c)


def random_cell(rng: random.Random, d: int, span: int = 3) -> Cell:
    return Cell(random_interval(rng, span) for _ in range(d))


def random_complex(rng: random.Random, d: int, max_cells: int = 3,
                   span: int = 3) -> BoxComplex:
    cells = [random_cell(rng, d, span) for _ in range(rng.randint(1, max_cells))]
    return canonicalize(cells, d)


def random_point(rng: random.Random, d: int, span: float = 4.0) -> tuple:
    return tuple(rng.uniform(-span, span) for _ in range(d))


def assert_same(got: BoxComplex, want: BoxComplex) -> None:
    assert got == want
    assert str(got) == str(want)  # also tells 0.0 from -0.0


def poly_close(p, q, rel: float = 1e-10, abs_tol: float = 1e-12) -> bool:
    n = max(len(p.coeffs), len(q.coeffs))
    for k in range(n):
        a, b = p.coeff(k), q.coeff(k)
        if a == b:
            continue  # covers matching infinities
        if abs(a - b) > abs_tol + rel * max(abs(a), abs(b)):
            return False
    return True


def convolution_oracle(p, q):
    """Brute-force finite-coefficient product, independent of xpoly_mul."""
    if not p.coeffs or not q.coeffs:
        return []
    out = [0.0] * (len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] += a * b
    return out


def chi_length_oracle_1d(intervals):
    """Euler characteristic and total length of a union of bounded 1-D
    intervals, by endpoint sorting and midpoint membership tests."""
    cuts = sorted({e for iv in intervals for e in (iv.lo, iv.hi)})

    def member(x):
        return any(iv.contains(x) for iv in intervals)

    chi = 0
    length = 0.0
    for i, c in enumerate(cuts):
        if member(c):
            chi += 1
        if i + 1 < len(cuts):
            mid = (c + cuts[i + 1]) / 2.0
            if member(mid):
                chi -= 1
                length += cuts[i + 1] - c
    return chi, length


def remove_random_atom(rng: random.Random, b: BoxComplex) -> BoxComplex:
    """A proper subset of b: drop one cell of its canonical form."""
    atoms = list(b.cells)
    atoms.pop(rng.randrange(len(atoms)))
    return BoxComplex(b.ambient_dim, atoms)


def rotation_matrix_2d(theta: float):
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


# ------------------------------------------------------- endpoint-grid oracle

def oracle_axes(cells, ambient_dim: int):
    """Per axis, the grid atoms of the cells' finite endpoints in index
    order (ray, point, gap, point, ..., ray), each with an exact Fraction
    representative, so that open gaps between adjacent floats and rays at
    huge endpoints still have one."""
    axes = []
    for j in range(ambient_dim):
        seen = {}  # of equal values (0.0, -0.0) keep the first met
        for c in cells:
            for v in (c.factors[j].lo, c.factors[j].hi):
                if math.isfinite(v):
                    seen.setdefault(v, v)
        cuts = sorted(seen.values())
        if not cuts:
            axes.append([(Interval(-math.inf, math.inf, False, False), Fraction(0))])
            continue
        atoms = [(Interval(-math.inf, cuts[0], False, False), Fraction(cuts[0]) - 1)]
        for i, c in enumerate(cuts):
            atoms.append((Interval.point(c), Fraction(c)))
            if i + 1 < len(cuts):
                atoms.append((Interval.open(c, cuts[i + 1]),
                              (Fraction(c) + Fraction(cuts[i + 1])) / 2))
        atoms.append((Interval(cuts[-1], math.inf, False, False), Fraction(cuts[-1]) + 1))
        axes.append(atoms)
    return axes


def membership_grid_oracle(cells, axes) -> np.ndarray:
    """Boolean array over the atom grid: atom in union(cells)? Built per
    cell as an outer AND of per-axis membership vectors of the atom
    representatives, then OR-ed together."""
    shape = tuple(len(ax) for ax in axes)
    out = np.zeros(shape, dtype=bool)
    for cell in cells:
        m = np.array(True)
        for j, f in enumerate(cell.factors):
            v = np.fromiter((f.contains(r) for _, r in axes[j]), dtype=bool,
                            count=len(axes[j]))
            m = np.logical_and.outer(m, v)
        out |= m
    return out


def complex_from_grid_oracle(axes, keep, ambient_dim: int) -> BoxComplex:
    cells = [Cell(axes[j][i][0] for j, i in enumerate(idx)) for idx in np.argwhere(keep)]
    return BoxComplex(ambient_dim, cells)


def pair_grids_oracle(a: BoxComplex, b: BoxComplex):
    axes = oracle_axes(a.cells + b.cells, a.ambient_dim)
    return axes, membership_grid_oracle(a.cells, axes), membership_grid_oracle(b.cells, axes)


def grid_axes_oracle(ends: np.ndarray) -> list[np.ndarray]:
    """Per axis, the sorted distinct finite endpoints of the columns; of 0.0
    and -0.0 the one met first, by np.unique's first index."""
    cuts = []
    for j in range(ends.shape[1]):
        v = ends[:, j, :].ravel()
        v = v[np.isfinite(v)]
        cuts.append(v[np.unique(v, return_index=True)[1]])
    return cuts


def membership_grid_add_at_oracle(ends: np.ndarray, closed: np.ndarray, cuts) -> np.ndarray:
    """The membership grid from a difference array filled by one np.add.at
    per corner of the cells' index boxes, then prefix sums."""
    shape = tuple(2 * len(c) + 1 for c in cuts)
    n, d = ends.shape[:2]
    if n == 0:
        return np.zeros(shape, dtype=bool)
    start = np.empty((d, n), dtype=np.intp)
    stop = np.empty((d, n), dtype=np.intp)
    for j, c in enumerate(cuts):
        lo, hi = ends[:, j, 0], ends[:, j, 1]
        i_lo = 2 * np.searchsorted(c, lo) + 2 - closed[:, j, 0]
        start[j] = np.where(lo == -math.inf, 0, i_lo)
        stop[j] = 2 * np.searchsorted(c, hi) + 1 + closed[:, j, 1]
    count = np.zeros(tuple(s + 1 for s in shape), dtype=np.int32)
    for corner in itertools.product((0, 1), repeat=d):
        idx = tuple(stop[j] if up else start[j] for j, up in enumerate(corner))
        np.add.at(count, idx, -1 if sum(corner) % 2 else 1)
    for j in range(d):
        np.cumsum(count, axis=j, out=count)
    return count[(slice(-1),) * d] > 0


def grids_oracle(*complexes: BoxComplex):
    """The common cuts of the complexes, from their concatenated columns,
    and the membership grid of each built afresh over them."""
    cuts = grid_axes_oracle(np.concatenate([a.ends for a in complexes]))
    return cuts, [membership_grid_add_at_oracle(a.ends, a.closed, cuts) for a in complexes]


def union_fold_oracle(*complexes: BoxComplex) -> BoxComplex:
    """The union of the complexes as a left fold of binary unions, each on
    the common grid of its two operands."""
    acc = complexes[0]
    for b in complexes[1:]:
        cuts, (ma, mb) = _grids(acc, b)
        acc = _build_from_grid(cuts, ma | mb)
    return acc


def boolean_fold_oracle(kind: str, left, right) -> BoxComplex:
    """kind (union, intersect or difference) of the union of the boxes left
    and the union of the boxes right (box SetExprs), as the fold of boxset
    calls on complexes of one cell each: for intersect and difference, one
    union per group of two or more boxes, then kind on the two; a union
    joins all the boxes in one n-ary union, as for a maximal union subtree."""
    sets = [[BoxComplex(len(b.payload), [Cell(b.payload)]) for b in g] for g in (left, right)]
    if kind == "union":
        return boxset.union(*sets[0], *sets[1])
    return getattr(boxset, kind)(*(g[0] if len(g) == 1 else boxset.union(*g) for g in sets))


def mu_sequential_oracle(a: BoxComplex) -> XPoly:
    """mu as the sequential xpoly_add of mu_cell over the cells."""
    total = XPoly()
    for c in a.cells:
        total = xpoly_add(total, mu_cell(c))
    return total


def mu_exact_oracle(a: BoxComplex) -> list:
    """The exact coefficients of mu, trailing zeros trimmed, by expanding
    every cell into its 2^d terms: a term picks chi or the length of each
    factor. A nonzero term that picks a ray's length is +-inf by its sign;
    both signs in one coefficient raise IndeterminateCoefficient."""
    d = a.ambient_dim
    finite = [Fraction(0)] * (d + 1)
    signs = [set() for _ in range(d + 1)]
    for cell in a.cells:
        for picks in itertools.product((False, True), repeat=d):
            value, ray = Fraction(1), False
            for f, pick in zip(cell.factors, picks):
                if not pick:
                    value *= f.lo_closed + f.hi_closed - 1
                elif not f.is_bounded:
                    ray = True
                else:
                    value *= Fraction(f.hi) - Fraction(f.lo)
            if value != 0:
                if ray:
                    signs[sum(picks)].add(value > 0)
                else:
                    finite[sum(picks)] += value
    coeffs = []
    for k, (total, sign) in enumerate(zip(finite, signs)):
        if len(sign) == 2:
            raise IndeterminateCoefficient(k)
        coeffs.append((math.inf if True in sign else -math.inf) if sign else total)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def rounded_once(coeffs) -> XPoly:
    """XPoly of exact coefficients, each correctly rounded, +-inf past the
    float range."""
    def rounded(c):
        try:
            return float(c)
        except OverflowError:
            return math.inf if c > 0 else -math.inf
    return XPoly(map(rounded, coeffs))


def _xtimes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * y
    out[np.isnan(out)] = 0.0
    return out


def _multiply_out(chi: np.ndarray, length: np.ndarray, zero_times_inf: bool) -> np.ndarray:
    d, n = chi.shape
    times = _xtimes if zero_times_inf else np.multiply
    coef = np.zeros((d + 1, n))
    coef[0] = 1.0
    for j in range(d):
        step = times(coef, chi[j])
        step[1:] += times(coef[:-1], length[j])
        if zero_times_inf:
            bad = np.isnan(step).any(axis=1)
            if bad.any():
                raise IndeterminateCoefficient(int(bad.argmax()))
        coef = step
    return coef


def _sum_row(row: list[float]) -> float:
    try:
        return math.fsum(row)
    except OverflowError:
        infinite = [x for x in row if math.isinf(x)]
        if infinite:
            return math.fsum(infinite)
        exact = sum(map(Fraction, row))
        try:
            return float(exact)
        except OverflowError:
            return math.inf if exact > 0 else -math.inf


def mu_float_oracle(a: BoxComplex) -> XPoly:
    """mu as the float kernel computed it before mu became exact: every
    cell multiplied out from rounded lengths, each coefficient an fsum of
    the rounded cell values. Bit-identical to exact mu wherever that
    arithmetic is exact, as on quarter-integers in d <= 3."""
    lo, hi = a.ends.T
    lo_closed, hi_closed = a.closed.T
    chi = np.add(lo_closed, hi_closed, dtype=np.float64) - 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        length = hi - lo
        coef = _multiply_out(chi, length, zero_times_inf=False)
        if np.isnan(coef).any():
            coef = _multiply_out(chi, length, zero_times_inf=True)
    total = []
    for k, row in enumerate(coef.tolist()):
        try:
            total.append(_sum_row(row) + 0.0)
        except ValueError:
            raise IndeterminateCoefficient(k) from None
    return XPoly(total)


# ------------------------------------------------ cell-by-cell intersection

def interval_intersection(a: Interval, b: Interval) -> Interval | None:
    """Flag-aware intersection; None when empty."""
    # at an equal endpoint value the open flag is the stricter constraint
    if (a.lo, not a.lo_closed) >= (b.lo, not b.lo_closed):
        lo, lo_c = a.lo, a.lo_closed
    else:
        lo, lo_c = b.lo, b.lo_closed
    if (a.hi, a.hi_closed) <= (b.hi, b.hi_closed):
        hi, hi_c = a.hi, a.hi_closed
    else:
        hi, hi_c = b.hi, b.hi_closed
    if lo > hi:
        return None
    if lo == hi and not (lo_c and hi_c):
        return None
    return Interval(lo, hi, lo_c, hi_c)


def cells_disjoint(a: Cell, b: Cell) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("cells in different ambient dimensions")
    if a.ambient_dim == 0:
        return False  # both are the single point of R^0
    return any(interval_intersection(fa, fb) is None for fa, fb in zip(a.factors, b.factors))


# ------------------------------------------------------ point membership

def contains_point_oracle(a: BoxComplex, x) -> bool:
    """Point membership by testing every cell in turn, without the endpoint
    grid."""
    if len(x) != a.ambient_dim:
        raise DimensionMismatch(f"point has {len(x)} coordinates, ambient is {a.ambient_dim}")
    return any(c.contains(x) for c in a.cells)


# ------------------------------------------------------ sampler part oracle

def sample_parts_oracle(sets, points, ambient_dim: int):
    """The sampler's parts of U and of the outside region, each as a list of
    (region, mu polynomial), by per-atom classification: every atom of the
    endpoint grid of U, the sets and the points is tested through its exact
    representative by the per-cell loop, so an open gap between adjacent
    floats is tested too, then grouped by the sets holding it, groups in
    order of their first atom; each group's polynomial is its exact
    expansion, rounded once."""
    u_cell = Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * (ambient_dim - 1))
    unit = BoxComplex(ambient_dim, (u_cell,))
    grid_cells = [u_cell] + [c for a in sets for c in a.cells]
    grid_cells += [Cell(Interval.point(v) for v in x) for x in points]
    groups = ({}, {})  # (in U, outside U), keyed by signature
    for combo in itertools.product(*oracle_axes(grid_cells, ambient_dim)):
        atom, rep = Cell(iv for iv, _ in combo), tuple(r for _, r in combo)
        key = tuple(contains_point_oracle(a, rep) for a in sets)
        if contains_point_oracle(unit, rep):
            groups[0].setdefault(key, []).append(atom)
        elif any(key) or rep in points:
            groups[1].setdefault(key, []).append(atom)
    parts = []
    for g in groups:
        regions = [BoxComplex(ambient_dim, cells) for cells in g.values()]
        parts.append([(r, rounded_once(mu_exact_oracle(r))) for r in regions])
    return parts


# ------------------------------------------------------- per-cell slice oracle

def cell_slice_chi_oracle(cell, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """chi of the t-interval cut from one cell by many lines {p + t*u}."""
    n = len(p)
    lo_v = np.full(n, -math.inf)
    lo_open = np.ones(n, dtype=bool)
    hi_v = np.full(n, math.inf)
    hi_open = np.ones(n, dtype=bool)
    alive = np.ones(n, dtype=bool)
    for j, f in enumerate(cell.factors):
        uj, pj = u[:, j], p[:, j]
        zero = uj == 0.0
        m = (pj >= f.lo) if f.lo_closed else (pj > f.lo)
        m &= (pj <= f.hi) if f.hi_closed else (pj < f.hi)
        alive &= m | ~zero
        with np.errstate(divide="ignore", invalid="ignore"):
            a = (f.lo - pj) / uj
            b = (f.hi - pj) / uj
        pos = uj > 0
        c_lo, c_hi = np.where(pos, a, b), np.where(pos, b, a)
        c_lo_open = np.where(pos, not f.lo_closed, not f.hi_closed)
        c_hi_open = np.where(pos, not f.hi_closed, not f.lo_closed)
        take = ~zero & ((c_lo > lo_v) | ((c_lo == lo_v) & c_lo_open & ~lo_open))
        lo_v = np.where(take, c_lo, lo_v)
        lo_open = np.where(take, c_lo_open, lo_open)
        take = ~zero & ((c_hi < hi_v) | ((c_hi == hi_v) & c_hi_open & ~hi_open))
        hi_v = np.where(take, c_hi, hi_v)
        hi_open = np.where(take, c_hi_open, hi_open)
    empty = ~alive | (lo_v > hi_v) | ((lo_v == hi_v) & (lo_open | hi_open))
    chi = np.where(~lo_open & ~hi_open, 1, np.where(lo_open & hi_open, -1, 0))
    return np.where(empty, 0, chi).astype(np.int64)


def slice_chi_oracle(a: BoxComplex, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Per-line chi of the slices of a, summed over its cells one by one."""
    chi = np.zeros(len(p), dtype=np.int64)
    for cell in a.cells:
        chi += cell_slice_chi_oracle(cell, p, u)
    return chi


def slice_line_chi_oracle(a: BoxComplex, p, u) -> int:
    """chi of the slice of a by one line, summed over the merged components
    that slice_line returns."""
    return sum(iv.lo_closed + iv.hi_closed - 1 for iv in slice_line(a, p, u))



def merged_boxes(a: BoxComplex) -> tuple[np.ndarray, np.ndarray]:
    """Columnar view (ends float64[k,d,2], closed bool[k,d,2]) of a disjoint
    box cover of a: the boxes of _merged_index_boxes."""
    return _index_boxes_to_columns(*_merged_index_boxes(a))


def box_slices_oracle(a: BoxComplex, p: np.ndarray, u: np.ndarray):
    """The line-slice kernel that divided per box end and intersected the axes
    one after another with np.where, kept verbatim: per merged box, arrays
    (lo, hi, lo_open, hi_open, empty) over all the lines."""
    n, d = p.shape
    ends, closed = merged_boxes(a)
    # per-axis line data, shared by all boxes
    pj = [p[:, j] for j in range(d)]
    uj = [u[:, j] for j in range(d)]
    pos = [v > 0 for v in uj]
    nz = [v != 0.0 for v in uj]
    any_zero = [not m.all() for m in nz]
    for box_ends, box_closed in zip(ends.tolist(), closed.tolist()):
        lo_v = np.full(n, -math.inf)
        lo_open = np.ones(n, dtype=bool)
        hi_v = np.full(n, math.inf)
        hi_open = np.ones(n, dtype=bool)
        alive = np.ones(n, dtype=bool)
        for j, ((lo, hi), (lo_c, hi_c)) in enumerate(zip(box_ends, box_closed)):
            if any_zero[j]:
                x = pj[j]
                m = (x >= lo) if lo_c else (x > lo)
                m &= (x <= hi) if hi_c else (x < hi)
                alive &= m | nz[j]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                ta = (lo - pj[j]) / uj[j]
                tb = (hi - pj[j]) / uj[j]
            # t = +-inf or nan where uj = 0 is masked by nz below
            if math.isfinite(lo):
                np.clip(ta, -_FLOAT_MAX, _FLOAT_MAX, out=ta)
            if math.isfinite(hi):
                np.clip(tb, -_FLOAT_MAX, _FLOAT_MAX, out=tb)
            c_lo = np.where(pos[j], ta, tb)
            c_lo_open = np.where(pos[j], not lo_c, not hi_c)
            c_hi = np.where(pos[j], tb, ta)
            c_hi_open = np.where(pos[j], not hi_c, not lo_c)
            take = nz[j] & ((c_lo > lo_v) | ((c_lo == lo_v) & c_lo_open & ~lo_open))
            lo_v = np.where(take, c_lo, lo_v)
            lo_open = np.where(take, c_lo_open, lo_open)
            take = nz[j] & ((c_hi < hi_v) | ((c_hi == hi_v) & c_hi_open & ~hi_open))
            hi_v = np.where(take, c_hi, hi_v)
            hi_open = np.where(take, c_hi_open, hi_open)
        empty = ~alive | (lo_v > hi_v) | ((lo_v == hi_v) & (lo_open | hi_open))
        yield lo_v, hi_v, lo_open, hi_open, empty


# ------------------------------------------- whole-array Crofton estimators

def gaussian_block_oracle(seed: int, base: np.ndarray, n_cols: int) -> np.ndarray:
    """crofton._gaussian_block as it was: 2*pi*u2 formed once per column."""
    n = len(base)
    out = np.empty((n, n_cols))
    for pair in range((n_cols + 1) // 2):
        u1 = crng.uniforms_open(seed, base + np.uint64(2 * pair))
        u2 = crng.uniforms(seed, base + np.uint64(2 * pair + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        out[:, 2 * pair] = r * np.cos(2.0 * math.pi * u2)
        if 2 * pair + 1 < n_cols:
            out[:, 2 * pair + 1] = r * np.sin(2.0 * math.pi * u2)
    return out


def unit_rows_oracle(g: np.ndarray) -> np.ndarray:
    """crofton._unit_rows as it was, on np.linalg.norm."""
    norms = np.linalg.norm(g, axis=1)[:, None]
    degen = norms < 1e-300
    return np.where(degen, np.eye(1, g.shape[1]), g) / np.where(degen, 1.0, norms)


def _oracle_range(n_samples: int, sample_range) -> np.ndarray:
    i0, i1 = sample_range if sample_range is not None else (0, n_samples)
    return np.arange(i0, i1, dtype=np.uint64)


def estimate_volume_oracle(a: BoxComplex, n_samples: int, seed: int,
                           sample_range=None) -> crofton.CroftonEstimate:
    """crofton.estimate_volume as it was, with every sample point drawn in
    one n x d array and located in one call."""
    idx = _oracle_range(n_samples, sample_range)
    d = a.ambient_dim
    lo, hi = bounding_box(a)
    lo_a = np.asarray(lo)
    wid = np.asarray(hi) - lo_a
    vol = float(np.prod(wid)) if d > 0 else 1.0

    n = len(idx)
    pts = np.empty((n, d))
    for j in range(d):
        pts[:, j] = lo_a[j] + wid[j] * crng.uniforms(seed, idx * np.uint64(d) + np.uint64(j))

    phat = float(contains_points(a, pts).mean())
    est = vol * phat
    se = vol * math.sqrt(phat * (1.0 - phat) / n)
    return crofton.CroftonEstimate(index=d, estimate=est, std_error=se,
                                   n_samples=n_samples, seed=seed)


def estimate_codim1_oracle(a: BoxComplex, n_samples: int, seed: int, frame=None,
                           sample_range=None) -> crofton.CroftonEstimate:
    """crofton.estimate_codim1 as it was, with every line drawn in n x d
    arrays and sliced in one call."""
    d = a.ambient_dim
    idx = _oracle_range(n_samples, sample_range)
    lo, hi = bounding_box(a)
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    center = (lo_a + hi_a) / 2.0
    radius = float(np.linalg.norm(hi_a - lo_a)) / 2.0

    q = None
    if frame is not None:
        q = np.asarray(frame, dtype=float)
        center = q @ center

    k = d - 1
    n = len(idx)
    if d <= 3:
        # closed forms on 2d - 2 uniforms a line: the only line of R, a
        # uniform angle and offset in the plane, and in space a uniform height
        # and angle on the sphere (Archimedes) and a point of the disk in u-perp
        w = [crng.uniforms(seed, idx * np.uint64(2 * d - 2) + np.uint64(j))
             for j in range(2 * d - 2)]
        if d == 1:
            u, p = np.ones((n, 1)), np.tile(center, (n, 1))
        elif d == 2:
            theta = 2.0 * math.pi * w[0]
            u = np.column_stack((np.cos(theta), np.sin(theta)))
            normal = np.column_stack((-np.sin(theta), np.cos(theta)))
            p = center[None, :] + (radius * (2.0 * w[1] - 1.0))[:, None] * normal
        else:
            z, phi = 2.0 * w[0] - 1.0, 2.0 * math.pi * w[1]
            rho = np.sqrt(1.0 - z * z)
            u = np.column_stack((rho * np.cos(phi), rho * np.sin(phi), z))
            e1 = np.column_stack((-np.sin(phi), np.cos(phi), np.zeros(n)))
            e2 = np.column_stack((z * np.cos(phi), z * np.sin(phi), -rho))
            r, psi = radius * np.sqrt(w[2]), 2.0 * math.pi * w[3]
            p = (center[None, :] + (r * np.cos(psi))[:, None] * e1
                 + (r * np.sin(psi))[:, None] * e2)
    else:
        dir_slots = 2 * ((d + 1) // 2)
        ball_slots = 2 * ((k + 1) // 2)
        stride = dir_slots + ball_slots + 1
        base = idx * np.uint64(stride)

        u = unit_rows_oracle(gaussian_block_oracle(seed, base, d))

        # Householder basis of u-perp: v = u + sign(u_d) e_d, h_j = e_j - 2 v_j v / |v|^2
        s = np.where(u[:, d - 1] >= 0.0, 1.0, -1.0)
        v = u.copy()
        v[:, d - 1] += s
        vv = np.einsum("ij,ij->i", v, v)
        gb = unit_rows_oracle(gaussian_block_oracle(seed, base + np.uint64(dir_slots), k))
        t = crng.uniforms(seed, base + np.uint64(dir_slots + ball_slots))
        r = radius * t ** (1.0 / k)
        y = gb * r[:, None]  # coordinates in the u-perp basis
        coef = 2.0 * np.einsum("nk,nk->n", y, v[:, :k]) / vv
        p = center[None, :] + np.concatenate([y, np.zeros((n, 1))], axis=1) - coef[:, None] * v

    if q is not None:
        p = p @ q  # row-vector form of Q^T p
        u = u @ q

    chi = crofton._slice_chi_vec(a, p, u).astype(float)
    v_perp = crofton.unit_ball_volume(k) * radius ** k
    factor = crofton.grassmannian_norm(d, 1) * v_perp
    vals = factor * chi
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return crofton.CroftonEstimate(index=d - 1, estimate=est, std_error=se,
                                   n_samples=n_samples, seed=seed)


# ------------------------------------------------- per-cell transform oracles

def translate_oracle(a: BoxComplex, v) -> BoxComplex:
    if not all(math.isfinite(w) for w in v):
        raise ValueError(f"translate vector v must be finite, got {tuple(v)}")
    if len(v) != a.ambient_dim:
        raise DimensionMismatch(f"vector has {len(v)} coordinates, ambient is {a.ambient_dim}")
    cells = [
        Cell(Interval(f.lo + w, f.hi + w, f.lo_closed, f.hi_closed)
             for f, w in zip(c.factors, v))
        for c in a.cells
    ]
    return BoxComplex(a.ambient_dim, cells)


def scale_oracle(a: BoxComplex, beta: float) -> BoxComplex:
    if not math.isfinite(beta):
        raise ValueError(f"scale factor beta must be finite, got {beta}")
    if not (beta > 0):
        raise NonpositiveScale(f"scale factor must be > 0, got {beta}")
    cells = [
        Cell(Interval(f.lo * beta, f.hi * beta, f.lo_closed, f.hi_closed)
             for f in c.factors)
        for c in a.cells
    ]
    return BoxComplex(a.ambient_dim, cells)


def axis_permute_oracle(a: BoxComplex, sigma) -> BoxComplex:
    if sorted(sigma) != list(range(a.ambient_dim)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 0..{a.ambient_dim - 1}")
    cells = [Cell(c.factors[sigma[j]] for j in range(a.ambient_dim)) for c in a.cells]
    return BoxComplex(a.ambient_dim, cells)


def reflect_oracle(a: BoxComplex, axis: int) -> BoxComplex:
    if not (0 <= axis < a.ambient_dim):
        raise ValueError(f"axis {axis} out of range for dimension {a.ambient_dim}")
    cells = []
    for c in a.cells:
        fs = list(c.factors)
        f = fs[axis]
        fs[axis] = Interval(-f.hi, -f.lo, f.hi_closed, f.lo_closed)
        cells.append(Cell(fs))
    return BoxComplex(a.ambient_dim, cells)


def cartesian_product_oracle(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cells = tuple(Cell(ca.factors + cb.factors) for ca in a.cells for cb in b.cells)
    return BoxComplex(a.ambient_dim + b.ambient_dim, cells)


def bounding_box_oracle(a: BoxComplex):
    if not a.cells:
        raise ValueError("empty complex has no bounding box")
    if not all(f.is_bounded for c in a.cells for f in c.factors):
        raise UnboundedSet("bounding box requires a bounded complex")
    lo = [min(c.factors[j].lo for c in a.cells) for j in range(a.ambient_dim)]
    hi = [max(c.factors[j].hi for c in a.cells) for j in range(a.ambient_dim)]
    return lo, hi


# ------------------------------------------------------- scale-search oracle

def least_n_oracle(polys, epsilon, n_start=1, n_max=10 ** 6,
                   extra_conditions=None) -> int:
    """The least N in [n_start, n_max] with ||p(N)|| < epsilon for every p and
    extra_conditions(N), by brute force on integers, with no float
    arithmetic: p(N) = (sum m_i N^i) / 2^s and epsilon = e / q, so
    ||p(N)|| < epsilon iff min(r, 2^s - r) < ceil(e 2^s / q) for
    r = (sum m_i N^i) mod 2^s. Every N is tested, 2^16 at a time in uint64
    arithmetic, which is exact modulo 2^64 (so s must stay below 64);
    SearchExhausted past n_max."""
    cond = extra_conditions or (lambda n: True)
    e, q = epsilon.as_integer_ratio()
    tests = []
    for p in polys:
        ratios = [c.as_integer_ratio() for c in p.coeffs]
        den = max((d for _, d in ratios), default=1)
        assert den < 1 << 63, f"{p} needs 2^s with s >= 64"
        nums = [np.uint64(m * (den // d) % (1 << 64)) for m, d in reversed(ratios)]
        tests.append((nums, np.uint64(den), np.uint64(-(-(e * den) // q))))
    for start in range(max(1, int(n_start)), n_max + 1, 1 << 16):
        ns = np.arange(start, min(start + (1 << 16), n_max + 1), dtype=np.uint64)
        ok = np.ones(len(ns), dtype=bool)
        for nums, den, bound in tests:
            r = np.zeros(len(ns), dtype=np.uint64)
            for m in nums:
                r = r * ns + m
            r %= den
            ok &= np.minimum(r, den - r) < bound
        for n in ns[ok].tolist():
            if cond(n):
                return n
    raise SearchExhausted(n_max)


# ------------------------------------------------------------ parser oracle
# The tokenizer and recursive-descent parser that built a _Token object per
# token, kept verbatim.

_INF = math.inf
_FUNCS = ("translate", "scale", "permute", "reflect")


@dataclass(frozen=True)
class _Token:
    kind: str  # "num", "name", "func", "inf", "-inf", "sym", "eof"
    text: str
    pos: int
    value: float = 0.0


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<neginf>-inf(?![A-Za-z0-9_]))"
    r"|(?P<num>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>[|&\\!()\[\]{},])"
)


def _tokenize(src: str) -> list[_Token]:
    toks = []
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise ParseError(src, i, "a token")
        if m.lastgroup == "num":
            toks.append(_Token("num", m.group(), i, float(m.group())))
        elif m.lastgroup == "neginf":
            toks.append(_Token("-inf", m.group(), i))
        elif m.lastgroup == "name":
            text = m.group()
            if text == "x":
                toks.append(_Token("sym", "x", i))
            elif text == "inf":
                toks.append(_Token("inf", text, i))
            elif text in _FUNCS:
                toks.append(_Token("func", text, i))
            else:
                toks.append(_Token("name", text, i))
        elif m.lastgroup == "sym":
            toks.append(_Token("sym", m.group(), i))
        i = m.end()
    toks.append(_Token("eof", "", len(src)))
    return toks


class _Parser:
    def __init__(self, source: str):
        self.source = source
        self.toks = _tokenize(source)
        self.i = 0

    def peek(self, ahead: int = 0) -> _Token:
        j = min(self.i + ahead, len(self.toks) - 1)
        return self.toks[j]

    def next(self) -> _Token:
        t = self.toks[self.i]
        if t.kind != "eof":
            self.i += 1
        return t

    def fail(self, expected: str) -> "ParseError":
        return ParseError(self.source, self.peek().pos, expected)

    def expect_sym(self, text: str) -> _Token:
        t = self.peek()
        if t.kind != "sym" or t.text != text:
            raise self.fail(f'"{text}"')
        return self.next()

    def parse(self) -> SetExpr:
        e = self.expr()
        if self.peek().kind != "eof":
            raise self.fail("end of input")
        return e

    def expr(self) -> SetExpr:
        e = self.term()
        while self.peek().kind == "sym" and self.peek().text == "|":
            self.next()
            e = SetExpr("union", (e, self.term()))
        return e

    def term(self) -> SetExpr:
        e = self.factor()
        while self.peek().kind == "sym" and self.peek().text in ("&", "\\"):
            op = self.next().text
            kind = "intersect" if op == "&" else "difference"
            e = SetExpr(kind, (e, self.factor()))
        return e

    def factor(self) -> SetExpr:
        if self.peek().kind == "sym" and self.peek().text == "!":
            self.next()
            return SetExpr("complement", (self.factor(),))
        e = self.atom()
        while self.peek().kind == "sym" and self.peek().text == "x":
            self.next()
            e = SetExpr("product", (e, self.atom(bang=False)))
        return e

    def atom(self, bang: bool = True) -> SetExpr:
        """An atom; bang tells whether "!" could have stood here instead."""
        t = self.peek()
        if t.kind == "func":
            return self.func()
        if t.kind == "name":
            self.next()
            return SetExpr("name", payload=(t.text,))
        if t.kind == "sym" and t.text in ("[", "{"):
            return self.box()
        if t.kind == "sym" and t.text == "(":
            # "(" starts an interval when followed by "bound ,"
            if self.peek(1).kind in ("num", "inf", "-inf") and \
                    self.peek(2).kind == "sym" and self.peek(2).text == ",":
                return self.box()
            self.next()
            e = self.expr()
            self.expect_sym(")")
            return e
        raise self.fail('an interval, "(", "!", a function, or a name' if bang
                        else 'an interval, "(", a function, or a name')

    def box(self) -> SetExpr:
        ivs = [self.interval()]
        while self.peek().kind == "sym" and self.peek().text == ",":
            nxt = self.peek(1)
            if not (nxt.kind == "sym" and nxt.text in ("[", "(", "{")):
                break  # comma belongs to an enclosing function call
            self.next()
            ivs.append(self.interval())
        return SetExpr("box", payload=tuple(ivs))

    def interval(self) -> Interval:
        t = self.peek()
        if t.kind == "sym" and t.text == "{":
            self.next()
            lo = hi = self.number()
            self.expect_sym("}")
            lo_closed = hi_closed = True
        else:
            if not (t.kind == "sym" and t.text in ("[", "(")):
                raise self.fail('"[", "(", or "{"')
            self.next()
            lo_closed = t.text == "["
            lo = self.bound()
            self.expect_sym(",")
            hi = self.bound()
            t2 = self.peek()
            if not (t2.kind == "sym" and t2.text in ("]", ")")):
                raise self.fail('"]" or ")"')
            self.next()
            hi_closed = t2.text == "]"
        try:
            return Interval(lo, hi, lo_closed, hi_closed)
        except ValueError as exc:
            raise ParseError(self.source, t.pos, f"a valid interval ({exc})") from exc

    def bound(self) -> float:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return t.value
        if t.kind == "inf":
            self.next()
            return _INF
        if t.kind == "-inf":
            self.next()
            return -_INF
        raise self.fail('NUMBER, "inf", or "-inf"')

    def number(self) -> float:
        t = self.peek()
        if t.kind != "num":
            raise self.fail("NUMBER")
        self.next()
        return t.value

    def func(self) -> SetExpr:
        t = self.next()
        self.expect_sym("(")
        e = self.expr()
        args = []
        while self.peek().kind == "sym" and self.peek().text == ",":
            self.next()
            args.append(self.number())
        self.expect_sym(")")
        return SetExpr(t.text, (e,), tuple(args))


def parse_oracle(source: str) -> SetExpr:
    return _Parser(source).parse()


# ------------------------------------------------------ expression-walk oracle
# print_expr and evaluate as they recursed once per level of the tree, kept
# verbatim but for two round-trip faults of the printer, mended: it now
# parenthesizes a complement on the left of "x" and writes an infinite
# function argument as 1e400 or -1e400.

_PREC = {"union": 0, "intersect": 1, "difference": 1, "product": 2, "complement": 2}


def print_expr_oracle(e: SetExpr) -> str:
    """Render an expression; parse(print_expr(e)) == e."""

    def wrap(child: SetExpr, min_prec: int) -> str:
        s = print_expr_oracle(child)
        if child.kind in _PREC and _PREC[child.kind] < min_prec:
            return f"({s})"
        return s

    if e.kind == "box":
        return ",".join(_print_interval(iv) for iv in e.payload)
    if e.kind == "name":
        return e.payload[0]
    if e.kind == "union":
        return f"{wrap(e.children[0], 0)} | {wrap(e.children[1], 1)}"
    if e.kind in ("intersect", "difference"):
        op = "&" if e.kind == "intersect" else "\\"
        return f"{wrap(e.children[0], 1)} {op} {wrap(e.children[1], 2)}"
    if e.kind == "product":
        # the right operand of a product is an atom; parenthesize operators,
        # and a complement on the left, whose "!" would take the product
        left = wrap(e.children[0], 3 if e.children[0].kind == "complement" else 2)
        right = print_expr_oracle(e.children[1])
        if e.children[1].kind in _PREC:
            right = f"({right})"
        return f"{left} x {right}"
    if e.kind == "complement":
        child = e.children[0]
        s = print_expr_oracle(child)
        if child.kind in _PREC and child.kind != "complement" and _PREC[child.kind] < 2:
            s = f"({s})"
        return f"!{s}"
    if e.kind in _FUNCS:
        # an argument is a NUMBER: an infinite one is written as 1e400 or -1e400
        args = "".join(f", {format_num(v)}" if abs(v) != math.inf else
                       f", {'-' * (v < 0)}1e400" for v in e.payload)
        return f"{e.kind}({print_expr_oracle(e.children[0])}{args})"
    raise ValueError(f"unknown node kind {e.kind!r}")


def evaluate_oracle(e: SetExpr, env: dict[str, BoxComplex] | None = None) -> BoxComplex:
    """Evaluate an expression to a BoxComplex by structural recursion; the
    operands of a maximal union subtree are gathered without recursion and
    joined by one n-ary union."""
    env = env or {}
    if e.kind == "box":
        d = len(e.payload)  # one cell: columns straight from the intervals
        ends = np.array([(iv.lo, iv.hi) for iv in e.payload], dtype=np.float64)
        closed = np.array([(iv.lo_closed, iv.hi_closed) for iv in e.payload], dtype=bool)
        return boxset._complex(d, ends.reshape(1, d, 2), closed.reshape(1, d, 2))
    if e.kind == "name":
        name = e.payload[0]
        if name not in env:
            raise UnknownName(f"undefined name {name!r}")
        return env[name]
    if e.kind == "union":
        operands, todo = [], [e]
        while todo:
            node = todo.pop()
            if node.kind == "union":
                todo.extend(reversed(node.children))
            else:
                operands.append(node)
        return boxset.union(*(evaluate_oracle(o, env) for o in operands))
    if e.kind == "intersect":
        return boxset.intersect(evaluate_oracle(e.children[0], env),
                                evaluate_oracle(e.children[1], env))
    if e.kind == "difference":
        return boxset.difference(evaluate_oracle(e.children[0], env),
                                 evaluate_oracle(e.children[1], env))
    if e.kind == "complement":
        return boxset.complement(evaluate_oracle(e.children[0], env))
    if e.kind == "product":
        return boxset.cartesian_product(evaluate_oracle(e.children[0], env),
                                        evaluate_oracle(e.children[1], env))
    if e.kind == "translate":
        return boxset.translate(evaluate_oracle(e.children[0], env), list(e.payload))
    if e.kind == "scale":
        if len(e.payload) != 1:
            raise ValueError("scale takes exactly one factor")
        return boxset.scale(evaluate_oracle(e.children[0], env), e.payload[0])
    if e.kind == "permute":
        return boxset.axis_permute(evaluate_oracle(e.children[0], env),
                                   _int_args(e.payload, "permute"))
    if e.kind == "reflect":
        axes = _int_args(e.payload, "reflect")
        if len(axes) != 1:
            raise ValueError("reflect takes exactly one axis")
        return boxset.reflect(evaluate_oracle(e.children[0], env), axes[0])
    raise ValueError(f"unknown node kind {e.kind!r}")


@dataclass(frozen=True)
class _DataclassSetExpr:
    kind: str
    children: tuple = ()
    payload: tuple = ()


_DataclassSetExpr.__qualname__ = "SetExpr"  # its repr then reads as SetExpr's


def setexpr_dataclass_oracle(e: SetExpr) -> _DataclassSetExpr:
    """e rebuilt, recursively, as a plain frozen dataclass with SetExpr's
    fields: SetExpr's == must agree with its generated ==, and its repr
    must read the same."""
    return _DataclassSetExpr(e.kind, tuple(map(setexpr_dataclass_oracle, e.children)), e.payload)

