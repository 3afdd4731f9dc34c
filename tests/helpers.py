"""Shared generators and independent oracles for the test suite."""

import math
import random
from fractions import Fraction

import numpy as np

from boxmeasure import (BoxComplex, Cell, DimensionMismatch, Interval,
                        NonpositiveScale, UnboundedSet, XPoly, canonicalize,
                        contains_point, grid_atoms, mu, mu_cell, xpoly_add)


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


def mu_sequential_oracle(a: BoxComplex) -> XPoly:
    """mu as the sequential xpoly_add of mu_cell over the cells."""
    total = XPoly()
    for c in a.cells:
        total = xpoly_add(total, mu_cell(c))
    return total


# ------------------------------------------------------ sampler part oracle

def sample_parts_oracle(sets, points, ambient_dim: int):
    """The sampler's parts of U and of the outside region, each as a list of
    (region, mu polynomial), by per-atom classification: every atom of the
    endpoint grid of U, the sets and the points is tested through its float
    representative, then grouped by the sets holding it, groups in order of
    their first atom."""
    u_cell = Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * (ambient_dim - 1))
    unit = BoxComplex(ambient_dim, (u_cell,))
    grid_cells = [u_cell] + [c for a in sets for c in a.cells]
    grid_cells += [Cell(Interval.point(v) for v in x) for x in points]
    groups = ({}, {})  # (in U, outside U), keyed by signature
    for atom, rep in grid_atoms(grid_cells, ambient_dim):
        key = tuple(contains_point(a, rep) for a in sets)
        if contains_point(unit, rep):
            groups[0].setdefault(key, []).append(atom)
        elif any(key) or rep in points:
            groups[1].setdefault(key, []).append(atom)
    parts = []
    for g in groups:
        regions = [BoxComplex(ambient_dim, cells) for cells in g.values()]
        parts.append([(r, mu(r).mu) for r in regions])
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


# ------------------------------------------------- per-cell transform oracles

def translate_oracle(a: BoxComplex, v) -> BoxComplex:
    if len(v) != a.ambient_dim:
        raise DimensionMismatch(f"vector has {len(v)} coordinates, ambient is {a.ambient_dim}")
    cells = [
        Cell(Interval(f.lo + w, f.hi + w, f.lo_closed, f.hi_closed)
             for f, w in zip(c.factors, v))
        for c in a.cells
    ]
    return BoxComplex(a.ambient_dim, cells)


def scale_oracle(a: BoxComplex, beta: float) -> BoxComplex:
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
