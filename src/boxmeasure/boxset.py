"""Axis-aligned generalized boxes and their finite disjoint unions.

A Cell is a product of one-dimensional intervals whose endpoints carry
independent open/closed flags (points and infinite rays included). A
BoxComplex is a finite pairwise-disjoint family of cells in a common
ambient dimension. This class is closed under union, intersection,
difference, complement and cartesian product, all computed exactly on the
endpoint floats: endpoints are compared by bit equality, never snapped.

Boolean operations work on the endpoint grid: every axis is cut at every
finite endpoint occurring on it, which splits the axis into point atoms
and open atoms (the gaps between cuts and the two rays). Their products,
the grid atoms, each lie entirely inside or outside every input cell. Each
factor of a cell covers one contiguous block of atom indices on its axis,
found by binary search among the cuts, so each cell covers one box of the
index grid. The membership grid of a cell list is the union of those
boxes, marked in a difference array and read off by prefix sums; no point
is evaluated. A result is the set of kept atoms, emitted in C order of the
grid. grid_atoms also yields one float inside each atom, for callers that
classify atoms by point membership.

The same grid answers bulk point membership (contains_points: binary search
per axis, then a gather) and yields a short disjoint box cover of a complex
(_merged_boxes: runs of kept atoms joined axis by axis), which the Monte
Carlo kernels loop over instead of the atom cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .xpoly import ext_from_json, ext_to_json

_INF = math.inf


class DimensionMismatch(ValueError):
    """Operands live in different ambient dimensions."""


class NonpositiveScale(ValueError):
    """scale() requires a strictly positive factor."""


class UnboundedSet(ValueError):
    """A bounded set was required."""


@dataclass(frozen=True)
class Interval:
    """One axis factor: endpoints lo <= hi with open/closed flags.

    Degenerate (lo == hi) intervals must be closed on both sides: they are
    points. An infinite endpoint is never closed. Empty intervals cannot be
    constructed.
    """

    lo: float
    hi: float
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        if math.isnan(lo) or math.isnan(hi):
            raise ValueError("NaN endpoint")
        if lo > hi:
            raise ValueError(f"empty interval: lo={lo} > hi={hi}")
        if lo == hi and not (self.lo_closed and self.hi_closed):
            raise ValueError("degenerate interval must be closed on both sides")
        if math.isinf(lo) and self.lo_closed:
            raise ValueError("infinite endpoint cannot be closed")
        if math.isinf(hi) and self.hi_closed:
            raise ValueError("infinite endpoint cannot be closed")
        if lo == _INF or hi == -_INF:
            raise ValueError("interval lies beyond the reals")

    @classmethod
    def closed(cls, a: float, b: float) -> "Interval":
        return cls(a, b, True, True)

    @classmethod
    def open(cls, a: float, b: float) -> "Interval":
        return cls(a, b, False, False)

    @classmethod
    def half_open(cls, a: float, b: float) -> "Interval":
        """[a, b)"""
        return cls(a, b, True, False)

    @classmethod
    def point(cls, a: float) -> "Interval":
        return cls(a, a, True, True)

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def is_bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float) -> bool:
        if not (self.lo <= x <= self.hi):  # also rejects NaN
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def __str__(self) -> str:
        if self.is_point:
            return f"{{{self.lo}}}"
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        return f"{lb}{self.lo},{self.hi}{rb}"


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


@dataclass(frozen=True, init=False)
class Cell:
    """A generalized box: one Interval per axis."""

    factors: tuple[Interval, ...]

    def __init__(self, factors: Iterable[Interval]):
        object.__setattr__(self, "factors", tuple(factors))

    @property
    def ambient_dim(self) -> int:
        return len(self.factors)

    @property
    def dim(self) -> int:
        return sum(1 for f in self.factors if not f.is_point)

    @property
    def is_bounded(self) -> bool:
        return all(f.is_bounded for f in self.factors)

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != len(self.factors):
            raise DimensionMismatch(f"point has {len(x)} coordinates, cell has {len(self.factors)}")
        return all(f.contains(v) for f, v in zip(self.factors, x))

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors) if self.factors else "R^0"


def cells_disjoint(a: Cell, b: Cell) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("cells in different ambient dimensions")
    if a.ambient_dim == 0:
        return False  # both are the single point of R^0
    return any(interval_intersection(fa, fb) is None for fa, fb in zip(a.factors, b.factors))


@dataclass(frozen=True, init=False)
class BoxComplex:
    """A finite disjoint union of cells in a fixed ambient dimension.

    The raw constructor trusts the caller on pairwise disjointness; use
    canonicalize() to build safely from arbitrary overlapping cells.
    """

    ambient_dim: int
    cells: tuple[Cell, ...]

    def __init__(self, ambient_dim: int, cells: Iterable[Cell] = ()):
        cells = tuple(cells)
        for c in cells:
            if c.ambient_dim != ambient_dim:
                raise DimensionMismatch(
                    f"cell of dimension {c.ambient_dim} in complex of dimension {ambient_dim}")
        object.__setattr__(self, "ambient_dim", int(ambient_dim))
        object.__setattr__(self, "cells", cells)

    @property
    def is_empty(self) -> bool:
        return not self.cells

    @property
    def is_bounded(self) -> bool:
        return all(c.is_bounded for c in self.cells)

    @property
    def dim(self) -> int | float:
        """Max cell dimension; -inf for the empty set."""
        return max((c.dim for c in self.cells), default=-_INF)

    def __str__(self) -> str:
        return " | ".join(str(c) for c in self.cells) if self.cells else "{}"

    def to_json(self) -> dict:
        return {
            "dim": self.ambient_dim,
            "cells": [
                {"factors": [
                    {"lo": ext_to_json(f.lo), "hi": ext_to_json(f.hi),
                     "lo_closed": f.lo_closed, "hi_closed": f.hi_closed}
                    for f in c.factors]}
                for c in self.cells
            ],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BoxComplex":
        cells = [
            Cell(Interval(ext_from_json(f["lo"]), ext_from_json(f["hi"]),
                          f["lo_closed"], f["hi_closed"])
                 for f in c["factors"])
            for c in data["cells"]
        ]
        return cls(data["dim"], cells)


def from_cell(cell: Cell) -> BoxComplex:
    return BoxComplex(cell.ambient_dim, (cell,))


def _same_dim(a: BoxComplex, b: BoxComplex) -> int:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(f"{a.ambient_dim} vs {b.ambient_dim}")
    return a.ambient_dim


def _columns(cells: Sequence[Cell], ambient_dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Columnar view of a cell list: ends float64[n,d,2] holds (lo, hi) and
    closed bool[n,d,2] holds (lo_closed, hi_closed) for every factor."""
    flat = [v for c in cells for f in c.factors
            for v in (f.lo, f.hi, f.lo_closed, f.hi_closed)]
    arr = np.array(flat, dtype=np.float64).reshape(len(cells), ambient_dim, 4)
    return arr[..., :2], arr[..., 2:] == 1.0


def _grid_axes(ends: np.ndarray) -> list[np.ndarray]:
    """Per axis, the sorted distinct finite endpoints (the cuts).

    Of two equal values (0.0 and -0.0) the one met first is kept.
    """
    cuts = []
    for j in range(ends.shape[1]):
        v = ends[:, j, :].ravel()
        v = v[np.isfinite(v)]
        cuts.append(v[np.unique(v, return_index=True)[1]])
    return cuts


def _axis_intervals(cuts: Sequence[float]) -> list[Interval]:
    """1-D grid atoms for sorted finite cuts c_0 < .. < c_{m-1}: atom 0 is
    the ray below c_0, atom 2i+1 the point c_i, atom 2i+2 the open gap after
    c_i, and atom 2m the ray above c_{m-1}."""
    if not cuts:
        return [Interval(-_INF, _INF, False, False)]
    atoms = [Interval(-_INF, cuts[0], False, False)]
    for c, nxt in zip(cuts, cuts[1:]):
        atoms.append(Interval.point(c))
        atoms.append(Interval.open(c, nxt))
    atoms.append(Interval.point(cuts[-1]))
    atoms.append(Interval(cuts[-1], _INF, False, False))
    return atoms


def _representative(iv: Interval) -> float:
    """A float inside the atom; ValueError when the atom holds none."""
    if iv.is_point:
        r = iv.lo
    elif iv.lo == -_INF:
        r = 0.0 if iv.hi == _INF else math.nextafter(iv.hi, -_INF)
    elif iv.hi == _INF:
        r = math.nextafter(iv.lo, _INF)
    else:
        r = iv.lo + (iv.hi - iv.lo) / 2.0
        if not (iv.lo < r < iv.hi):
            r = math.nextafter(iv.lo, iv.hi)
    if not (math.isfinite(r) and iv.contains(r)):
        raise ValueError(f"atom {iv} holds no representable float")
    return r


def grid_atoms(cells: Sequence[Cell], ambient_dim: int) -> Iterator[tuple[Cell, tuple[float, ...]]]:
    """All atoms of the endpoint grid of the given cells, over all of R^d.

    Yields (atom, representative point). Every input cell is a union of
    atoms, so membership of the representative decides membership of the
    whole atom for any set assembled from these cells. Raises ValueError
    when some atom holds no float (an open gap between adjacent floats).
    """
    axes = [[(iv, _representative(iv)) for iv in _axis_intervals(c.tolist())]
            for c in _grid_axes(_columns(cells, ambient_dim)[0])]
    for combo in itertools.product(*axes):
        yield Cell(iv for iv, _ in combo), tuple(r for _, r in combo)


def _membership_grid(ends: np.ndarray, closed: np.ndarray,
                     cuts: Sequence[np.ndarray]) -> np.ndarray:
    """Boolean array over the atom grid: atom in union(cells)?

    Every factor of a cell covers one contiguous block of atom indices on
    its axis, found by binary search among the cuts, so a cell covers one
    box of the grid. Each box adds +-1 at its 2^d corners of a difference
    array; prefix sums along every axis then count the cells over each atom.
    """
    shape = tuple(2 * len(c) + 1 for c in cuts)
    n, d = ends.shape[:2]
    if n == 0:
        return np.zeros(shape, dtype=bool)
    start = np.empty((d, n), dtype=np.intp)
    stop = np.empty((d, n), dtype=np.intp)
    for j, c in enumerate(cuts):
        lo, hi = ends[:, j, 0], ends[:, j, 1]
        i_lo = 2 * np.searchsorted(c, lo) + 2 - closed[:, j, 0]
        start[j] = np.where(lo == -_INF, 0, i_lo)
        stop[j] = 2 * np.searchsorted(c, hi) + 1 + closed[:, j, 1]
    count = np.zeros(tuple(s + 1 for s in shape), dtype=np.int32)
    for corner in itertools.product((0, 1), repeat=d):
        idx = tuple(stop[j] if up else start[j] for j, up in enumerate(corner))
        np.add.at(count, idx, -1 if sum(corner) % 2 else 1)
    for j in range(d):
        np.cumsum(count, axis=j, out=count)
    return count[(slice(-1),) * d] > 0


def _atom_grid(cells: Sequence[Cell], ambient_dim: int) -> tuple[list[np.ndarray], np.ndarray]:
    """The cuts of the cells' endpoint grid and their membership grid."""
    ends, closed = _columns(cells, ambient_dim)
    cuts = _grid_axes(ends)
    return cuts, _membership_grid(ends, closed, cuts)


def _build_from_grid(cuts: Sequence[np.ndarray], keep: np.ndarray,
                     ambient_dim: int) -> BoxComplex:
    atoms = [_axis_intervals(c.tolist()) for c in cuts]
    cells = [Cell([atoms[j][i] for j, i in enumerate(idx)])
             for idx in np.argwhere(keep).tolist()]
    return BoxComplex(ambient_dim, cells)


def canonicalize(raw: Iterable[Cell], ambient_dim: int | None = None) -> BoxComplex:
    """Grid-atom decomposition of a union of possibly overlapping cells."""
    cells = list(raw)
    if ambient_dim is None:
        if not cells:
            raise ValueError("ambient_dim required for empty input")
        ambient_dim = cells[0].ambient_dim
    for c in cells:
        if c.ambient_dim != ambient_dim:
            raise DimensionMismatch(
                f"cell of dimension {c.ambient_dim}, expected {ambient_dim}")
    return _build_from_grid(*_atom_grid(cells, ambient_dim), ambient_dim)


def contains_point(a: BoxComplex, x: Sequence[float]) -> bool:
    if len(x) != a.ambient_dim:
        raise DimensionMismatch(f"point has {len(x)} coordinates, ambient is {a.ambient_dim}")
    return any(c.contains(x) for c in a.cells)


def contains_points(a: BoxComplex, pts) -> np.ndarray:
    """Bulk membership: bool[n], entry i tells whether row i of the n x d
    array pts lies in a.

    Each coordinate is located among its axis' cuts by binary search, which
    names the grid atom holding the point, and the membership grid is read
    there. A point with a coordinate that is +-inf or NaN is never a member.
    """
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != a.ambient_dim:
        raise DimensionMismatch(
            f"points of shape {pts.shape}, ambient dimension is {a.ambient_dim}")
    cuts, grid = _atom_grid(a.cells, a.ambient_dim)
    idx = []
    for j, c in enumerate(cuts):
        x = pts[:, j]
        i = np.searchsorted(c, x)  # cuts below x; NaN sorts past them all
        # x on cut i is the point atom 2i+1, else it is in the open atom 2i
        idx.append(2 * i + (np.append(c, np.nan)[i] == x))
    return grid[tuple(idx)] & np.isfinite(pts).all(axis=1)


def _merged_boxes(a: BoxComplex) -> tuple[np.ndarray, np.ndarray]:
    """Columnar view (ends float64[k,d,2], closed bool[k,d,2]) of a disjoint
    box cover of a, read off its membership grid.

    The kept atoms are taken in runs along the last axis; then along each
    earlier axis in turn, boxes that agree on every other axis and follow
    each other on this one are joined. For a complex in atom form (every
    result of canonicalize and the boolean ops) k never exceeds the number
    of cells.
    """
    d = a.ambient_dim
    if d == 0 or not a.cells:  # empty, or all of R^0 (a single point)
        return _columns(a.cells[:1], d)
    cuts, grid = _atom_grid(a.cells, d)

    # box b covers atom indices [start[b, j], stop[b, j]) on axis j
    edges = np.diff(grid.astype(np.int8), axis=-1, prepend=0, append=0)
    start = np.stack(np.nonzero(edges == 1), axis=1)  # runs in C order
    stop = start + 1
    stop[:, -1] = np.nonzero(edges == -1)[-1]
    for j in range(d - 2, -1, -1):
        others = [k for k in range(d) if k != j]
        order = np.lexsort([start[:, j]] + [stop[:, k] for k in others]
                           + [start[:, k] for k in others])
        start, stop = start[order], stop[order]
        joins = np.zeros(len(start), dtype=bool)
        joins[1:] = ((start[1:, others] == start[:-1, others]).all(axis=1)
                     & (stop[1:, others] == stop[:-1, others]).all(axis=1)
                     & (start[1:, j] == stop[:-1, j]))
        first = np.nonzero(~joins)[0]
        last = np.append(first[1:], len(start)) - 1
        joined = stop[first]
        joined[:, j] = stop[last, j]
        start, stop = start[first], joined
    return _index_boxes_to_columns(cuts, start, stop)


def _index_boxes_to_columns(cuts: Sequence[np.ndarray], start: np.ndarray,
                            stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Endpoints and flags of index boxes: on an axis with cuts c, atom 0 is
    the ray below c[0], atom 2i+1 the point c[i] and atom 2i+2 the open atom
    after c[i], so a block of atoms [s, e) starts at c[(s-1)//2], closed
    when s is odd, and ends at c[(e-1)//2], closed when e-1 is odd."""
    k, d = start.shape
    ends = np.empty((k, d, 2))
    closed = np.empty((k, d, 2), dtype=bool)
    for j, c in enumerate(cuts):
        s, h = start[:, j], stop[:, j] - 1
        ends[:, j, 0] = np.append(c, -_INF)[(s - 1) // 2]  # s = 0: index -1
        ends[:, j, 1] = np.append(c, _INF)[h // 2]         # h = 2m: index m
        closed[:, j, 0] = s % 2 == 1
        closed[:, j, 1] = h % 2 == 1
    return ends, closed


def _pair_grids(a: BoxComplex, b: BoxComplex):
    """Both operands' membership grids over their common endpoint grid."""
    d = _same_dim(a, b)
    ends, closed = _columns(a.cells + b.cells, d)
    cuts = _grid_axes(ends)
    n = len(a.cells)
    return (d, cuts, _membership_grid(ends[:n], closed[:n], cuts),
            _membership_grid(ends[n:], closed[n:], cuts))


def union(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    d, cuts, ma, mb = _pair_grids(a, b)
    return _build_from_grid(cuts, ma | mb, d)


def intersect(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    d, cuts, ma, mb = _pair_grids(a, b)
    return _build_from_grid(cuts, ma & mb, d)


def difference(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    d, cuts, ma, mb = _pair_grids(a, b)
    return _build_from_grid(cuts, ma & ~mb, d)


def complement(a: BoxComplex) -> BoxComplex:
    """Complement relative to R^d; generally unbounded."""
    cuts, grid = _atom_grid(a.cells, a.ambient_dim)
    return _build_from_grid(cuts, ~grid, a.ambient_dim)


def cartesian_product(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cells = tuple(Cell(ca.factors + cb.factors) for ca in a.cells for cb in b.cells)
    return BoxComplex(a.ambient_dim + b.ambient_dim, cells)


def translate(a: BoxComplex, v: Sequence[float]) -> BoxComplex:
    if len(v) != a.ambient_dim:
        raise DimensionMismatch(f"vector has {len(v)} coordinates, ambient is {a.ambient_dim}")
    cells = [
        Cell(Interval(f.lo + w, f.hi + w, f.lo_closed, f.hi_closed)
             for f, w in zip(c.factors, v))
        for c in a.cells
    ]
    return BoxComplex(a.ambient_dim, cells)


def scale(a: BoxComplex, beta: float) -> BoxComplex:
    if not (beta > 0):
        raise NonpositiveScale(f"scale factor must be > 0, got {beta}")
    cells = [
        Cell(Interval(f.lo * beta, f.hi * beta, f.lo_closed, f.hi_closed)
             for f in c.factors)
        for c in a.cells
    ]
    return BoxComplex(a.ambient_dim, cells)


def axis_permute(a: BoxComplex, sigma: Sequence[int]) -> BoxComplex:
    """New axis j carries what was axis sigma[j]."""
    if sorted(sigma) != list(range(a.ambient_dim)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 0..{a.ambient_dim - 1}")
    cells = [Cell(c.factors[sigma[j]] for j in range(a.ambient_dim)) for c in a.cells]
    return BoxComplex(a.ambient_dim, cells)


def reflect(a: BoxComplex, axis: int) -> BoxComplex:
    """Negate one coordinate; endpoint flags swap sides."""
    if not (0 <= axis < a.ambient_dim):
        raise ValueError(f"axis {axis} out of range for dimension {a.ambient_dim}")
    cells = []
    for c in a.cells:
        fs = list(c.factors)
        f = fs[axis]
        fs[axis] = Interval(-f.hi, -f.lo, f.hi_closed, f.lo_closed)
        cells.append(Cell(fs))
    return BoxComplex(a.ambient_dim, cells)


def dimension(a: BoxComplex) -> int | float:
    return a.dim


def is_subset(a: BoxComplex, b: BoxComplex) -> bool:
    _, _, ma, mb = _pair_grids(a, b)
    return not bool(np.any(ma & ~mb))


def set_equal(a: BoxComplex, b: BoxComplex) -> bool:
    _, _, ma, mb = _pair_grids(a, b)
    return not bool(np.any(ma ^ mb))


def bounding_box(a: BoxComplex) -> tuple[list[float], list[float]]:
    """Per-axis (lo, hi) hull of a nonempty bounded complex."""
    if a.is_empty:
        raise ValueError("empty complex has no bounding box")
    if not a.is_bounded:
        raise UnboundedSet("bounding box requires a bounded complex")
    lo = [min(c.factors[j].lo for c in a.cells) for j in range(a.ambient_dim)]
    hi = [max(c.factors[j].hi for c in a.cells) for j in range(a.ambient_dim)]
    return lo, hi
