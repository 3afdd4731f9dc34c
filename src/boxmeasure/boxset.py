"""Axis-aligned generalized boxes and their finite disjoint unions.

A Cell is a product of one-dimensional intervals whose endpoints carry
independent open/closed flags (points and infinite rays included). A
BoxComplex is a finite pairwise-disjoint family of cells in a common
ambient dimension, stored as its endpoint grid, as the columns of its
cells' endpoints and flags, or both; columns are built from the grid, and
Cell objects from the columns, only when read. The class is closed under
union, intersection, difference, complement and cartesian product, all
computed exactly on the endpoint floats: endpoints are compared by bit
equality, never snapped.

Boolean operations work on the endpoint grid: every axis is cut at every
finite endpoint occurring on it, which splits the axis into point atoms
and open atoms (the gaps between cuts and the two rays). Their products,
the grid atoms, each lie entirely inside or outside every input cell. Each
factor of a cell covers one contiguous block of atom indices on its axis,
found by binary search among the cuts, so each cell covers one box of the
index grid. The membership grid of a cell list is the union of those
boxes, marked in a difference array and read off by prefix sums; no point
is evaluated. A complex builds its own grid once, the first time an
operation needs it, and keeps it. Endpoint grids are built in three places:
_grids gives the cuts common to several complexes (_common_cuts) and remaps
each one's own grid onto them; union, which takes any number of operands,
remaps the stored grids and marks the cells of all other operands in one
membership pass; and _grouped, for the expression evaluator, takes the
intersection or difference of the unions of two groups of cells in one
membership pass whose weights tell the groups apart. An op result is the
set of kept atoms, stored as that grid trimmed to the cuts its atoms use;
its columns are the kept atoms in C order. grid_atoms yields every atom
with one float inside it; it serves tests and tracing, not the library,
and fails on an atom that holds no float.

The same grid answers point membership (contains_points, one row of it for
contains_point: binary search per axis, then a gather) and yields a short
disjoint box cover of a complex (_merged_index_boxes: runs of kept atoms
joined axis by axis), which the Monte Carlo kernels loop over, not the cells.
"""

from __future__ import annotations

import functools
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


class GridTooLarge(ValueError):
    """An endpoint grid would pass the allocation budget."""


_GRID_BUDGET = 1 << 28  # float64 values (2 GiB): of a grid's difference array, or of a sample


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

    def contains(self, x: Sequence[float]) -> bool:
        if len(x) != len(self.factors):
            raise DimensionMismatch(f"point has {len(x)} coordinates, cell has {len(self.factors)}")
        return all(f.contains(v) for f, v in zip(self.factors, x))

    def __str__(self) -> str:
        return " x ".join(str(f) for f in self.factors) if self.factors else "R^0"


@dataclass(frozen=True, init=False, eq=False, repr=False)
class BoxComplex:
    """A finite disjoint union of cells in a fixed ambient dimension, stored
    as read-only columns: ends float64[n,d,2] holds (lo, hi) and closed
    bool[n,d,2] (lo_closed, hi_closed). .cells is built on first read.

    A complex also keeps its endpoint grid (cuts and membership grid) once
    one is built for it. A result of a boolean op is stored as that grid
    alone, and its columns are built from it on first read.

    The raw constructor trusts the caller on pairwise disjointness; use
    canonicalize() to build safely from arbitrary overlapping cells.
    """

    ambient_dim: int

    def __init__(self, ambient_dim: int, cells: Iterable[Cell] = ()):
        cells = tuple(cells)
        for c in cells:
            if c.ambient_dim != ambient_dim:
                raise DimensionMismatch(
                    f"cell of dimension {c.ambient_dim} in complex of dimension {ambient_dim}")
        flat = [v for c in cells for f in c.factors
                for v in (f.lo, f.hi, f.lo_closed, f.hi_closed)]
        arr = np.array(flat, dtype=np.float64).reshape(len(cells), int(ambient_dim), 4)
        ends, closed = arr[..., :2], arr[..., 2:] == 1.0
        ends.flags.writeable = closed.flags.writeable = False
        self.__dict__.update(ambient_dim=int(ambient_dim), ends=ends, closed=closed,
                             cells=cells)

    @functools.cached_property
    def ends(self) -> np.ndarray:
        return self._columns_from_grid()[0]

    @functools.cached_property
    def closed(self) -> np.ndarray:
        return self._columns_from_grid()[1]

    def _columns_from_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """The kept atoms of the stored grid, one cell each, in C order."""
        cuts, keep = self.__dict__["_grid"]
        idx = np.argwhere(keep)
        ends, closed = _index_boxes_to_columns(cuts, idx, idx + 1)
        ends.flags.writeable = closed.flags.writeable = False
        self.__dict__.update(ends=ends, closed=closed)
        return ends, closed

    @functools.cached_property
    def cells(self) -> tuple[Cell, ...]:
        shared = {}  # equal factors share one Interval; copysign tells -0.0 from 0.0

        def factor(lo, hi, lo_c, hi_c):
            key = (lo, hi, lo_c, hi_c, math.copysign(1.0, lo), math.copysign(1.0, hi))
            return shared.get(key) or shared.setdefault(key, Interval(lo, hi, lo_c, hi_c))
        return tuple(Cell(factor(*lo_hi, *flags) for lo_hi, flags in zip(e.tolist(), c.tolist()))
                     for e, c in zip(self.ends, self.closed))

    def __eq__(self, other):
        if not isinstance(other, BoxComplex):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and np.array_equal(self.ends, other.ends)
                and np.array_equal(self.closed, other.closed))

    def __hash__(self) -> int:  # -0.0 + 0.0 is 0.0, so equal columns hash alike
        return hash((self.ambient_dim, (self.ends + 0.0).tobytes(), self.closed.tobytes()))

    def __repr__(self) -> str:
        return (f"BoxComplex(ambient_dim={self.ambient_dim!r}, ends={self.ends!r}, "
                f"closed={self.closed!r})")

    @property
    def is_empty(self) -> bool:
        return len(self.ends) == 0

    @property
    def is_bounded(self) -> bool:
        return bool(np.isfinite(self.ends).all())

    @property
    def dim(self) -> int | float:
        """Max cell dimension (factors with lo != hi); -inf for the empty set."""
        dims = (self.ends[..., 0] != self.ends[..., 1]).sum(axis=1)
        return int(dims.max()) if len(dims) else -_INF

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


def _complex(ambient_dim: int, ends: np.ndarray, closed: np.ndarray) -> BoxComplex:
    """The complex stored as these columns, which become read-only."""
    a = BoxComplex.__new__(BoxComplex)
    ends.flags.writeable = closed.flags.writeable = False
    a.__dict__.update(ambient_dim=ambient_dim, ends=ends, closed=closed)
    return a


def from_cell(cell: Cell) -> BoxComplex:
    return BoxComplex(cell.ambient_dim, (cell,))


def _grid_axes(*axis_values: Sequence[np.ndarray]) -> list[np.ndarray]:
    """Per axis, the sorted distinct finite values (the cuts) of one or more
    lists of per-axis value arrays, taken in order.

    Of two equal values (0.0 and -0.0) the one met first is kept: a stable
    sort leaves it first among its equals.
    """
    cuts = []
    for vs in zip(*axis_values):
        v = np.concatenate(vs)
        v = np.sort(v[np.isfinite(v)], kind="stable")
        first = np.ones(len(v), dtype=bool)
        first[1:] = v[1:] != v[:-1]
        cuts.append(v[first])
    return cuts


def _axis_endpoints(ends: np.ndarray) -> np.ndarray:
    """Row j: the endpoints of every cell of the columns on axis j, in cell
    order."""
    return ends.transpose(1, 0, 2).reshape(ends.shape[1], 2 * len(ends))


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
    axes = []
    for c in _grid_axes(_axis_endpoints(BoxComplex(ambient_dim, cells).ends)):
        idx = np.arange(2 * len(c) + 1)[:, None]  # every atom of the axis
        ends, closed = _index_boxes_to_columns([c], idx, idx + 1)
        atoms = [Interval(*e, *f) for (e,), (f,) in zip(ends.tolist(), closed.tolist())]
        axes.append([(iv, _representative(iv)) for iv in atoms])
    for combo in itertools.product(*axes):
        yield Cell(iv for iv, _ in combo), tuple(r for _, r in combo)


def _membership_grid(ends: np.ndarray, closed: np.ndarray, cuts: Sequence[np.ndarray],
                     weight: np.ndarray | None = None) -> np.ndarray:
    """Boolean array over the atom grid: atom in union(cells)? With weight,
    one float per cell, the float array of the summed weights of the cells
    over each atom instead.

    Every factor of a cell covers one contiguous block of atom indices on
    its axis, found by binary search among the cuts, so a cell covers one
    box of the grid. Each box adds +-1 (+-its weight) at its 2^d corners of
    a difference array, all corners in one bincount; prefix sums along
    every axis then count the cells over each atom. Every entry of the
    difference array and of each prefix sum, and every partial sum that
    bincount or cumsum forms, takes 0 or +-w from each cell of weight w: so
    with integer weights summing to at most 2^53 all of them are exact.
    """
    shape = tuple(2 * len(c) + 1 for c in cuts)
    n, d = ends.shape[:2]
    if n == 0:
        return np.zeros(shape, dtype=bool)
    # block [start, stop) of each factor: lo on cut i opens at 2i+1 when
    # closed, else 2i+2; hi on cut i ends at 2i+2 when closed, else 2i+1
    pos = np.empty((n, d, 2), dtype=np.intp)
    for j, c in enumerate(cuts):
        pos[:, j] = np.searchsorted(c, ends[:, j])
    bounds = 2 * pos + np.where(closed, (1, 2), (2, 1))
    bounds[..., 0][ends[..., 0] == -_INF] = 0
    corners = np.array(list(itertools.product((0, 1), repeat=d)), dtype=np.intp).reshape(2 ** d, d)
    sign = np.where(corners.sum(axis=1) % 2, -1.0, 1.0)  # what each corner adds
    diff_shape = tuple(s + 1 for s in shape)
    strides = np.array([math.prod(diff_shape[j + 1:]) for j in range(d)], dtype=np.intp)
    flat = bounds[:, np.arange(d), corners] @ strides  # [n, 2^d]: each corner of each box
    w = np.tile(sign, n) if weight is None else np.outer(weight, sign).ravel()
    count = np.bincount(flat.ravel(), w, minlength=math.prod(diff_shape)).reshape(diff_shape)
    for j in range(d):
        np.cumsum(count, axis=j, out=count)
    count = count[(slice(-1),) * d]
    return count > 0 if weight is None else count


def _remap(grid: tuple[list[np.ndarray], np.ndarray], cuts: Sequence[np.ndarray]) -> np.ndarray:
    """A stored membership grid over its own cuts, read over a superset of
    them.

    With l own cuts below a cut x and r at or below it, the point atom of x
    lies in own atom l + r (the point 2l+1 when x is an own cut, else the
    open atom 2l) and the open atom after x in own atom 2r; the ray below
    the first cut lies in atom 0.
    """
    own, mask = grid
    for j, (c, u) in enumerate(zip(own, cuts)):
        if len(c) < len(u):
            lo, hi = c.searchsorted(u, "left"), c.searchsorted(u, "right")
            m = np.zeros(2 * len(u) + 1, dtype=np.intp)
            m[1::2], m[2::2] = lo + hi, 2 * hi
            mask = mask.take(m, axis=j)
    return mask


def _common_cuts(complexes: Sequence[BoxComplex],
                 axis_values: Sequence[Sequence[np.ndarray]]) -> list[np.ndarray]:
    """The cuts of the common endpoint grid of the complexes, merged by
    _grid_axes from one list of per-axis values each (their cuts or their
    raw endpoints; a single list must already be cuts).

    Raises DimensionMismatch on operands of different ambient dimensions,
    and GridTooLarge when the common grid's difference array would pass
    _GRID_BUDGET = 2^28 cells (no own grid is larger). The largest grid of
    the tests and the benchmark, 17 x 17 x 17 atoms, needs 18^3 = 5832.
    """
    d = complexes[0].ambient_dim
    for b in complexes[1:]:
        if b.ambient_dim != d:
            raise DimensionMismatch(f"{d} vs {b.ambient_dim}")
    cuts = axis_values[0] if len(axis_values) == 1 else _grid_axes(*axis_values)
    if not _within_budget(cuts):
        shape = (2 * len(c) + 1 for c in cuts)
        raise GridTooLarge(f"an endpoint grid of {' x '.join(map(str, shape))} atoms "
                           f"passes the budget of {_GRID_BUDGET} cells")
    return cuts


def _within_budget(cuts: Sequence[np.ndarray]) -> bool:
    """Whether the grid's difference array stays within _GRID_BUDGET cells."""
    return math.prod(2 * len(c) + 2 for c in cuts) <= _GRID_BUDGET


def _grids(*complexes: BoxComplex) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The cuts of the common endpoint grid of the complexes, and the
    membership grid of each over it.

    Each complex's own grid is remapped onto the common cuts. A complex
    without a stored grid gets its own built from its columns and keeps it.
    _common_cuts checks the operands before any grid is built or remapped.
    """
    stored = [a.__dict__.get("_grid") for a in complexes]
    own_cuts = [_grid_axes(_axis_endpoints(a.ends)) if g is None else g[0]
                for a, g in zip(complexes, stored)]
    cuts = _common_cuts(complexes, own_cuts)
    grids = []
    for a, g, c in zip(complexes, stored, own_cuts):
        if g is None:
            g = _store_grid(a, c, _membership_grid(a.ends, a.closed, c))
        grids.append(_remap(g, cuts))
    return cuts, grids


def _store_grid(a: BoxComplex, cuts: list[np.ndarray],
                mask: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Keep (cuts, mask), made read-only, as a's grid."""
    for c in cuts:
        c.flags.writeable = False
    mask = np.asarray(mask)  # in R^0 a ufunc gives a scalar, not a 0-d array
    mask.flags.writeable = False
    a.__dict__["_grid"] = (cuts, mask)
    return cuts, mask


def _build_from_grid(cuts: Sequence[np.ndarray], keep: np.ndarray) -> BoxComplex:
    """The kept atoms, one cell each, in C order of the grid, stored as the
    grid trimmed to the cuts they use: cut i stays when the projection of
    keep on its axis holds atom 2i, 2i+1 or 2i+2. Every atom the trim merges
    is empty, so the trimmed grid is the one the result's own columns give.
    """
    d = len(cuts)
    trimmed = []
    for j, c in enumerate(cuts):
        proj = keep.any(axis=tuple(k for k in range(d) if k != j))
        used = proj[:-1:2] | proj[1::2] | proj[2::2]
        trimmed.append(c[used])
        if not used.all():
            keep = keep.take(np.flatnonzero(np.append(True, np.repeat(used, 2))), axis=j)
    a = BoxComplex.__new__(BoxComplex)
    a.__dict__["ambient_dim"] = d
    _store_grid(a, trimmed, keep)
    return a


def canonicalize(raw: Iterable[Cell], ambient_dim: int | None = None) -> BoxComplex:
    """Grid-atom decomposition of a union of possibly overlapping cells."""
    cells = list(raw)
    if ambient_dim is None:
        if not cells:
            raise ValueError("ambient_dim required for empty input")
        ambient_dim = cells[0].ambient_dim
    cuts, (grid,) = _grids(BoxComplex(ambient_dim, cells))
    return _build_from_grid(cuts, grid)


def contains_point(a: BoxComplex, x: Sequence[float]) -> bool:
    """Whether x lies in a: contains_points on the one row x. Like every
    grid consumer it builds a's membership grid if a has none stored, and
    keeps it on a; GridTooLarge where that grid passes _GRID_BUDGET."""
    if len(x) != a.ambient_dim:
        raise DimensionMismatch(f"point has {len(x)} coordinates, ambient is {a.ambient_dim}")
    return bool(contains_points(a, [x])[0])


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
    cuts, (grid,) = _grids(a)
    finite = np.ones(len(pts), dtype=bool)
    for x in pts.T:  # a column at a time: NumPy reduces a short row slowly
        finite &= np.isfinite(x)
    return grid[_atom_index(cuts, pts)] & finite


def _atom_index(cuts: Sequence[np.ndarray], pts: np.ndarray) -> tuple[np.ndarray, ...]:
    """Per axis, the index of the grid atom holding each row of pts: with i
    cuts below x, x on cut i is in the point atom 2i+1, else in the open atom
    2i. NaN sorts past every cut, into the last ray."""
    idx = []
    for j, c in enumerate(cuts):
        x = pts[:, j]
        i = np.searchsorted(c, x)
        idx.append(2 * i + (np.append(c, np.nan)[i] == x))
    return tuple(idx)


def _merged_index_boxes(a: BoxComplex) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """A disjoint box cover of a, read off its membership grid, as (cuts,
    start, stop): box b covers atom indices [start[b, j], stop[b, j]) on axis
    j of the grid with those cuts (see _index_boxes_to_columns).

    The kept atoms are taken in runs along the last axis; then along each
    earlier axis in turn, boxes that agree on every other axis and follow
    each other on this one are joined. For a complex in atom form (every
    result of canonicalize and the boolean ops) k never exceeds the number
    of cells. The boxes are built once and kept on a.
    """
    boxes = a.__dict__.get("_boxes")
    if boxes is None:
        boxes = _merge_runs(a)
        boxes[1].flags.writeable = boxes[2].flags.writeable = False
        a.__dict__["_boxes"] = boxes
    return boxes


def _merge_runs(a: BoxComplex) -> tuple[list[np.ndarray], np.ndarray, np.ndarray]:
    """The boxes of _merged_index_boxes, built afresh."""
    d = a.ambient_dim
    if d == 0 or a.is_empty:  # no box, or all of R^0 (a single point)
        k = 0 if a.is_empty else 1
        return [np.empty(0)] * d, np.zeros((k, d), dtype=np.intp), np.zeros((k, d), dtype=np.intp)
    cuts, (grid,) = _grids(a)

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
    return cuts, start, stop


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


def union(a: BoxComplex, b: BoxComplex, *more: BoxComplex) -> BoxComplex:
    """The union of two or more complexes, on one endpoint grid.

    The common cuts are merged in operand order from each operand's stored
    cuts or, without a stored grid, its raw endpoints. Stored grids are
    remapped onto them; the cells of all other operands are marked together
    in one membership grid over their concatenated columns. A union trims
    no cut (each operand's cut borders an atom of that operand), so the
    result equals a left fold of binary unions, cuts and atom order alike.
    """
    ops = (a, b, *more)
    stored = [x.__dict__.get("_grid") for x in ops]
    cuts = _common_cuts(ops, [_axis_endpoints(x.ends) if g is None else g[0]
                              for x, g in zip(ops, stored)])
    masks = [_remap(g, cuts) for g in stored if g is not None]
    raw = [x for x, g in zip(ops, stored) if g is None]
    if raw:
        masks.append(_membership_grid(np.concatenate([x.ends for x in raw]),
                                      np.concatenate([x.closed for x in raw]), cuts))
    return _build_from_grid(cuts, functools.reduce(np.logical_or, masks))


def intersect(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cuts, (ma, mb) = _grids(a, b)
    return _build_from_grid(cuts, ma & mb)


def difference(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cuts, (ma, mb) = _grids(a, b)
    return _build_from_grid(cuts, ma & ~mb)


def _grouped(ends: np.ndarray, closed: np.ndarray, n_left: int,
             op: str) -> BoxComplex | None:
    """intersect or difference (op) of the union of the first n_left cells
    of the columns and the union of the others, in one membership pass on
    the cuts of all the columns, taken in order.

    The cells on the left weigh 1 and those on the right n_left + 1, so an
    atom under l cells on the left and r on the right sums to
    l + (n_left + 1) r: it is in the right union when the sum passes n_left,
    and in the left one when the sum is no multiple of n_left + 1. A union
    trims no cut, so op(union(left), union(right)) meets the same cuts, the
    first met of 0.0 and -0.0 included, and the same mask. None where the
    grid would pass _GRID_BUDGET or the summed weight 2^53.
    """
    cuts = _grid_axes(_axis_endpoints(ends))
    if not _within_budget(cuts) or (n_left + 1) * (len(ends) - n_left + 1) > 1 << 53:
        return None
    weight = np.full(len(ends), n_left + 1.0)
    weight[:n_left] = 1.0
    count = _membership_grid(ends, closed, cuts, weight)
    right = count > n_left
    if op == "difference":
        return _build_from_grid(cuts, (count > 0) & ~right)
    return _build_from_grid(cuts, right & (count.astype(np.int64) % (n_left + 1) > 0))


def complement(a: BoxComplex) -> BoxComplex:
    """Complement relative to R^d; generally unbounded."""
    cuts, (grid,) = _grids(a)
    return _build_from_grid(cuts, ~grid)


def cartesian_product(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    n, m = len(a.ends), len(b.ends)  # cells (a_0 x b_0), (a_0 x b_1), ..., (a_1 x b_0), ...
    ends = np.concatenate([np.repeat(a.ends, m, 0), np.tile(b.ends, (n, 1, 1))], axis=1)
    closed = np.concatenate([np.repeat(a.closed, m, 0), np.tile(b.closed, (n, 1, 1))], axis=1)
    return _complex(a.ambient_dim + b.ambient_dim, ends, closed)


def _checked(ambient_dim: int, ends: np.ndarray, closed: np.ndarray) -> BoxComplex:
    """The complex of mapped endpoints. A factor that is no longer an
    Interval (NaN, an open end collapsed, a closed end at +-inf) is rebuilt
    as one, the first such in cell order, to raise Interval's ValueError."""
    lo, hi = ends[..., 0], ends[..., 1]
    bad = ~(lo <= hi) | ((lo == hi) & ~closed.all(-1)) | (np.isinf(ends) & closed).any(-1)
    if bad.any():
        Interval(*ends[bad][0].tolist(), *closed[bad][0].tolist())
    return _complex(ambient_dim, ends, closed)


def translate(a: BoxComplex, v: Sequence[float]) -> BoxComplex:
    shift = np.asarray(v, dtype=np.float64)
    if not np.isfinite(shift).all():
        raise ValueError(f"translate vector v must be finite, got {tuple(v)}")
    if len(v) != a.ambient_dim:
        raise DimensionMismatch(f"vector has {len(v)} coordinates, ambient is {a.ambient_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        ends = a.ends + shift[:, None]
    return _checked(a.ambient_dim, ends, a.closed)


def scale(a: BoxComplex, beta: float) -> BoxComplex:
    if not math.isfinite(beta):
        raise ValueError(f"scale factor beta must be finite, got {beta}")
    if not (beta > 0):
        raise NonpositiveScale(f"scale factor must be > 0, got {beta}")
    with np.errstate(over="ignore", invalid="ignore"):
        ends = a.ends * float(beta)
    return _checked(a.ambient_dim, ends, a.closed)


def axis_permute(a: BoxComplex, sigma: Sequence[int]) -> BoxComplex:
    """New axis j carries what was axis sigma[j]."""
    if sorted(sigma) != list(range(a.ambient_dim)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of 0..{a.ambient_dim - 1}")
    return _complex(a.ambient_dim, a.ends[:, list(sigma)], a.closed[:, list(sigma)])


def reflect(a: BoxComplex, axis: int) -> BoxComplex:
    """Negate one coordinate; endpoint flags swap sides."""
    if not (0 <= axis < a.ambient_dim):
        raise ValueError(f"axis {axis} out of range for dimension {a.ambient_dim}")
    ends, closed = a.ends.copy(), a.closed.copy()
    ends[:, axis] = -a.ends[:, axis, ::-1]
    closed[:, axis] = a.closed[:, axis, ::-1]
    return _complex(a.ambient_dim, ends, closed)


def dimension(a: BoxComplex) -> int | float:
    return a.dim


def is_subset(a: BoxComplex, b: BoxComplex) -> bool:
    _, (ma, mb) = _grids(a, b)
    return not bool(np.any(ma & ~mb))


def set_equal(a: BoxComplex, b: BoxComplex) -> bool:
    _, (ma, mb) = _grids(a, b)
    return not bool(np.any(ma ^ mb))


def bounding_box(a: BoxComplex) -> tuple[list[float], list[float]]:
    """Per-axis (lo, hi) hull of a nonempty bounded complex."""
    if a.is_empty:
        raise ValueError("empty complex has no bounding box")
    if not a.is_bounded:
        raise UnboundedSet("bounding box requires a bounded complex")
    lo, hi, axes = a.ends[..., 0], a.ends[..., 1], np.arange(a.ambient_dim)
    # argmin/argmax take the first extreme met: of 0.0 and -0.0, the first in cell order
    return lo[lo.argmin(axis=0), axes].tolist(), hi[hi.argmax(axis=0), axes].tolist()
