"""Axis-aligned generalized boxes and their finite disjoint unions.

A Cell is a product of one-dimensional intervals whose endpoints carry
independent open/closed flags (points and infinite rays included). A
BoxComplex is a finite pairwise-disjoint family of cells in a common
ambient dimension, stored as the columns of their endpoints and flags;
Cell objects are built from these only when .cells is read. The class is
closed under union, intersection, difference, complement and cartesian
product, all computed exactly on the endpoint floats: endpoints are
compared by bit equality, never snapped.

Boolean operations work on the endpoint grid: every axis is cut at every
finite endpoint occurring on it, which splits the axis into point atoms
and open atoms (the gaps between cuts and the two rays). Their products,
the grid atoms, each lie entirely inside or outside every input cell. Each
factor of a cell covers one contiguous block of atom indices on its axis,
found by binary search among the cuts, so each cell covers one box of the
index grid. The membership grid of a cell list is the union of those
boxes, marked in a difference array and read off by prefix sums; no point
is evaluated. A result is the set of kept atoms, written as columns in C
order of the grid. _grids is the one builder of endpoint grids: it gives the
cuts common to several complexes and the membership grid of each over them.
grid_atoms yields every atom with one float inside it; it serves tests and
tracing, not the library, and fails on an atom that holds no float.

The same grid answers bulk point membership (contains_points: binary search
per axis, then a gather) and yields a short disjoint box cover of a complex
(_merged_boxes: runs of kept atoms joined axis by axis), which the Monte
Carlo kernels loop over instead of the atom cells.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
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


@dataclass(frozen=True, init=False, eq=False)
class BoxComplex:
    """A finite disjoint union of cells in a fixed ambient dimension, stored
    as read-only columns: ends float64[n,d,2] holds (lo, hi) and closed
    bool[n,d,2] (lo_closed, hi_closed). .cells is built on first read.

    The raw constructor trusts the caller on pairwise disjointness; use
    canonicalize() to build safely from arbitrary overlapping cells.
    """

    ambient_dim: int
    ends: np.ndarray
    closed: np.ndarray

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

    @cached_property
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
    for c in _grid_axes(BoxComplex(ambient_dim, cells).ends):
        idx = np.arange(2 * len(c) + 1)[:, None]  # every atom of the axis
        ends, closed = _index_boxes_to_columns([c], idx, idx + 1)
        atoms = [Interval(*e, *f) for (e,), (f,) in zip(ends.tolist(), closed.tolist())]
        axes.append([(iv, _representative(iv)) for iv in atoms])
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


def _grids(*complexes: BoxComplex) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The cuts of the common endpoint grid of the complexes, and the
    membership grid of each over it."""
    d = complexes[0].ambient_dim
    for b in complexes[1:]:
        if b.ambient_dim != d:
            raise DimensionMismatch(f"{d} vs {b.ambient_dim}")
    cuts = _grid_axes(np.concatenate([a.ends for a in complexes]))
    return cuts, [_membership_grid(a.ends, a.closed, cuts) for a in complexes]


def _build_from_grid(cuts: Sequence[np.ndarray], keep: np.ndarray) -> BoxComplex:
    """The kept atoms, one cell each, in C order of the grid."""
    idx = np.argwhere(keep)
    return _complex(len(cuts), *_index_boxes_to_columns(cuts, idx, idx + 1))


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
    cuts, (grid,) = _grids(a)
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
    if d == 0 or a.is_empty:  # empty, or all of R^0 (a single point)
        return a.ends[:1], a.closed[:1]
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


def union(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cuts, (ma, mb) = _grids(a, b)
    return _build_from_grid(cuts, ma | mb)


def intersect(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cuts, (ma, mb) = _grids(a, b)
    return _build_from_grid(cuts, ma & mb)


def difference(a: BoxComplex, b: BoxComplex) -> BoxComplex:
    cuts, (ma, mb) = _grids(a, b)
    return _build_from_grid(cuts, ma & ~mb)


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
    if len(v) != a.ambient_dim:
        raise DimensionMismatch(f"vector has {len(v)} coordinates, ambient is {a.ambient_dim}")
    with np.errstate(over="ignore", invalid="ignore"):
        ends = a.ends + np.asarray(v, dtype=np.float64)[:, None]
    return _checked(a.ambient_dim, ends, a.closed)


def scale(a: BoxComplex, beta: float) -> BoxComplex:
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
