"""Monte Carlo estimates of intrinsic volumes from their integral form.

The top volume mu_d is the integral of the membership indicator over
points, estimated by uniform sampling of the closed bounding box. The
codimension-one volume mu_{d-1} is the integral over affine lines of the
Euler characteristic of the line slice, weighted by the Grassmannian
normalization gamma(G_{d,1}); lines are drawn as a uniform sphere
direction u plus a base point uniform on a (d-1)-ball inside u-perp that
covers the projection of the bounding box. Misses contribute chi = 0 and
the ball volume enters the estimator, so the covering slack costs variance
only, not bias. For d <= 3 a line is a closed form in a few uniforms: none
in 1-D, an angle and an offset in 2-D, and in 3-D a uniform height and
angle on the sphere (Archimedes' theorem) and a polar point of the disk.
For d >= 4 it is normalized Box-Muller Gaussians and a Householder basis
of u-perp.

These estimators never touch the exact measure path: they see sets purely
through membership and slicing, which is what makes them usable as an
independent check of the exact coefficients, including under rotations the
exact path cannot represent.

Both kernels read the endpoint grid of the set, vectorized over samples:
membership is boxset.contains_points, and every line-slice reader
(slice_line, slice_euler and the estimator's chi) takes its t-intervals
from one kernel over the merged boxes of the grid (maximal runs of kept
atoms joined axis by axis, built once per complex and kept on it), so the
Python loop runs over a few boxes rather than over every atom cell. Per
axis the kernel divides once per cut and line into a t table, and each box
reads its two rows of the table per axis. Its one rule: t's are rounded, or
clamped to +-float max; the axes are combined by max (lower ends) and min
(upper ends), a tie going to the open end; a zero t carries no sign, and
slice_line returns it as +0.0.

The estimators stream their samples in blocks of at most _BLOCK (4096)
indices; codim-1 blocks are fewer lines when their t tables would pass
_TABLE t's (many cuts). A block draws its points, or its lines, and
locates or slices them at once, so memory is bounded by one block plus,
for mu_{d-1}, one byte of chi per sample (eight bytes for a set of 128 or
more merged boxes) and the two float arrays of its mean and std.

Randomness comes from the counter-based stream in rng.py: sample i uses
counters [i*stride, (i+1)*stride), so results are reproducible and
partition-independent for a fixed (n_samples, seed). The stride is the
number of uniforms a sample uses: d for a point, and for a line 0, 2 and 4
in 1-, 2- and 3-D, 2 ceil(d/2) + 2 ceil((d-1)/2) + 1 from 4-D on.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import rng
from .boxset import (BoxComplex, Interval, UnboundedSet, _merged_index_boxes,
                     bounding_box, contains_points)

_INF = math.inf
_MAX = sys.float_info.max


@dataclass(frozen=True)
class CroftonEstimate:
    index: int
    estimate: float
    std_error: float
    n_samples: int
    seed: int

    def to_json(self) -> dict:
        return asdict(self)


def unit_ball_volume(i: int) -> float:
    """Volume of the unit ball in i dimensions: pi^(i/2) / Gamma(i/2 + 1)."""
    if i < 0:
        raise ValueError(f"dimension must be a natural number, got {i}")
    return math.pi ** (i / 2.0) / math.gamma(i / 2.0 + 1.0)


def grassmannian_norm(n: int, m: int) -> float:
    """Total mass C(n,m) * b_n / (b_m * b_{n-m}) of the m-subspaces of R^n,
    with b_i the unit i-ball volume."""
    if not (0 <= m <= n):
        raise ValueError(f"need 0 <= m <= n, got n={n}, m={m}")
    return math.comb(n, m) * unit_ball_volume(n) / (
        unit_ball_volume(m) * unit_ball_volume(n - m))


# Samples per block: at most _BLOCK, and for lines few enough that the
# block's t tables, (cuts + 2) t's per line and axis, hold at most _TABLE t's
# (16 MB) however many lines and cuts there are.
_BLOCK = 4096
_TABLE = 1 << 21


def _box_slices(boxes: tuple[list[np.ndarray], np.ndarray, np.ndarray], p: np.ndarray,
                u: np.ndarray) -> Iterator[tuple[np.ndarray, ...]]:
    """The t-intervals that the index boxes of _merged_index_boxes cut from
    many lines {p[i] + t*u[i]}: per box, arrays (lo, hi, lo_open, hi_open,
    empty). Its tables grow with the lines, so the estimator passes them in
    blocks (see _BLOCK).

    Per axis j, one table holds t = (c - p_j)/u_j for every cut c, with
    -inf and +inf around them, so a box end reads a row of it: one division
    per cut, not per box end. A t of a finite c past the float range is
    clamped to +-float max and keeps its flag. Where u_j = 0 the axis is a
    membership test of p_j instead. The lower end of a box is the largest
    per-axis lower t; it is open when an axis that attains it is open there,
    so at an equal t the open end is the stricter one. The upper end is the
    smallest upper t, by the same rule. A zero t carries no sign.
    """
    cuts, start, stop = boxes
    d = p.shape[1]
    ends, tables = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(d):
            ends.append(np.concatenate(([-_INF], cuts[j], [_INF])))
            t = ends[j][:, None] - p[:, j]
            t /= u[:, j]
            np.clip(t[1:-1], -_MAX, _MAX, out=t[1:-1])
            tables.append(t)
    pos = [v > 0 for v in u.T]
    neg = [~m for m in pos]
    # per axis with zero components: the lines that lie in one of its planes
    flat = [None if m.all() else ~m for m in (v != 0.0 for v in u.T)]
    # box b spans table rows row_lo[b, j] .. row_hi[b, j], closed per the flags
    row_lo, row_hi = ((start + 1) // 2).tolist(), ((stop + 1) // 2).tolist()
    lo_closed, hi_closed = (start % 2 == 1).tolist(), (stop % 2 == 0).tolist()
    for r_lo, r_hi, c_lo, c_hi in zip(row_lo, row_hi, lo_closed, hi_closed):
        lows, low_open, highs, high_open = [], [], [], []
        alive = None
        for j in range(d):
            # ta <= tb where u_j > 0 and ta >= tb where u_j < 0: the lower t is the smaller
            ta, tb = tables[j][r_lo[j]], tables[j][r_hi[j]]
            lows.append(np.minimum(ta, tb))
            highs.append(np.maximum(ta, tb))
            if c_lo[j] == c_hi[j]:
                o_lo = o_hi = not c_lo[j]
            else:
                o_lo, o_hi = (pos[j] if c_hi[j] else neg[j]), (pos[j] if c_lo[j] else neg[j])
            if flat[j] is not None:
                x, off = p[:, j], flat[j]
                lo, hi = ends[j][r_lo[j]], ends[j][r_hi[j]]
                m = (x >= lo) if c_lo[j] else (x > lo)
                m &= (x <= hi) if c_hi[j] else (x < hi)
                alive = m | ~off if alive is None else alive & (m | ~off)
                lows[j][off], highs[j][off] = -_INF, _INF  # no bound from this axis
                o_lo, o_hi = o_lo | off, o_hi | off
            low_open.append(o_lo)
            high_open.append(o_hi)
        lo, lo_open = _bound(lows, low_open, np.maximum)
        hi, hi_open = _bound(highs, high_open, np.minimum)
        empty = (lo > hi) | ((lo == hi) & (lo_open | hi_open))
        if alive is not None:
            empty |= ~alive
        yield lo, hi, lo_open, hi_open, empty


def _bound(ts: list[np.ndarray], opens: list, pick) -> tuple[np.ndarray, np.ndarray]:
    """One end of each line's t-interval: pick (np.maximum for a lower end,
    np.minimum for an upper one) over the axes' t's, open where an axis that
    attains it is open. An open flag is a bool for all lines or an array."""
    v = ts[0]
    for t in ts[1:]:
        v = pick(v, t)
    if all(o is True for o in opens):
        return v, np.ones(len(v), dtype=bool)
    is_open = np.zeros(len(v), dtype=bool)
    for t, o in zip(ts, opens):
        if o is True:
            is_open |= t == v
        elif o is not False:
            is_open |= (t == v) & o
    return v, is_open


def _one_line(a: BoxComplex, p: Sequence[float], u: Sequence[float]) -> tuple[np.ndarray, ...]:
    """p and u as 1 x d arrays, once checked: d finite coordinates, |u| = 1."""
    d = a.ambient_dim
    if len(p) != d or len(u) != d:
        raise ValueError(f"p and u must have {d} coordinates")
    if not all(map(math.isfinite, (*p, *u))):
        raise ValueError("p and u must be finite")
    nrm = math.sqrt(math.fsum(c * c for c in u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |u| = {nrm}")
    return np.array([p], dtype=float), np.array([u], dtype=float)


def slice_line(a: BoxComplex, p: Sequence[float], u: Sequence[float]) -> list[Interval]:
    """Intersection of a with the line {p + t*u}, as disjoint t-intervals.

    slice_line, slice_euler and the Crofton estimator share one kernel,
    _box_slices, over the merged boxes of a: each box contributes at most
    one t-interval. The pieces are disjoint because the boxes are, up to
    rounding: the t's of disjoint boxes far along a line can round to one
    float, so pieces that meet or overlap are merged into their union,
    sorted by position. A zero t is +0.0.
    """
    pieces = [Interval(lo[0] + 0.0, hi[0] + 0.0, not lo_open[0], not hi_open[0])
              for lo, hi, lo_open, hi_open, empty
              in _box_slices(_merged_index_boxes(a), *_one_line(a, p, u))
              if not empty[0]]
    pieces.sort(key=lambda iv: (iv.lo, not iv.lo_closed))
    merged: list[Interval] = []
    for iv in pieces:
        if merged:
            cur = merged[-1]
            if iv.lo < cur.hi or (iv.lo == cur.hi and (iv.lo_closed or cur.hi_closed)):
                hi, hi_closed = max((cur.hi, cur.hi_closed), (iv.hi, iv.hi_closed))
                merged[-1] = Interval(cur.lo, hi, cur.lo_closed, hi_closed)
                continue
        merged.append(iv)
    return merged


def slice_euler(a: BoxComplex, p: Sequence[float], u: Sequence[float]) -> int:
    """Euler characteristic of the slice of a by the line {p + t*u}, summed
    over its box pieces: chi is additive, so merging them changes nothing."""
    return int(_slice_chi_vec(a, *_one_line(a, p, u))[0])


def _slice_chi_vec(a: BoxComplex, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized chi of the slices of a by many lines {p[i] + t*u[i]}:
    lo_closed + hi_closed - 1 per nonempty box slice, summed over the
    disjoint merged boxes. The lines go through _box_slices in one pass."""
    chi = np.zeros(len(p), dtype=np.int64)
    for _, _, lo_open, hi_open, empty in _box_slices(_merged_index_boxes(a), p, u):
        box_chi = 1 - lo_open.view(np.int8) - hi_open.view(np.int8)
        box_chi *= ~empty
        chi += box_chi
    return chi


def _require_target(a: BoxComplex) -> None:
    if a.is_empty:
        raise ValueError("estimator requires a nonempty set")
    if not a.is_bounded:
        raise UnboundedSet("estimator requires a bounded set")


def _sample_range(n_samples: int, sample_range: tuple[int, int] | None) -> tuple[int, int]:
    """The indices (i0, i1) of sample_range (default: all n_samples), once
    checked to lie in [0, n_samples) and to be nonempty."""
    if n_samples < 1:
        raise ValueError("need at least one sample")
    i0, i1 = sample_range if sample_range is not None else (0, n_samples)
    if not 0 <= i0 < i1 <= n_samples:
        raise ValueError(f"sample_range must satisfy 0 <= i0 < i1 <= n_samples = {n_samples}, "
                         f"got ({i0}, {i1})")
    return i0, i1


def estimate_volume(a: BoxComplex, n_samples: int, seed: int,
                    sample_range: tuple[int, int] | None = None) -> CroftonEstimate:
    """Estimate mu_d: bounding-box volume times the hit fraction of uniform
    samples. The standard error is the binomial one, scaled by the volume.

    sample_range restricts the estimate to sample indices [i0, i1); the
    default is the full range. Because draws are counter-indexed, disjoint
    ranges can be computed separately and pooled to reproduce a full run.
    """
    _require_target(a)
    i0, i1 = _sample_range(n_samples, sample_range)
    d = a.ambient_dim
    lo, hi = bounding_box(a)
    lo_a = np.asarray(lo)
    wid = np.asarray(hi) - lo_a
    vol = float(np.prod(wid)) if d > 0 else 1.0

    n = i1 - i0
    hits = 0
    for i in range(0, n, _BLOCK):
        idx = np.arange(i0 + i, i0 + min(i + _BLOCK, n), dtype=np.uint64)
        pts = np.empty((len(idx), d))
        for j in range(d):
            pts[:, j] = lo_a[j] + wid[j] * rng.uniforms(seed, idx * np.uint64(d) + np.uint64(j))
        hits += int(np.count_nonzero(contains_points(a, pts)))

    phat = hits / n
    est = vol * phat
    se = vol * math.sqrt(phat * (1.0 - phat) / n)
    return CroftonEstimate(index=d, estimate=est, std_error=se,
                           n_samples=n_samples, seed=seed)


def _gaussian_block(seed: int, base: np.ndarray, n_cols: int) -> np.ndarray:
    """n_cols standard normals per sample via Box-Muller on slots
    base+0, base+1, ... (two uniforms per pair of normals)."""
    n = len(base)
    out = np.empty((n, n_cols))
    for pair in range((n_cols + 1) // 2):
        u1 = rng.uniforms_open(seed, base + np.uint64(2 * pair))
        u2 = rng.uniforms(seed, base + np.uint64(2 * pair + 1))
        r = np.sqrt(-2.0 * np.log(u1))
        w = 2.0 * math.pi * u2
        out[:, 2 * pair] = r * np.cos(w)
        if 2 * pair + 1 < n_cols:
            out[:, 2 * pair + 1] = r * np.sin(w)
    return out


def _unit_rows(g: np.ndarray) -> np.ndarray:
    """Each row of g scaled to unit length; a row of norm below 1e-300 becomes e_0.

    The squares are summed in column order: for up to 7 columns that is the
    sum np.linalg.norm makes, which adds 8 or more pairwise."""
    norms = g[:, 0] * g[:, 0]
    for j in range(1, g.shape[1]):
        norms += g[:, j] * g[:, j]
    np.sqrt(norms, out=norms)
    degen = norms < 1e-300
    norms[degen] = 1.0
    out = g / norms[:, None]
    out[degen] = np.eye(1, g.shape[1])
    return out


def _lines(seed: int, idx: np.ndarray, center: np.ndarray,
           radius: float) -> tuple[np.ndarray, np.ndarray]:
    """The base points p and directions u of the lines of sample indices idx
    (see estimate_codim1): sample i draws from counters [i*stride, (i+1)*stride),
    its uniforms U_0, U_1, ... in order.

    d = 1, stride 0: u = +1 and p = c. The only line is R, and its chi does
    not depend on the direction.
    d = 2, stride 2: theta = 2 pi U_0, u = (cos theta, sin theta) and
    p = c + h (-sin theta, cos theta) with h = R (2 U_1 - 1).
    d = 3, stride 4: z = 2 U_0 - 1 is the height of a uniform point of the
    sphere (Archimedes), so with phi = 2 pi U_1 and rho = sqrt(1 - z^2),
    u = (rho cos phi, rho sin phi, z). The disk point has radius R sqrt(U_2)
    and angle psi = 2 pi U_3 in the basis (-sin phi, cos phi, 0),
    (z cos phi, z sin phi, -rho) of u-perp.
    d >= 4, stride 2 ceil(d/2) + 2 ceil((d-1)/2) + 1: u is d normalized
    Gaussians, and p = c + r y for d - 1 normalized Gaussians y, mapped into
    u-perp by a Householder reflection, with r = R U^(1/(d-1)).
    """
    d = len(center)
    n = len(idx)
    if d == 1:
        return np.tile(center, (n, 1)), np.ones((n, 1))
    if d <= 3:
        base = idx * np.uint64(2 * d - 2)
        uni = [rng.uniforms(seed, base + np.uint64(j)) for j in range(2 * d - 2)]
        w = 2.0 * math.pi * uni[d - 2]  # theta in 2-D, phi in 3-D
        cos, sin = np.cos(w), np.sin(w)
        # p and u are built column by column and returned column-major, so
        # the slice kernel reads each axis contiguously
        if d == 2:
            h = radius * (2.0 * uni[1] - 1.0)
            return (np.stack((center[0] - h * sin, center[1] + h * cos)).T,
                    np.stack((cos, sin)).T)
        z = 2.0 * uni[0] - 1.0
        rho = np.sqrt(1.0 - z * z)
        r = radius * np.sqrt(uni[2])
        psi = 2.0 * math.pi * uni[3]
        a, b = r * np.cos(psi), r * np.sin(psi)
        return (np.stack((center[0] - a * sin + b * (z * cos),
                          center[1] + a * cos + b * (z * sin), center[2] - b * rho)).T,
                np.stack((rho * cos, rho * sin, z)).T)

    k = d - 1
    dir_slots = 2 * ((d + 1) // 2)
    ball_slots = 2 * ((k + 1) // 2)
    base = idx * np.uint64(dir_slots + ball_slots + 1)

    u = _unit_rows(_gaussian_block(seed, base, d))
    # Householder basis of u-perp: v = u + sign(u_d) e_d, h_j = e_j - 2 v_j v / |v|^2
    s = np.where(u[:, d - 1] >= 0.0, 1.0, -1.0)
    v = u.copy()
    v[:, d - 1] += s
    vv = np.einsum("ij,ij->i", v, v)
    gb = _unit_rows(_gaussian_block(seed, base + np.uint64(dir_slots), k))
    t = rng.uniforms(seed, base + np.uint64(dir_slots + ball_slots))
    r = radius * t ** (1.0 / k)
    y = gb * r[:, None]  # coordinates in the u-perp basis
    coef = 2.0 * np.einsum("nk,nk->n", y, v[:, :k]) / vv
    p = center[None, :] + np.concatenate([y, np.zeros((len(idx), 1))], axis=1) - coef[:, None] * v
    return p, u


def estimate_codim1(a: BoxComplex, n_samples: int, seed: int,
                    frame: np.ndarray | None = None,
                    sample_range: tuple[int, int] | None = None) -> CroftonEstimate:
    """Estimate mu_{d-1} by line slicing.

    Per sample: direction u uniform on the sphere, base point uniform on
    the (d-1)-ball of radius R = half the bounding box diagonal, centered
    on the box center, inside u-perp; the sample value is
    gamma(G_{d,1}) * V_perp * chi(slice). Up to 3-D the line is a closed
    form in 2d - 2 uniforms, and from 4-D on it is normalized Gaussians
    and a Householder basis (see _lines).

    frame, when given, must be an orthogonal d x d matrix Q: the estimate
    is then of mu_{d-1}(Q A), computed by drawing lines around the rotated
    center and slicing a along the back-rotated lines. Since the sampling
    ball is rotation-symmetric, this is exactly the estimator run in a
    rotated frame. sample_range is as in estimate_volume.
    """
    _require_target(a)
    d = a.ambient_dim
    if d < 1:
        raise ValueError("codimension-one estimate needs ambient dimension >= 1")
    i0, i1 = _sample_range(n_samples, sample_range)
    lo, hi = bounding_box(a)
    lo_a = np.asarray(lo, dtype=float)
    hi_a = np.asarray(hi, dtype=float)
    center = (lo_a + hi_a) / 2.0
    radius = float(np.linalg.norm(hi_a - lo_a)) / 2.0

    q = None
    if frame is not None:
        q = np.asarray(frame, dtype=float)
        if q.shape != (d, d) or not np.allclose(q @ q.T, np.eye(d), atol=1e-9):
            raise ValueError("frame must be an orthogonal d x d matrix")
        center = q @ center

    boxes = _merged_index_boxes(a)
    size = max(1, min(_BLOCK, _TABLE // max(1, sum(len(c) + 2 for c in boxes[0]))))
    n = i1 - i0
    # a line's chi is a sum of one -1, 0 or 1 per box
    chi = np.empty(n, dtype=np.int8 if len(boxes[1]) < 128 else np.int64)
    for i in range(0, n, size):
        p, u = _lines(seed, np.arange(i0 + i, i0 + min(i + size, n), dtype=np.uint64),
                      center, radius)
        if q is not None:
            p, u = p @ q, u @ q  # row-vector form of Q^T p
        chi[i:i + size] = _slice_chi_vec(a, p, u)

    k = d - 1
    v_perp = unit_ball_volume(k) * radius ** k
    factor = grassmannian_norm(d, 1) * v_perp
    vals = factor * chi
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CroftonEstimate(index=d - 1, estimate=est, std_error=se,
                           n_samples=n_samples, seed=seed)
