"""Monte Carlo estimates of intrinsic volumes from their integral form.

The top volume mu_d is the integral of the membership indicator over
points, estimated by uniform sampling of the closed bounding box. The
codimension-one volume mu_{d-1} is the integral over affine lines of the
Euler characteristic of the line slice, weighted by the Grassmannian
normalization gamma(G_{d,1}); lines are drawn as a uniform sphere
direction u plus a base point uniform on a (d-1)-ball inside u-perp that
covers the projection of the bounding box. Misses contribute chi = 0 and
the ball volume enters the estimator, so the covering slack costs variance
only, not bias.

These estimators never touch the exact measure path: they see sets purely
through membership and slicing, which is what makes them usable as an
independent check of the exact coefficients, including under rotations the
exact path cannot represent.

Both kernels read the endpoint grid of the set, vectorized over samples:
membership is boxset.contains_points, and the slice chi is summed over the
merged boxes of the grid (maximal runs of kept atoms joined axis by axis),
so the Python loop runs over a few boxes rather than over every atom cell.
Along a line, t = (c - p_j)/u_j is monotone in the cut c, so the t-intervals
of adjacent atoms tile that of their box and chi, being additive, is the
same; the one exception is where distinct cuts round to the same t, and
there the box gives the chi of the true segment.

Randomness comes from the counter-based stream in rng.py: sample i uses
counters [i*stride, (i+1)*stride), so results are reproducible and
partition-independent for a fixed (n_samples, seed).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import rng
from .boxset import (BoxComplex, Interval, UnboundedSet, _merged_boxes,
                     bounding_box, contains_points, interval_intersection)
from .measure import mu_interval

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
        return {
            "index": self.index,
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_samples": self.n_samples,
            "seed": self.seed,
        }


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


def _clamped_t(x: float, pj: float, uj: float) -> float:
    """t = (x - pj)/uj; for a finite x, a t past the float range is clamped
    to +-float max, so a closed end stays a closed float end."""
    t = (x - pj) / uj
    return min(max(t, -_MAX), _MAX) if math.isfinite(x) else t


def _map_factor_to_t(f: Interval, pj: float, uj: float) -> Interval | None:
    """The t-set {t : pj + t*uj in f} for uj != 0, as an interval; None
    (empty) when both ends round to one t and either end is open."""
    a = _clamped_t(f.lo, pj, uj)
    b = _clamped_t(f.hi, pj, uj)
    lo_c, hi_c = f.lo_closed, f.hi_closed
    if uj < 0:
        a, b, lo_c, hi_c = b, a, hi_c, lo_c
    if a == b and not (lo_c and hi_c):
        return None
    return Interval(a, b, lo_c, hi_c)


def slice_line(a: BoxComplex, p: Sequence[float], u: Sequence[float]) -> list[Interval]:
    """Intersection of a with the line {p + t*u}, as disjoint t-intervals.

    Each cell contributes at most one t-interval (per-axis constraints
    intersected, flags following the factor flags and the sign of u_j;
    axes with u_j = 0 become membership tests). The per-cell pieces are
    disjoint because the cells are; they are merged into connected
    components sorted by position.
    """
    d = a.ambient_dim
    if len(p) != d or len(u) != d:
        raise ValueError(f"p and u must have {d} coordinates")
    nrm = math.sqrt(math.fsum(c * c for c in u))
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"direction must be a unit vector, |u| = {nrm}")

    pieces: list[Interval] = []
    for cell in a.cells:
        t: Interval | None = Interval(-_INF, _INF, False, False)
        for j, f in enumerate(cell.factors):
            if u[j] == 0.0:
                if not f.contains(p[j]):
                    t = None
                    break
                continue
            ft = _map_factor_to_t(f, p[j], u[j])
            t = None if ft is None else interval_intersection(t, ft)
            if t is None:
                break
        if t is not None:
            pieces.append(t)

    pieces.sort(key=lambda iv: (iv.lo, not iv.lo_closed))
    merged: list[Interval] = []
    for iv in pieces:
        if merged:
            cur = merged[-1]
            if iv.lo < cur.hi or (iv.lo == cur.hi and iv.lo_closed and cur.hi_closed):
                raise AssertionError("overlapping slice pieces from disjoint cells")
            if iv.lo == cur.hi and (iv.lo_closed or cur.hi_closed):
                merged[-1] = Interval(cur.lo, iv.hi, cur.lo_closed, iv.hi_closed)
                continue
        merged.append(iv)
    return merged


def slice_euler(a: BoxComplex, p: Sequence[float], u: Sequence[float]) -> int:
    """Euler characteristic of the slice of a by the line {p + t*u}."""
    return sum(int(mu_interval(iv).coeff(0)) for iv in slice_line(a, p, u))


def _slice_chi_vec(a: BoxComplex, p: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized chi of the slices of a by many lines {p[i] + t*u[i]}.

    Each merged box of a cuts one t-interval from a line, found as in
    slice_line: per-axis constraints intersected, axes with u_j = 0 become
    membership tests. chi is additive over the disjoint boxes.
    """
    n, d = p.shape
    ends, closed = _merged_boxes(a)
    # per-axis line data, shared by all boxes
    pj = [p[:, j] for j in range(d)]
    uj = [u[:, j] for j in range(d)]
    pos = [v > 0 for v in uj]
    nz = [v != 0.0 for v in uj]
    any_zero = [not m.all() for m in nz]
    chi = np.zeros(n, dtype=np.int64)
    for box_ends, box_closed in zip(ends.tolist(), closed.tolist()):
        lo_v = np.full(n, -_INF)
        lo_open = np.ones(n, dtype=bool)
        hi_v = np.full(n, _INF)
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
            # clamped as in _clamped_t; t = +-inf where uj = 0 is masked by nz below
            if math.isfinite(lo):
                np.clip(ta, -_MAX, _MAX, out=ta)
            if math.isfinite(hi):
                np.clip(tb, -_MAX, _MAX, out=tb)
            c_lo = np.where(pos[j], ta, tb)
            c_lo_open = np.where(pos[j], not lo_c, not hi_c)
            c_hi = np.where(pos[j], tb, ta)
            c_hi_open = np.where(pos[j], not hi_c, not lo_c)
            # at an equal value the open endpoint is the stricter constraint
            take = nz[j] & ((c_lo > lo_v) | ((c_lo == lo_v) & c_lo_open & ~lo_open))
            lo_v = np.where(take, c_lo, lo_v)
            lo_open = np.where(take, c_lo_open, lo_open)
            take = nz[j] & ((c_hi < hi_v) | ((c_hi == hi_v) & c_hi_open & ~hi_open))
            hi_v = np.where(take, c_hi, hi_v)
            hi_open = np.where(take, c_hi_open, hi_open)

        empty = ~alive | (lo_v > hi_v) | ((lo_v == hi_v) & (lo_open | hi_open))
        box_chi = np.zeros(n, dtype=np.int64)
        box_chi[~lo_open & ~hi_open] = 1
        box_chi[lo_open & hi_open] = -1
        box_chi[empty] = 0
        chi += box_chi
    return chi


def _require_target(a: BoxComplex) -> None:
    if a.is_empty:
        raise ValueError("estimator requires a nonempty set")
    if not a.is_bounded:
        raise UnboundedSet("estimator requires a bounded set")


def estimate_volume(a: BoxComplex, n_samples: int, seed: int,
                    sample_range: tuple[int, int] | None = None) -> CroftonEstimate:
    """Estimate mu_d: bounding-box volume times the hit fraction of uniform
    samples. The standard error is the binomial one, scaled by the volume.

    sample_range restricts the estimate to sample indices [i0, i1); the
    default is the full range. Because draws are counter-indexed, disjoint
    ranges can be computed separately and pooled to reproduce a full run.
    """
    _require_target(a)
    if n_samples < 1:
        raise ValueError("need at least one sample")
    d = a.ambient_dim
    lo, hi = bounding_box(a)
    lo_a = np.asarray(lo)
    wid = np.asarray(hi) - lo_a
    vol = float(np.prod(wid)) if d > 0 else 1.0

    i0, i1 = sample_range if sample_range is not None else (0, n_samples)
    idx = np.arange(i0, i1, dtype=np.uint64)
    n = len(idx)
    pts = np.empty((n, d))
    for j in range(d):
        pts[:, j] = lo_a[j] + wid[j] * rng.uniforms(seed, idx * np.uint64(d) + np.uint64(j))

    phat = float(contains_points(a, pts).mean())
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
        out[:, 2 * pair] = r * np.cos(2.0 * math.pi * u2)
        if 2 * pair + 1 < n_cols:
            out[:, 2 * pair + 1] = r * np.sin(2.0 * math.pi * u2)
    return out


def estimate_codim1(a: BoxComplex, n_samples: int, seed: int,
                    frame: np.ndarray | None = None,
                    sample_range: tuple[int, int] | None = None) -> CroftonEstimate:
    """Estimate mu_{d-1} by line slicing.

    Per sample: direction u uniform on the sphere (normalized Gaussians),
    base point uniform on the (d-1)-ball of radius R = half the bounding
    box diagonal, centered on the box center, inside u-perp; the sample
    value is gamma(G_{d,1}) * V_perp * chi(slice).

    frame, when given, must be an orthogonal d x d matrix Q: the estimate
    is then of mu_{d-1}(Q A), computed by drawing lines around the rotated
    center and slicing a along the back-rotated lines. Since the sampling
    ball is rotation-symmetric, this is exactly the estimator run in a
    rotated frame.
    """
    _require_target(a)
    d = a.ambient_dim
    if d < 1:
        raise ValueError("codimension-one estimate needs ambient dimension >= 1")
    if n_samples < 1:
        raise ValueError("need at least one sample")
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

    k = d - 1
    dir_slots = 2 * ((d + 1) // 2)
    ball_slots = 2 * ((k + 1) // 2) if k else 0
    stride = dir_slots + ball_slots + 1

    i0, i1 = sample_range if sample_range is not None else (0, n_samples)
    idx = np.arange(i0, i1, dtype=np.uint64)
    n = len(idx)
    base = idx * np.uint64(stride)

    g = _gaussian_block(seed, base, d)
    norms = np.linalg.norm(g, axis=1)
    degen = norms < 1e-300
    if degen.any():
        g[degen] = 0.0
        g[degen, 0] = 1.0
        norms[degen] = 1.0
    u = g / norms[:, None]

    if k > 0:
        # Householder basis of u-perp: v = u + sign(u_d) e_d, h_j = e_j - 2 v_j v / |v|^2
        s = np.where(u[:, d - 1] >= 0.0, 1.0, -1.0)
        v = u.copy()
        v[:, d - 1] += s
        vv = np.einsum("ij,ij->i", v, v)
        gb = _gaussian_block(seed, base + np.uint64(dir_slots), k)
        gn = np.linalg.norm(gb, axis=1)
        bad = gn < 1e-300
        if bad.any():
            gb[bad] = 0.0
            gb[bad, 0] = 1.0
            gn[bad] = 1.0
        t = rng.uniforms(seed, base + np.uint64(dir_slots + ball_slots))
        r = radius * t ** (1.0 / k)
        y = gb / gn[:, None] * r[:, None]  # coordinates in the u-perp basis
        coef = 2.0 * np.einsum("nk,nk->n", y, v[:, :k]) / vv
        p = center[None, :] + np.concatenate([y, np.zeros((n, 1))], axis=1) - coef[:, None] * v
    else:
        p = np.tile(center, (n, 1))

    if q is not None:
        p = p @ q  # row-vector form of Q^T p
        u = u @ q

    chi = _slice_chi_vec(a, p, u).astype(float)
    v_perp = unit_ball_volume(k) * radius ** k
    factor = grassmannian_norm(d, 1) * v_perp
    vals = factor * chi
    est = float(vals.mean())
    se = float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
    return CroftonEstimate(index=d - 1, estimate=est, std_error=se,
                           n_samples=n_samples, seed=seed)
