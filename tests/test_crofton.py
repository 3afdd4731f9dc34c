import functools
import math
import random
import tracemalloc

import numpy as np
import pytest

from boxmeasure import (BoxComplex, Cell, Interval, UnboundedSet, canonicalize,
                        contains_point, difference, estimate_codim1,
                        estimate_volume, evaluate, from_cell, grassmannian_norm,
                        intrinsic_volume, parse, slice_euler, slice_line,
                        unit_ball_volume)
from boxmeasure import crofton
from boxmeasure import rng as crng
from boxmeasure.boxset import _merged_index_boxes
from boxmeasure.crofton import _BLOCK, _lines, _slice_chi_vec, _unit_rows
from helpers import (estimate_codim1_oracle, estimate_volume_oracle, random_complex,
                     rotation_matrix_2d, slice_chi_oracle, slice_line_chi_oracle,
                     unit_rows_oracle)

INF = math.inf


def unit_square():
    return from_cell(Cell([Interval.closed(0, 1)] * 2))


def square_ring():
    outer = from_cell(Cell([Interval.closed(0, 3)] * 2))
    inner = from_cell(Cell([Interval.open(1, 2)] * 2))
    return difference(outer, inner)


def comb():
    return evaluate(parse("[0,6],[0,1] | " + " | ".join(f"[{i},{i}.5],[1,3]" for i in range(6))))


def frame_3d():
    return evaluate(parse("[0,3],[0,3],[0,2] \\ (1,2),(1,2),(-inf,inf)"))


def box_4d():
    return evaluate(parse("[0,1] x [0,2] x [0,1] x [0,3]"))


# an orthogonal 3 x 3 matrix with no zero entry
Q3 = np.linalg.qr(np.array([[1.0, 2.0, 3.0], [0.5, -1.0, 2.0], [2.0, 0.3, -1.0]]))[0]


# -------------------------------------------------------------- constants

def test_grassmannian_norm_values():
    assert grassmannian_norm(2, 1) == pytest.approx(math.pi / 2, rel=1e-12)
    assert grassmannian_norm(3, 1) == pytest.approx(2.0, rel=1e-12)
    assert grassmannian_norm(5, 0) == 1.0
    assert grassmannian_norm(7, 7) == 1.0
    with pytest.raises(ValueError):
        grassmannian_norm(2, 3)


def test_unit_ball_volumes():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


# ------------------------------------------------------------- slice_line

def test_slice_vertical_through_square():
    got = slice_line(unit_square(), (0.5, -1.0), (0.0, 1.0))
    assert got == [Interval.closed(1, 2)]
    assert slice_euler(unit_square(), (0.5, -1.0), (0.0, 1.0)) == 1


def test_slice_miss():
    assert slice_line(unit_square(), (2.0, 2.0), (0.0, 1.0)) == []


def test_slice_ring_two_components():
    got = slice_line(square_ring(), (1.5, -1.0), (0.0, 1.0))
    assert len(got) == 2
    assert got == [Interval.closed(1, 2), Interval.closed(3, 4)]
    assert slice_euler(square_ring(), (1.5, -1.0), (0.0, 1.0)) == 2


def test_slice_line_returns_a_zero_t_as_positive_zero():
    # the line runs down through the cut y = 0, where t = (0 - 0) / -1 = -0.0
    got = slice_line(unit_square(), (0.5, 0.0), (0.0, -1.0))
    assert got == [Interval.closed(-1, 0)]
    assert math.copysign(1.0, got[0].hi) == 1.0


def test_slice_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        slice_line(unit_square(), (0.0, 0.0), (1.0, 1.0))
    # a NaN or infinite base point or direction is no line
    for p, u in (((0.5, 0.5), (INF, 1.0)), ((0.5, 0.5), (math.nan, 1.0)),
                 ((math.nan, 0.5), (0.0, 1.0)), ((0.5, -INF), (0.6, 0.8))):
        with pytest.raises(ValueError, match="finite"):
            slice_line(unit_square(), p, u)


def test_slice_euler_checks_the_line_as_slice_line_does():
    bad = (((0.5,), (0.0, 1.0)), ((0.5, 0.5), (1.0,)),
           ((0.5, 0.5), (math.nan, 1.0)), ((0.5, INF), (0.0, 1.0)),
           ((0.0, 0.0), (1.0, 1.0)))
    for p, u in bad:
        with pytest.raises(ValueError) as want:
            slice_line(unit_square(), p, u)
        with pytest.raises(ValueError) as got:
            slice_euler(unit_square(), p, u)
        assert str(got.value) == str(want.value)


def test_slice_line_merges_boxes_whose_t_round_together():
    # the points 0 and 0.25 both map to t = 1e17 along this line: one piece
    a = canonicalize([Cell([Interval.point(0.0)]), Cell([Interval.point(0.25)])], 1)
    assert slice_line(a, (-1e17,), (1.0,)) == [Interval.point(1e17)]
    # [0,64] and [64.25,128] meet at t = 1e17 + 64: their union
    b = canonicalize([Cell([Interval.closed(0, 64)]), Cell([Interval.closed(64.25, 128)])], 1)
    assert slice_line(b, (-1e17,), (1.0,)) == [Interval.closed(1e17, 1e17 + 128)]


def test_slice_membership_matches_contains_point():
    rng = random.Random(81)
    for _ in range(25):
        d = rng.randint(1, 2)
        a = random_complex(rng, d)
        raw = [rng.gauss(0, 1) for _ in range(d)]
        nrm = math.sqrt(sum(v * v for v in raw)) or 1.0
        u = tuple(v / nrm for v in raw)
        p = tuple(rng.uniform(-4, 4) for _ in range(d))
        pieces = slice_line(a, p, u)
        for _ in range(30):
            t = rng.uniform(-8, 8)
            on_line = tuple(p[j] + t * u[j] for j in range(d))
            assert any(iv.contains(t) for iv in pieces) == contains_point(a, on_line)


def test_vectorized_chi_matches_slice_euler():
    rng = random.Random(82)
    for _ in range(20):
        d = rng.randint(1, 2)
        a = random_complex(rng, d)
        n = 10
        p = np.array([[rng.uniform(-3, 3) for _ in range(d)] for _ in range(n)])
        u = np.array([[rng.gauss(0, 1) for _ in range(d)] for _ in range(n)])
        u /= np.linalg.norm(u, axis=1)[:, None]
        chi = _slice_chi_vec(a, p, u)
        assert chi.tolist() == slice_chi_oracle(a, p, u).tolist()
        for i in range(n):
            assert chi[i] == slice_line_chi_oracle(a, tuple(p[i]), tuple(u[i]))


def test_vectorized_chi_over_several_line_blocks():
    rng = np.random.default_rng(83)
    n = 2 * _BLOCK + 5
    p = rng.uniform(-1.0, 4.0, (n, 2))
    u = rng.normal(size=(n, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ring = square_ring()
    assert _slice_chi_vec(ring, p, u).tolist() == slice_chi_oracle(ring, p, u).tolist()


# ----------------------------------------------------------- counter rng

def test_stream_is_counter_indexed():
    full = crng.uniforms(1234, np.arange(100, dtype=np.uint64))
    lo = crng.uniforms(1234, np.arange(0, 37, dtype=np.uint64))
    hi = crng.uniforms(1234, np.arange(37, 100, dtype=np.uint64))
    assert np.array_equal(full, np.concatenate([lo, hi]))
    assert np.all((full >= 0) & (full < 1))


def test_stream_seeds_differ():
    ctr = np.arange(64, dtype=np.uint64)
    assert not np.array_equal(crng.uniforms(1, ctr), crng.uniforms(2, ctr))


# ------------------------------------------------------------- estimators

def test_volume_full_box():
    est = estimate_volume(unit_square(), 20000, seed=1)
    assert est.estimate == pytest.approx(1.0, abs=1e-12)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_volume_square_ring():
    est = estimate_volume(square_ring(), 50000, seed=2)
    assert abs(est.estimate - 8.0) < 4 * est.std_error


def test_volume_single_point():
    est = estimate_volume(from_cell(Cell([Interval.point(1), Interval.point(2)])), 1000, seed=3)
    assert est.estimate == 0.0


def test_volume_unbounded_rejected():
    ray = from_cell(Cell([Interval(0, INF, True, False)]))
    with pytest.raises(UnboundedSet):
        estimate_volume(ray, 100, seed=0)
    with pytest.raises(UnboundedSet):
        estimate_codim1(ray, 100, seed=0)


def test_codim1_unit_square():
    est = estimate_codim1(unit_square(), 100000, seed=4)
    assert abs(est.estimate - 2.0) < 4 * est.std_error
    assert est.index == 1


def test_codim1_rectangle():
    rect = from_cell(Cell([Interval.closed(0, 2), Interval.closed(0, 1)]))
    est = estimate_codim1(rect, 200000, seed=5)
    assert abs(est.estimate - 3.0) < 4 * est.std_error


def test_codim1_segment_length():
    seg = from_cell(Cell([Interval.closed(0, 1), Interval.point(0)]))
    est = estimate_codim1(seg, 200000, seed=6)
    assert abs(est.estimate - 1.0) < 4 * est.std_error


def test_codim1_in_3d():
    cube = from_cell(Cell([Interval.closed(0, 1)] * 3))
    est = estimate_codim1(cube, 200000, seed=7)
    # mu_2 of the unit cube is 3
    assert abs(est.estimate - 3.0) < 4 * est.std_error


def test_codim1_in_4d():
    # the Gaussian and Householder draw, the one that d >= 4 uses
    box = box_4d()
    est = estimate_codim1(box, 200000, seed=10)
    assert est.index == 3
    assert abs(est.estimate - intrinsic_volume(box, 3)) < 4 * est.std_error


@pytest.mark.parametrize("d", range(1, 6))
def test_lines_lie_in_the_ball_through_the_center(d):
    center, radius = np.linspace(-1.0, 2.0, d), 3.5
    idx = np.arange(5000, dtype=np.uint64)
    p, u = _lines(3, idx, center, radius)
    assert p.shape == u.shape == (len(idx), d)
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.sqrt(np.sum(u * u, axis=1)) - 1.0) <= 8 * eps)
    off = p - center
    assert np.all(np.abs(np.sum(off * u, axis=1)) <= 1e-12 * radius)
    assert np.all(np.sqrt(np.sum(off * off, axis=1)) <= radius * (1 + 1e-15))
    # a sample's line depends on its index alone
    for i0, i1 in ((0, 1), (17, 1234), (4000, 5000)):
        part = _lines(3, idx[i0:i1], center, radius)
        assert np.array_equal(part[0], p[i0:i1]) and np.array_equal(part[1], u[i0:i1])


@pytest.mark.parametrize("d", [2, 3])
def test_line_draw_moments(d):
    # u uniform on the sphere, p uniform on the (d-1)-ball of u-perp: each
    # mean within 4 standard errors of its value
    n, radius = 100_000, 2.0
    p, u = _lines(5, np.arange(n, dtype=np.uint64), np.zeros(d), radius)
    inner = np.sqrt(np.sum(p * p, axis=1)) <= radius / 2
    checks = [(u[:, j], 0.0) for j in range(d)] + [(u[:, j] ** 2, 1 / d) for j in range(d)]
    checks += [(p[:, j], 0.0) for j in range(d)] + [(inner.astype(float), 2.0 ** -(d - 1))]
    for x, want in checks:
        assert abs(x.mean() - want) < 4 * x.std(ddof=1) / math.sqrt(n)


def test_rotation_invariance():
    sq = unit_square()
    plain = estimate_codim1(sq, 100000, seed=8)
    q = rotation_matrix_2d(math.radians(30))
    rotated = estimate_codim1(sq, 100000, seed=9, frame=q)
    combined = math.hypot(plain.std_error, rotated.std_error)
    assert abs(plain.estimate - rotated.estimate) < 4 * combined


def test_determinism():
    a = estimate_codim1(unit_square(), 5000, seed=11)
    b = estimate_codim1(unit_square(), 5000, seed=11)
    assert a == b
    c = estimate_volume(square_ring(), 5000, seed=12)
    d = estimate_volume(square_ring(), 5000, seed=12)
    assert c == d


def test_partition_independence():
    # pooled partial ranges reproduce the sequential run
    n = 20000
    full = estimate_volume(square_ring(), n, seed=13)
    lo = estimate_volume(square_ring(), n, seed=13, sample_range=(0, 7777))
    hi = estimate_volume(square_ring(), n, seed=13, sample_range=(7777, n))
    pooled = (7777 * lo.estimate + (n - 7777) * hi.estimate) / n
    assert pooled == pytest.approx(full.estimate, abs=1e-9)


def test_vectorized_chi_in_blocks_cut_short_by_the_table_size(monkeypatch):
    # the ring has 4 cuts per axis, so 64 t's a block leave 5 lines a block
    monkeypatch.setattr(crofton, "_TABLE", 64)
    rng = np.random.default_rng(84)
    p = rng.uniform(-1.0, 4.0, (23, 2))
    u = rng.normal(size=(23, 2))
    u /= np.linalg.norm(u, axis=1)[:, None]
    ring = square_ring()
    assert _slice_chi_vec(ring, p, u).tolist() == slice_chi_oracle(ring, p, u).tolist()
    # the estimator draws and slices its lines 5 at a time
    got = estimate_codim1(ring, 23, seed=84, sample_range=(2, 21))
    assert repr(got) == repr(estimate_codim1_oracle(ring, 23, 84, sample_range=(2, 21)))


STREAMED = {
    "ring": (square_ring, None),
    "ring-frame": (square_ring, rotation_matrix_2d(math.radians(30))),
    "frame-3d": (frame_3d, Q3),
    "segments-1d": (lambda: evaluate(parse("[0,1] | [2,3)")), None),
    "box-4d": (box_4d, None),
}


@pytest.mark.parametrize("name", list(STREAMED))
def test_streamed_estimates_equal_the_whole_array_run(name):
    # three full blocks and a short one, and a range with both ends inside blocks
    make, q = STREAMED[name]
    a = make()
    n = 3 * _BLOCK + 5
    for seed, sample_range in ((1, None), (7919, (_BLOCK - 7, 2 * _BLOCK + 3))):
        want = estimate_codim1_oracle(a, n, seed, frame=q, sample_range=sample_range)
        got = estimate_codim1(a, n, seed, frame=q, sample_range=sample_range)
        assert repr(got) == repr(want)
        if q is None:
            want = estimate_volume_oracle(a, n, seed, sample_range=sample_range)
            assert repr(estimate_volume(a, n, seed, sample_range=sample_range)) == repr(want)


# the parent's estimates, whose rotated lines were row-major
FRAMED = {
    2: (square_ring, rotation_matrix_2d(math.radians(30)),
        "CroftonEstimate(index=1, estimate=8.009185072618086, std_error=0.05670154697994708, "
        "n_samples=5000, seed=3)"),
    3: (frame_3d, Q3,
        "CroftonEstimate(index=2, estimate=24.40452005161623, std_error=0.3059696879539017, "
        "n_samples=5000, seed=3)"),
    4: (box_4d, 0.5 * np.array([[1.0, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]),
        "CroftonEstimate(index=3, estimate=18.04689006380806, std_error=0.43998897409689763, "
        "n_samples=5000, seed=3)"),
}


@pytest.mark.parametrize("d", list(FRAMED))
def test_framed_lines_are_column_major(monkeypatch, d):
    make, q, want = FRAMED[d]
    layouts = []

    def recorded(a, p, u):
        layouts.append((p.flags.f_contiguous, u.flags.f_contiguous))
        return slice_chi(a, p, u)
    slice_chi = crofton._slice_chi_vec
    monkeypatch.setattr(crofton, "_slice_chi_vec", recorded)
    got = estimate_codim1(make(), 5000, 3, frame=q)
    assert layouts == [(True, True)] * 2  # a block of 4,096 lines and one of 904
    monkeypatch.undo()
    assert repr(got) == repr(estimate_codim1_oracle(make(), 5000, 3, frame=q)) == want


def test_streamed_chi_of_a_set_of_many_boxes():
    # 150 disjoint closed intervals: every line's chi is 150, past the int8
    # range, so it is kept in int64
    points = evaluate(parse(" | ".join(f"[{i},{i}.5]" for i in range(150))))
    assert len(_merged_index_boxes(points)[1]) == 150
    got = estimate_codim1(points, _BLOCK + 3, seed=5)
    assert got.estimate == 150.0
    assert repr(got) == repr(estimate_codim1_oracle(points, _BLOCK + 3, 5))


def test_merged_boxes_are_built_once_and_kept():
    ring = square_ring()
    boxes = _merged_index_boxes(ring)
    assert _merged_index_boxes(ring) is boxes
    assert not boxes[1].flags.writeable and not boxes[2].flags.writeable


@pytest.mark.parametrize("d", range(1, 11))
def test_unit_rows_sum_the_squares_in_column_order(d):
    g = np.random.default_rng(d).normal(size=(20000, d))
    g[7] = 0.0  # a degenerate row becomes e_0
    got = _unit_rows(g)
    old = unit_rows_oracle(g)
    assert got[7].tolist() == [1.0] + [0.0] * (d - 1)
    if d <= 7:
        # np.linalg.norm adds up to 7 squares in column order too
        assert np.array_equal(got, old)
    else:
        # it adds 8 or more pairwise: a norm moves by up to two ulps
        sq = functools.reduce(np.add, [g[:, j] * g[:, j] for j in range(d)])
        sq[7] = 1.0
        want = g / np.sqrt(sq)[:, None]
        want[7] = np.eye(1, d)
        assert np.array_equal(got, want)
        assert not np.array_equal(got, old)
        assert np.all(np.abs(got - old) <= 3 * np.finfo(float).eps * np.abs(old))


@pytest.mark.parametrize("make", [comb, frame_3d])
@pytest.mark.parametrize("estimator", [estimate_volume, estimate_codim1])
def test_estimators_stream_in_memory_bounded_by_a_block(make, estimator):
    # a block's arrays plus, for codim-1, a byte of chi and the 16 bytes of
    # the mean and std per sample; the whole-array run took 57 to 184 bytes
    a = make()
    estimator(a, 10, seed=1)  # builds and keeps the grid and the merged boxes
    n = 200_000
    tracemalloc.start()
    try:
        estimator(a, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * n


def test_codim1_partition_independence():
    # the full run spans three blocks of lines, and the split
    # lies off their boundaries
    n, cut = 2 * _BLOCK + 321, _BLOCK + 123
    full = estimate_codim1(square_ring(), n, seed=14)
    lo = estimate_codim1(square_ring(), n, seed=14, sample_range=(0, cut))
    hi = estimate_codim1(square_ring(), n, seed=14, sample_range=(cut, n))
    pooled = (cut * lo.estimate + (n - cut) * hi.estimate) / n
    assert pooled == pytest.approx(full.estimate, abs=1e-9)


@pytest.mark.parametrize("estimator", [estimate_volume, estimate_codim1])
def test_sample_range_is_checked(estimator):
    # reversed, past n_samples, negative, empty
    for bad in ((5, 3), (0, 10 ** 6), (-1, 4), (4, 4)):
        with pytest.raises(ValueError, match="sample_range must satisfy"):
            estimator(unit_square(), 10, seed=1, sample_range=bad)
    whole = estimator(unit_square(), 10, seed=1, sample_range=(0, 10))
    assert whole == estimator(unit_square(), 10, seed=1)


def test_standard_error_scaling():
    ratios = []
    for seed in (21, 22, 23):
        a = estimate_codim1(unit_square(), 20000, seed=seed)
        b = estimate_codim1(unit_square(), 40000, seed=seed + 100)
        ratios.append(b.std_error / a.std_error)
    mean_ratio = sum(ratios) / len(ratios)
    assert abs(mean_ratio - 1 / math.sqrt(2)) < 0.2 * (1 / math.sqrt(2))


def test_estimate_json():
    est = estimate_volume(unit_square(), 100, seed=5)
    data = est.to_json()
    # --json prints the keys in this order
    assert list(data) == ["index", "estimate", "std_error", "n_samples", "seed"]
    assert data["n_samples"] == 100 and data["seed"] == 5 and data["index"] == 2


def test_slice_where_t_overflows():
    # the t of a closed end passes the float range: it is clamped, not opened
    p, u = (0.5, 0.5), (5e-324, 1.0)
    assert slice_euler(unit_square(), p, u) == 1
    assert _slice_chi_vec(unit_square(), np.array([p]), np.array([u])).tolist() == [1]
    big = 1.7e308
    for closed, chi in ((True, 1), (False, -1)):
        a = from_cell(Cell([Interval(-big, big, closed, closed)] * 2))
        assert slice_euler(a, (0.0, 0.0), (0.6, 0.8)) == chi
        assert _slice_chi_vec(a, np.zeros((1, 2)), np.array([[0.6, 0.8]])).tolist() == [chi]


def test_slice_of_an_open_factor_collapsing_to_one_t():
    # both ends of (0,1) round to t = 1e17 along this line: the slice is empty
    a = from_cell(Cell([Interval.open(0, 1)]))
    assert slice_line(a, (-1e17,), (1.0,)) == []
    assert slice_euler(a, (-1e17,), (1.0,)) == 0
    assert _slice_chi_vec(a, np.array([[-1e17]]), np.array([[1.0]])).tolist() == [0]
