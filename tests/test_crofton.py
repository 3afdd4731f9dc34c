import math
import random

import numpy as np
import pytest

from boxmeasure import (BoxComplex, Cell, Interval, UnboundedSet, canonicalize,
                        contains_point, difference, estimate_codim1,
                        estimate_volume, from_cell, grassmannian_norm,
                        intrinsic_volume, slice_euler, slice_line,
                        unit_ball_volume)
from boxmeasure.crofton import _slice_chi_vec
from boxmeasure import rng as crng
from helpers import random_complex, rotation_matrix_2d

INF = math.inf


def unit_square():
    return from_cell(Cell([Interval.closed(0, 1)] * 2))


def square_ring():
    outer = from_cell(Cell([Interval.closed(0, 3)] * 2))
    inner = from_cell(Cell([Interval.open(1, 2)] * 2))
    return difference(outer, inner)


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


def test_slice_rejects_non_unit_direction():
    with pytest.raises(ValueError):
        slice_line(unit_square(), (0.0, 0.0), (1.0, 1.0))


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
        for i in range(n):
            assert chi[i] == slice_euler(a, tuple(p[i]), tuple(u[i]))


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
    assert set(data) == {"index", "estimate", "std_error", "n_samples", "seed"}
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
