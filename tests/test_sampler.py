import math
import random
from fractions import Fraction

import pytest

from boxmeasure import (BoxComplex, Cell, CellTooSmall, DimensionMismatch,
                        Interval, SearchExhausted, UnboundedSet, XPoly,
                        build_sample, canonicalize, contains_point, from_cell,
                        dist_to_nearest_integer, find_near_integer_N,
                        hausdorff_ratio_check, mu, pick_points_in_cell,
                        xpoly_eval)

SQRT2 = math.sqrt(2)


def seg2(lo, hi, lo_c=True, hi_c=True):
    return from_cell(Cell([Interval(lo, hi, lo_c, hi_c), Interval.point(0)]))


def brute_scan(polys, epsilon, n_start=1, n_max=10 ** 6, cond=None):
    """Independent reference scan, no shortcuts, scalar arithmetic."""
    cond = cond or (lambda n: True)
    for n in range(n_start, n_max + 1):
        if all(dist_to_nearest_integer(xpoly_eval(p, n)) < epsilon for p in polys) and cond(n):
            return n
    raise AssertionError("oracle scan exhausted")


# -------------------------------------------------------- find_near_integer_N

def test_sqrt2_scan_returns_12():
    p = XPoly([0, SQRT2])
    n = find_near_integer_N([p], 0.05)
    assert n == 12
    assert dist_to_nearest_integer(xpoly_eval(p, 12)) == pytest.approx(0.0294373, abs=1e-6)
    assert n == brute_scan([p], 0.05)


def test_rational_shortcut():
    n = find_near_integer_N([XPoly([0, 0.5])], 0.4)
    assert n == 2
    assert dist_to_nearest_integer(xpoly_eval(XPoly([0, 0.5]), n)) == 0.0


def test_two_polys_same_irrational():
    polys = [XPoly([0, SQRT2]), XPoly([0, 1 + SQRT2])]
    n = find_near_integer_N(polys, 0.05)
    for p in polys:
        assert dist_to_nearest_integer(xpoly_eval(p, n)) < 0.05
    assert n == 12  # ||(1+sqrt2)N|| = ||sqrt2 N||


def test_shortcut_agrees_with_scan_predicate():
    rng = random.Random(91)
    for _ in range(30):
        polys = [XPoly([rng.randint(0, 3),
                        rng.randint(1, 9) / rng.choice([1, 2, 4, 5, 8])])
                 for _ in range(rng.randint(1, 3))]
        eps = rng.choice([0.25, 0.1])
        n = find_near_integer_N(polys, eps)
        for p in polys:
            assert dist_to_nearest_integer(xpoly_eval(p, n)) < 1e-9


def test_post_verification_of_returned_n():
    rng = random.Random(92)
    for _ in range(20):
        polys = [XPoly([0, rng.choice([SQRT2, math.pi / 3, math.e / 2]) * rng.randint(1, 3)])]
        eps = rng.choice([0.2, 0.1, 0.05])
        n = find_near_integer_N(polys, eps)
        for p in polys:
            assert dist_to_nearest_integer(xpoly_eval(p, n)) < eps


def test_search_honors_n_start_and_extra_conditions():
    p = XPoly([0, SQRT2])
    assert find_near_integer_N([p], 0.05, n_start=13) > 12
    assert find_near_integer_N([p], 0.05, extra_conditions=lambda n: n % 2 == 1) % 2 == 1


def test_search_exhausted():
    with pytest.raises(SearchExhausted):
        find_near_integer_N([XPoly([0, SQRT2])], 1e-7, n_max=100)


def test_search_input_validation():
    with pytest.raises(ValueError):
        find_near_integer_N([XPoly([0.5, 1])], 0.1)  # non-integral constant
    with pytest.raises(ValueError):
        find_near_integer_N([XPoly([0, 1])], 1.5)  # epsilon out of range
    with pytest.raises(ValueError):
        find_near_integer_N([XPoly([0, math.inf])], 0.1)


# ---------------------------------------------------------- pick_points

def test_pick_points_examples():
    c = Cell([Interval.open(0, 1)])
    assert pick_points_in_cell(c, 3) == [(0.25,), (0.5,), (0.75,)]
    c = Cell([Interval.point(2), Interval.closed(0, 1)])
    assert pick_points_in_cell(c, 2) == [(2.0, 1 / 3), (2.0, 2 / 3)]
    assert pick_points_in_cell(c, 0) == []


def test_pick_points_interior_and_distinct():
    rng = random.Random(93)
    cells = [
        Cell([Interval.half_open(0, 1), Interval.open(-2, 5)]),
        Cell([Interval(0, math.inf, True, False)]),
        Cell([Interval(-math.inf, math.inf, False, False), Interval.point(3)]),
    ]
    for c in cells:
        for k in (1, 2, 7):
            pts = pick_points_in_cell(c, k)
            assert len(set(pts)) == k
            for p in pts:
                assert c.contains(p)


def test_pick_points_cell_too_small():
    with pytest.raises(CellTooSmall):
        pick_points_in_cell(Cell([Interval.point(0)]), 2)


# --------------------------------------------------------- build_sample

def test_build_sample_unit_interval_itself():
    r = build_sample([seg2(0, 1, True, False)], (), 10)
    assert r.per_set[0].count == r.N
    assert r.per_set[0].discrepancy == 0.0
    assert r.epsilon == 0.1


def test_build_sample_closed_segment_rational():
    r = build_sample([seg2(0, 2)], (), 10)
    assert r.per_set[0].discrepancy == 0.0
    assert r.per_set[0].count == 2 * r.N + 1
    # points split N inside U, N+1 in [1,2]
    in_u = sum(1 for p in r.points if 0 <= p[0] < 1 and p[1] == 0)
    assert in_u == r.N


def test_build_sample_sqrt2_threshold():
    r = build_sample([seg2(0, SQRT2, True, False)], (), 100)
    # partition: U with mu = x, and [1, sqrt2) with mu = (sqrt2-1)x;
    # threshold is eps/2 = 1/200, so N must make ||sqrt2 N|| < 1/200
    assert dist_to_nearest_integer(r.N * SQRT2) < 1 / 200
    assert r.N == brute_scan([XPoly([0, SQRT2])], 1 / 200, cond=lambda n: n > 1)
    assert r.per_set[0].discrepancy < 0.01


def test_build_sample_counts_recounted_independently():
    sets = [seg2(0, 2), seg2(0, SQRT2, True, False), seg2(1, 3, True, False)]
    pts = [(0.5, 0.0), (2.5, 0.0), (-1.0, 5.0)]
    r = build_sample(sets, pts, 100)
    for a, stats in zip(sets, r.per_set):
        recount = sum(1 for p in r.points if contains_point(a, p))
        assert recount == stats.count
        assert abs(recount - xpoly_eval(mu(a).mu, r.N)) < 0.01
    for x in pts:
        assert sum(1 for p in r.points if p == x) == 1  # singleton count
    assert len(set(r.points)) == len(r.points)


def test_build_sample_additivity_on_disjoint_union():
    a = seg2(0, 1, True, False)
    b = seg2(1, 3, True, False)
    both = canonicalize(list(a.cells) + list(b.cells), 2)
    r = build_sample([a, b, both], (), 10)
    assert r.per_set[0].count + r.per_set[1].count == r.per_set[2].count


def test_build_sample_randomized_guarantee():
    rng = random.Random(94)
    for m in (10, 100):
        for _ in range(6):
            d = rng.randint(1, 2)
            sets = []
            for _ in range(rng.randint(1, 4)):
                lo = rng.randrange(-4, 4) / 2
                width = rng.choice([0.5, 1.0, 1.5, SQRT2 / 2, SQRT2])
                iv = Interval(lo, lo + width, rng.random() < 0.5 or lo == lo + width, rng.random() < 0.5)
                if d == 1:
                    sets.append(from_cell(Cell([iv])))
                else:
                    sets.append(from_cell(Cell([iv, Interval.point(rng.randint(-2, 2))])))
            forced = [tuple(rng.uniform(-3, 3) for _ in range(d))
                      for _ in range(rng.randint(0, 2))]
            r = build_sample(sets, forced, m, n_max=10 ** 7)
            assert all(s.discrepancy < 1.0 / m for s in r.per_set)
            in_u = sum(1 for p in r.points
                       if 0 <= p[0] < 1 and all(v == 0 for v in p[1:]))
            assert in_u == r.N
            for x in forced:
                assert x in set(r.points)


def test_build_sample_2d_area():
    # a genuinely 2-dimensional set: counts follow a quadratic polynomial
    sq = from_cell(Cell([Interval.half_open(0, 1), Interval.half_open(0, 1)]))
    r = build_sample([sq], (), 10)
    assert r.per_set[0].discrepancy < 0.1
    assert r.per_set[0].count == r.N ** 2


def test_build_sample_rejects_bad_inputs():
    with pytest.raises(UnboundedSet):
        build_sample([from_cell(Cell([Interval(0, math.inf, True, False)]))], (), 10)
    with pytest.raises(DimensionMismatch):
        build_sample([seg2(0, 1)], [(0.5,)], 10)
    with pytest.raises(ValueError):
        build_sample([seg2(0, 1)], [(0.5, 0.0), (0.5, 0.0)], 10)
    with pytest.raises(ValueError):
        build_sample([], (), 10)


def test_build_sample_float_less_gap():
    # no float lies in (2, 2+ulp); the grid decides membership without one
    y = math.nextafter(2.0, 3.0)
    a = seg2(2.0, y)
    res = build_sample([a], (), 10)
    assert (res.N, res.per_set[0].count) == (2, 1)
    assert sum(contains_point(a, x) for x in res.points) == 1
    with pytest.raises(SearchExhausted):  # mu = -1 + ulp*x stays below 2
        build_sample([seg2(2.0, y, False, False)], (), 10, n_max=1000)


def test_sample_result_json():
    r = build_sample([seg2(0, 1)], (), 10)
    data = r.to_json()
    assert set(data) == {"N", "epsilon", "points", "per_set"}
    assert all(set(s) == {"count", "mu_at_N", "discrepancy"} for s in data["per_set"])
    assert all(isinstance(p, list) and len(p) == 2 for p in data["points"])


# -------------------------------------------------- hausdorff_ratio_check

def test_ratio_check_closed_unit_segment():
    chk = hausdorff_ratio_check(seg2(0, 1), 1, 100)
    assert chk.target == 1.0
    assert chk.gap == pytest.approx(1.0 / chk.N, abs=1e-12)
    assert chk.gap <= chk.bound <= (1 + 0.01) / chk.N + 1e-15


def test_ratio_check_half_open_exact():
    chk = hausdorff_ratio_check(seg2(0, 1, True, False), 1, 100)
    assert chk.ratio == 1.0
    assert chk.gap == 0.0


def test_ratio_check_gap_shrinks_with_larger_n():
    small = hausdorff_ratio_check(seg2(0, 1), 1, 100)
    large = hausdorff_ratio_check(seg2(0, 1), 1, 100, n_start=50 * small.N)
    assert large.N > small.N
    assert large.gap < small.gap


def test_ratio_check_dimension_guard():
    with pytest.raises(DimensionMismatch):
        hausdorff_ratio_check(seg2(0, 1), 2, 10)


# ------------------------------------------------ exactness at large N

def _exact_dist(p: XPoly, n: int) -> Fraction:
    value = sum((Fraction(c) * n ** i for i, c in enumerate(p.coeffs)), Fraction(0))
    return abs(value - round(value))


@pytest.mark.parametrize("poly, n_start, n_max", [
    # scan path: sqrt(2) x^3 passes 2^53 near N = 2e5, where float
    # evaluation calls every N integral
    (XPoly([0, 0, 0, SQRT2]), 300000, 302000),
    # lattice path: the float 1/7 is off by an ulp, which N^3 magnifies
    (XPoly([0, 0, 0, 1 / 7]), 999000, 10 ** 6),
])
def test_search_result_is_exactly_near_integral(poly, n_start, n_max):
    eps = 1e-3
    try:
        n = find_near_integer_N([poly], eps, n_start=n_start, n_max=n_max)
    except SearchExhausted:
        return
    assert n_start <= n <= n_max
    assert _exact_dist(poly, n) < eps
