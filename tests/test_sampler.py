import math
import random
import sys
from fractions import Fraction

import numpy as np
import pytest

from boxmeasure import (BoxComplex, Cell, CellTooSmall, DimensionMismatch,
                        Interval, SampleTooLarge, SearchExhausted, UnboundedSet, XPoly,
                        build_sample, canonicalize, contains_point, evaluate,
                        from_cell, dist_to_nearest_integer, find_near_integer_N,
                        hausdorff_ratio_check, mu, parse, pick_points_in_cell,
                        xpoly_eval)
from boxmeasure import sampler
from helpers import least_n_oracle

SQRT2 = math.sqrt(2)


def seg2(lo, hi, lo_c=True, hi_c=True):
    return from_cell(Cell([Interval(lo, hi, lo_c, hi_c), Interval.point(0)]))


# -------------------------------------------------------- find_near_integer_N

def test_sqrt2_scan_returns_12():
    p = XPoly([0, SQRT2])
    n = find_near_integer_N([p], 0.05)
    assert n == 12
    assert dist_to_nearest_integer(xpoly_eval(p, 12)) == pytest.approx(0.0294373, abs=1e-6)
    assert n == least_n_oracle([p], 0.05)


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


def test_rational_coefficients_give_the_least_n():
    rng = random.Random(91)
    for _ in range(30):
        polys = [XPoly([rng.randint(0, 3),
                        rng.randint(1, 9) / rng.choice([1, 2, 4, 5, 8])])
                 for _ in range(rng.randint(1, 3))]
        eps = rng.choice([0.25, 0.1])
        assert find_near_integer_N(polys, eps) == least_n_oracle(polys, eps)


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


def test_rational_coefficient_gives_the_least_n_not_the_denominator():
    # ||1 * 1/7|| < 0.2 already, so the search stops at 1, not at 7
    p = XPoly([0, 1 / 7])
    assert dist_to_nearest_integer(xpoly_eval(p, 1)) < 0.2
    assert find_near_integer_N([p], 0.2) == 1


def test_scan_keeps_an_n_whose_float_value_misses_epsilon():
    # at N = 347077 the float value of the second polynomial reads 1.007e-3
    # from an integer, but its exact distance is 9.98e-4
    polys = [XPoly([0, SQRT2]), XPoly([1, math.sqrt(3), math.sqrt(5)])]
    assert find_near_integer_N(polys, 1e-3) == least_n_oracle(polys, 1e-3) == 347077


def test_scan_with_a_large_coefficient_returns_the_least_n():
    # a coefficient near 2^40; on exact values ||p(22)|| = 0.027
    p = XPoly([0, 858519231576.193, 2.8631834282693642])
    assert find_near_integer_N([p], 0.05, n_max=3000) == least_n_oracle([p], 0.05) == 22


def test_scan_evaluates_the_first_chunk_only(monkeypatch):
    scanned = []
    scan = sampler._scan_chunk

    def counted(forms, ns, out=None):
        scanned.append(len(ns))
        return scan(forms, ns, out)

    monkeypatch.setattr(sampler, "_scan_chunk", counted)
    assert find_near_integer_N([XPoly([0, SQRT2])], 0.05) == 12
    assert sum(scanned) <= 1024


@pytest.mark.parametrize("n_start", [1, 1000, 1 << 15])
def test_scan_reaches_every_n_across_chunk_edges(n_start):
    # a tiny irrational slope is near-integral at every N here, so the search
    # returns the one N that extra_conditions admits, or exhausts before it
    flat = XPoly([0, 1e-9 * SQRT2])
    for offset in (0, 1023, 1024, 1025, 3071, 3072, 7167, 7168, 31744, 64511, 64512, 64513):
        n = n_start + offset
        assert find_near_integer_N([flat], 0.1, n_start, n, lambda k: k == n) == n
        with pytest.raises(SearchExhausted):
            find_near_integer_N([flat], 0.1, n_start, n - 1, lambda k: k == n)


def test_scan_evaluates_a_polynomial_at_the_survivors_only(monkeypatch):
    seen = []
    near = sampler._near

    def recorded(form, ns, out=None):
        seen.append((form[1], ns.tolist()))
        return near(form, ns, out)

    monkeypatch.setattr(sampler, "_near", recorded)
    p, q = XPoly([0, SQRT2]), XPoly([1, math.sqrt(3)])
    forms = [sampler._dyadic(p, 0.05), sampler._dyadic(q, 0.05)]
    got = sampler._scan_chunk(forms, np.arange(1, 4097, dtype=np.uint64))
    first = [n for n in range(1, 4097) if dist_to_nearest_integer(xpoly_eval(p, n)) < 0.05]
    assert [(nums, len(v)) for nums, v in seen] == [(forms[0][1], 4096), (forms[1][1], len(first))]
    assert seen[1][1] == first
    assert got.tolist() == [n for n in first
                            if dist_to_nearest_integer(xpoly_eval(q, n)) < 0.05]


def _exact_dist(p: XPoly, n: int) -> Fraction:
    value = sum((Fraction(c) * n ** i for i, c in enumerate(p.coeffs)), Fraction(0))
    return abs(value - round(value))


def test_scan_on_python_ints_matches_exact_fractions():
    # denominators of 2^65 and more, past uint64: the test runs on Python
    # ints, and the uint64 one before it; least_n_oracle stops at 2^63
    polys = [XPoly([0, 1e-4 * SQRT2, 3e-5 * math.sqrt(5)]),
             XPoly([2, -7e-6 * math.sqrt(3), 0, 4.5e-13 * math.sqrt(7)]),
             XPoly([-1, SQRT2 / 3])]
    forms = [sampler._dyadic(p, 0.1) for p in polys]
    assert [f[0] for f in forms] == [object, object, np.uint64]
    ns = np.arange(1, 4097, dtype=np.uint64)
    for k in range(1, 4):
        want = [n for n in range(1, 4097) if all(_exact_dist(p, n) < 0.1 for p in polys[:k])]
        assert sampler._scan_chunk(forms[:k], ns).tolist() == want
        assert sampler._scan_chunk(forms[:k][::-1], ns).tolist() == want
        assert find_near_integer_N(polys[:k], 0.1, n_start=100) == next(n for n in want if n >= 100)


def test_search_runs_the_uint64_tests_first(monkeypatch):
    dtypes = []
    near = sampler._near

    def recorded(form, ns, out=None):
        dtypes.append(form[0])
        return near(form, ns, out)

    monkeypatch.setattr(sampler, "_near", recorded)
    polys = [XPoly([0, 1e-4 * SQRT2, 3e-5 * math.sqrt(5)]), XPoly([0, SQRT2])]
    least = least_n_oracle(polys[1:], 0.05,
                           extra_conditions=lambda n: _exact_dist(polys[0], n) < 0.05)
    assert find_near_integer_N(polys, 0.05) == least
    assert dtypes == [np.uint64, object] * (len(dtypes) // 2)


def test_extra_conditions_sees_only_qualifying_n():
    # a float value of this polynomial is too coarse to rule out any N
    polys = [XPoly([0, 858519231576.193, 2.8631834282693642]), XPoly([1, math.sqrt(3)])]
    seen = []

    def cond(n):
        seen.append(n)
        return len(seen) == 5

    n = find_near_integer_N(polys, 0.05, extra_conditions=cond)
    assert len(seen) == 5 and seen == sorted(seen) and n == seen[-1]
    assert seen == [k for k in range(1, n + 1) if all(_exact_dist(p, k) < 0.05 for p in polys)]


def test_search_exhausted():
    with pytest.raises(SearchExhausted):
        find_near_integer_N([XPoly([0, SQRT2])], 1e-7, n_max=100)


def test_search_input_validation():
    # the constant term must be an integer exactly, not within a tolerance
    for const in (0.5, 1e-12):
        with pytest.raises(ValueError, match="not integral"):
            find_near_integer_N([XPoly([const, SQRT2])], 0.05)
    assert find_near_integer_N([XPoly([-3.0, SQRT2])], 0.05) == 12
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
        # b - a passes the float range on the second axis
        Cell([Interval.open(0, 1.7e308), Interval.open(-1.7e308, 1.7e308)]),
        # rays past 2^52, where a unit segment holds too few floats: the
        # anchor segment is k + 1 ulps of the finite end
        Cell([Interval(2.0 ** 52, math.inf, False, False)]),
        Cell([Interval(2.0 ** 60, math.inf, False, False)]),
        Cell([Interval(-math.inf, -2.0 ** 60, False, False)]),
        Cell([Interval(1e300, math.inf, False, False)]),
        Cell([Interval(2.0 ** 53, math.inf, True, False)]),
    ]
    for c in cells:
        for k in (1, 2, 5, 7):
            pts = pick_points_in_cell(c, k)
            assert len(set(pts)) == k
            for p in pts:
                assert c.contains(p)
    # no float lies inside (2, 2 + ulp): every diagonal point rounds onto an end
    thin = Cell([Interval.open(2, math.nextafter(2, 3))])
    # nor any past the float max
    edge = Cell([Interval(sys.float_info.max, math.inf, False, False)])
    for k in (1, 2, 7):
        for c in (thin, edge):
            with pytest.raises(CellTooSmall):
                pick_points_in_cell(c, k)


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
    assert r.N == least_n_oracle([XPoly([0, SQRT2])], 1 / 200, extra_conditions=lambda n: n > 1)
    assert r.per_set[0].discrepancy < 0.01


def test_build_sample_on_a_long_segment_takes_the_least_n(monkeypatch):
    # mu = 5000 sqrt(2) x + 1 off U, so N = 15 places about 10^5 points; the
    # guard fails the test before placement on any N past 1000
    search = sampler.find_near_integer_N

    def guarded(*args, **kwargs):
        n = search(*args, **kwargs)
        assert n <= 1000, f"N = {n} would place about {7072 * n:.3g} points"
        return n

    monkeypatch.setattr(sampler, "find_near_integer_N", guarded)
    a = from_cell(Cell([Interval(0.0, 5000 * SQRT2, True, True), Interval.point(2.0)]))
    r = build_sample([a], (), 10)
    assert r.N == 15
    assert r.per_set[0].discrepancy < 0.1


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


@pytest.mark.parametrize("src, m, message", [
    # a sqrt2 x sqrt3 x sqrt5 box: 2.2e11 points, 5 TB
    ("[0,1.4142135623730951],[2,3.7320508075688772],[0,2.23606797749979]", 10000,
     "a sample of 2.17483e+11 points in R^3 at N = 3411 "),
    # the segment's count at N passes the float range
    ("[0,1.7e308] x {2}", 10, "a sample of inf points in R^2 at N = 2 "),
])
def test_build_sample_too_large_raises_before_placing_a_point(monkeypatch, src, m, message):
    def no_placement(*args):
        raise AssertionError("points were placed")
    monkeypatch.setattr(sampler, "_diagonal", no_placement)
    with pytest.raises(SampleTooLarge) as err:
        build_sample([evaluate(parse(src))], [], m)
    assert str(err.value).startswith(message)


def test_build_sample_float_less_gap():
    # no float lies in (2, 2+ulp); the grid decides membership without one
    y = math.nextafter(2.0, 3.0)
    a = seg2(2.0, y)
    res = build_sample([a], (), 10)
    assert (res.N, res.per_set[0].count) == (2, 1)
    assert sum(contains_point(a, x) for x in res.points) == 1
    with pytest.raises(SearchExhausted):  # mu = -1 + ulp*x stays below 2
        build_sample([seg2(2.0, y, False, False)], (), 10, n_max=1000)


@pytest.mark.parametrize("src, polys", [
    # a float underflow leaves the open square's polynomial at -1
    ("{0} x (0,5e-324) | (0,5e-324) x (0,5e-324) | (0,5e-324) x {5e-324}", ["1x", "-1"]),
    ("(0,5e-324) x (0,5e-324)", ["1x", "1 + -1e-323x"]),
])
def test_build_sample_rejects_a_part_that_never_grows_without_a_search(monkeypatch, src, polys):
    def no_search(*args):
        raise AssertionError("the scale search ran")
    a = evaluate(parse(src))
    unit = BoxComplex(2, [Cell([Interval.half_open(0.0, 1.0), Interval.point(0.0)])])
    parts = sampler._split_parts(unit, BoxComplex(2), [a])
    assert [str(p.poly) for ps in parts for p in ps] == polys
    monkeypatch.setattr(sampler, "find_near_integer_N", no_search)
    with pytest.raises(SearchExhausted) as err:
        build_sample([a], (), 2)
    assert err.value.n_max == 10 ** 6


def test_build_sample_skips_an_atom_too_thin_for_its_points():
    # the part's first open atom (0.5, 0.500000000000001) is 9 ulps wide, too
    # thin for the part's points, which then go to (0.55, 0.83...)
    a = evaluate(parse("[0.5,0.500000000000001],{0} | [0.55,0.8328427124746191],{0}"))
    r = build_sample([a], [], 20)
    assert r.N == 46
    assert r.per_set[0].count == sum(contains_point(a, x) for x in r.points) == 15
    assert r.per_set[0].discrepancy < 1 / 20
    assert len(set(r.points)) == len(r.points)
    assert sum(0 <= x[0] < 1 and x[1] == 0 for x in r.points) == r.N


def test_build_sample_part_without_room_raises_cell_too_small():
    # the part {-1} | (2, 2+ulp) | {3} must take one new point, but its only
    # positive-dimensional atom holds no float
    y = math.nextafter(2.0, 3.0)
    a = canonicalize([Cell([Interval.point(-1.0)]), Cell([Interval.point(3.0)]),
                      Cell([Interval.open(2.0, y)])], 1)
    with pytest.raises(CellTooSmall):
        build_sample([a], (), 10)


def test_sample_result_json():
    r = build_sample([seg2(0, 1)], (), 10)
    data = r.to_json()
    assert list(data) == ["N", "epsilon", "points", "per_set"]  # --json prints keys in this order
    assert all(list(s) == ["count", "mu_at_N", "discrepancy"] for s in data["per_set"])
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

@pytest.mark.parametrize("poly, n_start, n_max, expected", [
    # sqrt(2) x^3 passes 2^53 near N = 2e5, where float evaluation calls
    # every N integral
    pytest.param(XPoly([0, 0, 0, SQRT2]), 300000, 302000, 300259,
                 id="poly0-300000-302000"),
    # the float 1/7 is off by an ulp, which N^3 magnifies past epsilon: no N
    # of the range qualifies
    pytest.param(XPoly([0, 0, 0, 1 / 7]), 999000, 10 ** 6, None,
                 id="poly1-999000-1000000"),
])
def test_search_result_is_exactly_near_integral(poly, n_start, n_max, expected):
    eps = 1e-3
    if expected is None:
        with pytest.raises(SearchExhausted):
            find_near_integer_N([poly], eps, n_start=n_start, n_max=n_max)
        with pytest.raises(SearchExhausted):
            least_n_oracle([poly], eps, n_start, n_max)
        return
    n = find_near_integer_N([poly], eps, n_start=n_start, n_max=n_max)
    assert n == expected == least_n_oracle([poly], eps, n_start, n_max)
    assert _exact_dist(poly, n) < eps
