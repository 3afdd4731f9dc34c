"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is stated inline.
"""

import math
import random
import time

import pytest

from boxmeasure import (Cell, Interval, SetExpr, XPoly, canonicalize,
                        cartesian_product, contains_point, difference,
                        build_sample, dist_to_nearest_integer, estimate_codim1,
                        estimate_volume, euler_characteristic,
                        find_near_integer_N, from_cell, hausdorff_ratio_check,
                        intersect, mu, mu_compare, parse, print_expr,
                        union, xpoly_add, xpoly_eval, xpoly_mul)
from boxmeasure.dsl import ParseError
from helpers import (poly_close, random_complex, remove_random_atom,
                     rotation_matrix_2d)
from test_dsl import ROUND_TRIP_CORPUS

SQRT2 = math.sqrt(2)


def _report(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


def test_criterion_1_exact_mu_golden_suite():
    rel = 1e-12
    assert mu(from_cell(Cell([Interval.half_open(0, 1)]))).mu == XPoly([0, 1])
    for d in (1, 2, 3):
        cube = from_cell(Cell([Interval.closed(0, 1)] * d))
        expected = XPoly([math.comb(d, i) for i in range(d + 1)])  # (1+x)^d
        assert poly_close(mu(cube).mu, expected, rel=rel)
    ring = difference(from_cell(Cell([Interval.closed(0, 3)] * 2)),
                      from_cell(Cell([Interval.open(1, 2)] * 2)))
    assert poly_close(mu(ring).mu, XPoly([0, 8, 8]), rel=rel)
    for d in (1, 2, 3):
        assert euler_characteristic(from_cell(Cell([Interval.open(0, 1)] * d))) == (-1) ** d
    _report(1, "mu golden values exact at 1e-12: [0,1), cubes, ring, open-cube chi")


def test_criterion_2_strict_monotonicity_500_pairs():
    rng = random.Random(2024)
    count = 0
    for _ in range(500):
        d = rng.randint(1, 3)
        b = random_complex(rng, d, max_cells=3 if d < 3 else 2)
        a = remove_random_atom(rng, b)
        assert mu_compare(a, b) == "less"
        count += 1
    assert count == 500
    _report(2, "mu(A) < mu(B) for 500/500 random proper inclusions, d <= 3")


def test_criterion_3_product_formula_200_pairs():
    rng = random.Random(3033)
    for _ in range(200):
        a = random_complex(rng, rng.randint(1, 2))
        b = random_complex(rng, 1)
        assert poly_close(mu(cartesian_product(a, b)).mu,
                          xpoly_mul(mu(a).mu, mu(b).mu), rel=1e-10)
    _report(3, "mu(A x B) = mu(A) * mu(B) on 200 random bounded pairs at 1e-10")


def test_criterion_4_valuation_identity_200_pairs():
    rng = random.Random(4044)
    for _ in range(200):
        d = rng.randint(1, 2)
        a, b = random_complex(rng, d), random_complex(rng, d)
        lhs = xpoly_add(mu(union(a, b)).mu, mu(intersect(a, b)).mu)
        rhs = xpoly_add(mu(a).mu, mu(b).mu)
        assert poly_close(lhs, rhs, rel=1e-10)
    _report(4, "mu(AuB) + mu(AnB) = mu(A) + mu(B) on 200 random pairs at 1e-10")


def test_criterion_5_crofton_validation():
    t0 = time.time()
    square = from_cell(Cell([Interval.closed(0, 1)] * 2))
    est = estimate_codim1(square, 10 ** 6, seed=50)
    assert abs(est.estimate - 2.0) < 4 * est.std_error
    assert est.std_error < 0.02

    ring = difference(from_cell(Cell([Interval.closed(0, 3)] * 2)),
                      from_cell(Cell([Interval.open(1, 2)] * 2)))
    vol = estimate_volume(ring, 10 ** 5, seed=51)
    assert abs(vol.estimate - 8.0) < 4 * vol.std_error

    plain = estimate_codim1(square, 2 * 10 ** 5, seed=52)
    rotated = estimate_codim1(square, 2 * 10 ** 5, seed=53,
                              frame=rotation_matrix_2d(math.radians(30)))
    combined = math.hypot(plain.std_error, rotated.std_error)
    assert abs(plain.estimate - rotated.estimate) < 4 * combined

    elapsed = time.time() - t0
    assert elapsed < 60.0
    _report(5, f"codim-1 {est.estimate:.4f}+-{est.std_error:.4f} vs 2.0; "
               f"volume {vol.estimate:.3f}+-{vol.std_error:.3f} vs 8.0; "
               f"rotated frame consistent; {elapsed:.1f}s < 60s")


def test_criterion_6_near_integer_search():
    n = find_near_integer_N([XPoly([0, SQRT2])], 0.05)
    assert n == 12
    dist = dist_to_nearest_integer(xpoly_eval(XPoly([0, SQRT2]), n))
    assert dist == pytest.approx(0.02943725, abs=1e-6)

    rational = [XPoly([0, 0.5]), XPoly([1, 0.25, 0.2])]
    n2 = find_near_integer_N(rational, 0.05)
    assert n2 % 20 == 0  # lcm of 2, 4, 5
    for p in rational:
        assert dist_to_nearest_integer(xpoly_eval(p, n2)) < 1e-9
    _report(6, f"sqrt2 scan N = 12 with ||12 sqrt2|| = {dist:.6f}; "
               f"rational coefficients least N = {n2} with distances < 1e-9")


def test_criterion_7_sample_construction():
    t0 = time.time()

    def seg(lo, hi, lo_c=True, hi_c=True):
        return from_cell(Cell([Interval(lo, hi, lo_c, hi_c), Interval.point(0)]))

    sets = [seg(0, 2), seg(0, SQRT2, True, False), seg(1, 3, True, False)]
    forced = [(0.5, 0.0), (2.5, 0.0), (-1.0, 5.0)]
    r = build_sample(sets, forced, 100)

    assert all(s.discrepancy < 0.01 for s in r.per_set)
    in_u = sum(1 for p in r.points if 0 <= p[0] < 1 and p[1] == 0)
    assert in_u == r.N
    # singleton normalization: each forced point appears exactly once
    for x in forced:
        assert sum(1 for p in r.points if p == x) == 1
    # additivity witnessed on a disjoint pair plus its supplied union
    a, b = seg(0, 1, True, False), seg(1, 3, True, False)
    whole = canonicalize(list(a.cells) + list(b.cells), 2)
    r2 = build_sample([a, b, whole], (), 100)
    assert r2.per_set[0].count + r2.per_set[1].count == r2.per_set[2].count

    elapsed = time.time() - t0
    assert elapsed < 10.0
    _report(7, f"N = {r.N}, discrepancies {[round(s.discrepancy, 6) for s in r.per_set]} "
               f"all < 0.01, #(lam in U) = N, additivity and singletons exact; "
               f"{elapsed:.2f}s < 10s")


def test_criterion_8_finite_scale_hausdorff_ratio():
    seg = from_cell(Cell([Interval.closed(0, 1), Interval.point(0)]))
    chk = hausdorff_ratio_check(seg, 1, 100)
    assert chk.target == 1.0
    assert chk.gap <= (1 + 0.01) / chk.N + 1e-15
    assert chk.gap <= chk.bound

    larger = hausdorff_ratio_check(seg, 1, 100, n_start=50 * chk.N)
    assert larger.N > chk.N
    assert larger.gap < chk.gap
    _report(8, f"gap {chk.gap:.4f} <= (1+eps)/N at N = {chk.N}; "
               f"gap {larger.gap:.6f} at forced N = {larger.N}")


def test_criterion_9_parser_suite():
    for src in ROUND_TRIP_CORPUS:
        e = parse(src)
        assert parse(print_expr(e)) == e
    assert len(ROUND_TRIP_CORPUS) == 50

    golden = parse("A | B & C")
    assert golden == SetExpr("union", (
        SetExpr("name", payload=("A",)),
        SetExpr("intersect", (SetExpr("name", payload=("B",)),
                              SetExpr("name", payload=("C",)))),
    ))
    golden = parse("!A x B")
    assert golden == SetExpr("complement", (
        SetExpr("product", (SetExpr("name", payload=("A",)),
                            SetExpr("name", payload=("B",)))),
    ))

    for src, offset in (("[0,", 3), ("[0,1] | ", 8), ("[0,1] ? [2,3]", 6),
                        ("scale([0,1) 2)", 12)):
        with pytest.raises(ParseError) as exc:
            parse(src)
        assert exc.value.offset == offset
    _report(9, "50-expression round trip, golden ASTs, exact error offsets")
