import math
import random

import pytest

from boxmeasure import (BoxComplex, Cell, IndeterminateCoefficient, Interval,
                        XPoly, axis_permute, canonicalize, cartesian_product,
                        difference, euler_characteristic, from_cell,
                        hausdorff_measure, intersect, intrinsic_volume, mu,
                        mu_cell, mu_compare, mu_interval, reflect, scale,
                        translate, union, xpoly_add, xpoly_eval, xpoly_mul)
from helpers import (chi_length_oracle_1d, poly_close, random_complex,
                     random_interval, remove_random_atom)

INF = math.inf


def seg2(lo, hi, lo_c=True, hi_c=True):
    """A horizontal segment embedded in the plane."""
    return from_cell(Cell([Interval(lo, hi, lo_c, hi_c), Interval.point(0)]))


# ----------------------------------------------------------- mu_interval

def test_mu_interval_examples():
    assert mu_interval(Interval.point(3)) == XPoly([1])
    assert mu_interval(Interval.open(0, 1)) == XPoly([-1, 1])
    assert mu_interval(Interval.half_open(0, 1)) == XPoly([0, 1])
    assert mu_interval(Interval.closed(0, 1)) == XPoly([1, 1])


def test_mu_half_open_forced_by_additivity():
    # chi([0,1]) = chi([0,1)) + chi({1}) pins chi([0,1)) = 0
    whole = mu_interval(Interval.closed(0, 1))
    parts = xpoly_add(mu_interval(Interval.half_open(0, 1)), mu_interval(Interval.point(1)))
    assert whole == parts


def test_mu_interval_infinite():
    assert mu_interval(Interval(0, INF, True, False)) == XPoly([0, INF])
    assert mu_interval(Interval(0, INF, False, False)) == XPoly([-1, INF])
    assert mu_interval(Interval(-INF, 0, False, True)) == XPoly([0, INF])
    assert mu_interval(Interval(-INF, INF, False, False)) == XPoly([-1, INF])


# --------------------------------------------------------------- mu_cell

def test_mu_cell_examples():
    sq = Cell([Interval.closed(0, 1)] * 2)
    assert mu_cell(sq) == XPoly([1, 2, 1])
    half_sq = Cell([Interval.half_open(0, 1)] * 2)
    assert mu_cell(half_sq) == XPoly([0, 0, 1])
    quadrant = Cell([Interval.half_open(0, 1), Interval(0, INF, True, False)])
    assert mu_cell(quadrant) == XPoly([0, 0, INF])


def test_mu_cell_cross_checks_xpoly_mul():
    # measure path and polynomial path agree on [0,1) x [0,inf)
    direct = mu_cell(Cell([Interval.half_open(0, 1), Interval(0, INF, True, False)]))
    assert direct == xpoly_mul(XPoly([0, 1]), XPoly([0, INF]))


# --------------------------------------------------------------------- mu

def square_ring():
    outer = from_cell(Cell([Interval.closed(0, 3)] * 2))
    inner = from_cell(Cell([Interval.open(1, 2)] * 2))
    return difference(outer, inner)


def test_mu_square_ring():
    ring = square_ring()
    got = mu(ring)
    # valuation identity oracle: mu([0,3]^2) - mu((1,2)^2) on polynomials
    outer = xpoly_mul(XPoly([1, 3]), XPoly([1, 3]))      # 1 + 6x + 9x^2
    inner = xpoly_mul(XPoly([-1, 1]), XPoly([-1, 1]))    # 1 - 2x + x^2
    expected = xpoly_add(outer, xpoly_mul(XPoly([-1]), inner))
    assert expected == XPoly([0, 8, 8])
    assert poly_close(got.mu, XPoly([0, 8, 8]), rel=1e-12)
    assert got.dim == 2 and got.in_Uf and got.in_Ub


def test_mu_disjoint_segments():
    a = canonicalize([Cell([Interval.closed(0, 1)]), Cell([Interval.closed(2, 3)])])
    assert mu(a).mu == XPoly([2, 2])


def test_mu_empty():
    res = mu(BoxComplex(2))
    assert res.mu.is_zero
    assert res.dim == -INF
    assert res.in_Uf and res.in_Ub


def test_mu_flags_unbounded():
    ray = from_cell(Cell([Interval(0, INF, True, False)]))
    res = mu(ray)
    assert res.in_Uf is False and res.in_Ub is False
    assert res.mu == XPoly([0, INF])


def test_mu_indeterminate_propagates():
    # (0,1) x (0,inf) has -inf at x^1; [0,inf) embedded horizontally has +inf there
    neg = Cell([Interval.open(0, 1), Interval(0, INF, False, False)])
    pos = Cell([Interval(5, INF, True, False), Interval.point(0)])
    bad = BoxComplex(2, (neg, pos))
    assert mu_cell(neg).coeff(1) == -INF
    assert mu_cell(pos).coeff(1) == INF
    with pytest.raises(IndeterminateCoefficient):
        mu(bad)


# ------------------------------------------------------------- functionals

def test_euler_characteristic_examples():
    assert euler_characteristic(from_cell(Cell([Interval.closed(0, 1)] * 2))) == 1
    assert euler_characteristic(square_ring()) == 0
    assert euler_characteristic(from_cell(Cell([Interval.open(0, 1)] * 2))) == 1


def test_open_cube_chi_alternates():
    for d in range(4):
        cube = from_cell(Cell([Interval.open(0, 1)] * d))
        assert euler_characteristic(cube) == (-1) ** d


def test_intrinsic_volume_examples():
    sq = from_cell(Cell([Interval.closed(0, 1)] * 2))
    assert intrinsic_volume(sq, 1) == 2
    assert intrinsic_volume(sq, 5) == 0
    assert intrinsic_volume(BoxComplex(2), 0) == 0


def test_hausdorff_measure_examples():
    sq = from_cell(Cell([Interval.closed(0, 1)] * 2))
    assert hausdorff_measure(sq, 2) == 1
    assert hausdorff_measure(sq, 1) == INF
    assert hausdorff_measure(seg2(0, 1), 1) == 1
    assert hausdorff_measure(sq, 3) == 0
    assert hausdorff_measure(BoxComplex(2), 0) == 0


def test_mu_compare_examples():
    assert mu_compare(from_cell(Cell([Interval.open(0, 1)])),
                      from_cell(Cell([Interval.closed(0, 1)]))) == "less"
    a = from_cell(Cell([Interval.half_open(0, 1)]))
    assert mu_compare(a, translate(a, (17,))) == "equal"
    assert mu_compare(from_cell(Cell([Interval.closed(0, 2)])),
                      from_cell(Cell([Interval.closed(0, 1)]))) == "greater"


# ---------------------------------------------------------------- theorems

def test_strict_monotonicity_random():
    rng = random.Random(61)
    for _ in range(100):
        d = rng.randint(1, 3)
        b = random_complex(rng, d, max_cells=3 if d < 3 else 2)
        a = remove_random_atom(rng, b)
        assert mu_compare(a, b) == "less"


def test_valuation_identity_random():
    rng = random.Random(62)
    for _ in range(60):
        d = rng.randint(1, 2)
        a, b = random_complex(rng, d), random_complex(rng, d)
        lhs = xpoly_add(mu(union(a, b)).mu, mu(intersect(a, b)).mu)
        rhs = xpoly_add(mu(a).mu, mu(b).mu)
        assert poly_close(lhs, rhs)


def test_product_formula_random():
    rng = random.Random(63)
    for _ in range(60):
        a = random_complex(rng, rng.randint(1, 2))
        b = random_complex(rng, 1)
        assert poly_close(mu(cartesian_product(a, b)).mu,
                          xpoly_mul(mu(a).mu, mu(b).mu))


def test_homogeneity():
    rng = random.Random(64)
    for beta in (0.5, 2.0, 3.7):
        for _ in range(20):
            d = rng.randint(1, 2)
            a = random_complex(rng, d)
            scaled = mu(scale(a, beta)).mu
            base = mu(a).mu
            expected = XPoly([c * beta ** i for i, c in enumerate(base.coeffs)])
            assert poly_close(scaled, expected, rel=1e-9)


def test_invariance_under_box_motions():
    rng = random.Random(65)
    for _ in range(30):
        d = rng.randint(1, 3)
        a = random_complex(rng, d, max_cells=2)
        base = mu(a).mu
        v = tuple(rng.randrange(-8, 8) / 4 for _ in range(d))
        assert poly_close(mu(translate(a, v)).mu, base, rel=1e-9)
        sigma = list(range(d))
        rng.shuffle(sigma)
        assert poly_close(mu(axis_permute(a, sigma)).mu, base)
        assert poly_close(mu(reflect(a, rng.randrange(d))).mu, base)


def test_intrinsic_one_point_product():
    rng = random.Random(66)
    origin = from_cell(Cell([Interval.point(0)]))
    for _ in range(30):
        a = random_complex(rng, rng.randint(1, 2))
        assert mu(cartesian_product(a, origin)).mu == mu(a).mu


def test_positivity_of_leading_coefficient():
    rng = random.Random(67)
    for _ in range(60):
        a = random_complex(rng, rng.randint(1, 2))
        m = a.dim
        assert mu(a).mu.coeff(m) > 0


def test_scale_factor_unit_cell():
    assert mu(from_cell(Cell([Interval.half_open(0, 1)]))).mu == XPoly([0, 1])


def test_bounded_implies_finite():
    rng = random.Random(68)
    for _ in range(40):
        res = mu(random_complex(rng, rng.randint(1, 2)))
        assert res.in_Ub
        assert res.in_Uf


def test_1d_oracle_agreement():
    rng = random.Random(69)
    for _ in range(80):
        ivs = [random_interval(rng) for _ in range(rng.randint(1, 4))]
        a = canonicalize([Cell([iv]) for iv in ivs], 1)
        chi, length = chi_length_oracle_1d(ivs)
        res = mu(a).mu
        assert res.coeff(0) == chi
        assert res.coeff(1) == pytest.approx(length, abs=1e-12)


def test_degree_bounded_by_dimension():
    rng = random.Random(70)
    for _ in range(40):
        a = random_complex(rng, rng.randint(1, 3), max_cells=2)
        res = mu(a)
        assert res.mu.degree == res.dim


def test_measure_result_json():
    res = mu(seg2(0, 1))
    data = res.to_json()
    assert data == {"mu": {"coeffs": [1.0, 1.0]}, "dim": 1, "in_Uf": True, "in_Ub": True}
    assert mu(BoxComplex(1)).to_json()["dim"] == "-inf"


def test_eval_at_scale():
    # mu_A(N) counts grid-scale content: (1 + x)^2 at 10
    sq = from_cell(Cell([Interval.closed(0, 1)] * 2))
    assert xpoly_eval(mu(sq).mu, 10) == 121


def test_length_past_the_float_range_is_inf():
    # 1.7e308 - (-1.7e308) overflows without a warning, as in mu_cell
    cell = Cell([Interval.closed(-1.7e308, 1.7e308)])
    assert mu(from_cell(cell)).mu.coeffs == mu_cell(cell).coeffs == (1.0, INF)
