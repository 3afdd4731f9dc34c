"""Property tests: the endpoint-grid kernels against simple oracles.

The boolean ops, is_subset and set_equal are checked against the per-cell
membership loop over exact atom representatives (helpers.py), mu against
the sequential xpoly_add of mu_cell, bulk membership against
contains_point, the line-slice chi over merged boxes against the per-cell
sum and slice_euler, the columnar transforms against the per-cell ones, and
the sampler's part split against per-atom classification by representatives.
Operands share endpoints drawn from one small pool per example, mix open
and closed flags, and include adjacent floats, huge and tiny magnitudes and
infinite rays.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxmeasure import (BoxComplex, Cell, IndeterminateCoefficient, Interval,
                        XPoly, axis_permute, bounding_box, canonicalize,
                        cartesian_product, cells_disjoint, complement,
                        contains_point, contains_points, difference, intersect,
                        is_subset, mu, mu_cell, reflect, scale, set_equal,
                        slice_euler, translate, union)
from boxmeasure.boxset import _merged_boxes
from boxmeasure.crofton import _slice_chi_vec
from boxmeasure.sampler import _split_parts
from helpers import (axis_permute_oracle, bounding_box_oracle,
                     cartesian_product_oracle, complex_from_grid_oracle,
                     membership_grid_oracle, mu_sequential_oracle, oracle_axes,
                     pair_grids_oracle, reflect_oracle, sample_parts_oracle,
                     scale_oracle, slice_chi_oracle, translate_oracle)

INF = math.inf
PROPERTY = settings(max_examples=150, deadline=None)

QUARTERS = st.integers(-24, 24).map(lambda k: k / 4)
MODERATE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
ANY_FINITE = st.one_of(
    QUARTERS,
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e17, -1e17, 2e17, 1e300, -1e300,
                     2.0 ** 53, -(2.0 ** 53), 1.7976931348623157e308]),
)


@st.composite
def endpoint_pools(draw, base, adjacent: bool = True):
    """A few endpoint values shared by all operands, some joined by their
    adjacent float."""
    values = draw(st.lists(base, min_size=1, max_size=4))
    pool = list(values)
    for v in values:
        if adjacent and draw(st.booleans()):
            pool.append(math.nextafter(v, draw(st.sampled_from([-INF, INF]))))
    return pool


@st.composite
def cells_on(draw, pool, d: int, rays: bool):
    ends = pool + [-INF, INF] if rays else pool
    factors = []
    for _ in range(d):
        lo, hi = sorted((draw(st.sampled_from(ends)), draw(st.sampled_from(ends))))
        if lo == hi:
            factors.append(Interval.point(lo) if math.isfinite(lo)
                           else Interval(-INF, INF, False, False))
            continue
        factors.append(Interval(lo, hi, draw(st.booleans()) and math.isfinite(lo),
                                draw(st.booleans()) and math.isfinite(hi)))
    return Cell(factors)


@st.composite
def raw_complexes(draw, pool, d: int, rays: bool, max_cells: int = 3):
    """Possibly overlapping cells, taken as the union of the cells."""
    n = draw(st.integers(0, max_cells))
    return BoxComplex(d, [draw(cells_on(pool, d, rays)) for _ in range(n)])


def _same(got: BoxComplex, want: BoxComplex) -> None:
    assert got == want
    assert str(got) == str(want)  # also tells 0.0 from -0.0


# ----------------------------------------------------------- boolean ops

@PROPERTY
@given(st.data())
def test_boolean_ops_match_oracle(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    b = data.draw(raw_complexes(pool, d, rays=True))
    axes, ma, mb = pair_grids_oracle(a, b)
    _same(union(a, b), complex_from_grid_oracle(axes, ma | mb, d))
    _same(intersect(a, b), complex_from_grid_oracle(axes, ma & mb, d))
    _same(difference(a, b), complex_from_grid_oracle(axes, ma & ~mb, d))
    assert is_subset(a, b) == (not (ma & ~mb).any())
    assert set_equal(a, b) == (not (ma ^ mb).any())

    axes_a = oracle_axes(a.cells, d)
    grid_a = membership_grid_oracle(a.cells, axes_a)
    _same(complement(a), complex_from_grid_oracle(axes_a, ~grid_a, d))
    _same(canonicalize(a.cells, d), complex_from_grid_oracle(axes_a, grid_a, d))


def test_boolean_ops_on_adjacent_floats():
    x = 1.0
    y = math.nextafter(x, INF)
    a = BoxComplex(1, [Cell([Interval.point(x)]), Cell([Interval.point(y)])])
    gap = BoxComplex(1, [Cell([Interval.open(x, y)])])
    assert str(complement(a)) == f"(-inf,{x}) | ({x},{y}) | ({y},inf)"
    assert set_equal(union(a, gap), BoxComplex(1, [Cell([Interval.closed(x, y)])]))
    assert intersect(a, gap).is_empty


# ------------------------------------------------------------------- mu

def _exact_column_sums(a: BoxComplex) -> list[float]:
    """Per coefficient, the correctly rounded exact sum of the cells'
    mu_cell coefficients."""
    polys = [mu_cell(c) for c in a.cells]
    width = max((len(p.coeffs) for p in polys), default=0)
    return [float(sum((Fraction(p.coeff(k)) for p in polys), Fraction(0)))
            for k in range(width)]


@PROPERTY
@given(st.data())
def test_mu_bit_identical_on_quarter_integers(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(QUARTERS, adjacent=False))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    res = mu(a)
    assert res.mu.coeffs == mu_sequential_oracle(a).coeffs
    assert res.dim == a.dim
    assert res.in_Ub == a.is_bounded


@PROPERTY
@given(st.data())
def test_mu_close_to_sequential_sum_on_general_floats(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(MODERATE))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    got = mu(a).mu
    # fsum rounds each coefficient once: the exact sum of the cell values
    assert got.coeffs == XPoly(_exact_column_sums(a)).coeffs
    # the sequential sum rounds once per cell, each time by at most one ulp
    # of the running sum, so the two differ by at most n ulp of sum |term|
    # (not by a few ulp of the result: 1 + t - 1 loses t entirely)
    want = mu_sequential_oracle(a)
    polys = [mu_cell(c) for c in a.cells]
    for k in range(max(len(got.coeffs), len(want.coeffs))):
        scale = math.fsum(abs(p.coeff(k)) for p in polys)
        assert abs(got.coeff(k) - want.coeff(k)) <= len(polys) * math.ulp(scale)


@PROPERTY
@given(st.data())
def test_mu_unbounded_raises_where_oracle_does(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(QUARTERS, adjacent=False))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=True)).cells, d)
    try:
        want = mu_sequential_oracle(a)
    except IndeterminateCoefficient:
        with pytest.raises(IndeterminateCoefficient):
            mu(a)
        return
    res = mu(a)
    assert res.mu.coeffs == want.coeffs
    assert res.in_Uf == want.is_finite
    assert res.in_Ub == a.is_bounded


@PROPERTY
@given(st.data())
def test_mu_of_one_cell_is_mu_cell(data):
    d = data.draw(st.integers(0, 4))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    cell = data.draw(cells_on(pool, d, rays=True))
    try:
        want = mu_cell(cell)
    except IndeterminateCoefficient:
        with pytest.raises(IndeterminateCoefficient):
            mu(BoxComplex(d, [cell]))
        return
    except OverflowError:
        # two finite terms whose sum passes the float range: fsum inside
        # xpoly_mul raises, the vectorized step rounds to an infinity
        assert not mu(BoxComplex(d, [cell])).mu.is_finite
        return
    assert mu(BoxComplex(d, [cell])).mu.coeffs == want.coeffs


def test_mu_indeterminate_inside_one_cell():
    # (-inf,inf) x [0,1] x (0,1): x^2 pairs +inf with -inf within the cell
    cell = Cell([Interval(-INF, INF, False, False), Interval.closed(0, 1),
                 Interval.open(0, 1)])
    with pytest.raises(IndeterminateCoefficient):
        mu_cell(cell)
    with pytest.raises(IndeterminateCoefficient):
        mu(BoxComplex(3, [cell]))


def test_mu_indeterminate_across_cells():
    # [0,1] x (0,inf) gives 2x^1 coefficient +inf, (2,3) x (0,inf) gives -inf
    ray = Interval(0, INF, False, False)
    a = BoxComplex(2, [Cell([Interval.closed(0, 1), ray]), Cell([Interval.open(2, 3), ray])])
    with pytest.raises(IndeterminateCoefficient) as exc:
        mu(a)
    assert exc.value.index == 1
    with pytest.raises(IndeterminateCoefficient):
        mu_sequential_oracle(a)


def test_mu_sums_past_the_float_range():
    big = 1e308
    # x^1 column: big + big - big; the partial sum big + big overflows
    a = BoxComplex(2, [Cell([Interval.closed(0, big), Interval.point(0)]),
                       Cell([Interval.closed(0, big), Interval.point(2)]),
                       Cell([Interval.open(0, big), Interval.open(2, 3)])])
    assert mu(a).mu.coeff(1) == big
    # two disjoint lengths whose sum passes the float range
    b = BoxComplex(1, [Cell([Interval.closed(-1.7e308, -0.2e308)]),
                       Cell([Interval.closed(0, 1.5e308)])])
    assert mu(b).mu.coeff(1) == INF
    assert not mu(b).in_Uf


# ------------------------------------------------- bulk point membership

@st.composite
def coordinates(draw, pool):
    """A coordinate on a cut, next to one, or anywhere, signed zeros and
    non-finite values included."""
    return draw(st.one_of(
        st.sampled_from(pool),
        st.sampled_from(pool).map(lambda v: math.nextafter(v, INF)),
        st.sampled_from(pool).map(lambda v: math.nextafter(v, -INF)),
        st.sampled_from([0.0, -0.0, INF, -INF, math.nan]),
        st.floats(allow_nan=True, allow_infinity=True),
    ))


@PROPERTY
@given(st.data())
def test_contains_points_matches_contains_point(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    pts = data.draw(st.lists(st.tuples(*[coordinates(pool)] * d), min_size=1, max_size=12))
    got = contains_points(a, np.array(pts, dtype=float))
    assert got.dtype == bool and got.shape == (len(pts),)
    assert got.tolist() == [contains_point(a, x) for x in pts]


# ---------------------------------------------------------- merged boxes

def _box_cells(a: BoxComplex) -> list[Cell]:
    ends, closed = _merged_boxes(a)
    return [Cell(Interval(lo, hi, lo_c, hi_c)
                 for (lo, hi), (lo_c, hi_c) in zip(e, c))
            for e, c in zip(ends.tolist(), closed.tolist())]


@PROPERTY
@given(st.data())
def test_merged_boxes_are_a_disjoint_cover(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    raw = data.draw(raw_complexes(pool, d, rays=True, max_cells=4))
    a = canonicalize(raw.cells, d)
    boxes = _box_cells(a)
    assert all(cells_disjoint(p, q) for p, q in itertools.combinations(boxes, 2))
    assert set_equal(BoxComplex(d, boxes), a)
    assert set_equal(BoxComplex(d, _box_cells(raw)), a)
    assert len(boxes) <= len(a.cells)


# ------------------------------------------------------- line-slice chi

# On quarter-integer cuts within a few units of the base point, with every
# nonzero direction component at least 1/sqrt(27), distinct cuts never
# round to the same t, so the merged boxes and the cells agree exactly.
DIRECTIONS = st.tuples(*[st.integers(-3, 3)] * 3).filter(any)


@st.composite
def lines(draw, pool, d: int):
    """A base point on cuts, between them or anywhere near, and a unit
    direction that may have zero components."""
    near = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
    gaps = [(x + y) / 2 for x, y in zip(pool, pool[1:])]
    p = tuple(draw(st.one_of(st.sampled_from(pool), st.sampled_from(gaps or pool), near))
              for _ in range(d))
    u = draw(DIRECTIONS.filter(lambda v: any(v[:d])))[:d]
    nrm = math.sqrt(sum(c * c for c in u))
    return p, tuple(c / nrm for c in u)


@PROPERTY
@given(st.data())
def test_slice_chi_matches_cells_and_slice_euler(data):
    d = data.draw(st.integers(1, 3))
    pool = sorted(set(data.draw(endpoint_pools(QUARTERS, adjacent=False))))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=True)).cells, d)
    drawn = data.draw(st.lists(lines(pool, d), min_size=1, max_size=8))
    corner = tuple(data.draw(st.sampled_from(pool)) for _ in range(d))
    drawn.append((corner, drawn[0][1]))  # a line through a grid corner
    p = np.array([q for q, _ in drawn], dtype=float)
    u = np.array([v for _, v in drawn], dtype=float)
    got = _slice_chi_vec(a, p, u)
    assert got.tolist() == slice_chi_oracle(a, p, u).tolist()
    assert got.tolist() == [slice_euler(a, q, v) for q, v in drawn]


def test_slice_chi_where_cuts_round_to_one_t():
    # 0, 1 and 2 all map to t = 1e17: cell by cell the three point atoms
    # count once each, the merged box [0,2] gives the point slice {1e17}
    a = canonicalize([Cell([Interval.closed(0, 1)]), Cell([Interval(1, 2, False, True)])], 1)
    p, u = np.array([[-1e17]]), np.array([[1.0]])
    assert slice_chi_oracle(a, p, u).tolist() == [3]
    assert _slice_chi_vec(a, p, u).tolist() == [1]


# --------------------------------------------------------- sampler parts

@PROPERTY
@given(st.data())
def test_sample_parts_match_per_atom_oracle(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(st.one_of(QUARTERS, MODERATE), adjacent=False))
    sets = data.draw(st.lists(raw_complexes(pool, d, rays=False), max_size=3))
    coordinate = st.one_of(st.sampled_from(pool + [0.0, 1.0]), QUARTERS, MODERATE)
    points = data.draw(st.lists(st.tuples(*[coordinate] * d), max_size=3, unique=True))
    try:
        want = sample_parts_oracle(sets, points, d)
    except ValueError:  # an atom holds no float, so the oracle cannot test it
        assume(False)
    unit = BoxComplex(d, [Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * (d - 1))])
    marks = BoxComplex(d, [Cell(Interval.point(v) for v in x) for x in points])
    got = [[(p.region, p.poly) for p in parts] for parts in _split_parts(unit, marks, sets)]
    assert got == want


# ------------------------------------------------------------ transforms

def _outcome(fn, *args):
    """str of a complex (it tells 0.0 from -0.0), repr of anything else, or
    the type and message of the error raised."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return str(got) if isinstance(got, BoxComplex) else repr(got)


SHIFTS = st.one_of(ANY_FINITE, st.sampled_from([1e308, -1e308, INF, -INF]))
FACTORS = st.one_of(st.floats(min_value=1e-300, allow_nan=False),
                    st.sampled_from([1e-300, 5e-324, 1e300, INF]))


@PROPERTY
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.data())
def test_transforms_match_per_cell_oracles(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=data.draw(st.booleans())))
    if data.draw(st.booleans()):
        a = canonicalize(a.cells, d)  # a complex built from columns
    b = data.draw(raw_complexes(pool, data.draw(st.integers(0, 2)), rays=True))
    cases = [
        (translate, translate_oracle, (a, [data.draw(SHIFTS) for _ in range(d)])),
        (scale, scale_oracle, (a, data.draw(FACTORS))),
        (reflect, reflect_oracle, (a, data.draw(st.integers(-1, d)))),
        (axis_permute, axis_permute_oracle, (a, data.draw(st.permutations(range(d))))),
        (cartesian_product, cartesian_product_oracle, (a, b)),
        (cartesian_product, cartesian_product_oracle, (b, a)),
        (bounding_box, bounding_box_oracle, (a,)),
    ]
    for fn, oracle, args in cases:
        assert _outcome(fn, *args) == _outcome(oracle, *args), fn.__name__
