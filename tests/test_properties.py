"""Property tests: the endpoint-grid kernels against simple oracles.

The boolean ops, is_subset and set_equal are checked against the per-cell
membership loop over exact atom representatives (helpers.py), on raw cell
lists and on op results and their transforms, whose stored grids must equal
grids rebuilt from their columns; the n-ary union against a left fold of
binary unions, cuts included; evaluate's one membership pass for & and \\
over box literals against the fold of union, intersect and difference on
one-cell complexes (cuts with their sign bits, mask, str, exact mu and
errors); the bincount membership kernel against
the np.add.at one it replaced, mu against an exact expansion of every
cell into its terms (rounded once), against the float kernel it replaced
and the sequential xpoly_add of mu_cell (bit for bit on quarter-integers),
and on a stored grid against the same cells without one, the valuation
identity and strict monotonicity (endpoints up to 2^60) on the exact
coefficients, contains_points and contains_point against the per-cell
membership loop, the exact column kernel summed by runs of rows against each
run on its own, the line-slice chi over merged boxes against the per-cell
sum and slice_line's merged pieces, the line-slice kernel's per-box arrays
against the kernel that divided per box end (byte for byte, through grid
corners, zero and tiny direction components, rays and clamped t's), the
columnar transforms against the per-cell ones, the sampler's part split
against per-atom classification by representatives with each part's exact
expansion, build_sample against a recount by the per-cell loop in exact
arithmetic, and find_near_integer_N against a brute-force least N. Operands
share endpoints drawn from one small pool per example, mix open and closed
flags, and include adjacent floats, huge and tiny magnitudes and infinite
rays.
"""

import functools
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from boxmeasure import (BoxComplex, Cell, CellTooSmall, DimensionMismatch,
                        IndeterminateCoefficient, Interval, SearchExhausted, SetExpr, XPoly,
                        axis_permute,
                        bounding_box, build_sample, canonicalize,
                        cartesian_product, complement,
                        contains_point, contains_points, difference, evaluate,
                        find_near_integer_N, intersect, is_subset, mu, mu_cell, mu_compare,
                        reflect, scale, set_equal, slice_euler, slice_line,
                        translate, union)
from boxmeasure.boxset import _grids, _membership_grid, _merged_index_boxes
from boxmeasure.crofton import _box_slices, _slice_chi_vec
from boxmeasure.measure import _cell_numerators
from boxmeasure.sampler import _split_parts
from helpers import (assert_same, axis_permute_oracle, boolean_fold_oracle, bounding_box_oracle,
                     box_slices_oracle,
                     cartesian_product_oracle, cells_disjoint, complex_from_grid_oracle,
                     contains_point_oracle,
                     grids_oracle, least_n_oracle, mapped_atoms_oracle, membership_grid_oracle,
                     merged_boxes,
                     mu_exact_oracle, mu_float_oracle, mu_sequential_oracle, oracle_axes,
                     pair_grids_oracle, reflect_oracle, rounded_once, sample_parts_oracle,
                     scale_oracle, slice_chi_oracle,
                     slice_line_chi_oracle, translate_oracle, union_fold_oracle)

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


# ----------------------------------------------------------- boolean ops

@PROPERTY
@given(st.data())
def test_boolean_ops_match_oracle(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    b = data.draw(raw_complexes(pool, d, rays=True))
    axes, ma, mb = pair_grids_oracle(a, b)
    assert_same(union(a, b), complex_from_grid_oracle(axes, ma | mb, d))
    assert_same(intersect(a, b), complex_from_grid_oracle(axes, ma & mb, d))
    assert_same(difference(a, b), complex_from_grid_oracle(axes, ma & ~mb, d))
    assert is_subset(a, b) == (not (ma & ~mb).any())
    assert set_equal(a, b) == (not (ma ^ mb).any())

    axes_a = oracle_axes(a.cells, d)
    grid_a = membership_grid_oracle(a.cells, axes_a)
    assert_same(complement(a), complex_from_grid_oracle(axes_a, ~grid_a, d))
    assert_same(canonicalize(a.cells, d), complex_from_grid_oracle(axes_a, grid_a, d))


def _same_cuts(got, want) -> None:
    assert [c.tobytes() for c in got] == [c.tobytes() for c in want]  # -0.0 is not 0.0


def _grid_is_fresh(a: BoxComplex) -> None:
    """a's stored grid is the one rebuilt afresh from its own columns."""
    cuts, mask = a.__dict__["_grid"]
    want_cuts, (want,) = grids_oracle(a)
    _same_cuts(cuts, want_cuts)
    assert np.array_equal(mask, want)


ZEROS_AND_QUARTERS = st.one_of(st.sampled_from([0.0, -0.0]), QUARTERS)


@st.composite
def chained_complexes(draw, pool, d: int):
    """The result of a boolean op on raw complexes, which carries its grid,
    or that result moved by a transform, which maps that grid."""
    a = draw(raw_complexes(pool, d, rays=True))
    b = draw(raw_complexes(pool, d, rays=True))
    op = draw(st.sampled_from([union, intersect, difference, None]))
    r = complement(a) if op is None else op(a, b)
    move = draw(st.sampled_from(["none", "translate", "permute"] + ["reflect"] * (d > 0)))
    if move == "translate":
        try:
            r = translate(r, [draw(ZEROS_AND_QUARTERS) for _ in range(d)])
        except ValueError:  # a huge or adjacent endpoint left the reals or collapsed
            pass
    elif move == "reflect":
        r = reflect(r, draw(st.integers(0, d - 1)))
    elif move == "permute":
        r = axis_permute(r, draw(st.permutations(range(d))))
    return r


@PROPERTY
@given(st.data())
def test_boolean_ops_on_chained_operands_match_oracle(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE)) + [0.0, -0.0]
    x = data.draw(chained_complexes(pool, d))
    y = data.draw(chained_complexes(pool, d))
    got = {"union": union(x, y), "intersect": intersect(x, y), "difference": difference(x, y),
           "complement": complement(x)}
    subset, equal = is_subset(x, y), set_equal(x, y)
    again = union(got["difference"], got["intersect"])  # operands that are both op results

    axes, mx, my = pair_grids_oracle(x, y)
    assert_same(got["union"], complex_from_grid_oracle(axes, mx | my, d))
    assert_same(got["intersect"], complex_from_grid_oracle(axes, mx & my, d))
    assert_same(got["difference"], complex_from_grid_oracle(axes, mx & ~my, d))
    assert subset == (not (mx & ~my).any())
    assert equal == (not (mx ^ my).any())
    axes_x = oracle_axes(x.cells, d)
    assert_same(got["complement"], complex_from_grid_oracle(
        axes_x, ~membership_grid_oracle(x.cells, axes_x), d))
    axes, ma, mb = pair_grids_oracle(got["difference"], got["intersect"])
    assert_same(again, complex_from_grid_oracle(axes, ma | mb, d))
    for r in (x, y, again, *got.values()):
        _grid_is_fresh(r)


@PROPERTY
@given(st.data())
def test_n_ary_union_matches_a_fold_of_binary_unions(data):
    d = data.draw(st.integers(0, 3))  # R^0: its point or the empty complex
    pool = data.draw(endpoint_pools(ANY_FINITE)) + [0.0, -0.0]
    k = data.draw(st.integers(2, 6))
    ops = [data.draw(st.one_of(raw_complexes(pool, d, rays=True), chained_complexes(pool, d)))
           for _ in range(k)]
    for x in ops:
        if data.draw(st.booleans()):
            _grids(x)  # a raw operand then carries its own grid
    got = union(*ops)
    want = union_fold_oracle(*ops)
    assert_same(got, want)
    _same_cuts(got.__dict__["_grid"][0], want.__dict__["_grid"][0])
    _grid_is_fresh(got)


LITERAL_ENDS = [-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]


@st.composite
def box_literals(draw, d: int):
    """1-4 box literals over LITERAL_ENDS and rays, open, closed or points,
    mostly of dimension d; about one in ten is of a dimension from 1 to 3."""
    boxes = []
    for _ in range(draw(st.integers(1, 4))):
        k = d if draw(st.integers(0, 9)) else draw(st.integers(1, 3))
        boxes.append(SetExpr("box", payload=draw(cells_on(LITERAL_ENDS, k, rays=True)).factors))
    return boxes


@PROPERTY
@given(st.data())
def test_boolean_of_boxes_matches_the_fold(data):
    # evaluate takes & and \ over boxes and unions of boxes in one membership
    # pass, and | over boxes in one n-ary union
    d = data.draw(st.integers(1, 3))
    kind = data.draw(st.sampled_from(["union", "intersect", "difference"]))
    left, right = data.draw(box_literals(d)), data.draw(box_literals(d))
    e = SetExpr(kind, tuple(functools.reduce(lambda a, b: SetExpr("union", (a, b)), boxes)
                            for boxes in (left, right)))
    outcome = _outcome(boolean_fold_oracle, kind, left, right)  # str, or the error
    assert _outcome(evaluate, e) == outcome
    if isinstance(outcome, tuple):
        return
    got, want = evaluate(e), boolean_fold_oracle(kind, left, right)
    assert got == want
    (got_cuts, got_mask), (want_cuts, want_mask) = got.__dict__["_grid"], want.__dict__["_grid"]
    _same_cuts(got_cuts, want_cuts)
    assert np.array_equal(got_mask, want_mask)
    assert _outcome(lambda: mu(got).exact) == _outcome(lambda: mu(want).exact)


@PROPERTY
@given(st.data())
def test_membership_grid_matches_the_add_at_kernel(data):
    d = data.draw(st.integers(0, 3))  # R^0: its point or the empty complex
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    b = data.draw(raw_complexes(pool, d, rays=True))
    for x in (a, b):
        cuts, (want,) = grids_oracle(x)
        got_cuts, (got,) = _grids(x)  # built from the columns, then stored
        _same_cuts(got_cuts, cuts)
        assert np.array_equal(got, want)
        assert np.array_equal(_membership_grid(x.ends, x.closed, cuts), want)
    cuts, want = grids_oracle(a, b)
    got_cuts, got = _grids(a, b)  # both remapped from their stored grids
    _same_cuts(got_cuts, cuts)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_boolean_ops_on_adjacent_floats():
    x = 1.0
    y = math.nextafter(x, INF)
    a = BoxComplex(1, [Cell([Interval.point(x)]), Cell([Interval.point(y)])])
    gap = BoxComplex(1, [Cell([Interval.open(x, y)])])
    assert str(complement(a)) == f"(-inf,{x}) | ({x},{y}) | ({y},inf)"
    assert set_equal(union(a, gap), BoxComplex(1, [Cell([Interval.closed(x, y)])]))
    assert intersect(a, gap).is_empty


# ------------------------------------------------------------------- mu

def _abs_scale(cells, k: int) -> float:
    """Coefficient k of the sum over the cells of prod_j (|chi_j| + length_j x):
    the size of the terms that coefficient k of mu adds up."""
    def absolute(f):
        return Interval.closed(f.lo, f.hi) if not (f.lo_closed or f.hi_closed) else f
    return math.fsum(mu_cell(Cell(map(absolute, c.factors))).coeff(k) for c in cells)


@PROPERTY
@given(st.data())
def test_mu_bit_identical_on_quarter_integers(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(QUARTERS, adjacent=False))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    res = mu(a)
    assert res.mu.coeffs == mu_sequential_oracle(a).coeffs
    assert res.mu.coeffs == mu_float_oracle(a).coeffs
    assert res.dim == a.dim
    assert res.in_Ub == a.is_bounded


def _assert_mu_close_to_sequential_sum(a: BoxComplex) -> None:
    res = mu(a)
    got = res.mu
    # each coefficient is the exact sum of the cells' terms, rounded once
    exact = mu_exact_oracle(a)
    assert list(res.exact) == exact
    assert got.coeffs == rounded_once(exact).coeffs
    # the sequential sum rounds once per cell, each time by at most one ulp
    # of the running sum, and each mu_cell value is off by its rounded
    # lengths and products, at most 3d ulp of its terms; so the two differ
    # by at most (n + 3d + 1) ulp of sum |term| (not by a few ulp of the
    # result: 1 + t - 1 loses t entirely). Below the normal range a rounding
    # errs by up to half the smallest subnormal instead, and the later
    # factors of a product, at most L^(d-1) with L the longest finite
    # length, multiply that error up
    want = mu_sequential_oracle(a)
    cells = a.cells
    d = a.ambient_dim
    longest = max((abs(f.hi - f.lo) for c in cells for f in c.factors
                   if math.isfinite(f.hi - f.lo)), default=0.0)
    underflow = 5e-324 * max(1.0, longest) ** (d - 1)
    for k in range(max(len(got.coeffs), len(want.coeffs))):
        bound = (len(cells) + 3 * d + 1) * (math.ulp(_abs_scale(cells, k)) + underflow)
        assert abs(got.coeff(k) - want.coeff(k)) <= bound


@PROPERTY
@given(st.data())
def test_mu_close_to_sequential_sum_on_general_floats(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(MODERATE))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    _assert_mu_close_to_sequential_sum(a)


def test_mu_close_to_sequential_sum_where_a_product_underflows():
    # the sequential sum rounds 23.5 units of 5e-324 to 24 in one factor and
    # the next multiplies that up: 564 units against the exact 552
    thin = Cell([Interval.open(0.0, 23.5), Interval.open(-5e-324, 0.0), Interval.open(0.0, 23.5)])
    _assert_mu_close_to_sequential_sum(canonicalize([thin], 3))


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
        with pytest.raises(IndeterminateCoefficient):
            mu_float_oracle(a)
        return
    res = mu(a)
    assert res.mu.coeffs == want.coeffs == mu_float_oracle(a).coeffs
    assert res.in_Uf == want.is_finite
    assert res.in_Ub == a.is_bounded


@PROPERTY
@given(st.data())
def test_mu_of_one_cell_is_mu_cell(data):
    d = data.draw(st.integers(0, 4))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    cell = data.draw(cells_on(pool, d, rays=True))
    a = BoxComplex(d, [cell])
    try:
        exact = mu_exact_oracle(a)
    except IndeterminateCoefficient as exc:
        with pytest.raises(IndeterminateCoefficient) as got:
            mu(a)
        assert got.value.index == exc.index
        return
    res = mu(a)
    assert list(res.exact) == exact
    assert res.mu.coeffs == rounded_once(exact).coeffs
    assert res.in_Uf == res.in_Ub == all(f.is_bounded for f in cell.factors)
    if d <= 1:  # mu_cell rounds the one length once, as mu does
        assert res.mu.coeffs == mu_cell(cell).coeffs


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
    # the exact coefficient is finite: only its rounding passes the float range
    assert mu(b).exact[1] == Fraction(-0.2e308) - Fraction(-1.7e308) + Fraction(1.5e308)
    assert mu(b).in_Uf


def _mu_or_index(a: BoxComplex):
    try:
        res = mu(a)
    except IndeterminateCoefficient as exc:
        return exc.index
    return res, res.exact


@PROPERTY
@given(st.data())
def test_mu_on_the_grid_equals_mu_on_the_columns(data):
    d = data.draw(st.integers(0, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    b = data.draw(raw_complexes(pool, d, rays=True))
    for r in (union(a, b), intersect(a, b), difference(a, b), complement(a)):
        got = _mu_or_index(r)  # on the stored grid, unless it keeps a ray atom
        assert "ends" not in r.__dict__ or not r.is_bounded
        assert got == _mu_or_index(BoxComplex(d, r.cells))  # the same cells, no grid


@PROPERTY
@given(st.data())
def test_valuation_identity_holds_exactly(data):
    d = data.draw(st.integers(1, 3))
    pool = [v for v in data.draw(endpoint_pools(ANY_FINITE)) if math.isfinite(v)]
    assume(pool)  # the float after the largest one is inf
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    b = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)

    def total(*sets):
        return [sum(mu(x).exact[k] for x in sets if k < len(mu(x).exact)) for k in range(d + 1)]
    assert total(union(a, b), intersect(a, b)) == total(a, b)


HUGE_AND_DECIMAL = st.one_of(
    st.integers(-2 ** 60, 2 ** 60).map(float),
    st.decimals(-10 ** 6, 10 ** 6, places=3).map(float),
    st.sampled_from([2.0 ** 60, -2.0 ** 60, 2.0 ** 59 + 1024.0, 5.0, 6.0, 0.1]),
)


def _exact_runs(ends: np.ndarray, closed: np.ndarray, starts=(0,)):
    """The exact coefficients of each union of _cell_numerators, Fractions
    or +-inf, or the index of the IndeterminateCoefficient it raises."""
    try:
        s, nums, signs = _cell_numerators(ends, closed, starts)
    except IndeterminateCoefficient as exc:
        return exc.index
    return [[sign * INF if sign else Fraction(num) / Fraction(2) ** (s * k)
             for k, (num, sign) in enumerate(zip(col, col_signs))]
            for col, col_signs in zip(nums.T.tolist(), signs.T.tolist())]


@PROPERTY
@given(st.data())
def test_cell_numerators_sum_each_run_as_on_its_own(data):
    d = data.draw(st.integers(0, 3))
    # huge endpoints beside decimals take the sums to Python ints; rays of
    # both signs make ray terms and indeterminate coefficients
    pool = data.draw(endpoint_pools(st.one_of(QUARTERS, HUGE_AND_DECIMAL), adjacent=False))
    runs = data.draw(st.lists(raw_complexes(pool, d, rays=True).filter(lambda r: not r.is_empty),
                              min_size=1, max_size=4))
    starts = np.cumsum([0] + [len(r.ends) for r in runs[:-1]])
    got = _exact_runs(np.concatenate([r.ends for r in runs]),
                      np.concatenate([r.closed for r in runs]), starts)
    alone = [_exact_runs(r.ends, r.closed) for r in runs]
    raised = [i for i in alone if isinstance(i, int)]
    if raised:  # the first coefficient that is indeterminate in some run
        assert got == min(raised)
    else:
        assert got == [run for run, in alone]


@PROPERTY
@given(st.data())
def test_mu_is_strictly_monotone_up_to_2_to_the_60(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(HUGE_AND_DECIMAL, adjacent=False))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=False)).cells, d)
    assume(not a.is_empty)
    atom = data.draw(st.sampled_from(a.cells))
    b = difference(a, BoxComplex(d, [atom]))  # a proper subset: one atom fewer
    assert mu_compare(b, a) == "less"
    assert mu_compare(a, b) == "greater"


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
    assert got.tolist() == [contains_point_oracle(a, x) for x in pts]


@PROPERTY
@given(st.data())
def test_contains_point_matches_the_per_cell_loop(data):
    d = data.draw(st.integers(0, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=True))
    pts = data.draw(st.lists(st.tuples(*[coordinates(pool)] * d), min_size=1, max_size=6))
    for x in pts:
        assert contains_point(a, x) is contains_point_oracle(a, x)
    wrong = data.draw(st.lists(coordinates(pool), max_size=4).filter(lambda x: len(x) != d))
    with pytest.raises(DimensionMismatch) as got:
        contains_point(a, wrong)
    with pytest.raises(DimensionMismatch) as want:
        contains_point_oracle(a, wrong)
    assert str(got.value) == str(want.value)


# ---------------------------------------------------------- merged boxes

def _box_cells(a: BoxComplex) -> list[Cell]:
    ends, closed = merged_boxes(a)
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
    assert got.tolist() == [slice_line_chi_oracle(a, q, v) for q, v in drawn]


def test_slice_chi_where_cuts_round_to_one_t():
    # 0, 1 and 2 all map to t = 1e17: cell by cell the three point atoms
    # count once each, the merged box [0,2] gives the point slice {1e17}
    a = canonicalize([Cell([Interval.closed(0, 1)]), Cell([Interval(1, 2, False, True)])], 1)
    p, u = np.array([[-1e17]]), np.array([[1.0]])
    assert slice_chi_oracle(a, p, u).tolist() == [3]
    assert _slice_chi_vec(a, p, u).tolist() == [1]
    assert slice_line(a, (-1e17,), (1.0,)) == [Interval.point(1e17)]
    assert slice_euler(a, (-1e17,), (1.0,)) == 1



# Beside +-1, the other components of a direction may be zero or tiny, so
# that the t's of far cuts pass the float range and clamp.
TINY_OR_ZERO = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e-17, 0.5])


@st.composite
def kernel_lines(draw, pool, d: int):
    """A base point on cuts (so through grid corners), between them or near
    them, and a unit direction that may have zero or tiny components."""
    finite = [v for v in pool if math.isfinite(v)]
    gaps = [x / 2 + y / 2 for x, y in zip(finite, finite[1:])]
    near = st.floats(-8, 8, allow_nan=False, allow_infinity=False)
    p = tuple(draw(st.one_of(st.sampled_from(finite), st.sampled_from(gaps or finite), near))
              for _ in range(d))
    if draw(st.booleans()):
        u = draw(DIRECTIONS.filter(lambda v: any(v[:d])))[:d]
    else:
        k = draw(st.integers(0, d - 1))
        u = tuple(draw(st.sampled_from([1.0, -1.0])) if j == k else draw(TINY_OR_ZERO)
                  for j in range(d))
    nrm = math.sqrt(sum(c * c for c in u))
    return p, tuple(c / nrm for c in u)


def _same_box_slices(a: BoxComplex, p: np.ndarray, u: np.ndarray) -> None:
    """The kernel's per-box arrays equal the oracle's byte for byte, once 0.0
    is added to the float ones: a zero t carries no sign in the kernel."""
    want = list(box_slices_oracle(a, p, u))
    got = list(_box_slices(_merged_index_boxes(a), p, u))
    assert len(got) == len(want)
    for got_box, want_box in zip(got, want):
        for x, y in zip(got_box, want_box):
            if x.dtype.kind == "f":
                x, y = x + 0.0, y + 0.0
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


@PROPERTY
@given(st.data())
def test_box_slices_match_oracle(data):
    d = data.draw(st.integers(1, 3))
    pool = sorted(set(data.draw(endpoint_pools(st.one_of(QUARTERS, ANY_FINITE)))))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=True)).cells, d)
    drawn = data.draw(st.lists(kernel_lines(pool, d), min_size=1, max_size=8))
    finite = [v for v in pool if math.isfinite(v)]
    corner = tuple(data.draw(st.sampled_from(finite)) for _ in range(d))
    drawn.append((corner, drawn[0][1]))  # a line through a grid corner
    _same_box_slices(a, np.array([q for q, _ in drawn], dtype=float),
                     np.array([v for _, v in drawn], dtype=float))


@PROPERTY
@given(st.data())
def test_slice_line_never_returns_negative_zero(data):
    d = data.draw(st.integers(1, 3))
    pool = sorted(set(data.draw(endpoint_pools(st.one_of(QUARTERS, ANY_FINITE)))))
    a = canonicalize(data.draw(raw_complexes(pool, d, rays=True)).cells, d)
    p, u = data.draw(kernel_lines(pool, d))
    ends = [v for iv in slice_line(a, p, u) for v in (iv.lo, iv.hi)]
    assert not any(v == 0.0 and math.copysign(1.0, v) < 0 for v in ends)


def test_box_slices_match_oracle_at_the_float_range():
    # the inputs of test_slice_where_t_overflows, and lines through the
    # corners of squares whose t's clamp at +-float max
    big = 1.7e308
    cases = [(canonicalize([Cell([Interval.closed(0, 1)] * 2)], 2), (0.5, 0.5), (5e-324, 1.0))]
    for closed in (True, False):
        a = canonicalize([Cell([Interval(-big, big, closed, closed)] * 2)], 2)
        cases += [(a, (0.0, 0.0), (0.6, 0.8)), (a, (big, -big), (0.6, -0.8)),
                  (a, (-big, -big), (5e-324, 1.0)), (a, (big, 0.0), (-1.0, 0.0))]
    for a, p, u in cases:
        _same_box_slices(a, np.array([p]), np.array([u]))


# --------------------------------------------------------- sampler parts

@PROPERTY
@given(st.data())
def test_sample_parts_match_per_atom_oracle(data):
    d = data.draw(st.integers(1, 3))
    # huge endpoints beside decimals take the sum by part to Python ints
    pool = data.draw(endpoint_pools(st.one_of(QUARTERS, MODERATE, HUGE_AND_DECIMAL)))
    sets = data.draw(st.lists(raw_complexes(pool, d, rays=False), max_size=3))
    coordinate = st.one_of(st.sampled_from(pool + [0.0, 1.0]), QUARTERS, MODERATE)
    points = data.draw(st.lists(st.tuples(*[coordinate] * d), max_size=3, unique=True))
    want = sample_parts_oracle(sets, points, d)
    unit = BoxComplex(d, [Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * (d - 1))])
    marks = BoxComplex(d, [Cell(Interval.point(v) for v in x) for x in points])
    # the atoms are bounded, so their ends fix their flags: a point is closed, a gap open
    got = [[(p.ends.tolist(), p.poly) for p in parts] for parts in _split_parts(unit, marks, sets)]
    assert got == [[(r.ends.tolist(), poly) for r, poly in parts] for parts in want]


def test_sample_parts_with_many_parts_match_per_atom_oracle():
    # 20 overlapping boxes cut 58 parts; thirds and sevenths sum in Python ints
    sets = [BoxComplex(2, [Cell([Interval.closed(i / 3, i / 3 + 0.7), Interval.open(i / 7, i / 7 + 2.5)])])
            for i in range(20)]
    want = sample_parts_oracle(sets, [], 2)
    unit = BoxComplex(2, [Cell([Interval.half_open(0.0, 1.0), Interval.point(0.0)])])
    got = [[(p.ends.tolist(), p.poly) for p in parts] for parts in _split_parts(unit, BoxComplex(2), sets)]
    assert sum(map(len, got)) == 58
    assert got == [[(r.ends.tolist(), poly) for r, poly in parts] for parts in want]


def test_sample_parts_match_oracle_on_a_gap_without_floats():
    # the open atom (2, nextafter(2, 3)) holds no float: the oracle tests it
    # through its exact midpoint
    unit = BoxComplex(2, [Cell([Interval.half_open(0.0, 1.0), Interval.point(0.0)])])
    for closed in (True, False):
        x = Interval(2.0, math.nextafter(2.0, 3.0), closed, closed)
        sets = [BoxComplex(2, [Cell([x, Interval.closed(0, 1)])])]
        want = sample_parts_oracle(sets, [], 2)
        got = [[(p.ends.tolist(), p.poly) for p in parts] for parts in _split_parts(unit, BoxComplex(2), sets)]
        assert sum(map(len, got)) == 2
        assert got == [[(r.ends.tolist(), poly) for r, poly in parts] for parts in want]


def test_sample_parts_cost_a_few_grids_whatever_the_number_of_parts():
    # 20 disjoint 3-D boxes: 22 parts on a grid of 614,125 atoms; an array
    # per part over the grid (22 of them) would take 108 MB
    sets = [BoxComplex(3, [Cell([Interval.closed(i, i + 0.5), Interval.closed(i, i + 0.25),
                                 Interval.closed(i, i + 0.75)])]) for i in range(20)]
    unit = BoxComplex(3, [Cell([Interval.half_open(0.0, 1.0)] + [Interval.point(0.0)] * 2)])
    tracemalloc.start()
    try:
        b_parts, c_parts = _split_parts(unit, BoxComplex(3), sets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(b_parts) + len(c_parts) == 22
    assert peak < 10 * b_parts[0].home.nbytes  # home: one int64 per atom


@st.composite
def thin_pools(draw):
    """Endpoints around U, each possibly joined by a neighbour 1 to 12 ulps
    away: one ulp leaves an open atom with no float inside, a few leave one
    too thin for many points."""
    values = draw(st.lists(st.one_of(st.integers(-6, 6).map(lambda k: k / 4),
                                     st.sampled_from([0.0, -0.0, math.sqrt(0.5)])),
                           min_size=2, max_size=4))
    pool = list(values)
    for v in values:
        if draw(st.booleans()):
            pool.append(v + draw(st.integers(1, 12)) * math.ulp(v))
    return pool


@PROPERTY
@given(st.data())
def test_build_sample_passes_a_recount_or_raises_a_named_error(data):
    d = data.draw(st.integers(1, 2))
    pool = data.draw(thin_pools())
    raw = data.draw(st.lists(raw_complexes(pool, d, rays=False, max_cells=2),
                             min_size=1, max_size=3))
    sets = [canonicalize(a.cells, d) for a in raw]
    coordinate = st.one_of(st.sampled_from(pool), st.sampled_from([0.0, -0.0]),
                           st.floats(-2, 2, allow_nan=False))
    points = data.draw(st.lists(st.tuples(*[coordinate] * d), max_size=3, unique=True))
    m = data.draw(st.sampled_from([2, 5, 10]))
    try:
        r = build_sample(sets, points, m, n_max=400 if d == 1 else 30)
    except (SearchExhausted, CellTooSmall):
        return
    assert len(set(r.points)) == len(r.points)
    assert sum(0 <= x[0] < 1 and all(v == 0 for v in x[1:]) for x in r.points) == r.N
    for x in points:
        assert sum(p == x for p in r.points) == 1
    for a, stats in zip(sets, r.per_set):
        count = sum(contains_point_oracle(a, x) for x in r.points)
        value = sum((Fraction(c) * r.N ** i for i, c in enumerate(mu(a).mu.coeffs)), Fraction(0))
        assert count == stats.count
        assert abs(count - value) < Fraction(1, m)


# ------------------------------------------------------------ scale search

NONSQUARES = [2, 3, 5, 6, 7, 10, 11, 13]
# past n_start, the scan's chunks end 2^10, 3 * 2^10, 7 * 2^10, ... N on, and
# 2^15 N take five chunks and part of a sixth
CHUNK_EDGES = [1 << 10, 3 << 10, 7 << 10, 1 << 15]


def _near(values):
    return st.sampled_from(values).flatmap(
        lambda b: st.one_of(st.integers(b - 1, b + 1), st.integers(b - 40, b + 40)))


@st.composite
def irrational_polys(draw):
    """An integral constant term and up to three coefficients sqrt(k) a/b,
    negative ones too; a zero one may lower the degree."""
    coeffs = [float(draw(st.integers(-3, 3)))]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.sampled_from(NONSQUARES))
        coeffs.append(math.sqrt(k) * draw(st.integers(-3, 3)) / draw(st.integers(1, 5)))
    return XPoly(coeffs)


def _search_outcome(search, *args):
    try:
        return search(*args)
    except SearchExhausted as exc:
        return "exhausted", exc.n_max


@PROPERTY
@given(st.data())
def test_scan_returns_the_brute_force_least_n(data):
    polys = data.draw(st.lists(irrational_polys(), min_size=1, max_size=3))
    eps = data.draw(st.floats(1e-3, 0.3))
    n_start = max(1, data.draw(_near([1, 1 << 10, 1 << 11, 1 << 15])))
    n_max = n_start - 1 + data.draw(_near(CHUNK_EDGES))
    threshold = n_start + data.draw(_near(CHUNK_EDGES))
    q = data.draw(st.integers(2, 7))
    r = data.draw(st.integers(0, q - 1))
    for cond in (None, lambda n: n >= threshold, lambda n: n % q == r):
        args = (polys, eps, n_start, n_max, cond)
        assert (_search_outcome(find_near_integer_N, *args)
                == _search_outcome(least_n_oracle, *args))


# ------------------------------------------------------------ transforms

def _outcome(fn, *args):
    """str of a complex (it tells 0.0 from -0.0), repr of anything else, or
    the type and message of the error raised."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return str(got) if isinstance(got, BoxComplex) else repr(got)


# shifts and factors that make cuts meet (1.0 and 1e20 on the small and
# adjacent endpoints of the pools, tiny factors) or pass the float range
SHIFTS = st.one_of(ANY_FINITE, st.sampled_from([1.0, 1e20, 1e308, -1e308, INF, -INF]))
FACTORS = st.one_of(st.floats(min_value=1e-300, allow_nan=False),
                    st.sampled_from([1e-300, 1e-320, 5e-324, 1e300, INF]))


def _same_set_and_mu(got: BoxComplex, want: BoxComplex) -> None:
    """The same set, the same mu or error, and on a bounded set the same
    exact mu (mu of an unbounded set depends on the cells it is stored as)."""
    assert set_equal(got, want)
    assert _outcome(mu, got) == _outcome(mu, want)
    assert not got.is_bounded or mu(got).exact == mu(want).exact


@PROPERTY
@pytest.mark.filterwarnings("error::RuntimeWarning")
@given(st.data())
def test_transforms_match_per_cell_oracles(data):
    d = data.draw(st.integers(1, 3))
    pool = data.draw(endpoint_pools(ANY_FINITE))
    a = data.draw(raw_complexes(pool, d, rays=data.draw(st.booleans())))
    atoms = data.draw(st.booleans())
    if atoms:
        a = canonicalize(a.cells, d)  # a complex that stores its grid, its cells the atoms
    b = data.draw(raw_complexes(pool, data.draw(st.integers(0, 2)), rays=True))
    shift = [data.draw(SHIFTS) for _ in range(d)]
    beta = data.draw(FACTORS)
    cases = [  # (transform, per-cell oracle, arguments, map of a coordinate on axis j)
        (translate, translate_oracle, (a, shift), lambda j, x: x + shift[j]),
        (scale, scale_oracle, (a, beta), lambda j, x: x * beta),
        (reflect, reflect_oracle, (a, data.draw(st.integers(-1, d))), None),
        (axis_permute, axis_permute_oracle, (a, data.draw(st.permutations(range(d)))), None),
    ]
    for fn, per_cell, args, f in cases:
        arg_error = _outcome(per_cell, BoxComplex(d), *args[1:])  # the arguments alone
        if arg_error != "{}":
            assert _outcome(fn, *args) == arg_error, fn.__name__
            continue
        had_grid = "_grid" in a.__dict__  # or built by a transform before, where cuts met
        mapped = [np.array([f(j, x) for x in c.tolist()]) if f else c
                  for j, c in enumerate(grids_oracle(a)[0])]
        meet = not all(np.isfinite(m).all() and (m[1:] > m[:-1]).all() for m in mapped)
        try:  # translate and scale map the atoms of a's grid; reflect and permute are exact
            want = mapped_atoms_oracle(a, f) if f else canonicalize(per_cell(*args).cells, d)
        except ValueError as exc:  # a kept atom maps to a point at +-inf
            assert _outcome(fn, *args) == (ValueError, str(exc)), fn.__name__
            continue
        got = fn(*args)
        if not (had_grid or meet):  # the cells move, as the per-cell oracle moves them
            assert _outcome(fn, *args) == _outcome(per_cell, *args), fn.__name__
            assert set_equal(got, want) and "_grid" not in a.__dict__
            continue
        _same_set_and_mu(got, want)
        assert all(cells_disjoint(x, y) for x, y in itertools.combinations(got.cells, 2))
        _grid_is_fresh(got)  # every cut still borders a kept atom
        if atoms and not meet:  # the atoms move as the per-cell oracle moves them
            _same_set_and_mu(got, per_cell(*args))
    for fn, oracle, args in [(cartesian_product, cartesian_product_oracle, (a, b)),
                             (cartesian_product, cartesian_product_oracle, (b, a)),
                             (bounding_box, bounding_box_oracle, (a,))]:
        assert _outcome(fn, *args) == _outcome(oracle, *args), fn.__name__
