import functools
import itertools
import math
import random

import pytest

from boxmeasure import (BoxComplex, Cell, DimensionMismatch, GridTooLarge, Interval,
                        NonpositiveScale, axis_permute, bounding_box, canonicalize,
                        cartesian_product, complement,
                        contains_point, contains_points, difference,
                        dimension, from_cell,
                        grid_atoms, intersect,
                        is_subset, reflect, scale, set_equal, translate, union)
from boxmeasure import boxset
from helpers import (cells_disjoint, contains_point_oracle, interval_intersection,
                     random_complex, random_point)

INF = math.inf


# ---------------------------------------------------------------- intervals

def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(2, 1, True, True)  # backwards
    with pytest.raises(ValueError):
        Interval(1, 1, True, False)  # degenerate must be a point
    with pytest.raises(ValueError):
        Interval(0, INF, True, True)  # infinity cannot be closed
    with pytest.raises(ValueError):
        Interval(INF, INF, False, False)
    Interval.point(3)
    Interval(-INF, INF, False, False)


def test_interval_contains():
    iv = Interval.half_open(0, 1)
    assert iv.contains(0) and iv.contains(0.5) and not iv.contains(1)
    ray = Interval(0, INF, False, False)
    assert ray.contains(1e300) and not ray.contains(0)


def test_nan_is_never_a_member():
    nan = math.nan
    assert not Interval.closed(0, 1).contains(nan)
    assert not Interval(-INF, INF, False, False).contains(nan)
    square = from_cell(Cell([Interval.closed(0, 1)] * 2))
    assert not contains_point(square, (nan, 0.5))
    assert not contains_points(square, [[nan, 0.5], [0.5, nan]]).any()


def test_contains_points_examples():
    a = union(from_cell(Cell([Interval.half_open(0, 1), Interval.point(0)])),
              from_cell(Cell([Interval(2, INF, False, False), Interval.closed(-1, 1)])))
    pts = [[0, 0], [1, 0], [-0.0, -0.0], [0.5, 0.25], [2, 0], [3, 1], [1e300, -1],
           [INF, 0], [-INF, 0], [0, math.nan]]
    got = contains_points(a, pts)
    assert got.tolist() == [contains_point_oracle(a, p) for p in pts]
    assert got.tolist() == [True, False, True, False, False, True, True,
                            False, False, False]
    assert contains_points(BoxComplex(2), pts).tolist() == [False] * len(pts)
    with pytest.raises(DimensionMismatch):
        contains_points(a, [[0.5]])


def test_interval_intersection_flags():
    a = Interval.closed(0, 2)
    b = Interval.open(1, 3)
    assert interval_intersection(a, b) == Interval(1, 2, False, True)
    # shared endpoint with mixed flags
    assert interval_intersection(Interval.closed(0, 1), Interval.closed(1, 2)) == Interval.point(1)
    assert interval_intersection(Interval.half_open(0, 1), Interval.closed(1, 2)) is None


# ------------------------------------------------------------ canonicalize

def test_canonicalize_1d_overlap():
    got = canonicalize([Cell([Interval.closed(0, 2)]), Cell([Interval.closed(1, 3)])])
    # atoms {0},(0,1),{1},(1,2),{2},(2,3),{3}
    assert len(got.cells) == 7
    assert set_equal(got, from_cell(Cell([Interval.closed(0, 3)])))


def test_canonicalize_square_grid_split():
    got = canonicalize([Cell([Interval.closed(0, 1), Interval.closed(0, 1)])])
    assert len(got.cells) == 9
    assert set_equal(got, from_cell(Cell([Interval.closed(0, 1), Interval.closed(0, 1)])))


def test_canonicalize_empty():
    got = canonicalize([], ambient_dim=2)
    assert got.is_empty and got.ambient_dim == 2


def test_canonicalize_output_disjoint():
    rng = random.Random(5)
    for _ in range(40):
        d = rng.randint(1, 3)
        a = random_complex(rng, d, max_cells=4)
        for c1, c2 in itertools.combinations(a.cells, 2):
            assert cells_disjoint(c1, c2)


def test_canonicalize_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        canonicalize([Cell([Interval.point(0)]), Cell([Interval.point(0)] * 2)])


# ------------------------------------------------------------ boolean ops

def test_difference_half_open_remainder():
    a = from_cell(Cell([Interval.closed(0, 2)]))
    b = from_cell(Cell([Interval.closed(1, 2)]))
    assert set_equal(difference(a, b), from_cell(Cell([Interval.half_open(0, 1)])))


def test_complement_of_open_ray():
    a = from_cell(Cell([Interval(0, INF, False, False)]))
    expected = from_cell(Cell([Interval(-INF, 0, False, True)]))
    assert set_equal(complement(a), expected)


def test_intersection_shared_face():
    a = from_cell(Cell([Interval.closed(0, 1), Interval.closed(0, 1)]))
    b = from_cell(Cell([Interval.closed(1, 2), Interval.closed(0, 1)]))
    got = intersect(a, b)
    expected = from_cell(Cell([Interval.point(1), Interval.closed(0, 1)]))
    assert set_equal(got, expected)
    # membership oracle on sampled points
    rng = random.Random(11)
    for _ in range(500):
        p = random_point(rng, 2, span=2.5)
        assert contains_point(got, p) == (contains_point(a, p) and contains_point(b, p))


def test_cartesian_product_examples():
    half = from_cell(Cell([Interval.half_open(0, 1)]))
    sq = cartesian_product(half, half)
    assert sq.ambient_dim == 2
    assert sq.cells == (Cell([Interval.half_open(0, 1)] * 2),)
    empty = BoxComplex(1)
    assert cartesian_product(empty, half).is_empty

    two_pts = canonicalize([Cell([Interval.point(0)]), Cell([Interval.point(1)])])
    seg = from_cell(Cell([Interval.closed(0, 1)]))
    prod = cartesian_product(two_pts, seg)
    rng = random.Random(3)
    for _ in range(300):
        p = random_point(rng, 2, span=1.5)
        expected = (p[0] in (0.0, 1.0)) and 0 <= p[1] <= 1
        assert contains_point(prod, p) == expected
    assert contains_point(prod, (0.0, 0.5)) and contains_point(prod, (1.0, 1.0))


# ------------------------------------------------------------- transforms

def test_transform_examples():
    half = from_cell(Cell([Interval.half_open(0, 1)]))
    assert set_equal(scale(half, 2), from_cell(Cell([Interval.half_open(0, 2)])))

    vseg = from_cell(Cell([Interval.point(0), Interval.closed(0, 1)]))
    moved = translate(vseg, (1, 0))
    assert "_grid" not in vseg.__dict__ and "_grid" not in moved.__dict__  # columns moved
    assert "_grid" in translate(union(vseg, vseg), (1, 0)).__dict__  # a stored grid is mapped
    pts = BoxComplex(1, [Cell([Interval.point(0)]), Cell([Interval.point(1e-30)])])
    assert translate(pts, (1,)).cells == (Cell([Interval.point(1)]),)  # the cuts meet
    assert "_grid" in pts.__dict__
    assert set_equal(moved, from_cell(Cell([Interval.point(1), Interval.closed(0, 1)])))

    refl = reflect(half, 0)
    assert set_equal(refl, from_cell(Cell([Interval(-1, 0, False, True)])))


def test_scale_rejects_nonpositive():
    a = from_cell(Cell([Interval.closed(0, 1)]))
    with pytest.raises(NonpositiveScale):
        scale(a, 0)
    with pytest.raises(NonpositiveScale):
        scale(a, -2)


@pytest.mark.parametrize("beta", [INF, -INF, math.nan])
def test_scale_rejects_a_nonfinite_factor_by_name(beta):
    a = from_cell(Cell([Interval.closed(0, 1)]))
    with pytest.raises(ValueError) as info:
        scale(a, beta)
    assert type(info.value) is ValueError
    assert str(info.value) == f"scale factor beta must be finite, got {beta}"
    with pytest.raises(ValueError, match="beta must be finite"):
        scale(BoxComplex(1), beta)  # checked before any endpoint is mapped


@pytest.mark.parametrize("v", [(INF, 0.0), (0.0, -INF), (math.nan, 1.0)])
def test_translate_rejects_a_nonfinite_vector_by_name(v):
    a = from_cell(Cell([Interval.closed(0, 1), Interval.open(2, 3)]))
    with pytest.raises(ValueError) as info:
        translate(a, v)
    assert type(info.value) is ValueError
    assert str(info.value) == f"translate vector v must be finite, got {v}"
    with pytest.raises(ValueError, match="v must be finite"):
        translate(BoxComplex(2), v)


def test_transforms_of_an_11_axis_product_build_no_grid():
    # its grid needs 6^11 cells, past the budget: the columns move instead
    unit = from_cell(Cell([Interval.closed(0, 1)]))
    cube = functools.reduce(cartesian_product, [unit] * 11)
    assert translate(cube, [0.5] * 11).cells == (Cell([Interval.closed(0.5, 1.5)] * 11),)
    assert scale(cube, 3).cells == (Cell([Interval.closed(0, 3)] * 11),)
    assert reflect(cube, 4).cells == (Cell([unit.cells[0].factors[0]] * 4 + [Interval.closed(-1, 0)]
                                           + [unit.cells[0].factors[0]] * 6),)
    assert axis_permute(cube, range(10, -1, -1)).cells == cube.cells
    assert "_grid" not in cube.__dict__


def test_axis_permute():
    c = from_cell(Cell([Interval.closed(0, 1), Interval.point(5)]))
    got = axis_permute(c, (1, 0))
    assert set_equal(got, from_cell(Cell([Interval.point(5), Interval.closed(0, 1)])))
    with pytest.raises(ValueError):
        axis_permute(c, (0, 0))


# ------------------------------------------------------------- dimension

def test_dimension_examples():
    a = canonicalize([Cell([Interval.closed(0, 1), Interval.point(0)]),
                      Cell([Interval.point(5), Interval.point(5)])])
    assert dimension(a) == 1
    assert dimension(BoxComplex(3)) == -INF
    assert dimension(from_cell(Cell([Interval.open(0, 1)] * 2))) == 2


def test_dimension_additive_on_products():
    rng = random.Random(21)
    for _ in range(50):
        a = random_complex(rng, rng.randint(1, 2))
        b = random_complex(rng, rng.randint(1, 2))
        assert dimension(cartesian_product(a, b)) == dimension(a) + dimension(b)


# ------------------------------------------------------ membership, subset

def test_subset_and_equality_examples():
    op = from_cell(Cell([Interval.open(0, 1)]))
    cl = from_cell(Cell([Interval.closed(0, 1)]))
    assert is_subset(op, cl)
    assert not is_subset(cl, op)
    ho_plus_pt = canonicalize([Cell([Interval.half_open(0, 1)]), Cell([Interval.point(1)])])
    assert set_equal(ho_plus_pt, cl)


def test_subset_equality_coherence():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 2)
        a, b = random_complex(rng, d), random_complex(rng, d)
        both = is_subset(a, b) and is_subset(b, a)
        assert both == set_equal(a, b)


def test_membership_agreement_with_ops():
    rng = random.Random(41)
    for _ in range(25):
        d = rng.randint(1, 2)
        a, b = random_complex(rng, d), random_complex(rng, d)
        u, i, df, ca = union(a, b), intersect(a, b), difference(a, b), complement(a)
        for _ in range(40):
            p = random_point(rng, d)
            ina, inb = contains_point(a, p), contains_point(b, p)
            assert contains_point(u, p) == (ina or inb)
            assert contains_point(i, p) == (ina and inb)
            assert contains_point(df, p) == (ina and not inb)
            assert contains_point(ca, p) == (not ina)


def test_boolean_algebra_laws():
    rng = random.Random(51)
    for _ in range(20):
        d = rng.randint(1, 3)
        a = random_complex(rng, d, max_cells=4 if d < 3 else 2)
        b = random_complex(rng, d, max_cells=4 if d < 3 else 2)
        assert set_equal(complement(union(a, b)), intersect(complement(a), complement(b)))
        assert set_equal(complement(intersect(a, b)), union(complement(a), complement(b)))
        assert set_equal(difference(a, b), intersect(a, complement(b)))
        assert set_equal(union(a, a), a)
        assert set_equal(intersect(a, a), a)


def test_dimension_mismatch_errors():
    a = from_cell(Cell([Interval.closed(0, 1)]))
    b = from_cell(Cell([Interval.closed(0, 1)] * 2))
    with pytest.raises(DimensionMismatch):
        union(a, b)
    with pytest.raises(DimensionMismatch):
        contains_point(a, (0.5, 0.5))
    with pytest.raises(DimensionMismatch):
        translate(a, (1, 2))


# ------------------------------------------------------------------- json

def test_json_round_trip():
    a = canonicalize([Cell([Interval.half_open(0, 1), Interval(0, INF, False, False)])])
    data = a.to_json()
    assert data["dim"] == 2
    f = data["cells"][0]["factors"]
    assert all(set(x) == {"lo", "hi", "lo_closed", "hi_closed"} for x in f)
    back = BoxComplex.from_json(data)
    assert back == a
    assert any(x["hi"] == "inf" for c in data["cells"] for x in c["factors"])


# ------------------------------------------------ float64 edges of the grid

def test_complement_at_huge_endpoints():
    a = from_cell(Cell([Interval.closed(1e17, 2e17)]))
    want = BoxComplex(1, [Cell([Interval(-INF, 1e17, False, False)]),
                          Cell([Interval(2e17, INF, False, False)])])
    assert set_equal(complement(a), want)
    assert str(complement(a)) == str(want)


@pytest.mark.parametrize("x", [1e17, -1e17, 1e300, -1e300, 1.0, 0.0])
def test_grid_atom_representatives_lie_in_their_atoms(x):
    y = math.nextafter(math.nextafter(x, INF), INF)  # one float strictly between
    cells = [Cell([Interval.closed(x, y), Interval.point(x)]),
             Cell([Interval.open(-2 * abs(x) - 1.0, x), Interval(x, y, False, True)])]
    atoms = list(grid_atoms(cells, 2))
    assert len(atoms) == 7 * 5  # 3 cuts on axis 0, 2 on axis 1
    for atom, rep in atoms:
        assert atom.contains(rep)


def test_grid_atoms_reject_a_gap_without_floats():
    x = 1e17
    cells = [Cell([Interval.point(x)]), Cell([Interval.point(math.nextafter(x, INF))])]
    with pytest.raises(ValueError, match="no representable float"):
        list(grid_atoms(cells, 1))


# ------------------------------------------------------ columnar storage

def test_canonicalize_checks_dimensions_through_the_constructor():
    cells = [Cell([Interval.point(0)]), Cell([Interval.point(0)] * 2)]
    with pytest.raises(DimensionMismatch, match="cell of dimension 2 in complex of dimension 1"):
        canonicalize(cells, 1)


def test_bounding_box_keeps_the_first_zero_met():
    a = BoxComplex(1, [Cell([Interval.closed(0.0, 1)]), Cell([Interval.closed(-0.0, 2)])])
    lo, hi = bounding_box(a)
    assert repr(lo) == "[0.0]" and repr(hi) == "[2.0]"  # a plain minimum gives -0.0


def test_op_result_equals_the_complex_of_its_cells():
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_complex(rng, 2), random_complex(rng, 2)
        for got in (union(a, b), difference(a, b), complement(a), translate(a, (0.5, -1)),
                    reflect(a, 1), cartesian_product(a, b)):
            again = BoxComplex(got.ambient_dim, got.cells)
            assert got == again and hash(got) == hash(again)
            assert str(got) == str(again)


def test_equality_ignores_the_sign_of_zero():
    a = from_cell(Cell([Interval.closed(0.0, 1)]))
    b = from_cell(Cell([Interval.closed(-0.0, 1)]))
    assert a == b and hash(a) == hash(b)
    assert a != from_cell(Cell([Interval.half_open(0.0, 1)]))
    assert a != from_cell(Cell([Interval.closed(0.0, 1), Interval.point(0)]))


def test_cells_read_from_columns_share_factors_and_keep_signed_zeros():
    a = BoxComplex(1, [Cell([Interval.closed(0.0, 1)]), Cell([Interval.closed(-0.0, 1)]),
                       Cell([Interval.closed(0.0, 1)])])
    b = cartesian_product(a, BoxComplex(0, [Cell([])]))  # the same columns, times the R^0 point
    assert str(b) == "[0.0,1.0] | [-0.0,1.0] | [0.0,1.0]"
    assert b.cells[0].factors[0] is b.cells[2].factors[0]


def test_repr_shows_the_columns():
    a = from_cell(Cell([Interval.closed(0, 1)]))
    assert repr(a).startswith("BoxComplex(ambient_dim=1, ends=array([[[0., 1.]]]), closed=array(")


def test_columns_are_read_only():
    a = from_cell(Cell([Interval.closed(0, 1), Interval.open(0, 1)]))
    for b in (a, union(a, translate(a, (2, 0)))):
        with pytest.raises(ValueError):
            b.ends[0, 0, 0] = 5.0
        with pytest.raises(ValueError):
            b.closed[0, 0, 0] = False


def test_grid_over_budget_raises(monkeypatch):
    # [0,1] | [2,3] cuts the line at 4 points: 9 atoms, a difference array of 10
    a = canonicalize([Cell([Interval.closed(0, 1)]), Cell([Interval.closed(2, 3)])], 1)
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 10)
    assert len(complement(a).cells) == 3
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 9)
    with pytest.raises(GridTooLarge, match="grid of 9 atoms"):
        complement(a)
    with pytest.raises(ValueError):  # every consumer builds its grid through _grids
        contains_points(a, [[0.5]])


def test_contains_point_builds_and_keeps_the_grid(monkeypatch):
    # a cell-built complex stores no grid: the first membership test builds
    # its 9-atom grid, checked against the budget first, and keeps it
    a = BoxComplex(1, [Cell([Interval.closed(0, 1)]), Cell([Interval.closed(2, 3)])])
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 9)
    with pytest.raises(GridTooLarge, match="grid of 9 atoms"):
        contains_point(a, (0.5,))
    assert "_grid" not in a.__dict__
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 10)
    assert contains_point(a, (0.5,)) and not contains_point(a, (1.5,))
    assert "_grid" in a.__dict__


def test_union_of_three_checks_the_third_operand():
    a = from_cell(Cell([Interval.closed(0, 1)]))
    b = union(a, from_cell(Cell([Interval.closed(2, 3)])))  # carries a stored grid
    with pytest.raises(DimensionMismatch, match="1 vs 2"):
        union(a, b, from_cell(Cell([Interval.closed(0, 1)] * 2)))


def test_union_over_budget_raises_before_any_grid(monkeypatch):
    # [0,1], [2,3] and {5} cut the line at 5 points: 11 atoms, a difference array of 12
    ops = [from_cell(Cell([Interval.closed(0, 1)])),
           union(from_cell(Cell([Interval.closed(2, 3)])), from_cell(Cell([Interval.closed(2, 3)]))),
           from_cell(Cell([Interval.point(5)]))]

    def no_grid(*args):
        raise AssertionError("a grid was built or remapped")
    with monkeypatch.context() as m:
        m.setattr(boxset, "_GRID_BUDGET", 11)
        m.setattr(boxset, "_membership_grid", no_grid)
        m.setattr(boxset, "_remap", no_grid)
        with pytest.raises(GridTooLarge, match="^an endpoint grid of 11 atoms passes the "
                                               "budget of 11 cells$"):
            union(*ops)
    assert "_grid" not in ops[0].__dict__ and "_grid" not in ops[2].__dict__
    monkeypatch.setattr(boxset, "_GRID_BUDGET", 12)
    assert str(union(*ops)) == "{0.0} | (0.0,1.0) | {1.0} | {2.0} | (2.0,3.0) | {3.0} | {5.0}"
