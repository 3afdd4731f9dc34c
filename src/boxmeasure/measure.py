"""The polynomial-valued measure on box complexes.

mu(A) packs the Euler characteristic and all intrinsic volumes of A into one
polynomial: coefficient 0 is chi, coefficient i is the i-dimensional
content, and the degree equals dim(A). On a single interval the value is
read off the endpoint flags; on a cell it is the product of the factor
values; on a complex it is the sum over the disjoint cells. Inclusion-
exclusion, the product rule and motion invariance are then testable
consequences rather than definitions.

mu is computed exactly, once per complex, and kept on it. One power of two
2^s makes every finite endpoint of a complex an integer, so coefficient k is
an integer over 2^(s k). Its numerator is formed in integer arithmetic
(int64 where a bound on its size allows, Python ints otherwise), and each
coefficient is correctly rounded from its exact value. A complex stored as
its endpoint grid is summed on the grid, without building its cells: per
axis, a [chi, length] matrix over the atoms is contracted with the
membership grid. Other complexes multiply out their cell columns row by
row and sum the rows; the same kernel sums runs of rows apart, one run per
part for the sampler, whose parts' atoms come as columns ordered by part.
A term that takes the length of a ray is +-inf by its sign, and opposite
infinite terms in one coefficient raise IndeterminateCoefficient.

Values are compared lexicographically from the highest coefficient, on the
exact values, which makes the measure strictly monotone on bounded sets:
removing anything nonempty removes positive top-dimensional content
somewhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .boxset import BoxComplex, Cell, Interval
from .xpoly import (IndeterminateCoefficient, Ordering, XPoly, ext_to_json,
                    lex_cmp, xpoly_mul)

_INF = math.inf


@dataclass(frozen=True)
class MeasureResult:
    """mu value plus the set-class flags it was computed under.

    in_Uf: every coefficient is finite. in_Ub: the set is bounded. For a
    box complex the two agree: a ray's length enters the top coefficient of
    its cell. Coefficient k is exactly numerators[k] / 2^(scale k), or the
    +-inf that numerators[k] holds where a ray term decides; exact gives
    them as Fractions, mu rounded.
    """

    mu: XPoly
    dim: int | float
    in_Uf: bool
    in_Ub: bool
    numerators: tuple = field(default=(), repr=False, compare=False)
    scale: int = field(default=0, repr=False, compare=False)

    @functools.cached_property
    def exact(self) -> tuple:
        """The exact coefficients, trailing zeros trimmed: Fractions, or
        +-inf."""
        return tuple(n if isinstance(n, float) else _dyadic(n, self.scale * k)
                     for k, n in enumerate(self.numerators))

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "dim": ext_to_json(self.dim),
            "in_Uf": self.in_Uf,
            "in_Ub": self.in_Ub,
        }


def mu_interval(iv: Interval) -> XPoly:
    """Measure of one interval: chi = lo_closed + hi_closed - 1, length at x^1.

    point -> 1 (its zero length is trimmed); [a,b] -> 1 + (b-a)x; (a,b) ->
    -1 + (b-a)x; half-open -> (b-a)x. An infinite length gives +inf at x^1.
    """
    return XPoly([iv.lo_closed + iv.hi_closed - 1.0, iv.length])


def mu_cell(cell: Cell) -> XPoly:
    prod = XPoly([1.0])
    for f in cell.factors:
        prod = xpoly_mul(prod, mu_interval(f))
    return prod


def _integers(values: np.ndarray, rows: int, d: int) -> tuple[int, np.ndarray]:
    """(s, ints): the least s that makes every finite value v an integer
    v 2^s, and those integers (0 for +-inf). They are int64 when a sum over
    rows of products of d factors c + l x, |c| <= 1 and l a difference of
    two of them, stays below 2^63, Python ints otherwise."""
    values = np.where(np.isfinite(values), values, 0.0)
    m, e = np.frexp(values)
    mant = np.ldexp(m, 53).astype(np.int64)  # v = mant 2^(e - 53), exactly
    s = b = 0
    if mant.any():
        zeros = np.frexp((mant & -mant).astype(np.float64))[1] - 1  # trailing zero bits
        s = 53 - int((e + zeros)[mant != 0].min())
        b = int(e.max()) + s  # every |v| 2^s < 2^b
    if rows.bit_length() + d * (b + 2) < 63:  # each sum is below rows (1 + 2^(b + 1))^d
        return s, np.ldexp(values, s).astype(np.int64)
    shifts = (e + (s - 53)).ravel().tolist()  # a negative shift drops zero bits only
    return s, np.array([x << k if k >= 0 else x >> -k for x, k in zip(mant.ravel().tolist(), shifts)],
                       dtype=object).reshape(values.shape)


def _axis_groups(ends: np.ndarray, closed: np.ndarray) -> list[tuple[int, int]]:
    """Axes whose endpoint and flag columns are equal, as (first axis, count)."""
    groups = {}
    for j in range(ends.shape[1]):
        key = ends[:, j].tobytes() + closed[:, j].tobytes()
        groups.setdefault(key, [j, 0])[1] += 1
    return [(j, e) for j, e in groups.values()]


def _products(chi: np.ndarray, length: np.ndarray, groups) -> np.ndarray:
    """Coefficients [d + 1, n] of prod_j (chi[:, j] + length[:, j] x), row
    by row; a group (j, e) of e equal axes enters once, as the binomial
    expansion of (chi[:, j] + length[:, j] x)^e."""
    coef = np.ones((1, len(chi)), dtype=chi.dtype)
    for j, e in groups:
        c, l = chi[:, j], length[:, j]
        terms = [c, l]
        if e > 1:
            terms, binomial, power = [], 1, np.ones_like(l)  # power: l^t
            for t in range(e + 1):
                terms.append(binomial * c ** (e - t) * power)
                binomial, power = binomial * (e - t) // (t + 1), power * l
        out = np.zeros((len(coef) + e, len(chi)), dtype=chi.dtype)
        for t, term in enumerate(terms):
            out[t:t + len(coef)] += coef * term
        coef = out
    return coef


def _cell_numerators(ends: np.ndarray, closed: np.ndarray,
                     starts=(0,)) -> tuple[int, np.ndarray, np.ndarray]:
    """(s, nums, signs) for unions of the cells of the columns ends/closed,
    union g being rows starts[g] to starts[g + 1] (the last one to the end):
    coefficient k of union g is nums[k, g] / 2^(s k), or signs[k, g] inf
    where that is not 0.

    signs marks the ray terms, the nonzero terms that take a ray's length.
    They are counted exactly on chi and on the 0/1 pattern of nonzero
    lengths, with and without the rays' lengths, once as signed terms and
    once as absolute values; a coefficient with ray terms of both signs in
    one union raises IndeterminateCoefficient."""
    n, d = ends.shape[:2]
    if n == 0:  # reduceat needs a row
        return 0, *[np.zeros((1, len(starts)), dtype=np.int64)] * 2
    chi = closed.sum(axis=-1) - 1
    ray = np.isinf(ends).any(axis=-1)
    s, ints = _integers(ends, n, d)
    length = ints[..., 1] - ints[..., 0]
    length[ray] = 0
    groups = _axis_groups(ends, closed)

    def terms(c, lengths):
        return np.add.reduceat(_products(c, lengths, groups), starts, axis=1)
    nums = terms(chi.astype(ints.dtype), length)
    if not ray.any():
        return s, nums, np.zeros(nums.shape, dtype=np.int8)
    dtype = object if n.bit_length() + 2 * d >= 63 else np.int64  # terms are 0 or +-1
    chi, finite = chi.astype(dtype), (length != 0).astype(dtype)
    every = (ray | (length != 0)).astype(dtype)
    signed = terms(chi, every) - terms(chi, finite)
    absolute = terms(abs(chi), every) - terms(abs(chi), finite)
    pos, neg = absolute + signed > 0, absolute - signed > 0
    both = (pos & neg).any(axis=1)
    if both.any():
        raise IndeterminateCoefficient(int(both.argmax()))
    return s, nums, pos.astype(np.int8) - neg


def _grid_numerators(cuts, keep: np.ndarray) -> tuple[int, np.ndarray]:
    """(s, nums) for the kept atoms of a grid that keeps no ray atom:
    coefficient k is nums[k] / 2^(s k).

    On an axis with cuts c an atom is (chi, length): a point (1, 0), a gap
    (-1, its length). The keep grid is contracted with one such matrix per
    axis, which picks chi or the length of that axis; the two picks are
    merged at once into degrees, the number of lengths picked."""
    s, ints = _integers(np.concatenate(cuts) if cuts else np.empty(0), keep.size, len(cuts))
    t = keep.astype(ints.dtype)[..., None]
    for c in cuts:
        x, ints = ints[:len(c)], ints[len(c):]
        f = np.zeros((2, 2 * len(x) + 1), dtype=t.dtype)
        f[0] = -1
        f[0, 1::2] = 1
        f[1, 2:-1:2] = x[1:] - x[:-1]  # the rays, first and last, hold no kept atom
        chi, length = (f @ t.reshape(len(t), -1)).reshape((2,) + t.shape[1:])
        t = np.zeros(t.shape[1:-1] + (t.shape[-1] + 1,), dtype=t.dtype)
        t[..., :-1] = chi
        t[..., 1:] += length
    return s, t


def _keeps_a_ray(keep: np.ndarray) -> bool:
    return any(keep.take([0, -1], axis=j).any() for j in range(keep.ndim))


def _result(s: int, nums: list[int], signs: list[int] | None) -> MeasureResult:
    """The measure with coefficients nums[k] / 2^(s k), or signs[k] inf
    where signs[k] is not 0."""
    terms = [sign * _INF if sign else num for num, sign in zip(nums, signs or [0] * len(nums))]
    while terms and terms[-1] == 0:
        terms.pop()
    rounded = [t if isinstance(t, float) else _rounded(t, s * k) for k, t in enumerate(terms)]
    finite = not (signs and any(signs))
    return MeasureResult(mu=XPoly(rounded), dim=len(terms) - 1 if terms else -_INF,
                         in_Uf=finite, in_Ub=finite, numerators=tuple(terms), scale=s)


def _dyadic(n: int, e: int) -> Fraction:
    return Fraction(n, 1 << e) if e >= 0 else Fraction(n << -e)


def _rounded(n: int, e: int) -> float:
    """n / 2^e correctly rounded (int / int is), +-inf past the float range."""
    try:
        return n / (1 << e) if e >= 0 else float(n << -e)
    except OverflowError:
        return _INF if n > 0 else -_INF


def mu(a: BoxComplex) -> MeasureResult:
    """Sum of mu_cell over the disjoint cells, exactly; the zero polynomial
    for the empty set. Raises IndeterminateCoefficient when ray terms of
    opposite signs meet in one coefficient (possible only for unbounded
    inputs).

    The result is computed once and kept on a. A stored endpoint grid with
    no kept ray atom is summed on the grid; any other complex on its
    columns. Each coefficient is correctly rounded from its exact value,
    which the result gives in .exact, and dim is the degree of the exact
    polynomial (-inf for the empty set).
    """
    res = a.__dict__.get("_mu")
    if res is None:
        grid = a.__dict__.get("_grid")
        if grid is not None and not _keeps_a_ray(grid[1]):
            s, nums = _grid_numerators(*grid)
            res = _result(s, nums.tolist(), None)
        else:
            res, = _cell_measures(a.ends, a.closed)
        a.__dict__["_mu"] = res
    return res


def _cell_measures(ends: np.ndarray, closed: np.ndarray, starts=(0,)) -> list[MeasureResult]:
    """The measure of each union of rows of _cell_numerators, exactly."""
    s, nums, signs = _cell_numerators(ends, closed, starts)
    return [_result(s, *column) for column in zip(nums.T.tolist(), signs.T.tolist())]


def euler_characteristic(a: BoxComplex) -> float:
    return mu(a).mu.coeff(0)


def intrinsic_volume(a: BoxComplex, i: int) -> float:
    if i < 0:
        raise ValueError(f"index must be a natural number, got {i}")
    return mu(a).mu.coeff(i)


def hausdorff_measure(a: BoxComplex, i: int) -> float:
    """i-dimensional Hausdorff content readout.

    Above the dimension it vanishes, at the dimension it is the leading mu
    coefficient, below the dimension it is +inf (every positive-dimensional
    cell has non-sigma-finite lower-index measure).
    """
    if i < 0:
        raise ValueError(f"index must be a natural number, got {i}")
    d = a.dim
    if i > d:
        return 0.0
    if i == d:
        return mu(a).mu.coeff(i)
    return _INF


def mu_compare(a: BoxComplex, b: BoxComplex) -> Ordering:
    """Order of mu(a) and mu(b), lexicographic from the highest coefficient,
    decided on the exact coefficients."""
    return lex_cmp(mu(a).exact, mu(b).exact)
