"""The polynomial-valued measure on box complexes.

mu(A) packs the Euler characteristic and all intrinsic volumes of A into one
polynomial: coefficient 0 is chi, coefficient i is the i-dimensional
content, and the degree equals dim(A). On a single interval the value is
read off the endpoint flags; on a cell it is the product of the factor
values; on a complex it is the sum over the disjoint cells. Inclusion-
exclusion, the product rule and motion invariance are then testable
consequences rather than definitions.

Values are compared lexicographically from the highest coefficient, which
makes the measure strictly monotone on bounded sets: removing anything
nonempty removes positive top-dimensional content somewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxset import BoxComplex, Cell, Interval
from .xpoly import (IndeterminateCoefficient, Ordering, XPoly, ext_to_json,
                    xpoly_lex_cmp, xpoly_mul)

_INF = math.inf


@dataclass(frozen=True)
class MeasureResult:
    """mu value plus the set-class flags it was computed under.

    in_Uf: all coefficients finite. in_Ub: the set is bounded. Bounded
    implies finite, never the other way around.
    """

    mu: XPoly
    dim: int | float
    in_Uf: bool
    in_Ub: bool

    def to_json(self) -> dict:
        return {
            "mu": self.mu.to_json(),
            "dim": ext_to_json(self.dim),
            "in_Uf": self.in_Uf,
            "in_Ub": self.in_Ub,
        }


def mu_interval(iv: Interval) -> XPoly:
    """Measure of one interval: chi from the flags, length at x^1.

    point -> 1; [a,b] -> 1 + (b-a)x; (a,b) -> -1 + (b-a)x; half-open ->
    (b-a)x. Infinite length keeps the same chi constant with +inf at x^1.
    """
    if iv.is_point:
        return XPoly([1.0])
    if iv.lo_closed and iv.hi_closed:
        chi = 1.0
    elif not iv.lo_closed and not iv.hi_closed:
        chi = -1.0
    else:
        chi = 0.0
    return XPoly([chi, iv.length])


def mu_cell(cell: Cell) -> XPoly:
    prod = XPoly([1.0])
    for f in cell.factors:
        prod = xpoly_mul(prod, mu_interval(f))
    return prod


def _xtimes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Elementwise product under 0 * inf := 0; for nan-free factors that is
    the only way a product turns nan."""
    out = x * y
    out[np.isnan(out)] = 0.0
    return out


def _multiply_out(chi: np.ndarray, length: np.ndarray, zero_times_inf: bool) -> np.ndarray:
    """Coefficients [d+1, n] of prod_j (chi[j] + length[j] x) for n cells.

    Each step is coef <- coef*chi + shift(coef*length): the same two-term
    sums xpoly_mul forms for one cell. With zero_times_inf the products
    follow 0 * inf := 0 and a step that meets inf + -inf raises
    IndeterminateCoefficient; without it, either case leaves nan behind.
    """
    d, n = chi.shape
    times = _xtimes if zero_times_inf else np.multiply
    coef = np.zeros((d + 1, n))
    coef[0] = 1.0
    for j in range(d):
        step = times(coef, chi[j])
        step[1:] += times(coef[:-1], length[j])
        if zero_times_inf:
            bad = np.isnan(step).any(axis=1)
            if bad.any():
                raise IndeterminateCoefficient(int(bad.argmax()))
        coef = step
    return coef


def _sum_row(row: list[float]) -> float:
    """Correctly rounded sum of extended reals, +-inf past the float range.

    ValueError when the row holds both +inf and -inf.
    """
    try:
        return math.fsum(row)
    except OverflowError:  # a partial sum left the float range
        infinite = [x for x in row if math.isinf(x)]
        if infinite:
            return math.fsum(infinite)
        exact = sum(map(Fraction, row))
        try:
            return float(exact)
        except OverflowError:
            return _INF if exact > 0 else -_INF


def mu(a: BoxComplex) -> MeasureResult:
    """Sum of mu_cell over the disjoint cells; the zero polynomial for the
    empty set. Raises IndeterminateCoefficient when opposite infinite
    contributions meet (possible only for unbounded inputs).

    All cells are multiplied out at once from the stored columns of a:
    chi = lo_closed + hi_closed - 1 (a point is closed, with length 0).
    Each coefficient is then summed over the cells with math.fsum.
    """
    lo, hi = a.ends.T  # each [d, n]
    lo_closed, hi_closed = a.closed.T
    chi = np.add(lo_closed, hi_closed, dtype=np.float64) - 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        length = hi - lo  # inf past the float range, as in mu_cell
        coef = _multiply_out(chi, length, zero_times_inf=False)
        if np.isnan(coef).any():  # an infinity met a zero somewhere: redo
            coef = _multiply_out(chi, length, zero_times_inf=True)
    total = []
    for k, row in enumerate(coef.tolist()):
        try:
            total.append(_sum_row(row) + 0.0)  # + 0.0 turns -0.0 into 0.0
        except ValueError:  # the row holds both +inf and -inf
            raise IndeterminateCoefficient(k) from None
    poly = XPoly(total)
    return MeasureResult(mu=poly, dim=a.dim, in_Uf=poly.is_finite, in_Ub=a.is_bounded)


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
    return xpoly_lex_cmp(mu(a).mu, mu(b).mu)
