"""Polynomials with coefficients in R union {+inf, -inf}.

These polynomials carry the set measures computed elsewhere in the package:
coefficient i holds an i-dimensional content, so the natural order between
two polynomials is lexicographic from the highest differing coefficient.
Coefficients are plain floats; +-inf are admitted, NaN is not.

The one arithmetic wrinkle is that (+inf) + (-inf) has no meaningful value
for a measure coefficient. Rather than pick one, operations raise
IndeterminateCoefficient with the offending index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal, Sequence

Ordering = Literal["less", "equal", "greater"]

_INF = math.inf


class IndeterminateCoefficient(ArithmeticError):
    """(+inf) + (-inf) occurred at some coefficient index."""

    def __init__(self, index: int):
        super().__init__(f"indeterminate coefficient at x^{index}: (+inf) + (-inf)")
        self.index = index


class InfiniteCoefficient(ValueError):
    """Evaluation requested for a polynomial with an infinite coefficient."""


def _as_coeff(c: float) -> float:
    c = float(c)
    if math.isnan(c):
        raise ValueError("NaN is not an extended real coefficient")
    return c


@dataclass(frozen=True, init=False)
class XPoly:
    """Immutable polynomial sum(coeffs[i] * x**i), trailing zeros trimmed.

    The zero polynomial stores an empty tuple and has degree None.
    """

    coeffs: tuple[float, ...]

    def __init__(self, coeffs: Iterable[float] = ()):
        cs = [_as_coeff(c) for c in coeffs]
        while cs and cs[-1] == 0.0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def degree(self) -> int | None:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_finite(self) -> bool:
        """True when every coefficient is a finite real."""
        return all(math.isfinite(c) for c in self.coeffs)

    def coeff(self, i: int) -> float:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0.0

    def __add__(self, other: "XPoly") -> "XPoly":
        return xpoly_add(self, other)

    def __mul__(self, other: "XPoly") -> "XPoly":
        return xpoly_mul(self, other)

    def __call__(self, n: int) -> float:
        return xpoly_eval(self, n)

    def __lt__(self, other: "XPoly") -> bool:
        return xpoly_lex_cmp(self, other) == "less"

    def __le__(self, other: "XPoly") -> bool:
        return xpoly_lex_cmp(self, other) != "greater"

    def __gt__(self, other: "XPoly") -> bool:
        return xpoly_lex_cmp(self, other) == "greater"

    def __ge__(self, other: "XPoly") -> bool:
        return xpoly_lex_cmp(self, other) != "less"

    def __str__(self) -> str:
        return format_poly(self)

    def to_json(self) -> dict:
        """Render as {"coeffs": [...]} with "inf"/"-inf" string sentinels."""
        return {"coeffs": [ext_to_json(c) for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> "XPoly":
        return cls(ext_from_json(c) for c in data["coeffs"])


def ext_to_json(v: float) -> float | str:
    """JSON form of an extended real: +-inf become "inf"/"-inf", since JSON
    has no infinity; any other value passes through unchanged."""
    if v == _INF:
        return "inf"
    if v == -_INF:
        return "-inf"
    return v


def ext_from_json(v: float | str) -> float:
    """Inverse of ext_to_json."""
    if v == "inf":
        return _INF
    if v == "-inf":
        return -_INF
    return float(v)


def format_num(c: float) -> str:
    """Compact rendering: integral floats as integers, infinities as words."""
    if c == _INF:
        return "inf"
    if c == -_INF:
        return "-inf"
    if c == int(c) and abs(c) < 1e16:
        return str(int(c))
    return repr(c)


def format_poly(p: XPoly) -> str:
    if p.is_zero:
        return "0"
    parts = []
    for i, c in enumerate(p.coeffs):
        if c == 0.0:
            continue
        if i == 0:
            parts.append(format_num(c))
        elif i == 1:
            parts.append(f"{format_num(c)}x")
        else:
            parts.append(f"{format_num(c)}x^{i}")
    return " + ".join(parts)


def xpoly_add(p: XPoly, q: XPoly) -> XPoly:
    """Coefficient-wise extended-real sum.

    Raises IndeterminateCoefficient(k) when index k pairs +inf with -inf.
    """
    n = max(len(p.coeffs), len(q.coeffs))
    out = []
    for k in range(n):
        a, b = p.coeff(k), q.coeff(k)
        if math.isinf(a) and math.isinf(b) and (a > 0) != (b > 0):
            raise IndeterminateCoefficient(k)
        out.append(a + b)
    return XPoly(out)


def _xmul(a: float, b: float) -> float:
    # 0 * (+-inf) := 0; a zero coefficient means the corresponding term is absent
    if a == 0.0 or b == 0.0:
        return 0.0
    return a * b


def xpoly_mul(p: XPoly, q: XPoly) -> XPoly:
    """Convolution product under the 0 * inf := 0 convention.

    A result coefficient mixing +inf and -inf terms raises
    IndeterminateCoefficient(k).
    """
    if p.is_zero or q.is_zero:
        return XPoly()
    n = len(p.coeffs) + len(q.coeffs) - 1
    out = []
    for k in range(n):
        finite: list[float] = []
        has_pos = has_neg = False
        lo = max(0, k - len(q.coeffs) + 1)
        hi = min(k, len(p.coeffs) - 1)
        for i in range(lo, hi + 1):
            t = _xmul(p.coeffs[i], q.coeffs[k - i])
            if t == _INF:
                has_pos = True
            elif t == -_INF:
                has_neg = True
            else:
                finite.append(t)
        if has_pos and has_neg:
            raise IndeterminateCoefficient(k)
        if has_pos:
            out.append(_INF)
        elif has_neg:
            out.append(-_INF)
        else:
            out.append(math.fsum(finite))
    return XPoly(out)


def lex_cmp(p: Sequence, q: Sequence) -> Ordering:
    """Compare two coefficient sequences at the largest index where they
    differ, a missing coefficient being 0.

    -inf < every finite value < +inf; equal iff all coefficients agree.
    """
    for k in reversed(range(max(len(p), len(q)))):
        a, b = p[k] if k < len(p) else 0, q[k] if k < len(q) else 0
        if a != b:
            return "less" if a < b else "greater"
    return "equal"


def xpoly_lex_cmp(p: XPoly, q: XPoly) -> Ordering:
    """lex_cmp on the coefficients of p and q."""
    return lex_cmp(p.coeffs, q.coeffs)


def xpoly_eval(p: XPoly, n: int) -> float:
    """Value of p at a natural number n.

    Every coefficient must be finite (InfiniteCoefficient otherwise). Each
    term c_i * n**i is formed from the exact integer power, costing at most
    two roundings, and the terms are combined with math.fsum, which rounds
    once. The result is therefore within ~(2*len(coeffs)+1) ulp of
    sum(|c_i| * n**i), far below the tolerances used by callers.
    """
    m = int(n)
    if m != n or m < 0:
        raise ValueError(f"evaluation point must be a natural number, got {n!r}")
    for i, c in enumerate(p.coeffs):
        if math.isinf(c):
            raise InfiniteCoefficient(f"coefficient of x^{i} is infinite")
    return math.fsum(c * (m ** i) for i, c in enumerate(p.coeffs))


def dist_to_nearest_integer(v: float) -> float:
    """min over integers z of |v - z|; always in [0, 1/2]."""
    if not math.isfinite(v):
        raise ValueError(f"finite value required, got {v!r}")
    f = v - math.floor(v)
    return min(f, 1.0 - f)
