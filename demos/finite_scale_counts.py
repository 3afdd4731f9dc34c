"""Counting points so that cardinalities track measure polynomials.

At a well-chosen scale N, one finite point set can represent several sets
at once: the number of sample points inside each set equals its measure
polynomial evaluated at N, up to a prescribed epsilon. The scale search
relies on values like sqrt(2) * N coming arbitrarily close to integers.
"""

import math

from boxmeasure import (Cell, Interval, XPoly, build_sample,
                        dist_to_nearest_integer, find_near_integer_N,
                        from_cell, hausdorff_ratio_check, mu, xpoly_eval)

SQRT2 = math.sqrt(2)

# ---------------------------------------------------------------------
# Near-integer scales: ||12 sqrt2|| is already below 0.05.
# ---------------------------------------------------------------------
p = XPoly([0, SQRT2])
n = find_near_integer_N([p], 0.05)
print(f"N = {n}: 12 sqrt2 = {xpoly_eval(p, n):.6f}, "
      f"distance to an integer = {dist_to_nearest_integer(xpoly_eval(p, n)):.6f}")

# Rational coefficients go through the same scan: the least N that
# qualifies, here the least common denominator.
n = find_near_integer_N([XPoly([0, 0.5]), XPoly([1, 0.25])], 0.05)
print(f"rational coefficients: least N = {n} (multiple of 4)")

# ---------------------------------------------------------------------
# The sample construction: three overlapping segments plus 3 mandatory
# points, calibrated to epsilon = 1/100.
# ---------------------------------------------------------------------
def seg(lo, hi, lo_c=True, hi_c=True):
    return from_cell(Cell([Interval(lo, hi, lo_c, hi_c), Interval.point(0)]))

sets = [seg(0, 2), seg(0, SQRT2, True, False), seg(1, 3, True, False)]
forced = [(0.5, 0.0), (2.5, 0.0), (-1.0, 5.0)]
result = build_sample(sets, forced, m=100)

print(f"\nscale N = {result.N}, sample size = {len(result.points)}")
for a, s in zip(sets, result.per_set):
    print(f"  mu = {mu(a).mu}: count {s.count} vs mu(N) = {s.mu_at_N:.4f} "
          f"(off by {s.discrepancy:.6f})")
print(f"every mandatory point is in the sample: "
      f"{all(x in set(result.points) for x in forced)}")

# ---------------------------------------------------------------------
# Ratio to the Hausdorff measure: count / N^i approaches the exact
# i-content, with a certified error bound that shrinks as N grows.
# ---------------------------------------------------------------------
segment = seg(0, 1)
for n_start in (1, 500):
    chk = hausdorff_ratio_check(segment, 1, m=100, n_start=n_start)
    print(f"\nN = {chk.N}: count/N = {chk.ratio:.6f}, H^1 = {chk.target}, "
          f"gap = {chk.gap:.6f} <= bound {chk.bound:.6f}")
