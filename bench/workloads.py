"""The benchmark's three workloads, built from a seed.

Every workload is a fixed-length list of operations. The timed loop replays
the whole list, so each run measures the same mix of work; the seed moves
the inputs (translations, reflections, axis orders, random-stream seeds and
the order of the operations) but never their sizes, so runs on different
seeds are comparable. Each operation has an output check that runs outside
the timed region and raises CheckFailed on a wrong result.

All library calls go through attributes of the ``boxmeasure`` package, so
the traced run sees them.
"""

from __future__ import annotations

import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

REL_TOL = 1e-10     # valuation identity, as in the acceptance suite
Z_BOUND = 4.0       # Monte Carlo acceptance bound, in standard errors


class CheckFailed(AssertionError):
    """An operation returned a wrong result."""


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], dict]  # sizes of this operation; raises on a wrong result


@dataclass
class Workload:
    ops: list[Op]
    sizes: dict = field(default_factory=dict)   # stated input sizes
    smoke_attempted: int = 0
    smoke_failures: list[str] = field(default_factory=list)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def _fmt_iv(lo: float, hi: float, lo_closed: bool, hi_closed: bool) -> str:
    if lo == hi:
        return f"{{{lo!r}}}"
    return f"{'[' if lo_closed else '('}{lo!r},{hi!r}{']' if hi_closed else ')'}"


def _poly_close(p, q, rel: float) -> bool:
    n = max(len(p.coeffs), len(q.coeffs))
    return all(abs(p.coeff(i) - q.coeff(i)) <= rel * max(1.0, abs(q.coeff(i)))
               for i in range(n))


def _exact_value(poly, n: int) -> Fraction:
    """p(n) in exact rational arithmetic; float coefficients are dyadic."""
    return sum((Fraction(c) * n ** i for i, c in enumerate(poly.coeffs)), Fraction(0))


# ----------------------------------------------------------------------
# CLI smoke pass (part of every workload's set-up)
# ----------------------------------------------------------------------

def _cli(bm, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = bm.dsl.cli_main(argv)
    _require(code == 0, f"exit code {code}: {err.getvalue().strip()}")
    return out.getvalue()


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.strip().splitlines()]


def _smoke_measure(bm):
    res = json.loads(_cli(bm, ["measure", "[0,3],[0,3] \\ (1,2),(1,2)", "--json"]))
    _require(res["mu"]["coeffs"] == [0.0, 8.0, 8.0] and res["dim"] == 2, f"measure: {res}")


def _smoke_compare(bm):
    res = json.loads(_cli(bm, ["compare", "(0,1)", "[0,1]", "--json"]))
    _require(res["verdict"] == "less", f"compare: {res}")


def _smoke_subset(bm):
    lines = _lines(_cli(bm, ["subset", "(0,1)", "[0,1] | [2,3]"]))
    _require(lines == ["A subset of B: true", "B subset of A: false", "equal: false"],
             f"subset: {lines}")


def _smoke_crofton(bm):
    # both estimators behind the subcommand: top volume and codimension one
    for index, exact in (("d", 2.0), ("d-1", 3.0)):
        res = json.loads(_cli(bm, ["crofton", "[0,1] x [0,2]", "--index", index,
                                   "--samples", "4000", "--seed", "7", "--json"]))
        _require(res["exact"] == exact and abs(res["z_score"]) < Z_BOUND, f"crofton: {res}")


def _smoke_find_n(bm):
    lines = _lines(_cli(bm, ["find-n", "--poly", "0,1.41421356237", "--epsilon", "0.05"]))
    _require(lines[0] == "N = 12", f"find-n: {lines}")


def _smoke_sample(bm):
    res = json.loads(_cli(bm, ["sample", "--set", "[0,2] x {0}", "--point", "0.5,0",
                               "--m", "20", "--json"]))
    _require(len(res["per_set"]) == 1 and res["per_set"][0]["discrepancy"] < 0.05,
             f"sample: {res['per_set']}")


def _smoke_hausdorff(bm):
    lines = _lines(_cli(bm, ["hausdorff", "[0,1] x {0}", "--index", "1",
                             "--check-ratio", "--m", "20"]))
    _require(lines[0] == "H^1 = 1" and lines[1].startswith("ratio = "), f"hausdorff: {lines}")


CLI_SMOKE = (_smoke_measure, _smoke_compare, _smoke_subset, _smoke_crofton,
             _smoke_find_n, _smoke_sample, _smoke_hausdorff)


def _workload(bm, rng: random.Random, ops: list[Op], sizes: dict,
              warm_up: set[str]) -> Workload:
    """Finish a set-up: CLI smoke pass, warm-up of the named operations
    (fixed names, so set-up costs the same on every seed), seeded order."""
    wl = Workload(ops, sizes)
    for smoke in CLI_SMOKE:
        wl.smoke_attempted += 1
        try:
            smoke(bm)
        except Exception as exc:  # every failure is counted, none is fatal
            wl.smoke_failures.append(f"{smoke.__name__[1:]}: {type(exc).__name__}: {exc}")
    for op in ops:
        if op.name in warm_up:
            op.run()
    rng.shuffle(wl.ops)
    return wl


# ----------------------------------------------------------------------
# exact-algebra
# ----------------------------------------------------------------------

# The box library is generated once from this constant; a run's seed only
# translates, reflects and re-orders axes of each template and shuffles the
# operations, which leaves every grid and cell count unchanged.
EA_LIBRARY_SEED = 200809969
EA_SHAPES = {2: (5, 3), 3: (3, 1)}   # d -> (#A boxes, #B boxes)
EA_TEMPLATES = {2: 21, 3: 20}        # an odd total keeps p50 inside one template's times
EA_LATTICE = 24                      # endpoints are quarter-integers in [0, 6]


def _ea_templates() -> list[tuple[int, list, list]]:
    rng = random.Random(EA_LIBRARY_SEED)
    out = []
    for d, count in EA_TEMPLATES.items():
        k, j = EA_SHAPES[d]
        for _ in range(count):
            # distinct endpoints per axis: 2(k + j) cuts on every axis
            ends = [rng.sample(range(EA_LATTICE + 1), 2 * (k + j)) for _ in range(d)]
            boxes = []
            for b in range(k + j):
                box = []
                for axis in range(d):
                    lo, hi = sorted(ends[axis][2 * b:2 * b + 2])
                    box.append((lo / 4, hi / 4, rng.random() < 0.5, rng.random() < 0.5))
                boxes.append(box)
            out.append((d, boxes[:k], boxes[k:]))
    return out


def _ea_move(boxes: list, perm: list[int], flip: list[bool], shift: list[float]) -> list[str]:
    moved = []
    for box in boxes:
        ivs = []
        for axis in range(len(box)):
            lo, hi, lc, hc = box[perm[axis]]
            if flip[axis]:
                lo, hi, lc, hc = -hi, -lo, hc, lc
            ivs.append(_fmt_iv(lo + shift[axis] + 0.0, hi + shift[axis] + 0.0, lc, hc))
        moved.append(",".join(ivs))
    return moved


def _ea_op(bm, name: str, d: int, a_boxes: list[str], b_boxes: list[str]) -> Op:
    src_x = f"({' | '.join(a_boxes)}) \\ ({' | '.join(b_boxes)})"
    src_y = " | ".join(a_boxes)
    src_b = " | ".join(b_boxes)

    def run():
        x = bm.evaluate(bm.parse(src_x))
        y = bm.evaluate(bm.parse(src_y))
        mu_x = bm.mu(x)
        verdict = bm.mu_compare(x, y)
        subset = bm.is_subset(x, y)
        return x, y, mu_x, verdict, subset

    def check(out) -> dict:
        x, y, mu_x, verdict, subset = out
        _require(x.ambient_dim == d and y.ambient_dim == d, "wrong ambient dimension")
        _require(subset, "is_subset(X, Y) is false for X = Y \\ B")
        y_and_b = bm.intersect(y, bm.evaluate(bm.parse(src_b)))
        expected = "equal" if y_and_b.is_empty else "less"
        _require(verdict == expected, f"mu_compare gave {verdict}, expected {expected}")
        # valuation: X and Y & B split Y, so mu(X) + mu(Y & B) = mu(Y)
        lhs = bm.xpoly_add(mu_x.mu, bm.mu(y_and_b).mu)
        rhs = bm.mu(y).mu
        _require(_poly_close(lhs, rhs, REL_TOL), f"valuation: {lhs} != {rhs}")
        return {"cells": len(x.cells) + len(y.cells)}

    return Op(name, run, check)


def build_exact_algebra(bm, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    for i, (d, a, b) in enumerate(_ea_templates()):
        perm = list(range(d))
        rng.shuffle(perm)
        flip = [rng.random() < 0.5 for _ in range(d)]
        shift = [rng.randint(-32, 32) / 4 for _ in range(d)]
        ops.append(_ea_op(bm, f"ea{i:02d}-d{d}", d, _ea_move(a, perm, flip, shift),
                          _ea_move(b, perm, flip, shift)))
    sizes = {f"d{d}": {"ops_per_pass": EA_TEMPLATES[d], "A_boxes": k, "B_boxes": j,
                       "grid_atoms_final_op": (4 * (k + j) + 1) ** d}
             for d, (k, j) in EA_SHAPES.items()}
    return _workload(bm, rng, ops, sizes, {"ea00-d2", f"ea{EA_TEMPLATES[2]:02d}-d3"})


# ----------------------------------------------------------------------
# monte-carlo
# ----------------------------------------------------------------------

MC_SHAPES = {
    "ring": "[0,3],[0,3] \\ (1,2),(1,2)",
    "comb": "[0,6],[0,1] | " + " | ".join(f"[{i},{i}.5],[1,3]" for i in range(6)),
    "frame": "[0,3],[0,3],[0,2] \\ (1,2),(1,2),(-inf,inf)",
}
MC_SAMPLES = {"volume": 10000, "codim1": 6000}
# placements per estimator: codim-1 ops are the slow tail, and with 3 + 6
# operations p50 and p90 each fall inside one operation's cluster of times
MC_PLACEMENTS = {"volume": 1, "codim1": 2}


def _mc_op(bm, name: str, shape, kind: str, exact: float, rseed: int) -> Op:
    n = MC_SAMPLES[kind]
    estimator = "estimate_volume" if kind == "volume" else "estimate_codim1"

    def run():
        return getattr(bm, estimator)(shape, n, rseed)

    def check(est) -> dict:
        _require(est.std_error > 0, f"zero standard error, estimate {est.estimate}")
        z = (est.estimate - exact) / est.std_error
        _require(abs(z) < Z_BOUND, f"|z| = {abs(z):.2f} >= {Z_BOUND}: "
                                   f"{est.estimate} +- {est.std_error} vs {exact}")
        return {}

    return Op(name, run, check)


def build_monte_carlo(bm, seed: int) -> Workload:
    rng = random.Random(seed)
    ops = []
    sizes = {}
    for shape_name, src in MC_SHAPES.items():
        base = bm.evaluate(bm.parse(src))
        d = base.ambient_dim
        sizes[shape_name] = {"d": d, "cells": len(base.cells), **MC_SAMPLES}
        for kind, count in MC_PLACEMENTS.items():
            for p in range(count):
                shape = bm.translate(base, [rng.randint(-40, 40) / 4 for _ in range(d)])
                exact = bm.intrinsic_volume(shape, d if kind == "volume" else d - 1)
                ops.append(_mc_op(bm, f"{shape_name}-{kind}-{p}", shape, kind, exact,
                                  rng.getrandbits(32)))
    return _workload(bm, rng, ops, sizes, {"ring-volume-0", "ring-codim1-0"})


# ----------------------------------------------------------------------
# finite-sample
# ----------------------------------------------------------------------

S2, S3 = math.sqrt(2.0), math.sqrt(3.0)
# Sample problems in local coordinates: sets as boxes of (lo, hi, lo_closed,
# hi_closed) per axis, mandatory points, m. Every set lies at y >= 2, so a
# translation with dy >= 0 keeps it off U = [0,1) x {0} and leaves N and the
# point count unchanged; the seed also adds one mandatory point below U.
FS_PROBLEMS = {
    "seg-sqrt2-m100": ([[((0, S2, 1, 1), (2, 2, 1, 1))]], [(0.5, 2.0)], 100),
    "segs-overlap-m50": ([[((0, 2 * S2, 1, 1), (2, 2, 1, 1))],
                          [((S2, 3 * S2, 0, 1), (2, 2, 1, 1))]], [(1.0, 2.0)], 50),
    "rect-sqrt2-m20": ([[((0, S2, 1, 1), (2, 3, 1, 1))]], [(0.5, 2.5)], 20),
    "segs-sqrt2-sqrt3-m20": ([[((0, S2 / 4, 1, 1), (2, 2, 1, 1))],
                              [((0, S3 / 4, 1, 0), (3, 3, 1, 1))]], [(0.25, 2.0)], 20),
    "three-sets-m50": ([[((0, S2, 1, 1), (2, 2, 1, 1))],
                        [((1, 1 + S2, 1, 0), (2, 2, 1, 1))],
                        [((0.5, 0.5, 1, 1), (2, 2 + S2, 1, 1))]], [(0.5, 2.0)], 50),
}
# find_near_integer_N cases: (coefficient lists, epsilon, n_start)
FS_SEARCHES = {
    "scan-sqrt2-3-5-7": ([[0, S2], [0, S3], [0, math.sqrt(5.0)], [0, math.sqrt(7.0)]], 0.02, 1),
    "scan-mixed-1e-3": ([[0, S2], [1, S3, math.sqrt(5.0)]], 1e-3, 1),
    "lattice-7-11-4": ([[0, 1 / 7, 3 / 11], [1, 0.25]], 1e-3, 100000),
}
FS_HAUSDORFF = {"hausdorff-seg-sqrt3-m100": ([((0, S3, 1, 1), (2, 2, 1, 1))], 1, 100),
                "hausdorff-rect-sqrt3-m20": ([((0, S3, 1, 1), (2, 3, 1, 1))], 2, 20)}
# The slowest problem runs at two placements. With 2 of the 11 operations in
# its cluster of times, p90 falls in the middle of that cluster, and p50 in
# the middle of the sixth operation's, not on the edge between two.
FS_PLACEMENTS = {"segs-sqrt2-sqrt3-m20": 2}


def _in_cells(cells, x) -> bool:
    """Point membership straight from the endpoints (independent of boxset)."""
    for c in cells:
        for f, v in zip(c.factors, x):
            if not (f.lo < v < f.hi or (v == f.lo and f.lo_closed) or (v == f.hi and f.hi_closed)):
                break
        else:
            return True
    return False


def _fs_set(bm, boxes, dx: float, dy: float):
    src = " | ".join(
        ",".join(_fmt_iv(lo + off, hi + off, bool(lc), bool(hc))
                 for (lo, hi, lc, hc), off in zip(box, (dx, dy)))
        for box in boxes)
    return bm.evaluate(bm.parse(src))


def _fs_sample_op(bm, name: str, sets, points, m: int) -> Op:
    refs = [bm.mu(a).mu for a in sets]   # exact reference polynomials

    def run():
        return bm.build_sample(sets, points, m)

    def check(res) -> dict:
        n = res.N
        lam = res.points
        lam_set = set(lam)
        _require(len(lam_set) == len(lam), "repeated points")
        in_u = sum(1 for x in lam if 0.0 <= x[0] < 1.0 and x[1] == 0.0)
        _require(in_u == n, f"#(lam in U) = {in_u}, N = {n}")
        _require(all(tuple(p) in lam_set for p in points), "a mandatory point is missing")
        eps = Fraction(1, m)
        for i, (a, ref) in enumerate(zip(sets, refs)):
            count = sum(1 for x in lam if _in_cells(a.cells, x))
            disc = abs(count - _exact_value(ref, n))
            _require(disc < eps, f"set {i}: |{count} - mu(N)| = {float(disc):.3g} >= 1/{m}")
        return {"N": n, "points": len(lam)}

    return Op(name, run, check)


def _fs_search_op(bm, name: str, coeffs, eps: float, n_start: int) -> Op:
    polys = [bm.XPoly(c) for c in coeffs]

    def run():
        return bm.find_near_integer_N(polys, eps, n_start=n_start)

    def check(n) -> dict:
        _require(n >= n_start, f"N = {n} below n_start = {n_start}")
        for p in polys:
            value = _exact_value(p, n)
            dist = abs(value - round(value))
            _require(dist < Fraction(eps), f"||p(N)|| = {float(dist):.3g} >= {eps} at N = {n}")
        return {"N": n}

    return Op(name, run, check)


def _fs_hausdorff_op(bm, name: str, a, i: int, m: int) -> Op:
    ref = bm.mu(a).mu

    def run():
        return bm.hausdorff_ratio_check(a, i, m)

    def check(chk) -> dict:
        n = chk.N
        _require(chk.target == ref.coeff(i), f"target {chk.target} != {ref.coeff(i)}")
        _require(chk.gap <= chk.bound, f"gap {chk.gap} > bound {chk.bound}")
        count = round(chk.ratio * n ** i)
        disc = abs(count - _exact_value(ref, n))
        _require(disc < Fraction(1, m), f"|count - mu(N)| = {float(disc):.3g} >= 1/{m}")
        return {"N": n, "points": count}

    return Op(name, run, check)


def build_finite_sample(bm, seed: int) -> Workload:
    rng = random.Random(seed)

    def offset():
        return rng.randint(-16, 16) / 4, rng.randint(0, 16) / 4

    ops = []
    for name, (boxes_per_set, points, m) in FS_PROBLEMS.items():
        for p in range(FS_PLACEMENTS.get(name, 1)):
            dx, dy = offset()
            sets = [_fs_set(bm, boxes, dx, dy) for boxes in boxes_per_set]
            moved = [(x + dx, y + dy) for x, y in points]
            moved.append((rng.randint(-16, 16) / 4, -1.0 - rng.randint(0, 16) / 4))
            ops.append(_fs_sample_op(bm, f"{name}-{p}", sets, moved, m))
    for name, (coeffs, eps, n_start) in FS_SEARCHES.items():
        ops.append(_fs_search_op(bm, name, coeffs, eps, n_start))
    for name, (boxes, i, m) in FS_HAUSDORFF.items():
        dx, dy = offset()
        ops.append(_fs_hausdorff_op(bm, name, _fs_set(bm, boxes, dx, dy), i, m))
    sizes = {name: {"sets": len(sets), "m": m, "mandatory_points": len(points) + 1}
             for name, (sets, points, m) in FS_PROBLEMS.items()}
    sizes.update({name: {"polys": len(c), "epsilon": eps, "n_start": n0}
                  for name, (c, eps, n0) in FS_SEARCHES.items()})
    sizes.update({name: {"index": i, "m": m} for name, (_, i, m) in FS_HAUSDORFF.items()})
    return _workload(bm, rng, ops, sizes, {"seg-sqrt2-m100-0"})


WORKLOADS = {
    "exact-algebra": build_exact_algebra,
    "monte-carlo": build_monte_carlo,
    "finite-sample": build_finite_sample,
}
