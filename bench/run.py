"""Fixed-seed benchmark for boxmeasure.

    python3 bench/run.py --workload exact-algebra --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout: the package is imported from
``src/`` of that checkout and nowhere else. One process, one thread, one
closed-loop client: each operation starts when the previous one returns.

With ``--trace 0`` the run sets the workload up several times (the median
is ``setup_s``), then replays the workload's operation list until the timed
operations add up to ``--seconds`` and at least MIN_OPS operations ran, and
reports the end-to-end metrics. With ``--trace 1`` it sets up once under the
span recorder, then alternates an untraced and a traced pass over the
operation list until ``--seconds`` is used, and reports the per-layer
metrics for one set-up plus one pass; the spans go to ``bench/out/``.

Every operation's output is checked outside the timed region. The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"  # before NumPy is imported

import argparse
import json
import platform
import resource
import statistics
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5
MIN_OPS = 100

E2E_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "dsl.parse.calls": "count", "dsl.parse.self_s": "s", "dsl.evaluate.self_s": "s",
    "boxset.boolean.calls": "count", "boxset.boolean.self_s": "s",
    "boxset.grid_atoms_built": "count", "boxset.cells_out": "count",
    "boxset.keep_frac": "ratio", "boxset.is_subset.self_s": "s",
    "boxset.contains_point.calls": "count", "boxset.contains_point.self_s": "s",
    "boxset.grid_atoms.self_s": "s",
    "measure.mu.calls": "count", "measure.mu.cells": "count", "measure.mu.self_s": "s",
    "xpoly.mul.calls": "count", "xpoly.mul.self_s": "s", "xpoly.add.calls": "count",
    "xpoly.eval.calls": "count", "xpoly.eval.self_s": "s",
    "sampler.find_n.calls": "count", "sampler.find_n.self_s": "s",
    "sampler.find_n.span": "count", "sampler.build_sample.self_s": "s",
    "sampler.points_placed": "count", "sampler.N_max": "count",
    "crofton.volume.self_s": "s", "crofton.codim1.self_s": "s",
    "crofton.samples": "count", "crofton.sample_cells": "count",
    "crofton.samples_per_s": "1/s", "rng.draws": "count", "rng.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _import_package():
    """Import boxmeasure from src/ of this checkout, or exit with an error."""
    src = ROOT / "src"
    if not (src / "boxmeasure" / "__init__.py").is_file():
        sys.exit(f"bench: no boxmeasure sources under {src}; run from a source checkout")
    sys.path.insert(0, str(src))
    import boxmeasure
    if Path(boxmeasure.__file__).resolve().parent != src / "boxmeasure":
        sys.exit(f"bench: imported boxmeasure from {boxmeasure.__file__}, not from {src}")
    return boxmeasure


class Run:
    """Timed operations and their failures for one benchmark run."""

    def __init__(self):
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.failed_ops = 0
        self.sizes: dict[str, list] = {}
        self.stated: dict = {}
        self.attempted = 0

    def op(self, index: int, op, recorder: spans.Recorder | None = None) -> float:
        """Run one operation, check it outside the timer, return its time."""
        self.attempted += 1
        err = None
        with recorder.traced(index, "op") if recorder else nullcontext():
            t0 = perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising operation is a failed one
                err = exc
            dt = perf_counter() - t0
        self.latencies.append(dt)
        if err is None:
            try:
                for key, value in op.check(out).items():
                    self.sizes.setdefault(f"{op.name}.{key}", []).append(value)
            except Exception as exc:
                err = exc
        if err is not None:
            self.failed_ops += 1
            self.failures.append(f"op {index} {op.name}: {type(err).__name__}: {err}")
        return dt

    def set_up(self, wl) -> None:
        """Account one workload set-up: its stated sizes and CLI smoke pass."""
        self.stated = wl.sizes
        self.attempted += wl.smoke_attempted
        self.failures.extend(f"cli smoke {f}" for f in wl.smoke_failures)


def _e2e(bm, build, seed: int, seconds: float, run: Run, max_ops: int | None,
         min_ops: int) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        wl = build(bm, seed)
        setups.append(perf_counter() - t0)
        run.set_up(wl)
    ops = wl.ops[:max_ops]
    loop_s = 0.0
    while loop_s < seconds or len(run.latencies) < min_ops:
        for i, op in enumerate(ops):
            loop_s += run.op(i, op)
    lat_ms = sorted(1e3 * t for t in run.latencies)
    return {
        "ops_per_s": (len(run.latencies) - run.failed_ops) / loop_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _layers(rec: spans.Recorder, passes: int, overhead: float) -> dict:
    """Per-layer metrics for one set-up plus one pass of the operation list."""
    def total(table, key):
        return table[spans.SETUP].get(key, 0) + table[spans.LOOP].get(key, 0) / passes

    out = {}
    for name, unit in LAYER_UNITS.items():
        layer, _, field = name.rpartition(".")
        if field in ("calls", "self_s"):
            value = total(rec.calls if field == "calls" else rec.self_s, layer)
        else:
            value = total(rec.counters, name)
        # every pass repeats the same inputs, so per-pass counts are whole
        out[name] = int(value) if unit == "count" and float(value).is_integer() else value
    out["sampler.N_max"] = max(table.get("sampler.N_max", 0) for table in rec.counters.values())
    atoms = out["boxset.grid_atoms_built"]
    out["boxset.keep_frac"] = out["boxset.cells_out"] / atoms if atoms else 0.0
    crofton_s = total(rec.incl_s, "crofton.volume") + total(rec.incl_s, "crofton.codim1")
    out["crofton.samples_per_s"] = out["crofton.samples"] / crofton_s if crofton_s else 0.0
    out["trace.overhead_frac"] = overhead
    return out


def _traced(bm, build, workload: str, seed: int, seconds: float, run: Run,
            max_ops: int | None) -> dict:
    rec = spans.Recorder(bm)
    with rec.traced(-1, "setup"):
        wl = build(bm, seed)
    run.set_up(wl)
    ops = wl.ops[:max_ops]
    plain_s = traced_s = 0.0
    passes = 0
    while passes == 0 or plain_s + traced_s < seconds:
        plain_s += sum(run.op(i, op) for i, op in enumerate(ops))
        traced_s += sum(run.op(i, op, rec) for i, op in enumerate(ops))
        passes += 1
    rec.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    return _layers(rec, passes, traced_s / plain_s - 1.0)


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 max_ops: int | None = None, min_ops: int = MIN_OPS) -> tuple[Run, dict, dict]:
    """Run one workload; returns the run record, the metrics and the
    measured input sizes. max_ops truncates the operation list (tests)."""
    bm = _import_package()
    build = workloads.WORKLOADS[workload]
    run = Run()
    if trace:
        metrics = _traced(bm, build, workload, seed, seconds, run, max_ops)
        units = LAYER_UNITS
    else:
        metrics = _e2e(bm, build, seed, seconds, run, max_ops, min_ops)
        units = E2E_UNITS
    sizes = {k: (min(v), max(v)) for k, v in sorted(run.sizes.items())}
    return run, {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, sizes


def report(workload: str, seed: int, trace: bool, run: Run, metrics: dict,
           sizes: dict) -> list[str]:
    """Output lines of one run; the last is the JSON result."""
    import numpy  # already imported by the package
    lines = [f"# workload {workload} seed {seed} trace {int(trace)}: "
             f"python {platform.python_version()}, numpy {numpy.__version__}, "
             f"nproc {len(os.sched_getaffinity(0))}, timed samples {len(run.latencies)}"]
    lines += [f"# stated {k} = {json.dumps(v)}" for k, v in run.stated.items()]
    lines += [f"# size {k} = {lo}" if lo == hi else f"# size {k} = {lo}..{hi}"
              for k, (lo, hi) in sizes.items()]
    lines += [f"# FAILED {f}" for f in run.failures]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    failed = len(run.failures)
    lines.append(f"ops_failed_frac {failed / run.attempted:.6g} ratio")
    lines.append(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                             "failed": failed, "metrics": metrics}))
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    trace = bool(args.trace)
    run, metrics, sizes = run_workload(args.workload, args.seed, args.seconds, trace)
    print("\n".join(report(args.workload, args.seed, trace, run, metrics, sizes)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
