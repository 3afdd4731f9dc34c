"""Smoke test of the benchmark: a few operations per workload, traced and
untraced. Run with ``python -m pytest bench/test_smoke.py`` from the root of
the repository."""

import json
from pathlib import Path

import pytest

# bench/ is on sys.path as the directory of this test file
import run
import workloads

E2E = ["ops_per_s", "op_p50_ms", "op_p90_ms", "setup_s", "peak_rss_mb"]
LAYERS = [
    "dsl.parse.calls", "dsl.parse.self_s", "dsl.evaluate.self_s",
    "boxset.boolean.calls", "boxset.boolean.self_s", "boxset.grid_atoms_built",
    "boxset.cells_out", "boxset.keep_frac", "boxset.is_subset.self_s",
    "boxset.contains_point.calls", "boxset.contains_point.self_s", "boxset.grid_atoms.self_s",
    "measure.mu.calls", "measure.mu.cells", "measure.mu.self_s",
    "xpoly.mul.calls", "xpoly.mul.self_s", "xpoly.add.calls",
    "xpoly.eval.calls", "xpoly.eval.self_s", "sampler.find_n.calls", "sampler.find_n.self_s",
    "sampler.find_n.span", "sampler.build_sample.self_s", "sampler.points_placed",
    "sampler.N_max", "crofton.volume.self_s", "crofton.codim1.self_s", "crofton.samples",
    "crofton.sample_cells", "crofton.samples_per_s", "rng.draws", "rng.self_s",
    "trace.overhead_frac",
]
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    assert [m["name"] for m in SPEC["end_to_end"]] == E2E
    assert [m["name"] for m in SPEC["per_layer"]] == LAYERS
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(workloads.WORKLOADS)
    assert all(m["unit"] == run.E2E_UNITS[m["name"]] for m in SPEC["end_to_end"])
    assert all(m["unit"] == run.LAYER_UNITS[m["name"]] for m in SPEC["per_layer"])


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_prints_every_metric(workload, trace):
    result, metrics, sizes = run.run_workload(workload, 1, 0.0, trace, max_ops=3, min_ops=1)
    lines = run.report(workload, 1, trace, result, metrics, sizes)
    printed = {ln.split()[0]: ln.split()[2] for ln in lines[:-1] if not ln.startswith("#")}
    names = LAYERS if trace else E2E
    assert all(printed.get(name) for name in names), printed
    assert printed["ops_failed_frac"] == "ratio"
    out = json.loads(lines[-1])
    assert sorted(out) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(out["metrics"]) == sorted(names)
    assert all(m["unit"] for m in out["metrics"].values())
    assert out["failed"] == 0 and out["correct"], result.failures
    assert lines[-2] == "ops_failed_frac 0 ratio"
