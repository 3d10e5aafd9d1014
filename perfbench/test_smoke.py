"""Smoke test of the benchmark on tiny grids with toy widths.

    python3 -m pytest perfbench/test_smoke.py

The workload cases start ``run.py --smoke`` in a subprocess, as the
benchmark is run for real, and read the JSON lines it prints; the last
case checks the host-speed scaling on a hand-made run.
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _f:
    SPEC = json.load(_f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
HELD_OUT_SEED = 7919  # not used while the benchmark was built and tuned


def bench(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--smoke",
         "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return out.returncode, lines, out.stderr


def _line(lines, key):
    return next(line[key] for line in lines if key in line)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_named_metric_is_emitted_with_its_unit(workload):
    runs = {}
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        code, lines, err = bench(workload, 3, trace)
        assert code == 0, err
        result = lines[-1]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        emitted = {name: m["unit"] for name, m in result["metrics"].items()}
        assert emitted == {m["name"]: m["unit"] for m in SPEC[kind]}
        assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
        runs[trace] = lines
    assert all(m["value"] > 0 for m in runs[0][-1]["metrics"].values())
    assert _line(runs[0], "summary")["test_rmse"] == _line(runs[1], "summary")["test_rmse"]
    context = _line(runs[0], "context")
    for key in ("nproc", "cpu_model", "python", "numpy", "blas", "blas_threads",
                "git_commit", "seed"):
        assert context[key] not in (None, ""), key


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_runs_clean(workload):
    code, lines, err = bench(workload, HELD_OUT_SEED, 0)
    assert code == 0, err
    assert lines[-1]["correct"] and lines[-1]["failed"] == 0


def test_metric_map_covers_every_metric():
    with open(os.path.join(HERE, "METRICS.md"), encoding="utf-8") as f:
        text = f.read()
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert f"`{m['name']}`" in text, m["name"]


def test_times_are_scaled_by_the_nearest_probes():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import workloads

    ref = workloads.PROBE_REF_MS / 1e3
    # The host runs at half speed around t = 10 s and at reference speed
    # around t = 100 s; the probes run before and after the jobs there.
    probes = [(t + 0.1 * k, s) for t, s in ((9.0, 2 * ref), (10.2, 2 * ref), (99.0, ref),
                                            (100.6, ref)) for k in range(4)]
    outcome = workloads.Outcome(setups=[(99.75, 0.5)], steps=[([(9.9, 0.2)], 4, False),
                                                             ([(99.9, 0.2)], 4, False)],
                                evals=[(9.6, 0.2, 10)], probes=probes, test_rmse=1.0)
    m = workloads.end_to_end(outcome, 1.0, workloads.host_scale(outcome))
    assert m["setup_s"] == pytest.approx(0.5)
    assert m["step_ms_p50"] == pytest.approx(150.0)
    assert m["train_samples_per_s"] == pytest.approx(8 / 0.3)
    assert m["eval_counties_per_s"] == pytest.approx(100.0)
    assert workloads.end_to_end(outcome, 1.0)["step_ms_p50"] == pytest.approx(200.0)
    # Half speed before a job and reference speed after it: 1.5x the probe time.
    slow_then_fast = workloads.Outcome(probes=[(9.0, 2 * ref), (11.0, ref)])
    assert workloads.host_scale(slow_then_fast)(10.0, 0.5) == pytest.approx(1 / 1.5)
