"""yieldgraph benchmark: one workload from one seed, measured in one process.

    python3 perfbench/run.py --workload graph-5y --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout. The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1). The lines before it give the run's context and a summary.
Scratch files go to ``.perfbench_runs/`` in the checkout; the traced
run's spans are written there too.
"""

import os
import sys

# BLAS must be pinned before numpy is first imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_runs")
WORKLOADS = ("graph-5y", "weekly-rnn-1y", "ingest-linear")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and toy widths, for the benchmark's own test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def git_commit():
    """HEAD of the checkout, or "unknown" when the checkout is not a git
    repository (git is kept from looking above it)."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine()


def run_context(args, np):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def main(argv=None):
    args = parse_args(argv)
    sys.path.insert(0, SRC)

    import numpy as np

    import spans
    import workloads

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    workdir = os.path.join(OUT, f"{tag}-pid{os.getpid()}")
    os.makedirs(workdir)
    rec = workloads.Record()
    tracer = spans.Tracer() if args.trace else None
    sizes = workloads.SMOKE if args.smoke else workloads.FULL

    rec.check("TraceLeak", not spans.leaked_wrappers())
    if tracer is not None:
        tracer.install()
    try:
        outcome = workloads.run(args.workload, sizes, args.seed, args.seconds, tracer, rec,
                                workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    rec.check("TraceLeak", not spans.leaked_wrappers())

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = workloads.host_scale(outcome)
    if tracer is None:
        values = workloads.end_to_end(outcome, peak_rss_mb, scale)
        units = dict(workloads.END_TO_END)
    else:
        values = spans.layer_metrics(tracer, outcome.steps)
        units = dict(spans.PER_LAYER)
        summary = tracer.write(os.path.join(OUT, f"{tag}.spans.csv"),
                               os.path.join(OUT, f"{tag}.selftime.json"))
        print(json.dumps({"self_time_ms": {k: round(v["self_ms"], 3)
                                           for k, v in summary.items()}}))
    rmse = outcome.test_rmse
    rec.check("NonFiniteRmse", rmse is not None and math.isfinite(rmse))
    rec.check("MissingMetric", all(v is not None for v in values.values()))

    print(json.dumps({"context": run_context(args, np)}))
    print(json.dumps({"summary": {
        "steps": len(outcome.steps),
        "traced_steps": sum(1 for *_, traced in outcome.steps if traced),
        "test_rmse": outcome.test_rmse,
        "probes": len(outcome.probes),
        "probe_ms_p50": 1e3 * statistics.median(dt for _, dt in outcome.probes),
        "unscaled": workloads.end_to_end(outcome, peak_rss_mb),
        "failures": dict(rec.failures),
        "ops_failed_ratio": rec.failed / rec.attempted,
    }}))
    print(json.dumps({
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
