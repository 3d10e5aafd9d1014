import csv
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from yieldgraph import cli, data as data_module
from yieldgraph.autodiff import NonFiniteError
from yieldgraph.cli import _INPUT_ERRORS, CliError, build_parser, main
from yieldgraph.data import (
    DataFormatError,
    WindowUnavailableError,
    YearSplit,
    load_dataset,
    normalize,
)
from yieldgraph.evaluation import MetricError, evaluate, parse_metrics
from yieldgraph.geo import GeoFormatError, RasterGrid, write_ascii_grid
from yieldgraph.graph import GraphFormatError
from yieldgraph.models import (
    ALL_KINDS,
    ConfigurationError,
    ModelCheckpoint,
    ModelSpec,
    TrainingAbort,
    default_spec,
    train,
)
from tests.helpers import save_csv_dataset


def run(argv):
    return main(argv)


def synth_args(out, counties=16, years=10, seed=3):
    return [
        "synth", "--counties", str(counties), "--years", str(years),
        "--seed", str(seed), "--out", str(out),
    ]


def features_file(d):
    """A dataset directory's feature file: the store synth writes, or the
    features.csv of a copy in the CSV import form."""
    store = d / "features.npys"
    return store if store.exists() else d / "features.csv"


def dataset_flags(d):
    return [
        "--features", str(features_file(d)),
        "--yields", str(d / "yields.csv"),
        "--adjacency", str(d / "adjacency.tsv"),
    ]


def train_args(data_dir, out, method="cnn-1y", epochs=2, extra=()):
    return (
        ["train"] + dataset_flags(data_dir)
        + ["--method", method, "--test-year", "2009", "--epochs", str(epochs),
           "--toy-widths", "--batch-size", "16", "--out", str(out)]
        + list(extra)
    )


def test_synth_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(synth_args(a, 100, 20, seed=7)) == 0
    assert run(synth_args(b, 100, 20, seed=7)) == 0
    for name in ("features.npys", "yields.csv", "adjacency.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_output_loads_and_grid_edges(tmp_path):
    out = tmp_path / "ds"
    assert run(synth_args(out, 100, 8)) == 0
    ds = load_dataset(out / "features.npys", out / "yields.csv", out / "adjacency.tsv")
    assert ds.graph.n == 100
    assert sum(len(v) for v in ds.graph.neighbors) // 2 == 180


def test_synth_rejects_non_square(tmp_path):
    assert run(synth_args(tmp_path / "x", counties=10)) == 2


def test_out_dir_protection(tmp_path):
    out = tmp_path / "ds"
    assert run(synth_args(out)) == 0
    assert run(synth_args(out)) == 2  # refuses without --force
    assert run(synth_args(out) + ["--force"]) == 0


def test_train_writes_checkpoint_log_and_config(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "run"
    assert run(train_args(data, out)) == 0
    assert (out / "checkpoint.ckpt").exists()
    log = (out / "training_log.csv").read_text().splitlines()
    assert log[0] == "epoch,train_loss,val_rmse,lr"
    assert len(log) == 3
    config = (out / "config.txt").read_text()
    assert "command = train" in config
    assert "method = cnn-1y" in config
    assert "schedule = " in config  # effective values pinned


def test_train_best_epoch_matches_log_minimum(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "run"
    assert run(train_args(data, out, epochs=4)) == 0
    from yieldgraph.models import ModelCheckpoint

    ckpt = ModelCheckpoint.load(out / "checkpoint.ckpt")
    rows = (out / "training_log.csv").read_text().splitlines()[1:]
    val = [float(r.split(",")[2]) for r in rows]
    assert val[ckpt.best_epoch] == min(val)


def test_train_deterministic_rerun(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(train_args(data, out1, method="gnn-1y")) == 0
    assert run(train_args(data, out2, method="gnn-1y")) == 0
    assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()


def test_train_rerun_from_echoed_config(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert run(train_args(data, out1)) == 0
    assert run(["train", "--config", str(out1 / "config.txt"),
                "--out", str(out2)]) == 0
    assert (out1 / "checkpoint.ckpt").read_bytes() == (out2 / "checkpoint.ckpt").read_bytes()


def test_missing_input_file_exits_2(tmp_path):
    out = tmp_path / "run"
    code = run([
        "train", "--features", str(tmp_path / "nope.csv"),
        "--yields", str(tmp_path / "nope2.csv"),
        "--adjacency", str(tmp_path / "nope3.tsv"),
        "--method", "cnn-1y", "--test-year", "2009", "--out", str(out),
    ])
    assert code == 2


def test_missing_required_flag_exits_2(tmp_path):
    assert run(["synth", "--counties", "16", "--out", str(tmp_path / "x")]) == 2


def test_evaluate_writes_report(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    run_dir = tmp_path / "run"
    assert run(train_args(data, run_dir)) == 0
    eval_dir = tmp_path / "eval"
    code = run(
        ["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt")]
        + dataset_flags(data) + ["--out", str(eval_dir)]
    )
    assert code == 0
    metrics = parse_metrics(eval_dir / "metrics.txt")
    assert metrics["year"] == 2009
    assert (eval_dir / "predictions.csv").exists()
    assert (eval_dir / "scatter.svg").exists()


def test_evaluate_early_flag(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    run_dir = tmp_path / "run"
    assert run(train_args(data, run_dir, epochs=3)) == 0
    plain, early = tmp_path / "plain", tmp_path / "early"
    base = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt")] + dataset_flags(data)
    assert run(base + ["--out", str(plain)]) == 0
    assert run(base + ["--out", str(early), "--early"]) == 0
    m_plain = parse_metrics(plain / "metrics.txt")
    m_early = parse_metrics(early / "metrics.txt")
    assert m_plain["r2"] != m_early["r2"]


def test_benchmark_table_shape(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "bench"
    code = run(
        ["benchmark"] + dataset_flags(data)
        + ["--methods", "ridge-1y,lasso-1y", "--seeds", "0,1", "--test-year", "2009",
           "--out", str(out)]
    )
    assert code == 0
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert rows[0].startswith("method,group,seeds,failed,rmse_mean,rmse_std")
    assert len(rows) == 3
    assert rows[1].startswith("ridge-1y,1y,2,0")
    txt = (out / "benchmark.txt").read_text()
    assert "ridge-1y" in txt and "lasso-1y" in txt


def test_benchmark_same_seed_twice_zero_std(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "bench"
    assert run(
        ["benchmark"] + dataset_flags(data)
        + ["--methods", "ridge-1y", "--seeds", "0,0", "--test-year", "2009",
           "--out", str(out)]
    ) == 0
    row = (out / "benchmark.csv").read_text().splitlines()[1].split(",")
    header = (out / "benchmark.csv").read_text().splitlines()[0].split(",")
    assert float(row[header.index("rmse_std")]) == 0.0


def test_benchmark_failed_cell_still_emits_table(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(synth_args(data, years=6)) == 0  # too short for any 5y window
    out = tmp_path / "bench"
    capsys.readouterr()
    code = run(
        ["benchmark"] + dataset_flags(data)
        + ["--methods", "ridge-1y,cnn-rnn-5y", "--seeds", "0", "--test-year", "2005",
           "--epochs", "1", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert any("failed:1" in r for r in rows[1:])
    assert any(r.startswith("ridge-1y") and r.endswith("ok") for r in rows[1:])
    # the failed cell says why, on one stderr line naming method, seed and error
    failed = [line for line in capsys.readouterr().err.splitlines() if "failed" in line]
    assert len(failed) == 1
    assert "cnn-rnn-5y seed 0" in failed[0] and "ConfigurationError: " in failed[0]


@pytest.mark.parametrize("config, flags", [
    ("crop = wheat\n", ["--methods", "ridge-1y"]),
    ("", ["--methods", "ridge-1y", "--epochs", "0"]),
    ("", ["--methods", ","]),
    ("", ["--methods", "cnn-1y", "--seeds", "-1"]),
], ids=["unknown-crop", "zero-epochs", "no-method", "negative-seed"])
def test_benchmark_rejects_bad_spec_input_before_any_cell(tmp_path, monkeypatch, capsys,
                                                          config, flags):
    cells = []
    monkeypatch.setattr(cli, "_benchmark_cell", lambda *a: cells.append(a))
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config, encoding="utf-8")
    out = tmp_path / "bench"
    capsys.readouterr()
    assert run(["benchmark", "--config", str(cfg)] + dataset_flags(data)
               + ["--test-year", "2009", "--out", str(out)] + flags) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert cells == [] and not out.exists()


def test_benchmark_group_is_5y_exactly_for_kinds_with_history(tmp_path, monkeypatch):
    def no_cell(spec, prepared, dataset, split, early):
        raise ConfigurationError("cell not run")

    monkeypatch.setattr(cli, "_benchmark_cell", no_cell)
    data = tmp_path / "data"
    assert run(synth_args(data, years=6)) == 0
    out = tmp_path / "bench"
    assert run(
        ["benchmark"] + dataset_flags(data)
        + ["--methods", ",".join(ALL_KINDS), "--test-year", "2005", "--out", str(out)]
    ) == 0
    with open(out / "benchmark.csv", encoding="utf-8", newline="") as f:
        groups = {row["method"]: row["group"] for row in csv.DictReader(f)}
    assert groups == {k: "5y" if ModelSpec(kind=k).history_years else "1y" for k in ALL_KINDS}


def _count_normalize(monkeypatch):
    """A list that gets one entry per ``normalize`` call, through ``data``
    or the name ``cli`` imported."""
    calls = []

    def counted(*args):
        calls.append(args)
        return normalize(*args)

    for module in (data_module, cli):
        monkeypatch.setattr(module, "normalize", counted)
    return calls


def test_benchmark_cell_is_a_standalone_train_and_evaluate_bit_for_bit(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    calls = _count_normalize(monkeypatch)
    out = tmp_path / "bench"
    assert run(["benchmark"] + dataset_flags(data)
               + ["--methods", "gnn-1y,ridge-1y", "--test-year", "2009", "--epochs", "1",
                  "--early", "--out", str(out)]) == 0
    assert len(calls) == 1
    with open(out / "benchmark.csv", encoding="utf-8", newline="") as f:
        rows = {row["method"]: row for row in csv.DictReader(f)}

    ds = load_dataset(data / "features.npys", data / "yields.csv", data / "adjacency.tsv")
    split = YearSplit(test_year=2009)
    for method in ("gnn-1y", "ridge-1y"):
        spec = default_spec(method, ModelSpec.crop, 2009, seed=0, epochs=1)
        ckpt = train(spec, normalize(ds, split)[0], split)
        plain, early = evaluate(ckpt, ds, split), evaluate(ckpt, ds, split, early=True)
        row = rows[method]
        assert row["status"] == "ok"
        assert float(row["rmse_mean"]) == plain.rmse_normalized
        assert float(row["r2_mean"]) == plain.r2
        assert float(row["r2_masked_mean"]) == early.r2


def test_train_normalizes_once(tmp_path, monkeypatch):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    calls = _count_normalize(monkeypatch)
    assert run(train_args(data, tmp_path / "out", method="ridge-1y")) == 0
    assert len(calls) == 1


def test_benchmark_split_without_training_years_exits_2_before_any_cell(tmp_path, monkeypatch,
                                                                        capsys):
    cells = []
    monkeypatch.setattr(cli, "_benchmark_cell", lambda *a: cells.append(a))
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "bench"
    capsys.readouterr()
    assert run(["benchmark"] + dataset_flags(data)
               + ["--methods", "ridge-1y", "--test-year", "2001", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: no training years")
    assert cells == [] and not out.exists()


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_cli_pins_blas_before_numpy_is_first_imported():
    probe = textwrap.dedent(f"""
        import json, os, sys
        seen = []

        class Probe:
            def find_spec(self, name, path=None, target=None):
                if name == "numpy" and not seen:
                    seen.append({{v: os.environ.get(v) for v in {_BLAS_VARS!r}}})

        assert "numpy" not in sys.modules
        sys.meta_path.insert(0, Probe())
        import yieldgraph.cli
        print(json.dumps(seen))
    """)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                          text=True, check=True)
    assert json.loads(done.stdout) == [{v: "1" for v in _BLAS_VARS}]


def test_benchmark_programming_error_propagates(tmp_path, monkeypatch):
    # a bug in library code is not a failed cell: it must surface as itself
    data = tmp_path / "data"
    assert run(synth_args(data, years=6)) == 0
    monkeypatch.setattr(cli, "train_model", _raise(TypeError("bug in library code")))
    with pytest.raises(TypeError, match="bug in library code"):
        run(["benchmark"] + dataset_flags(data)
            + ["--methods", "ridge-1y", "--seeds", "0", "--test-year", "2005",
               "--out", str(tmp_path / "bench")])


def test_aggregate_toy_pipeline(tmp_path):
    rasters = tmp_path / "rasters"
    os.makedirs(rasters)
    write_ascii_grid(
        RasterGrid(0.0, 0.0, 1.0, 2, 2, np.array([10.0, 20.0, 30.0, 40.0])),
        rasters / "var.asc",
    )
    weights = tmp_path / "weights.csv"
    weights.write_text(
        "county,cell_index,overlap_fraction,agland_fraction\n"
        "00001,0,0.5,0.4\n00001,1,1.0,0.2\n00002,2,1.0,1.0\n",
        encoding="utf-8",
    )
    manifest = tmp_path / "manifest.csv"
    manifest.write_text("column,source,kind\ns_awc_0,var.asc,static\n", encoding="utf-8")
    out = tmp_path / "fragment.csv"
    code = run([
        "aggregate", "--rasters", str(rasters), "--weights", str(weights),
        "--manifest", str(manifest), "--year", "2000", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "county,year,s_awc_0"
    # county 00001: weights {0.2, 0.2} over values {10, 20} -> 15
    assert lines[1] == "00001,2000,15.0"
    assert lines[2] == "00002,2000,30.0"


def test_aggregate_missing_weights_exits_2(tmp_path):
    code = run([
        "aggregate", "--rasters", str(tmp_path), "--weights", str(tmp_path / "none.csv"),
        "--manifest", str(tmp_path / "m.csv"), "--year", "2000",
        "--out", str(tmp_path / "o.csv"),
    ])
    assert code == 2


def test_aggregate_rerun_identical_bytes(tmp_path):
    rasters = tmp_path / "rasters"
    os.makedirs(rasters)
    write_ascii_grid(
        RasterGrid(0.0, 0.0, 1.0, 2, 2, np.array([1.0, 2.0, 3.0, 4.0])),
        rasters / "v.asc",
    )
    (tmp_path / "w.csv").write_text(
        "county,cell_index,overlap_fraction,agland_fraction\nc,0,1.0,1.0\n",
        encoding="utf-8",
    )
    (tmp_path / "m.csv").write_text("column,source,kind\ne_nccpi_all,v.asc,static\n",
                                    encoding="utf-8")
    args = [
        "aggregate", "--rasters", str(rasters), "--weights", str(tmp_path / "w.csv"),
        "--manifest", str(tmp_path / "m.csv"), "--year", "2001",
        "--out", str(tmp_path / "frag.csv"), "--force",
    ]
    assert run(args) == 0
    first = (tmp_path / "frag.csv").read_bytes()
    assert run(args) == 0
    assert (tmp_path / "frag.csv").read_bytes() == first


def test_aggregate_golden_bytes(tmp_path):
    """The fragment of one aggregate run, byte for byte: static and daily
    (flux and state) columns, nodata cells, a county blank for a day with no
    valid cell, and a county id csv.writer must quote."""
    rng = np.random.default_rng(9)
    rasters = tmp_path / "rasters"
    os.makedirs(rasters)
    nodata = -9999.0
    static = rng.normal(size=6) * 10.0 ** rng.integers(-5, 6, size=6)
    static[2] = nodata
    write_ascii_grid(RasterGrid(0.0, 0.0, 1.0, 2, 3, static, nodata=nodata),
                     rasters / "soil.asc")
    for day in range(365):
        values = np.round(rng.normal(20.0, 8.0, size=6), 2)
        gaps = rng.uniform(size=6) < 0.2
        gaps[[0, 3, 4]] = False
        values[gaps] = nodata
        if day == 100:
            values[[4, 5]] = nodata
        write_ascii_grid(RasterGrid(0.0, 0.0, 1.0, 2, 3, values, nodata=nodata),
                         rasters / f"day{day:03d}.asc")
    (tmp_path / "w.csv").write_text(
        "county,cell_index,overlap_fraction,agland_fraction\n"
        "00001,0,0.5,0.4\n00001,1,1.0,0.2\n00001,2,0.3,1.0\n00001,3,1.0,0.7\n"
        "00002,4,1.0,0.25\n00002,5,0.1,0.9\n"
        "\"a,\"\"b\",3,0.6,0.6\n\"a,\"\"b\",0,0.2,1.0\n",
        encoding="utf-8",
    )
    (tmp_path / "m.csv").write_text(
        "column,source,kind\ns_awc_0,soil.asc,static\n"
        "w_precip,day*.asc,daily-flux\nw_tmax,day*.asc,daily-state\n",
        encoding="utf-8",
    )
    out = tmp_path / "frag.csv"
    assert run([
        "aggregate", "--rasters", str(rasters), "--weights", str(tmp_path / "w.csv"),
        "--manifest", str(tmp_path / "m.csv"), "--year", "2001", "--out", str(out),
    ]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "0f1dbdeb2fa8e64154d7c6a42c1c1efd859768d7bdb8c1028b1177d7d152d739")


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_numerical_abort_exits_3(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    out = tmp_path / "run"
    code = run(train_args(data, out, extra=["--lr", "1e200", "--force"]))
    assert code == 3


def test_train_config_echo_golden(tmp_path):
    """config.txt of one train run, byte for byte: config-file values echo as
    written, flags as parsed, and every other hyperparameter as resolved."""
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("# golden run\nmethod = cnn-1y\nlr = 1e-3\nfanout = 5\n", encoding="utf-8")
    out = tmp_path / "run"
    argv = (["train", "--config", str(cfg)] + dataset_flags(data)
            + ["--test-year", "2009", "--epochs", "2", "--toy-widths", "--batch-size", "16",
               "--schedule", "step:3:0.5", "--out", str(out)])
    assert run(argv) == 0
    assert (out / "config.txt").read_text(encoding="utf-8") == (
        "command = train\n"
        f"adjacency = {data / 'adjacency.tsv'}\n"
        "aggregator = pool\n"
        "batch_size = 16\n"
        "crop = corn\n"
        "edge_dropout = 0.1\n"
        "epochs = 2\n"
        "fanout = 5\n"
        f"features = {data / 'features.npys'}\n"
        "lasso_lambda = 0.01\n"
        "lr = 1e-3\n"
        "method = cnn-1y\n"
        f"out = {out}\n"
        "ridge_lambda = 1.0\n"
        "schedule = step:3:0.5\n"
        "seed = 0\n"
        "test_year = 2009\n"
        "toy_widths = true\n"
        "weight_decay = 1e-05\n"
        f"yields = {data / 'yields.csv'}\n"
    )


def test_config_without_crop_takes_the_spec_field_default(tmp_path):
    default = next(f.default for f in dataclasses.fields(ModelSpec) if f.name == "crop")
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text("test_year = 2009\n", encoding="utf-8")
    common = ["--config", str(cfg)] + dataset_flags(data)
    train_out, bench_out = tmp_path / "train", tmp_path / "bench"
    assert run(["train"] + common + ["--method", "ridge-1y", "--out", str(train_out)]) == 0
    assert run(["benchmark"] + common + ["--methods", "ridge-1y", "--out", str(bench_out)]) == 0
    for out in (train_out, bench_out):
        assert f"crop = {default}\n" in (out / "config.txt").read_text(encoding="utf-8")
    assert ModelCheckpoint.load(train_out / "checkpoint.ckpt").spec.crop == default


def test_benchmark_and_train_offer_the_same_crops():
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    crops = [next(a.choices for a in sub.choices[cmd]._actions if a.dest == "crop")
             for cmd in ("benchmark", "train")]
    assert tuple(crops[0]) == tuple(crops[1]) == ("corn", "soybean")


def test_train_option_set_golden():
    """Every train option string with its config key, type, choices and const."""
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    got = sorted(
        (opt, a.dest, getattr(a.type, "__name__", None),
         tuple(a.choices) if a.choices else None, a.const)
        for a in sub.choices["train"]._actions for opt in a.option_strings
    )
    kinds = ("ridge-1y", "lasso-1y", "gru-1y", "lstm-1y", "cnn-1y", "gnn-1y",
             "gru-5y", "lstm-5y", "cnn-rnn-5y", "gnn-rnn-5y")
    assert got == [
        ("--adjacency", "adjacency", None, None, None),
        ("--aggregator", "aggregator", None, ("mean", "pool"), None),
        ("--batch-size", "batch_size", "int", None, None),
        ("--config", "config", None, None, None),
        ("--crop", "crop", None, ("corn", "soybean"), None),
        ("--edge-dropout", "edge_dropout", "float", None, None),
        ("--epochs", "epochs", "int", None, None),
        ("--fanout", "fanout", "int", None, None),
        ("--features", "features", None, None, None),
        ("--force", "force", None, None, True),
        ("--help", "help", None, None, None),
        ("--lasso-lambda", "lasso_lambda", "float", None, None),
        ("--lr", "lr", "float", None, None),
        ("--method", "method", None, kinds, None),
        ("--out", "out", None, None, None),
        ("--ridge-lambda", "ridge_lambda", "float", None, None),
        ("--schedule", "schedule", None, None, None),
        ("--seed", "seed", "int", None, None),
        ("--test-year", "test_year", "int", None, None),
        ("--toy-widths", "toy_widths", None, None, "true"),
        ("--weight-decay", "weight_decay", "float", None, None),
        ("--yields", "yields", None, None, None),
        ("-h", "help", None, None, None),
    ]


def test_train_rejects_unknown_aggregator_in_config(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    cfg = tmp_path / "train.cfg"
    cfg.write_text("aggregator = bogus\n", encoding="utf-8")
    out = tmp_path / "run"
    assert run(train_args(data, out, extra=["--config", str(cfg)])) == 2
    assert not (out / "checkpoint.ckpt").exists()


@pytest.mark.parametrize("method", ["cnn-1y", "gnn-1y", "ridge-1y"])
def test_evaluate_skips_county_with_blank_test_year_cell(tmp_path, method):
    assert run(synth_args(tmp_path / "synth")) == 0
    # one blank weather cell in a present test-year record
    data = _copy_with(tmp_path / "synth", tmp_path, "features.csv",
                      lambda s: _set_cell(s, "", year="2009"))
    run_dir = tmp_path / "run"
    assert run(train_args(data, run_dir, method=method)) == 0
    eval_dir = tmp_path / "eval"
    code = run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt")]
               + dataset_flags(data) + ["--out", str(eval_dir)])
    assert code == 0
    metrics = parse_metrics(eval_dir / "metrics.txt")
    assert metrics["skipped"] == 1
    assert metrics["n"] == 15


def test_evaluate_rerun_from_echoed_config(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    run_dir = tmp_path / "run"
    assert run(train_args(data, run_dir, method="ridge-1y")) == 0
    base = ["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt")] + dataset_flags(data)
    metrics = {}
    for name, extra in (("plain", []), ("early", ["--early"])):
        first, again = tmp_path / name, tmp_path / f"{name}-again"
        assert run(base + extra + ["--out", str(first)]) == 0
        assert run(["evaluate", "--config", str(first / "config.txt"),
                    "--out", str(again)]) == 0
        metrics[name] = (first / "metrics.txt").read_bytes()
        assert (again / "metrics.txt").read_bytes() == metrics[name]
    assert metrics["plain"] != metrics["early"]


def _outputs(out):
    """A run's output files, but the config echo (it names the inputs)."""
    return {f: (out / f).read_bytes() for f in sorted(os.listdir(out)) if f != "config.txt"}


def test_both_feature_forms_train_and_evaluate_alike(tmp_path):
    store = tmp_path / "store"
    assert run(synth_args(store, 16, 8)) == 0
    paths = [store / "features.npys", store / "yields.csv", store / "adjacency.tsv"]
    loaded = load_dataset(*paths)
    text = tmp_path / "csv"
    save_csv_dataset(loaded, text)
    for kind in ALL_KINDS:
        outputs = []
        for d in (store, text):
            run_dir, eval_dir = tmp_path / kind / d.name, tmp_path / kind / f"{d.name}-eval"
            assert run(["train"] + dataset_flags(d)
                       + ["--method", kind, "--test-year", "2007", "--epochs", "1",
                          "--toy-widths", "--batch-size", "16", "--out", str(run_dir)]) == 0
            assert run(["evaluate", "--checkpoint", str(run_dir / "checkpoint.ckpt")]
                       + dataset_flags(d) + ["--early", "--out", str(eval_dir)]) == 0
            outputs.append((_outputs(run_dir), _outputs(eval_dir)))
        assert outputs[0] == outputs[1], kind

    # a save over the store leaves the old file to the maps still alive,
    # here a smaller store that would cut the old maps short
    old = {b: getattr(loaded, b) for b in data_module.BLOCKS}
    want = {b: a.tobytes() for b, a in old.items()}
    data_module.save_dataset(data_module.generate_synthetic(9, 6, 3, seed=4), store)
    assert paths[0].stat().st_size < len(b"".join(want.values()))
    assert {b: a.tobytes() for b, a in old.items()} == want
    assert load_dataset(*paths).counties == [f"{i:05d}" for i in range(9)]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 16-county synth and a ridge-1y checkpoint for its 2009 test year."""
    root = tmp_path_factory.mktemp("trained")
    assert run(synth_args(root / "data")) == 0
    assert run(train_args(root / "data", root / "run", method="ridge-1y")) == 0
    return root / "data", root / "run" / "checkpoint.ckpt"


def _copy_with(data, tmp, name, edit):
    """Copy of the dataset directory in the CSV import form, with
    ``edit(text) -> text`` applied to one of its files."""
    out = tmp / "edited"
    save_csv_dataset(load_dataset(*dataset_flags(data)[1::2]), out)
    (out / name).write_text(edit((out / name).read_text(encoding="utf-8")), encoding="utf-8")
    return out


def _store_copy(data, tmp, edit):
    """Copy of the dataset directory with ``edit(bytes) -> bytes`` applied
    to its store."""
    out = tmp / "edited-store"
    out.mkdir(exist_ok=True)
    for f in ("features.npys", "yields.csv", "adjacency.tsv"):
        raw = (data / f).read_bytes()
        (out / f).write_bytes(edit(raw) if f == "features.npys" else raw)
    return out


def _set_cell(text, value, year="2008", column=None):
    """Features text with one cell of the first ``year`` row set: the named
    column, or the first weather cell."""
    lines = text.splitlines()
    row = next(i for i, line in enumerate(lines) if line.split(",")[1] == year)
    cells = lines[row].split(",")
    cells[2 if column is None else lines[0].split(",").index(column)] = value
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _drop_year(text, year):
    """Yields text without the rows of ``year``."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if line.split(",")[1:2] != [year])


def _aggregate_raster(tmp, out, text, weights_row="00001,0,1.0,1.0", source="bad.asc"):
    """aggregate argv over one static raster with the ASCII grid ``text``,
    a one-row weights file and a one-row manifest."""
    (tmp / "bad.asc").write_text(text, encoding="utf-8")
    (tmp / "w.csv").write_text("county,cell_index,overlap_fraction,agland_fraction\n"
                               f"{weights_row}\n", encoding="utf-8")
    (tmp / "m.csv").write_text(f"column,source,kind\ns_awc_0,{source},static\n",
                               encoding="utf-8")
    return ["aggregate", "--rasters", str(tmp), "--weights", str(tmp / "w.csv"),
            "--manifest", str(tmp / "m.csv"), "--year", "2000", "--out", str(out / "f.csv")]


def _grid_text(ncols, cells):
    return (f"ncols {ncols}\nnrows 1\nxllcorner 0\nyllcorner 0\ncellsize 1\n"
            f"nodata_value -9999\n{cells}\n")


def _raise(error):
    def fail(*args, **kwargs):
        raise error
    return fail


def _train_on(edited, out):
    return train_args(edited, out, method="ridge-1y")


def _evaluate(data, ckpt, out, *extra):
    return (["evaluate", "--checkpoint", str(ckpt)] + dataset_flags(data)
            + ["--out", str(out)] + list(extra))


def _truncated(ckpt, tmp):
    path = tmp / "short.ckpt"
    path.write_bytes(ckpt.read_bytes()[:-9])
    return path


# One field past csv.field_size_limit() (131072 characters).
_HUGE = "1" * 140_000

# (error class, exit code, argv builder(data, ckpt, tmp, out), injected
# evaluate failure or None). WindowUnavailableError and KeyError are
# injected, since no CLI input reaches them: evaluate and training select
# counties by the same window rule as the graph block, and evaluate checks
# the test year before it masks or indexes by it. The non-finite case is a
# finite test-year cell large enough to overflow the metrics.
_ERROR_TABLE = {
    "data-format": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "features.csv", lambda s: _set_cell(s, "abc")), o), None),
    "inf-cell": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "features.csv", lambda s: _set_cell(s, "inf")), o), None),
    "store-bad-magic": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _store_copy(d, t, lambda raw: raw.replace(b"store 1", b"store 9", 1)), o), None),
    "store-truncated": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _store_copy(d, t, lambda raw: raw[:-9]), o), None),
    "geo-format": (GeoFormatError, 2, lambda d, c, t, o: [
        "aggregate", "--rasters", str(t), "--weights", str(d / "yields.csv"),
        "--manifest", str(t / "m.csv"), "--year", "2000", "--out", str(o / "f.csv")], None),
    "grid-fractional-ncols": (GeoFormatError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2.5", "1 2")), None),
    "grid-nan-cell": (GeoFormatError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2", "1 nan")), None),
    "grid-bad-token": (GeoFormatError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2", "1 2x")), None),
    "weights-bad-cell": (GeoFormatError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2", "1 2"), weights_row="00001,x,1.0,1.0"), None),
    "weights-huge-cell": (GeoFormatError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2", "1 2"), weights_row=f"00001,{_HUGE},1.0,1.0"), None),
    "manifest-huge-cell": (CliError, 2, lambda d, c, t, o: _aggregate_raster(
        t, o, _grid_text("2", "1 2"), source=_HUGE), None),
    "features-huge-cell": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "features.csv", lambda s: _set_cell(s, _HUGE)), o), None),
    "yields-huge-cell": (DataFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "yields.csv", lambda s: s + f"00000,2009,corn,{_HUGE}\n"), o), None),
    "graph-format": (GraphFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "adjacency.tsv", lambda s: s + "00000\t99999\n"), o), None),
    "configuration": (ConfigurationError, 2, lambda d, c, t, o: _evaluate(
        d, _truncated(c, t), o), None),
    "val-year-unlabeled": (ConfigurationError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "yields.csv", lambda s: _drop_year(s, "2008")), o), None),
    "metric": (MetricError, 2, lambda d, c, t, o: _evaluate(
        d, c, o, "--test-year", "2015"), None),
    "window-unavailable": (WindowUnavailableError, 2, lambda d, c, t, o: _evaluate(d, c, o),
                           WindowUnavailableError("county 00000 lacks a usable record")),
    "file-not-found": (FileNotFoundError, 2, lambda d, c, t, o: _train_on(t / "absent", o),
                       None),
    "not-a-directory": (NotADirectoryError, 2, lambda d, c, t, o: synth_args(
        d / "features.npys" / "sub"), None),
    "value": (ValueError, 2, lambda d, c, t, o: synth_args(o, counties=10), None),
    "key": (KeyError, 2, lambda d, c, t, o: _evaluate(d, c, o),
            KeyError("county 00000 has no record for 2009")),
    "cli": (CliError, 2, lambda d, c, t, o: synth_args(o)[:3] + ["--out", str(o)], None),
    "lasso-negative-lambda": (ValueError, 2, lambda d, c, t, o: train_args(
        d, o, method="lasso-1y", extra=["--lasso-lambda", "-0.5"]), None),
    "ridge-nan-lambda": (ValueError, 2, lambda d, c, t, o: train_args(
        d, o, method="ridge-1y", extra=["--ridge-lambda", "nan"]), None),
    "zero-epochs": (ConfigurationError, 2, lambda d, c, t, o: train_args(
        d, o, method="gnn-1y", epochs=0), None),
    "negative-batch-size": (ConfigurationError, 2, lambda d, c, t, o: train_args(
        d, o, extra=["--batch-size", "-3"]), None),
    "ridge-negative-batch-size": (ConfigurationError, 2, lambda d, c, t, o: train_args(
        d, o, method="ridge-1y", extra=["--batch-size", "-3"]), None),
    "training-abort": (TrainingAbort, 3, lambda d, c, t, o: train_args(
        d, o, extra=["--lr", "1e200"]), None),
    "non-finite": (NonFiniteError, 3, lambda d, c, t, o: _evaluate(
        _copy_with(d, t, "features.csv",
                   lambda s: _set_cell(s, "1e305", year="2009", column="w_tmax_20")), c, o),
                   None),
}


def test_error_table_covers_every_mapped_class():
    covered = {cls for cls, _, _, _ in _ERROR_TABLE.values()}
    assert covered >= set(_INPUT_ERRORS) | {CliError, TrainingAbort, NonFiniteError}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_ERROR_TABLE))
def test_bad_input_maps_to_exit_code_without_traceback(tmp_path, trained, monkeypatch,
                                                       capsys, case):
    cls, code, argv, injected = _ERROR_TABLE[case]
    data, ckpt = trained
    if injected is not None:
        monkeypatch.setattr(cli, "evaluate", _raise(injected))
    args = build_parser().parse_args(argv(data, ckpt, tmp_path, tmp_path / "first"))
    with pytest.raises(cls) as raised:
        args.func(args)
    assert raised.type is cls
    capsys.readouterr()
    assert run(argv(data, ckpt, tmp_path, tmp_path / "second")) == code
    out, err = capsys.readouterr()
    assert err.startswith("numerical abort: " if code == 3 else "error: ")
    assert "Traceback" not in out + err
    assert not (tmp_path / "second" / "metrics.txt").exists()


def test_evaluate_year_outside_dataset_same_error_with_and_without_early(tmp_path, trained,
                                                                        capsys):
    data, ckpt = trained
    errors = []
    for name, extra in (("plain", ()), ("early", ("--early",))):
        args = build_parser().parse_args(
            _evaluate(data, ckpt, tmp_path / name, "--test-year", "2030", *extra))
        with pytest.raises(MetricError):
            args.func(args)
        capsys.readouterr()
        assert run(_evaluate(data, ckpt, tmp_path / f"{name}-cli", "--test-year", "2030",
                             *extra)) == 2
        out, err = capsys.readouterr()
        assert "Traceback" not in out + err
        errors.append(err)
    assert errors[0] == errors[1] == "error: no evaluable counties for corn in 2030: " \
        "not a dataset year\n"
