import os

import numpy as np
import pytest

from yieldgraph import cli
from yieldgraph.autodiff import NonFiniteError
from yieldgraph.cli import _INPUT_ERRORS, CliError, build_parser, main
from yieldgraph.data import DataFormatError, WindowUnavailableError, load_dataset
from yieldgraph.evaluation import MetricError, parse_metrics
from yieldgraph.geo import GeoFormatError, RasterGrid, write_ascii_grid
from yieldgraph.graph import GraphFormatError
from yieldgraph.models import ConfigurationError, TrainingAbort


def run(argv):
    return main(argv)


def synth_args(out, counties=16, years=10, seed=3):
    return [
        "synth", "--counties", str(counties), "--years", str(years),
        "--seed", str(seed), "--out", str(out),
    ]


def dataset_flags(d):
    return [
        "--features", str(d / "features.csv"),
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
    for name in ("features.csv", "yields.csv", "adjacency.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_synth_output_loads_and_grid_edges(tmp_path):
    out = tmp_path / "ds"
    assert run(synth_args(out, 100, 8)) == 0
    ds = load_dataset(out / "features.csv", out / "yields.csv", out / "adjacency.tsv")
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


def test_benchmark_failed_cell_still_emits_table(tmp_path):
    data = tmp_path / "data"
    assert run(synth_args(data, years=6)) == 0  # too short for any 5y window
    out = tmp_path / "bench"
    code = run(
        ["benchmark"] + dataset_flags(data)
        + ["--methods", "ridge-1y,cnn-rnn-5y", "--seeds", "0", "--test-year", "2005",
           "--epochs", "1", "--out", str(out)]
    )
    assert code == 0
    rows = (out / "benchmark.csv").read_text().splitlines()
    assert any("failed:1" in r for r in rows[1:])
    assert any(r.startswith("ridge-1y") and r.endswith("ok") for r in rows[1:])


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
               "--schedule", "step:3:0.5", "--head-dropout", "0.25", "--out", str(out)])
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
        f"features = {data / 'features.csv'}\n"
        "head_dropout = 0.25\n"
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
        ("--head-dropout", "head_dropout", "float", None, None),
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
    data = tmp_path / "data"
    assert run(synth_args(data)) == 0
    features = data / "features.csv"
    lines = features.read_text(encoding="utf-8").splitlines()
    row = next(i for i, line in enumerate(lines) if line.split(",")[1] == "2009")
    cells = lines[row].split(",")
    cells[2] = ""  # one blank weather cell in a present test-year record
    lines[row] = ",".join(cells)
    features.write_text("\n".join(lines) + "\n", encoding="utf-8")
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


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A 16-county synth and a ridge-1y checkpoint for its 2009 test year."""
    root = tmp_path_factory.mktemp("trained")
    assert run(synth_args(root / "data")) == 0
    assert run(train_args(root / "data", root / "run", method="ridge-1y")) == 0
    return root / "data", root / "run" / "checkpoint.ckpt"


def _copy_with(data, tmp, name, edit):
    """Copy of the dataset directory with ``edit(text) -> text`` applied to one file."""
    out = tmp / "edited"
    out.mkdir(exist_ok=True)
    for f in ("features.csv", "yields.csv", "adjacency.tsv"):
        text = (data / f).read_text(encoding="utf-8")
        (out / f).write_text(edit(text) if f == name else text, encoding="utf-8")
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
    "geo-format": (GeoFormatError, 2, lambda d, c, t, o: [
        "aggregate", "--rasters", str(t), "--weights", str(d / "yields.csv"),
        "--manifest", str(t / "m.csv"), "--year", "2000", "--out", str(o / "f.csv")], None),
    "graph-format": (GraphFormatError, 2, lambda d, c, t, o: _train_on(
        _copy_with(d, t, "adjacency.tsv", lambda s: s + "00000\t99999\n"), o), None),
    "configuration": (ConfigurationError, 2, lambda d, c, t, o: _evaluate(
        d, _truncated(c, t), o), None),
    "metric": (MetricError, 2, lambda d, c, t, o: _evaluate(
        d, c, o, "--test-year", "2015"), None),
    "window-unavailable": (WindowUnavailableError, 2, lambda d, c, t, o: _evaluate(d, c, o),
                           WindowUnavailableError("county 00000 lacks a usable record")),
    "file-not-found": (FileNotFoundError, 2, lambda d, c, t, o: _train_on(t / "absent", o),
                       None),
    "not-a-directory": (NotADirectoryError, 2, lambda d, c, t, o: synth_args(
        d / "features.csv" / "sub"), None),
    "value": (ValueError, 2, lambda d, c, t, o: synth_args(o, counties=10), None),
    "key": (KeyError, 2, lambda d, c, t, o: _evaluate(d, c, o),
            KeyError("no features for county 00000 year 2009")),
    "cli": (CliError, 2, lambda d, c, t, o: synth_args(o)[:3] + ["--out", str(o)], None),
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
