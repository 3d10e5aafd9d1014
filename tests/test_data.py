import hashlib
import itertools
import math
import mmap
import os
import re
import tempfile
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from yieldgraph import data
from yieldgraph.data import (
    BLOCK_SHAPES,
    BLOCKS,
    CROPS,
    DataFormatError,
    Dataset,
    NormStats,
    YearSplit,
    YieldTable,
    compute_norm_stats,
    enumerate_windows,
    feature_columns,
    generate_synthetic,
    load_dataset,
    normalize,
    save_dataset,
)
from yieldgraph.evaluation import build_masking_plan, mask_dataset_year
from yieldgraph.graph import CountyGraph
from tests.helpers import save_csv_dataset


def make_dataset(counties=("00000", "00001"), years=(2000, 2001, 2002), seed=0,
                 edges=None, yields=None):
    rng = np.random.default_rng(seed)
    n, m = len(counties), len(years)
    ds = Dataset(
        counties=list(counties),
        years=list(years),
        weather=rng.normal(size=(n, m, 7, 52)),
        land=rng.normal(size=(n, m, 16, 52)),
        soil=rng.normal(size=(n, m, 20, 6)),
        extras=rng.normal(size=(n, m, 6)),
        present=np.ones((n, m), dtype=bool),
        yields=YieldTable(yields or {}),
        graph=CountyGraph(list(counties), edges or [(counties[0], counties[1])]),
    )
    return ds


def test_feature_manifest_width():
    cols = feature_columns()
    assert len(cols) == 2 + 7 * 52 + 16 * 52 + 20 * 6 + 6
    assert cols[2] == "w_precip_0"
    assert cols[-1] == "e_nccpi_soybean"


def test_feature_columns_follow_the_block_table():
    groups = itertools.groupby(feature_columns()[2:], key=lambda col: col[:2])
    assert [(prefix, len(list(cols))) for prefix, cols in groups] == [
        (f"{b[0]}_", math.prod(dims)) for b, dims in BLOCK_SHAPES.items()
    ]


def test_toy_roundtrip(tmp_path):
    ds = make_dataset(yields={("00000", 2001, "corn"): 150.0})
    paths = save_dataset(ds, tmp_path / "toy")
    loaded = load_dataset(*paths)
    assert loaded.n_records == 6
    assert loaded.graph.n == 2
    assert np.array_equal(loaded.weather, ds.weather)
    assert np.array_equal(loaded.land, ds.land)
    assert np.array_equal(loaded.soil, ds.soil)
    assert np.array_equal(loaded.extras, ds.extras)
    assert loaded.yields.entries == ds.yields.entries


def test_roundtrip_preserves_missing_cells(tmp_path):
    ds = make_dataset()
    ds.weather[0, 0, 3, 10] = np.nan
    paths = save_dataset(ds, tmp_path / "gap")
    loaded = load_dataset(*paths)
    assert np.isnan(loaded.weather[0, 0, 3, 10])
    assert not loaded.window_mask(2000, 0)[loaded.county_index["00000"]]


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "Infinity", "NaN"])
def test_load_rejects_non_finite_cell_text(tmp_path, text):
    ds = make_dataset()
    fpath, ypath, apath = save_csv_dataset(ds, tmp_path / "nf")
    lines = open(fpath, encoding="utf-8").read().splitlines()
    for row in (4, 2):  # file lines 5 and 3; the header is line 1
        cells = lines[row].split(",")
        cells[5] = text
        lines[row] = ",".join(cells)
    open(fpath, "w", encoding="utf-8").write("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError) as e:
        load_dataset(fpath, ypath, apath)
    assert f"{fpath}:3:" in str(e.value)


def test_load_rejects_wrong_week_count(tmp_path):
    ds = make_dataset()
    fpath, ypath, apath = save_csv_dataset(ds, tmp_path / "bad")
    lines = open(fpath, encoding="utf-8").read().splitlines()
    header = lines[0].split(",")
    header.remove("w_precip_51")  # 51-week layout
    body = [",".join(line.split(",")[:-1]) for line in lines[1:]]
    open(fpath, "w", encoding="utf-8").write("\n".join([",".join(header)] + body) + "\n")
    with pytest.raises(DataFormatError):
        load_dataset(fpath, ypath, apath)


def test_load_reports_line_number_for_malformed_row(tmp_path):
    ds = make_dataset()
    fpath, ypath, apath = save_csv_dataset(ds, tmp_path / "mal")
    with open(fpath, "a", encoding="utf-8") as f:
        f.write("00000,2003,1.0\n")
    with pytest.raises(DataFormatError) as e:
        load_dataset(fpath, ypath, apath)
    assert ":8:" in str(e.value)


def test_labeled_county_counts_bounded():
    ds = make_dataset(yields={("00000", 2000, "corn"): 100.0})
    for year in ds.years:
        n = len(ds.labeled_counties(year, "corn"))
        assert 0 <= n <= len(ds.counties)


def test_split_arithmetic_matches_protocol():
    years = list(range(1981, 2020))
    split = YearSplit(test_year=2019)
    assert split.val_year == 2018
    assert split.train_years(years) == list(range(1981, 2018))


def test_split_requires_training_years():
    with pytest.raises(ValueError):
        YearSplit(test_year=2001).train_years([2000, 2001])


def test_normalize_zscore_example():
    ds = make_dataset(years=(2000, 2001, 2002, 2003))
    # plant a channel with mean 5, std 2 over training years
    ds.weather[:, :, 0, 0] = [[3.0, 7.0, 5.0, 7.0], [3.0, 7.0, 5.0, 7.0]]
    split = YearSplit(test_year=2003)  # train on 2000, 2001
    normed, stats = normalize(ds, split)
    assert stats.mean["weather"][0, 0] == 5.0
    assert stats.std["weather"][0, 0] == 2.0
    assert normed.weather[0, 2, 0, 0] == 0.0  # value 5 -> z-score 0
    assert normed.weather[0, 3, 0, 0] == 1.0  # value 7 -> z-score 1


def test_normalize_idempotent_on_train_years():
    ds = make_dataset(years=tuple(range(2000, 2008)), seed=3)
    split = YearSplit(test_year=2007)
    normed, _ = normalize(ds, split)
    renormed, stats2 = normalize(normed, split)
    mask = [normed.year_index[y] for y in split.train_years(normed.years)]
    block = renormed.weather[:, mask]
    assert abs(block.mean()) < 1e-9
    assert np.allclose(stats2.mean["weather"], 0.0, atol=1e-9)


def test_normalize_no_leakage_into_test_year():
    ds = make_dataset(years=tuple(range(2000, 2008)), seed=4)
    ds.weather[:, -1] += 10.0  # test-year shift must survive normalization
    normed, stats = normalize(ds, YearSplit(test_year=2007))
    test_block = normed.weather[:, -1]
    assert abs(test_block.mean()) > 1.0
    assert 2007 not in stats.train_years and 2006 not in stats.train_years


def test_normalize_constant_feature_fallback():
    ds = make_dataset()
    ds.soil[:, :, 0, 0] = 4.2
    normed, stats = normalize(ds, YearSplit(test_year=2002))
    assert stats.std["soil"][0, 0] == 1.0
    assert np.all(normed.soil[:, :, 0, 0] == 0.0)


def test_window_mask_needs_every_year():
    ds = make_dataset(years=(2000, 2002))
    assert ds.window_mask(2002, 0).all()
    assert not ds.window_mask(2002, 2).any()  # 2001 is not a dataset year


def test_window_mask_needs_every_cell():
    ds = make_dataset()
    ds.soil[0, 0, 1, 1] = np.nan  # county 0, 2000
    assert ds.window_mask(2000, 0).tolist() == [False, True]
    assert ds.window_mask(2002, 2).tolist() == [False, True]
    assert ds.window_mask(2002, 1).all()


def test_enumerate_windows_counts_skips():
    yields = {(c, y, "corn"): 100.0 for c in ("00000", "00001") for y in (2001, 2002)}
    ds = make_dataset(years=(2000, 2001, 2002), yields=yields)
    ds.weather[0, 0, 0, 0] = np.nan  # county 0 loses year 2000
    samples, skipped = enumerate_windows(ds, [2001, 2002], "corn", 1)
    assert skipped == 1  # (00000, 2001) needs 2000
    assert ("00000", 2002) in samples and ("00001", 2001) in samples


def test_infinite_cell_makes_a_record_unusable():
    yields = {(c, y, "corn"): 100.0 for c in ("00000", "00001") for y in (2001, 2002)}
    ds = make_dataset(years=(2000, 2001, 2002), yields=yields)
    ds.extras[1, 2, 0] = np.inf  # county 1, 2002
    assert ds.window_mask(2002, 0).tolist() == [True, False]
    samples, skipped = enumerate_windows(ds, [2001, 2002], "corn", 0)
    assert (samples, skipped) == ([("00000", 2001), ("00001", 2001), ("00000", 2002)], 1)
    assert not ds.window_mask(2003, 0).any()  # a year outside the dataset


def test_year_range_views_the_years_inside_it():
    yields = {(c, y, "corn"): 100.0 for c in ("00000", "00001") for y in (2000, 2001, 2002)}
    ds = make_dataset(years=(2000, 2001, 2002), yields=yields)
    ds.weather[0, 0, 0, 0] = np.nan  # county 0 loses year 2000
    part = ds.year_range(1998, 2001)
    assert part.years == [2000, 2001]
    assert part.year_index == {2000: 0, 2001: 1}
    for block in ("weather", "land", "soil", "extras", "present"):
        assert np.shares_memory(getattr(part, block), getattr(ds, block))
    assert part.yields is ds.yields and part.graph is ds.graph
    for year, dt in ((2001, 1), (2001, 3), (2000, 0), (2002, 0)):
        assert part.window_mask(year, dt).tolist() == (
            ds.window_mask(year, dt).tolist() if year <= 2001 else [False, False])
    assert ds.year_range(2003, 2009).years == []


def test_synthetic_rejects_non_square():
    with pytest.raises(ValueError):
        generate_synthetic(10, 8, 3, seed=0)


def test_synthetic_deterministic_bytes(tmp_path):
    a = generate_synthetic(16, 8, 4, seed=7)
    b = generate_synthetic(16, 8, 4, seed=7)
    pa = save_dataset(a, tmp_path / "a")
    pb = save_dataset(b, tmp_path / "b")
    for x, y in zip(pa, pb):
        assert open(x, "rb").read() == open(y, "rb").read()


def test_synthetic_loads_through_standard_ingestion(tmp_path):
    ds = generate_synthetic(16, 8, 4, seed=3)
    paths = save_dataset(ds, tmp_path / "synth")
    loaded = load_dataset(*paths)
    assert loaded.n_records == 16 * 8
    assert loaded.graph.n == 16
    assert np.array_equal(loaded.weather, ds.weather)


def test_synthetic_grid_edge_count():
    ds = generate_synthetic(100, 6, 10, seed=0)
    n_edges = sum(len(v) for v in ds.graph.neighbors) // 2
    assert n_edges == 180  # 2 * 10 * 9


def test_synthetic_yields_positive_and_both_crops():
    ds = generate_synthetic(16, 8, 4, seed=1)
    for crop in CROPS:
        vals = [v for (_, _, k), v in ds.yields.entries.items() if k == crop]
        assert len(vals) == 16 * 8
        assert min(vals) > 0


def test_synthetic_neighbor_yield_correlation_gap():
    ds = generate_synthetic(100, 20, 10, seed=11)
    g = ds.graph
    years = ds.years
    # per-year demeaned yield matrix [county, year]
    y = np.array([[ds.yields.get(c, yr, "corn") for yr in years] for c in g.node_ids])
    y = y - y.mean(axis=0, keepdims=True)
    rng = np.random.default_rng(0)
    nbr_means = np.zeros_like(y)
    far_means = np.zeros_like(y)
    for i in range(g.n):
        nbrs = g.neighbors[i]
        nbr_means[i] = y[nbrs].mean(axis=0)
        non = np.setdiff1d(np.arange(g.n), np.append(nbrs, i))
        far = rng.choice(non, size=len(nbrs), replace=False)
        far_means[i] = y[far].mean(axis=0)

    def corr(a, b):
        a, b = a.ravel() - a.mean(), b.ravel() - b.mean()
        return float(a @ b / np.sqrt((a @ a) * (b @ b)))

    gap = corr(y, nbr_means) - corr(y, far_means)
    assert gap >= 0.1


def test_synthetic_national_trend_positive():
    ds = generate_synthetic(49, 15, 7, seed=5)
    means = [ds.yields.national_mean(y, "corn") for y in ds.years]
    t = np.arange(len(means))
    slope = np.polyfit(t, means, 1)[0]
    assert slope > 0


def test_prev_year_mean_clamps_at_dataset_start():
    ds = make_dataset(yields={("00000", 2000, "corn"): 100.0,
                              ("00001", 2000, "corn"): 120.0})
    assert ds.prev_year_national_mean("corn", 2000) == 110.0  # earliest year stands in
    assert ds.prev_year_national_mean("corn", 2001) == 110.0


def test_yield_table_validation():
    t = YieldTable()
    with pytest.raises(DataFormatError):
        t.set("c", 2000, "corn", -1.0)
    with pytest.raises(DataFormatError):
        t.set("c", 2000, "wheat", 10.0)


def _scan_queries(table):
    """Every YieldTable query answered by a scan over ``entries``, in its
    order: the brute-force form of the indexes."""
    out = {}
    for crop in CROPS:
        vals = [v for (_, _, k), v in table.entries.items() if k == crop]
        years = sorted({y for (_, y, k) in table.entries if k == crop})
        out[crop] = (years, float(np.std(vals)) if len(vals) > 1 else None)
        for year in years:
            year_vals = [v for (c, y, k), v in table.entries.items() if y == year and k == crop]
            out[crop, year] = (
                sorted(c for (c, y, k) in table.entries if y == year and k == crop),
                float(np.mean(year_vals)),
            )
    return out


def _index_queries(table):
    out = {}
    for crop in CROPS:
        years = table.labeled_years(crop)
        vals = len([k for k in table.entries if k[2] == crop])
        out[crop] = (years, table.std_all_years(crop) if vals > 1 else None)
        for year in years:
            out[crop, year] = (table.counties_with(year, crop), table.national_mean(year, crop))
    return out


def test_yield_table_indexes_match_a_scan_of_entries(tmp_path):
    rng = np.random.default_rng(31)
    counties = [f"{i:05d}" for i in range(12)]
    years = (2000, 2001, 2002)
    keys = [(c, y, k) for c in counties for y in years for k in CROPS]
    table = YieldTable()
    for i in rng.permutation(len(keys)):  # interleaved years and crops
        # spread magnitudes so a different summation order shows in the bits
        table.set(*keys[i], float(10.0 ** rng.uniform(-3, 6)))
    assert _index_queries(table) == _scan_queries(table)

    first = next(iter(table.entries))
    table.set(*first, 1e7)  # an overwrite keeps its place in every order
    assert next(iter(table.entries)) == first
    assert _index_queries(table) == _scan_queries(table)
    assert table.national_mean(1999, "corn") is None
    assert table.counties_with(1999, "corn") == []

    ds = make_dataset(counties=counties, years=years, yields=table.entries,
                      edges=[(counties[0], counties[1])])
    loaded = load_dataset(*save_dataset(ds, tmp_path / "yields"))
    assert loaded.yields.entries == table.entries
    assert _index_queries(loaded.yields) == _scan_queries(loaded.yields)


def _sha256(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


def test_save_dataset_golden_bytes(tmp_path):
    """The saved files, byte for byte: the store and the two text files of
    ``save_dataset``, and the CSV import form of the test helper (shortest
    round-trip floats over a wide range of magnitudes, -0.0, a blank for a
    NaN cell, no row for an absent record, and a county id csv.writer must
    quote). Both forms load to the dataset's values, NaN and -0.0 included."""
    counties = ["00001", "19153", 'a,"b']
    ds = make_dataset(counties=counties, years=(2000, 2001), seed=5,
                      edges=[("00001", "19153"), ("19153", 'a,"b')],
                      yields={("00001", 2000, "corn"): 151.25, ('a,"b', 2001, "soybean"): 0.1,
                              ("19153", 2001, "corn"): 1e-7})
    rng = np.random.default_rng(6)
    for block in (ds.weather, ds.land, ds.soil, ds.extras):
        block *= 10.0 ** rng.integers(-9, 23, size=block.shape)
    ds.weather[0, 0, 0, 0] = -0.0
    ds.land[2, 1, 15, 51] = np.nan
    ds.present[1, 0] = False
    for block in (ds.weather, ds.land, ds.soil, ds.extras):
        block[1, 0] = np.nan
    paths = save_dataset(ds, tmp_path / "golden")
    assert [os.path.basename(p) for p in paths] == ["features.npys", "yields.csv",
                                                    "adjacency.tsv"]
    assert [_sha256(p) for p in paths] == [
        "6e40c7b606bd0cdf28c0f5322cad1987c8cecb45eee0e49e75855b97c96cff01",
        "921a5365e3b58b7488481de47ea85e14e01680f8bbd79cba33735c35490ecb5d",
        "c200d5d2771f75429d97731d1b04b8045fd80eee75e1bdd91e790da3fd60ce45",
    ]
    csv_paths = save_csv_dataset(ds, tmp_path / "csv")
    assert _sha256(csv_paths[0]) == (
        "6bae5d1a2cbba09d01f8aa76d0ed6a43ede5a84a09e67a93a976319921f6f8c1")
    for loaded in (load_dataset(*paths), load_dataset(*csv_paths)):
        assert loaded.counties == counties and loaded.years == ds.years
        assert np.array_equal(loaded.present, ds.present)
        for a, b in ((loaded.weather, ds.weather), (loaded.land, ds.land),
                     (loaded.soil, ds.soil), (loaded.extras, ds.extras)):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))
        assert loaded.yields.entries == ds.yields.entries


def _same_dataset(a, b):
    """Equal ids, years, yields and graph, and blocks equal bit for bit
    (NaN cells and -0.0 included)."""
    assert a.counties == b.counties and a.years == b.years
    assert all(type(c) is str for c in a.counties) and all(type(y) is int for y in a.years)
    for name in BLOCKS + ("present",):
        x, y = getattr(a, name), getattr(b, name)
        assert x.dtype == y.dtype and x.shape == y.shape, name
        assert x.tobytes() == y.tobytes(), name
    assert a.yields.entries == b.yields.entries
    assert _edges(a.graph) == _edges(b.graph)


def _edges(graph):
    return {(graph.node_ids[i], graph.node_ids[j])
            for i, nbrs in enumerate(graph.neighbors) for j in nbrs}


# county ids a CSV row must quote, in no sorted order, and none the
# adjacency file cannot hold (a tab, a line break, a leading '#', or outer
# spaces)
_IDS = st.lists(st.text(alphabet='09ab,"\u00e9 ', min_size=1, max_size=4)
                .filter(lambda c: c == c.strip()), min_size=2, max_size=4, unique=True)


@settings(max_examples=30, deadline=None)
@given(counties=_IDS, years=st.lists(st.integers(1950, 2050), min_size=1, max_size=4,
                                     unique=True),
       seed=st.integers(0, 2**32 - 1))
def test_store_round_trip_is_exact(counties, years, seed):
    rng = np.random.default_rng(seed)
    years = sorted(years)  # non-contiguous as drawn
    edges = [(counties[0], counties[1])] + [
        (a, b) for a, b in itertools.combinations(counties, 2) if rng.random() < 0.3]
    yields = {(c, y, k): float(10.0 ** rng.uniform(-3, 3))
              for c in counties for y in years for k in CROPS if rng.random() < 0.5}
    ds = make_dataset(counties=counties, years=years, seed=seed % 1000, edges=edges,
                      yields=yields)
    absent = rng.random(ds.present.shape) < 0.25
    # each county keeps a present record: the CSV form has no row for the others
    absent[np.arange(len(counties)), rng.integers(len(years), size=len(counties))] = False
    ds.present[absent] = False
    for b in BLOCKS:
        block = getattr(ds, b)
        block *= 10.0 ** rng.integers(-9, 23, size=block.shape)
        block[rng.random(block.shape) < 0.05] = np.nan
        block[rng.random(block.shape) < 0.05] = -0.0
        block[absent] = np.nan
    with tempfile.TemporaryDirectory() as d:
        loaded = load_dataset(*save_dataset(ds, os.path.join(d, "store")))
        _same_dataset(loaded, ds)
        # CSV import -> store -> load gives load(CSV)'s dataset
        from_csv = load_dataset(*save_csv_dataset(ds, os.path.join(d, "csv")))
        _same_dataset(load_dataset(*save_dataset(from_csv, os.path.join(d, "again"))),
                      from_csv)


def _edit_store(ds=None, raw=None):
    """A store edit: ``ds(dataset)`` changes the dataset before the save,
    ``raw(bytes) -> bytes`` the saved file."""
    return ds, raw


def _set(name, value):
    return lambda ds: setattr(ds, name, value)


def _poke(block, index, value):
    def edit(ds):
        getattr(ds, block)[index] = value
    return edit


# case -> (edit, message pattern); the store holds 3 counties x 3 years
_BAD_STORES = {
    "bad-magic": (_edit_store(raw=lambda r: r.replace(b"store 1\n", b"store 2\n", 1)),
                  "bad magic"),
    "plain-npy-file": (_edit_store(raw=lambda r: r[64:]), "bad magic"),
    "truncated-block": (_edit_store(raw=lambda r: r[:-100]), "extras: truncated"),
    "truncated-header": (_edit_store(raw=lambda r: r[:100]), "counties: bad array header"),
    "trailing-bytes": (_edit_store(raw=lambda r: r + b"\0"), "1 bytes after the last array"),
    "unbalanced-header": (_edit_store(raw=lambda r: r.replace(
        b"'shape': (3,), }", b"'shape': ((3,),}", 1)), "counties: bad array header"),
    "lost-first-byte": (_edit_store(raw=lambda r: b"\xff" + r[1:]), "codec can't decode"),
    "npy-version": (_edit_store(raw=lambda r: r.replace(b"\x93NUMPY\x01", b"\x93NUMPY\x09", 1)),
                    "unsupported .npy version"),
    "object-dtype": (_edit_store(raw=lambda r: r.replace(b"'<U5'", b"'|O' ", 1)),
                     "counties: object"),
    "zero-width-ids": (_edit_store(raw=lambda r: r.replace(
        b"'<U5', 'fortran_order': False, 'shape': (3,)",
        b"'<U0', 'fortran_order': False, 'shape': (0,)", 1)), r"counties: <U0 \(0,\) array"),
    "fortran-order": (_edit_store(raw=lambda r: r.replace(
        b"'fortran_order': False", b"'fortran_order': True ", 1)), "fortran order True"),
    "negative-shape": (_edit_store(raw=lambda r: r.replace(
        b"'shape': (3,), }", b"'shape': (-3,),}", 1)), r"\(-3,\) array"),
    "years-dtype": (_edit_store(raw=lambda r: r.replace(b"'<i8'", b"'<f8'", 1)),
                    r"years is a float64 \(3,\) array, expected int64"),
    "block-dtype": (_edit_store(raw=lambda r: r.replace(b"'<f8'", b"'<i8'", 1)),
                    "weather is a int64 .* expected float64"),
    "block-byte-order": (_edit_store(raw=lambda r: r.replace(b"'<f8'", b"'>f8'", 1)),
                         "weather is a >f8 .* expected float64"),
    "block-shape": (_edit_store(ds=lambda ds: setattr(ds, "land", ds.land[..., :51])),
                    r"land is a float64 \(3, 3, 16, 51\) array, expected float64 "
                    r"\(3, 3, 16, 52\)"),
    "present-shape": (_edit_store(ds=lambda ds: setattr(ds, "present", ds.present[:, :2])),
                      r"present is a bool \(3, 2\) array"),
    "inf-cell": (_edit_store(ds=_poke("land", (1, 2, 3, 4), -np.inf)),
                 "land of 00001/2002: an infinite cell"),
    "finite-absent-cell": (_edit_store(ds=_poke("present", (2, 0), False)),
                           "weather of 00002/2000: a finite cell in an absent record"),
    "duplicate-county": (_edit_store(ds=_set("counties", ["00000", "00001", "00000"])),
                         "duplicate county id '00000'"),
    "unsorted-years": (_edit_store(ds=_set("years", [2000, 2002, 2001])),
                       "years are not strictly ascending"),
    "repeated-year": (_edit_store(ds=_set("years", [2000, 2001, 2001])),
                      "years are not strictly ascending"),
}


def _bad_store(tmp_path, case):
    (edit_ds, edit_raw), _ = _BAD_STORES[case]
    ds = make_dataset(counties=("00000", "00001", "00002"), years=(2000, 2001, 2002))
    if edit_ds is not None:
        edit_ds(ds)
    paths = save_dataset(ds, tmp_path / case)
    if edit_raw is not None:
        with open(paths[0], "rb") as f:
            raw = f.read()
        edited = edit_raw(raw)
        assert edited != raw
        with open(paths[0], "wb") as f:
            f.write(edited)
    return paths


@pytest.mark.parametrize("case", sorted(_BAD_STORES))
def test_load_rejects_a_bad_store_naming_it(tmp_path, case):
    paths = _bad_store(tmp_path, case)
    with pytest.raises(DataFormatError,
                       match=re.escape(f"{paths[0]}: ") + ".*" + _BAD_STORES[case][1]):
        load_dataset(*paths)


def test_load_rejects_a_store_cut_anywhere(tmp_path):
    fpath, ypath, apath = save_dataset(make_dataset(), tmp_path / "cut")
    with open(fpath, "rb") as f:
        raw = f.read()
    for cut in range(1, len(raw), 97):
        with open(fpath, "wb") as f:
            f.write(raw[:cut])
        with pytest.raises(DataFormatError, match=re.escape(str(fpath))):
            load_dataset(fpath, ypath, apath)


def _owner(a):
    """The object whose memory the array views."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a.obj if isinstance(a, memoryview) else a


def test_every_reader_works_on_a_read_only_map(tmp_path):
    counties = [f"{i:05d}" for i in range(6)]
    years = tuple(range(2000, 2006))
    yields = {(c, y, "corn"): 100.0 + i + y % 7
              for i, c in enumerate(counties) for y in years}
    ds = make_dataset(counties=counties, years=years, seed=9, yields=yields)
    ds.weather[0, 2, 1, 3] = np.nan
    ds.present[1, 4] = False
    for b in BLOCKS:
        getattr(ds, b)[1, 4] = np.nan
    loaded = load_dataset(*save_dataset(ds, tmp_path / "ro"))
    mapped = {b: getattr(loaded, b) for b in BLOCKS}
    before = {b: a.tobytes() for b, a in mapped.items()}
    for b, a in mapped.items():
        assert type(a) is np.ndarray and not a.flags.writeable, b
        assert isinstance(_owner(a), mmap.mmap), b
    assert loaded.present.flags.owndata  # a normalized dataset shares it, not the map
    with pytest.raises(ValueError):
        loaded.weather[0, 0, 0, 0] = 1.0

    split = YearSplit(test_year=2005)
    for year, dt in ((2002, 0), (2005, 3), (2005, 3), (2004, 1)):
        assert loaded.window_mask(year, dt).tolist() == ds.window_mask(year, dt).tolist()
    part = loaded.year_range(2001, 2003)
    assert all(np.shares_memory(getattr(part, b), mapped[b]) for b in mapped)
    assert part.window_mask(2003, 2).tolist() == ds.window_mask(2003, 2).tolist()
    normed, stats = normalize(loaded, split)
    want, want_stats = normalize(ds, split)
    for b in BLOCKS:
        assert getattr(normed, b).tobytes() == getattr(want, b).tobytes(), b
        assert stats.mean[b].tobytes() == want_stats.mean[b].tobytes(), b
    plan = build_masking_plan(loaded, split, stats)
    want_plan = build_masking_plan(ds, split, want_stats)
    assert plan.weather.tobytes() == want_plan.weather.tobytes()
    masked = mask_dataset_year(loaded, plan, 2005)
    assert masked.land.tobytes() == mask_dataset_year(ds, want_plan, 2005).land.tobytes()
    assert {b: a.tobytes() for b, a in mapped.items()} == before


def test_a_normalized_dataset_keeps_no_map_of_the_store(tmp_path):
    # so the raw blocks' file pages leave the process with the raw dataset
    loaded = load_dataset(*save_dataset(make_dataset(years=(2000, 2001, 2002, 2003)),
                                        tmp_path / "m"))
    the_map = weakref.ref(_owner(loaded.weather))
    normed, _ = normalize(loaded, YearSplit(test_year=2003))
    del loaded
    assert the_map() is None and normed.n_records == 8


@pytest.mark.parametrize("chunk", [3, 256])
def test_norm_stats_are_nanmean_and_nanstd_byte_for_byte(monkeypatch, chunk):
    # The chunked passes keep the bits of np.nanmean / np.nanstd over the
    # gathered training records, across chunk boundaries (3 records) and in
    # one chunk, with 1 % NaN cells, an all-NaN feature, a zero-variance
    # feature and an absent training record.
    monkeypatch.setattr(data, "_STATS_ROWS", chunk)
    counties = [f"{i:05d}" for i in range(9)]
    ds = make_dataset(counties=counties, years=tuple(range(2000, 2008)), seed=11)
    rng = np.random.default_rng(12)
    for b in BLOCK_SHAPES:
        block = getattr(ds, b)
        block *= rng.lognormal(0.0, 4.0, size=block.shape)
        block[rng.random(block.shape) < 0.01] = np.nan
    ds.weather[:, :, 2, 5] = np.nan
    ds.land[:, :, 3, 7] = -1.25
    ds.present[4, 1] = False
    split = YearSplit(test_year=2007)
    stats = compute_norm_stats(ds, split)
    keep = ds.present & np.isin(ds.years, split.train_years(ds.years))
    for b in BLOCK_SHAPES:
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("ignore", RuntimeWarning)  # the all-NaN feature
            mean = np.nanmean(getattr(ds, b)[keep], axis=0)
            std = np.nanstd(getattr(ds, b)[keep], axis=0)
        mean = np.where(np.isnan(mean), 0.0, mean)
        std = np.where(np.isnan(std), 0.0, std)
        std = np.where(std < 1e-12, 1.0, std)
        assert stats.mean[b].tobytes() == mean.tobytes(), b
        assert stats.std[b].tobytes() == std.tobytes(), b
    assert stats.mean["weather"][2, 5] == 0.0 and stats.std["weather"][2, 5] == 1.0
    assert stats.mean["land"][3, 7] == -1.25 and stats.std["land"][3, 7] == 1.0
    normed = data.apply_norm_stats(ds, stats)
    for b in BLOCK_SHAPES:
        want = (getattr(ds, b) - stats.mean[b]) / stats.std[b]
        assert getattr(normed, b).tobytes() == want.tobytes(), b
