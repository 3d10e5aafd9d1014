"""Dataset schema, the feature store and CSV ingestion, normalization,
windows, synthetic data.

One record is a county-year: weekly weather (7 x 52), weekly land-surface
series (16 x 52), depth-indexed soil properties (20 x 6), and scalar
extras. The extras vector has seven slots: six survey-derived indices
stored in the feature file, plus the previous year's national mean yield
of the target crop, which ``models.gather_year_blocks`` appends from
``Dataset.prev_mean_feature`` when it gathers a window year (missing values
are always explicit, never silently zero).

``BLOCK_SHAPES`` fixes a record's blocks and their order: the order of
the store's blocks and the CSV form's column groups, of the normalization
statistics, and of the checkpoint's ``norm/`` blocks.

Window rule. A county-year record is usable when it is present and every
stored cell (weather, land, soil, the six stored extras) is finite. A
window [year - dt .. year] is complete when the county's record is usable
in every year of it. Training samples, evaluated counties and the nodes a
graph block may draw from are exactly the counties with a complete
window; ``Dataset.window_mask`` is the one place that decides it.

A feature file takes one of two forms, and ``load_dataset`` tells them
apart by the file's first byte. ``save_dataset`` writes the feature store:
one file of numpy .npy arrays (county ids, years, ``present``, then each
block, NaN for a missing cell and all NaN in an absent record), which a load
maps read-only, so the raw blocks stay file-backed. The import form is
UTF-8 CSV with a mandatory header following ``feature_columns``, one row
per present record; a blank cell is the only missing-value marker. Yields
are sparse (county, year, crop) CSV rows; adjacency is a tab-separated
undirected edge list. ``synth`` writes the store from the synthetic
generator, so real and synthetic data meet in one ``Dataset``.
"""

from __future__ import annotations

import bisect
import csv
import math
import mmap
import os
import tokenize
from dataclasses import dataclass, field

import numpy as np
from numpy.lib import format as npy_format

from yieldgraph.graph import CountyGraph, load_graph

WEATHER_VARS = ("precip", "tdmean", "tmax", "tmean", "tmin", "vpdmax", "vpdmin")
LAND_VARS = (
    "precip_total", "moist_avail_200", "moist_avail_100",
    "soilm_0_200", "soilm_0_100", "soilm_0_10", "soilm_10_40",
    "soilm_40_100", "soilm_100_200", "humidity_2m", "temp_2m",
    "soilt_0_10", "soilt_10_40", "soilt_40_100", "soilt_100_200",
    "wind_max",
)
SOIL_VARS = (
    "awc", "bulk_density", "ec", "organic_matter",
    "silt_pct", "clay_pct", "sand_pct",
    "tex_clay", "tex_silty_clay", "tex_sandy_clay", "tex_clay_loam",
    "tex_silty_clay_loam", "tex_sandy_clay_loam", "tex_loam",
    "tex_silt_loam", "tex_sandy_loam", "tex_silt", "tex_loamy_sand",
    "tex_sand", "ph",
)
EXTRA_VARS = (
    "nccpi_all", "restrictive_depth", "nccpi_small_grains",
    "nccpi_corn", "nccpi_cotton", "nccpi_soybean",
)
CROPS = ("corn", "soybean")
WEEKS = 52
DEPTHS = 6

N_WEATHER = len(WEATHER_VARS)
N_LAND = len(LAND_VARS)
N_SOIL = len(SOIL_VARS)
N_EXTRA_STORED = len(EXTRA_VARS)
N_EXTRAS = N_EXTRA_STORED + 1  # the stored extras and the previous-year mean

# block -> per-record shape, in feature-file column order
BLOCK_SHAPES = {
    "weather": (N_WEATHER, WEEKS),
    "land": (N_LAND, WEEKS),
    "soil": (N_SOIL, DEPTHS),
    "extras": (N_EXTRA_STORED,),
}
BLOCKS = tuple(BLOCK_SHAPES)


def feature_columns():
    cols = ["county", "year"]
    cols += [f"w_{v}_{w}" for v in WEATHER_VARS for w in range(WEEKS)]
    cols += [f"l_{v}_{w}" for v in LAND_VARS for w in range(WEEKS)]
    cols += [f"s_{v}_{d}" for v in SOIL_VARS for d in range(DEPTHS)]
    cols += [f"e_{v}" for v in EXTRA_VARS]
    return cols


class DataFormatError(ValueError):
    """A data file violates its documented format."""


class WindowUnavailableError(LookupError):
    """A requested history window cannot be assembled without fabricating data."""


class YieldTable:
    """Sparse (county, year, crop) -> bushels/acre with explicit missingness.

    ``set`` keeps two indexes beside ``entries``: (year, crop) -> {county:
    value} and crop -> {(county, year): value}. Each holds its keys in
    ``entries`` order (an overwrite keeps its place), so a mean or spread
    over an index sums the values in the order a scan of ``entries`` would.
    """

    def __init__(self, entries=None):
        self.entries = {}
        self._by_year = {}
        self._by_crop = {}
        for key, value in (entries or {}).items():
            self.set(*key, value)

    def set(self, county, year, crop, value):
        if crop not in CROPS:
            raise DataFormatError(f"unknown crop {crop!r}")
        if not math.isfinite(value) or value <= 0:
            raise DataFormatError(
                f"yield for ({county}, {year}, {crop}) must be positive, got {value}"
            )
        year, value = int(year), float(value)
        self.entries[(county, year, crop)] = value
        self._by_year.setdefault((year, crop), {})[county] = value
        self._by_crop.setdefault(crop, {})[(county, year)] = value

    def get(self, county, year, crop):
        return self.entries.get((county, int(year), crop))

    def counties_with(self, year, crop):
        return sorted(self._by_year.get((year, crop), ()))

    def national_mean(self, year, crop):
        vals = list(self._by_year.get((year, crop), {}).values())
        return float(np.mean(vals)) if vals else None

    def labeled_years(self, crop):
        return sorted(y for (y, k) in self._by_year if k == crop)

    def std_all_years(self, crop):
        vals = list(self._by_crop.get(crop, {}).values())
        if len(vals) < 2:
            raise DataFormatError(f"not enough {crop} yields to compute a spread")
        return float(np.std(vals))


@dataclass(frozen=True)
class YearSplit:
    """Test year t, validation year t-1, training on all prior dataset years."""

    test_year: int

    @property
    def val_year(self):
        return self.test_year - 1

    def train_years(self, dataset_years):
        years = sorted(y for y in dataset_years if y < self.val_year)
        if not years:
            raise ValueError(f"no training years before validation year {self.val_year}")
        return years


@dataclass
class NormStats:
    """Per-feature statistics over the training years only. ``mean`` and
    ``std`` map each block name in ``BLOCKS`` to an array of that block's
    per-record shape; a constant or all-missing feature has std 1."""

    train_years: tuple
    mean: dict
    std: dict
    target_mean: dict = field(default_factory=dict)  # crop -> train-year mean
    target_std: dict = field(default_factory=dict)

    def standardize_target(self, crop, value):
        return (value - self.target_mean[crop]) / self.target_std[crop]

    def destandardize_target(self, crop, value):
        return value * self.target_std[crop] + self.target_mean[crop]


class Dataset:
    """In-memory dataset: dense per-block arrays indexed [county, year],
    one attribute per ``BLOCKS`` name, passed in that order. ``norm_stats``
    holds the statistics the blocks were normalized with, or None when they
    hold raw values."""

    def __init__(self, counties, years, weather, land, soil, extras, present,
                 yields, graph, norm_stats=None):
        self.counties = list(counties)
        self.years = sorted(years)
        self.county_index = {c: i for i, c in enumerate(self.counties)}
        self.year_index = {y: i for i, y in enumerate(self.years)}
        self.weather = weather
        self.land = land
        self.soil = soil
        self.extras = extras
        self.present = present
        self.yields = yields
        self.graph = graph
        self.norm_stats = norm_stats
        self._usable = {}
        self._prev_mean_cache = {}

    @property
    def n_records(self):
        return int(self.present.sum())

    def year_range(self, first, last):
        """The records of the dataset years in [first, last], as views: a
        dataset that shares these blocks, the yields, the graph and the
        normalization state."""
        part = slice(bisect.bisect_left(self.years, first), bisect.bisect_right(self.years, last))
        return Dataset(
            self.counties, self.years[part], *(getattr(self, b)[:, part] for b in BLOCKS),
            self.present[:, part], self.yields, self.graph, norm_stats=self.norm_stats,
        )

    def _usable_records(self, year):
        """[county] bool: the county has a usable record for the year (see
        the window rule above). Computed once per year, then cached."""
        if year not in self._usable:
            yi = self.year_index.get(year)
            mask = np.zeros(len(self.counties), dtype=bool)
            if yi is not None:
                mask = self.present[:, yi].copy()
                for b in BLOCKS:
                    finite = np.isfinite(getattr(self, b)[:, yi])
                    mask &= finite.all(axis=tuple(range(1, finite.ndim)))
            self._usable[year] = mask
        return self._usable[year]

    def window_mask(self, year, dt):
        """[county] bool, a fresh array: the window [year - dt .. year] is
        complete (the window rule above)."""
        years = range(year - dt, year + 1)
        return np.logical_and.reduce([self._usable_records(y) for y in years])

    def labeled_counties(self, year, crop):
        return [c for c in self.yields.counties_with(year, crop) if c in self.county_index]

    def prev_year_national_mean(self, crop, year):
        """National mean of the prior year; the earliest labeled year stands
        in when no prior labels exist."""
        key = (crop, year)
        if key not in self._prev_mean_cache:
            m = self.yields.national_mean(year - 1, crop)
            if m is None:
                labeled_years = self.yields.labeled_years(crop)
                if not labeled_years:
                    raise DataFormatError(f"no {crop} yields anywhere in the dataset")
                m = self.yields.national_mean(labeled_years[0], crop)
            self._prev_mean_cache[key] = m
        return self._prev_mean_cache[key]

    def prev_mean_feature(self, crop, year):
        """extras[6] of a window year of a normalized dataset: the
        standardized previous-year national mean."""
        return self.norm_stats.standardize_target(crop, self.prev_year_national_mean(crop, year))


# -- ingestion ----------------------------------------------------------------


def csv_rows(f, path, error):
    """The ``csv.reader`` rows of the open file ``f``. A row the reader
    rejects (a field past ``csv.field_size_limit()``, a NUL byte) raises
    ``error`` naming ``path`` and the line, not ``csv.Error``; text that is
    not UTF-8 raises it naming ``path``, not ``UnicodeDecodeError``."""
    reader = csv.reader(f)
    try:
        yield from reader
    except csv.Error as e:
        raise error(f"{path}:{reader.line_num}: {e}") from e
    except UnicodeDecodeError as e:
        raise error(f"{path}: not UTF-8 text ({e})") from e


def _read_features_csv(path):
    """The CSV import form: (counties, years, blocks, present), counties
    and years sorted, a cell NaN where it is blank or its record absent."""
    expected = feature_columns()
    rows = []
    nonfinite_line = None  # first line with inf or nan text; reported once all rows parse
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv_rows(f, path, DataFormatError)
        header = next(reader, None)
        if header != expected:
            raise DataFormatError(
                f"{path}: header does not match the column manifest "
                f"({len(header or [])} columns, expected {len(expected)})"
            )
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(expected):
                raise DataFormatError(
                    f"{path}:{lineno}: {len(row)} fields, expected {len(expected)}"
                )
            county = row[0]
            try:
                year = int(row[1])
            except ValueError as e:
                raise DataFormatError(f"{path}:{lineno}: bad year {row[1]!r}") from e
            cells = row[2:]
            try:
                values = np.fromiter(map(float, cells), dtype=np.float64, count=len(cells))
                blanks = 0
            except ValueError:  # a blank cell, or a bad number the per-cell parse names
                try:
                    values = np.array([float(cell) if cell else np.nan for cell in cells])
                except ValueError as e:
                    raise DataFormatError(f"{path}:{lineno}: bad number ({e})") from e
                blanks = cells.count("")
            # a blank cell is the only missing-value marker: no inf or nan text
            nonfinite = len(cells) - np.count_nonzero(np.isfinite(values))
            if nonfinite != blanks and nonfinite_line is None:
                nonfinite_line = lineno
            rows.append((county, year, values))
    if nonfinite_line is not None:
        raise DataFormatError(
            f"{path}:{nonfinite_line}: non-finite number (leave a missing value blank)"
        )

    counties = sorted({c for c, _, _ in rows})
    years = sorted({y for _, y, _ in rows})
    ci = {c: i for i, c in enumerate(counties)}
    yi = {y: i for i, y in enumerate(years)}
    shape = (len(counties), len(years))
    blocks = [np.full(shape + dims, np.nan) for dims in BLOCK_SHAPES.values()]
    present = np.zeros(shape, dtype=bool)
    # a row holds each block's cells in turn: (block, its columns, its record shape)
    runs, start = [], 0
    for block, dims in zip(blocks, BLOCK_SHAPES.values()):
        runs.append((block, slice(start, start + math.prod(dims)), dims))
        start += math.prod(dims)
    for county, year, vals in rows:
        a, b = ci[county], yi[year]
        if present[a, b]:
            raise DataFormatError(f"{path}: duplicate record for {county}/{year}")
        for block, run, dims in runs:
            block[a, b] = vals[run].reshape(dims)
        present[a, b] = True
    return counties, years, blocks, present


# The feature store's first line. Its first byte never starts UTF-8 text, so
# it tells the store from the CSV import form.
_STORE_MAGIC = b"\x93yieldgraph feature store 1\n"
_STORE_ARRAYS = ("counties", "years", "present") + BLOCKS  # in file order
_STORE_ALIGN = 64  # each array starts at a multiple of this, so its data maps aligned
_NPY_HEADER_READERS = {
    (1, 0): npy_format.read_array_header_1_0,
    (2, 0): npy_format.read_array_header_2_0,
}
_CHECK_RECORDS = 4096  # records per chunk in the store's cell checks


def _store_layout(path, f):
    """(offset, shape, dtype) of each of the open store's arrays, its
    headers read and its size checked; nothing is unpickled."""
    size = os.fstat(f.fileno()).st_size
    if f.read(len(_STORE_MAGIC)) != _STORE_MAGIC:
        raise DataFormatError(f"{path}: bad magic (not a version 1 feature store)")
    layout = []
    for name in _STORE_ARRAYS:
        f.seek(-f.tell() % _STORE_ALIGN, os.SEEK_CUR)
        try:
            version = npy_format.read_magic(f)
            if version not in _NPY_HEADER_READERS:
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = _NPY_HEADER_READERS[version](f)
        except (ValueError, tokenize.TokenError) as e:  # numpy tokenizes an old-style header
            raise DataFormatError(f"{path}: {name}: bad array header ({e})") from e
        if dtype.hasobject or not dtype.itemsize or fortran_order or min(shape, default=0) < 0:
            raise DataFormatError(
                f"{path}: {name}: {dtype} {shape} array (fortran order {fortran_order}) "
                f"is not a store array"
            )
        offset = f.tell()
        end = offset + math.prod(shape) * dtype.itemsize
        if end > size:
            raise DataFormatError(f"{path}: {name}: truncated ({size} bytes, the array ends "
                                  f"at byte {end})")
        f.seek(end)
        layout.append((offset, shape, dtype))
    if f.tell() != size:
        raise DataFormatError(f"{path}: {size - f.tell()} bytes after the last array")
    return layout


def _check_store_array(path, name, a, dtype, shape):
    if a.dtype != dtype or a.shape != shape:
        raise DataFormatError(f"{path}: {name} is a {a.dtype} {a.shape} array, "
                              f"expected {np.dtype(dtype)} {shape}")


def _map_store(path):
    """The store's (counties, years, blocks, present): ids and years as
    Python values, ``present`` a copy, and the blocks read-only views of one
    map of the file, checked as the CSV reader checks its rows."""
    with open(path, "rb") as f:
        layout = _store_layout(path, f)
        mapped = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
    ids, years, present, *blocks = [
        np.frombuffer(mapped, dtype, math.prod(shape), offset).reshape(shape)
        for offset, shape, dtype in layout
    ]
    if ids.dtype.kind != "U" or ids.ndim != 1:
        raise DataFormatError(f"{path}: county ids are a {ids.dtype} {ids.shape} array, "
                              f"expected 1-D unicode")
    _check_store_array(path, "years", years, "<i8", years.shape[:1])
    counties, years = ids.tolist(), years.tolist()
    if len(set(counties)) != len(counties):
        dup = next(c for c in counties if counties.count(c) > 1)
        raise DataFormatError(f"{path}: duplicate county id {dup!r}")
    if any(a >= b for a, b in zip(years, years[1:])):
        raise DataFormatError(f"{path}: years are not strictly ascending")
    shape = (len(counties), len(years))
    _check_store_array(path, "present", present, bool, shape)
    absent = ~present.reshape(-1)  # [record], records in [county, year] order
    for name, block in zip(BLOCKS, blocks):
        _check_store_array(path, name, block, "<f8", shape + BLOCK_SHAPES[name])
        flat = block.reshape(absent.size, math.prod(BLOCK_SHAPES[name]))
        for r0 in range(0, absent.size, _CHECK_RECORDS):
            gone = r0 + np.flatnonzero(absent[r0 : r0 + _CHECK_RECORDS])
            for rows, what in (
                (r0 + np.flatnonzero(np.isinf(flat[r0 : r0 + _CHECK_RECORDS]).any(axis=1)),
                 "an infinite cell"),
                (gone[~np.isnan(flat[gone]).all(axis=1)], "a finite cell in an absent record"),
            ):
                if rows.size:
                    county, year = divmod(int(rows[0]), shape[1])
                    raise DataFormatError(
                        f"{path}: {name} of {counties[county]}/{years[year]}: {what}")
    # present in memory: a normalized dataset shares it, and would keep the
    # raw blocks' map alive through training
    return counties, years, blocks, present.copy()


def load_dataset(features_file, yields_file, adjacency_file):
    """The dataset of a feature file, a yields CSV and an adjacency TSV.

    The feature file is either form, told apart by its first byte: the
    store ``save_dataset`` writes, whose blocks are handed out as read-only
    views of a map of the file (their pages stay file-backed, and the map
    lives as long as a block of this dataset does), or the CSV import form. Either way the same checks hold: the record shapes of
    ``BLOCK_SHAPES``, no infinite cell, an absent record all NaN, no
    duplicate county or record. A violation raises ``DataFormatError``
    naming the file."""
    with open(features_file, "rb") as f:
        is_store = f.read(1) == _STORE_MAGIC[:1]
    read = _map_store if is_store else _read_features_csv
    counties, years, blocks, present = read(features_file)

    yields = YieldTable()
    with open(yields_file, "r", encoding="utf-8", newline="") as f:
        reader = csv_rows(f, yields_file, DataFormatError)
        header = next(reader, None)
        if header != ["county", "year", "crop", "yield"]:
            raise DataFormatError(f"{yields_file}: header must be county,year,crop,yield")
        for lineno, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise DataFormatError(f"{yields_file}:{lineno}: expected 4 fields")
            try:
                yields.set(row[0], int(row[1]), row[2], float(row[3]))
            except (ValueError, DataFormatError) as e:
                raise DataFormatError(f"{yields_file}:{lineno}: {e}") from e

    graph = load_graph(adjacency_file, node_ids=set(counties))
    return Dataset(counties, years, *blocks, present, yields, graph)


def save_dataset(dataset, out_dir):
    """Write the feature store ``features.npys``, ``yields.csv`` and
    ``adjacency.tsv`` into ``out_dir``; returns their paths, in
    ``load_dataset``'s argument order, and load(save(ds)) gives ds's values
    bit for bit.

    The store is the magic line, then the county ids, the years, ``present``
    and each ``BLOCKS`` block, each in numpy's .npy format, C order, at a
    multiple of 64 bytes. It is written under a temporary name and renamed
    over the old store, so a map an earlier load still holds keeps the old
    file. Yields use shortest round-trip float text.

    ``graph.load_graph`` strips each adjacency line, skips a line that
    starts with ``#`` and splits at tabs, so an edge endpoint's id must be
    non-empty, with no outer whitespace, no leading ``#`` and no tab, CR
    or LF. An endpoint that breaks this raises ``DataFormatError`` before
    any file is written; an isolated county may have any id."""
    for county, nbrs in zip(dataset.graph.node_ids, dataset.graph.neighbors):
        if nbrs.size and (not county or county != county.strip() or county[0] == "#"
                          or any(ch in county for ch in "\t\r\n")):
            raise DataFormatError(f"county id {county!r} cannot be an edge endpoint in "
                                  "adjacency.tsv: it must be non-empty, with no outer "
                                  "whitespace, no leading '#' and no tab, CR or LF")
    os.makedirs(out_dir, exist_ok=True)
    fpath = os.path.join(out_dir, "features.npys")
    arrays = [
        np.array(dataset.counties, dtype="<U"),
        np.array(dataset.years, dtype="<i8"),
        np.asarray(dataset.present, dtype=bool),
    ] + [np.asarray(getattr(dataset, b), dtype="<f8") for b in BLOCKS]
    with open(fpath + ".tmp", "wb") as f:
        f.write(_STORE_MAGIC)
        for a in arrays:
            f.write(bytes(-f.tell() % _STORE_ALIGN))
            np.save(f, np.ascontiguousarray(a), allow_pickle=False)
    os.replace(fpath + ".tmp", fpath)
    ypath = os.path.join(out_dir, "yields.csv")
    with open(ypath, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["county", "year", "crop", "yield"])
        for (county, year, crop), value in sorted(dataset.yields.entries.items()):
            writer.writerow([county, year, crop, repr(value)])
    apath = os.path.join(out_dir, "adjacency.tsv")
    with open(apath, "w", encoding="utf-8") as f:
        f.write("# undirected county adjacency, one edge per line\n")
        # neighbours are symmetric and ascending, so each edge is written
        # once, from its lower endpoint, in (lower, upper) order
        for i, county in enumerate(dataset.graph.node_ids):
            for j in dataset.graph.neighbors[i]:
                if j > i:
                    f.write(f"{county}\t{dataset.graph.node_ids[j]}\n")
    return fpath, ypath, apath


# -- normalization ------------------------------------------------------------


# records per chunk in compute_norm_stats's passes over a block
_STATS_ROWS = 256


def _sum_records(flat, rows, prepare):
    """Sum over axis 0 of ``prepare``'d copies of ``flat[rows]``, in record
    order, without gathering them all: each chunk of _STATS_ROWS records is
    gathered behind a row for the running sum, so numpy's axis-0 reduction
    adds the records one by one onto it, as it does over the whole gathered
    stack (numpy sums a reduced outer axis row by row when each record has
    more than one feature, as every block's records have; a one-feature
    record would be summed pairwise). Zeros when ``rows`` is empty."""
    buf = np.empty((min(len(rows), _STATS_ROWS) + 1,) + flat.shape[1:])
    total = None
    for r0 in range(0, len(rows), _STATS_ROWS):
        part = rows[r0 : r0 + _STATS_ROWS]
        x = np.take(flat, part, axis=0, out=buf[1 : len(part) + 1])
        prepare(x)
        if total is None:
            total = x.sum(axis=0)
        else:
            buf[0] = total
            total = buf[: len(part) + 1].sum(axis=0)
    return np.zeros(flat.shape[1:]) if total is None else total


def _block_stats(block, keep):
    """Per-feature mean and std of ``block`` [county, year, ...features] over
    the records ``keep`` [county, year] marks, NaN skipped: the bits of
    ``np.nanmean`` and ``np.nanstd`` over ``block[keep]``, in two chunked
    passes (``_sum_records``) that never hold that copy. The first sums the
    values, NaN set to 0, and counts the others; the second sums the
    squared deviations from the mean, NaN's set to 0. A feature with no
    value gets mean 0 and std 1, as does one whose std is under 1e-12."""
    flat = block.reshape((-1,) + block.shape[2:])  # records in [county, year] order
    rows = np.flatnonzero(keep)
    count = np.zeros(flat.shape[1:], dtype=np.intp)

    def values(x):
        missing = np.isnan(x)
        count[...] += len(x) - missing.sum(axis=0)
        x[missing] = 0.0

    def squared_deviations(x):
        missing = np.isnan(x)
        x -= mean
        x[missing] = 0.0
        x *= x

    with np.errstate(invalid="ignore"):  # 0 / 0 for a feature with no value
        mean = _sum_records(flat, rows, values) / count
        std = np.sqrt(_sum_records(flat, rows, squared_deviations) / count)
    mean = np.where(np.isnan(mean), 0.0, mean)
    std = np.where(np.isnan(std), 0.0, std)
    return mean, np.where(std < 1e-12, 1.0, std)


def compute_norm_stats(dataset, split):
    train_years = split.train_years(dataset.years)
    assert max(train_years) < split.val_year  # leakage guard
    in_train = np.zeros(len(dataset.years), dtype=bool)
    for y in train_years:
        in_train[dataset.year_index[y]] = True
    keep = dataset.present & in_train  # [county, year]: the present training records
    stats = NormStats(train_years=tuple(train_years), mean={}, std={})
    for b in BLOCKS:
        stats.mean[b], stats.std[b] = _block_stats(getattr(dataset, b), keep)
    train = set(train_years)
    for crop in CROPS:
        vals = [
            v for (c, y), v in dataset.yields._by_crop.get(crop, {}).items()
            if y in train and c in dataset.county_index
        ]
        if vals:
            std = float(np.std(vals))
            stats.target_mean[crop] = float(np.mean(vals))
            stats.target_std[crop] = std if std > 1e-12 else 1.0
    return stats


def _standardized(a, mean, std):
    out = a - mean
    out /= std  # the values of (a - mean) / std, without a second temporary
    return out


def apply_norm_stats(dataset, stats):
    return Dataset(
        dataset.counties,
        dataset.years,
        *(_standardized(getattr(dataset, b), stats.mean[b], stats.std[b]) for b in BLOCKS),
        dataset.present,
        dataset.yields,
        dataset.graph,
        norm_stats=stats,
    )


def normalize(dataset, split):
    """Z-score every feature channel with training-year statistics, applied
    identically to all years: a run's one normalization, which ``train`` takes."""
    stats = compute_norm_stats(dataset, split)
    return apply_norm_stats(dataset, stats), stats


# -- windows ------------------------------------------------------------------


def enumerate_windows(dataset, target_years, crop, dt):
    """All (county, target_year) pairs with a label and a complete window,
    target years as given and counties sorted; returns (samples,
    skipped_count)."""
    samples = []
    skipped = 0
    for year in target_years:
        labeled = dataset.labeled_counties(year, crop)
        rows = [dataset.county_index[c] for c in labeled]
        complete = dataset.window_mask(year, dt)[rows]
        samples += [(c, year) for c, ok in zip(labeled, complete) if ok]
        skipped += len(labeled) - int(complete.sum())
    return samples, skipped


# -- synthetic generator ------------------------------------------------------

_JULY_WEEKS = np.arange(26, 32)
_JULY_PROFILE = np.array([0.5, 0.9, 1.0, 1.0, 0.9, 0.5])
_WEATHER_PERSISTENCE = 0.6   # year-over-year carryover of the regional field
_COUNTY_MEASUREMENT_SD = 1.0  # shared per county-year across weekly channels
_SOIL_BIAS_SD = 0.7           # shared per county across soil and extras
_CELL_NOISE = 0.3

_CROP_PARAMS = {
    # base, trend/yr, fertility gain, July-weather gain, noise sd
    "corn": (120.0, 2.0, 10.0, 7.0, 2.0),
    "soybean": (42.0, 0.7, 3.5, 2.4, 0.7),
}


def _grid_graph(side):
    ids = [f"{r * side + c:05d}" for r in range(side) for c in range(side)]
    edges = []
    for r in range(side):
        for c in range(side):
            i = r * side + c
            if c + 1 < side:
                edges.append((ids[i], ids[i + 1]))
            if r + 1 < side:
                edges.append((ids[i], ids[i + side]))
    return CountyGraph(ids, edges)


def _smooth(graph, values, sweeps=2):
    out = values.astype(np.float64).copy()
    for _ in range(sweeps):
        nxt = out.copy()
        for i, nbrs in enumerate(graph.neighbors):
            if nbrs.size:
                nxt[i] = (out[i] + out[nbrs].sum()) / (1.0 + nbrs.size)
        out = nxt
    return out


def _standardized_smooth_field(graph, rng):
    field_ = _smooth(graph, rng.normal(size=graph.n))
    return (field_ - field_.mean()) / field_.std()


def generate_synthetic(n_counties, n_years, grid_side, seed, start_year=2000):
    """Seeded synthetic dataset on a grid graph.

    Yield = linear trend in year + smooth fertility field + response to a
    smooth regional July-weather field + noise. County features observe
    the July field through the weekly channels with a shared per-county
    measurement offset, and fertility through the soil/extras channels
    with a per-county offset, so neighboring counties carry genuinely
    complementary signal.
    """
    if grid_side**2 != n_counties:
        raise ValueError(f"n_counties={n_counties} is not grid_side^2={grid_side**2}")
    if grid_side < 2:
        raise ValueError(f"need a grid of at least 2 x 2 = 4 counties, got {n_counties}")
    if n_years < 6:
        raise ValueError(f"need at least 6 years, got {n_years}")
    rng = np.random.default_rng(seed)
    graph = _grid_graph(grid_side)
    n = graph.n
    years = list(range(start_year, start_year + n_years))

    fert = _standardized_smooth_field(graph, rng)
    climate = _standardized_smooth_field(graph, rng)
    soil_bias = rng.normal(scale=_SOIL_BIAS_SD, size=n)
    fert_observed = fert + soil_bias

    def loadings(k):
        return rng.choice([-1.0, 1.0], size=k) * rng.uniform(0.5, 1.0, size=k)

    w_load = loadings(N_WEATHER)
    l_load = loadings(N_LAND)
    w_climate = rng.uniform(-0.5, 0.5, size=N_WEATHER)
    l_climate = rng.uniform(-0.5, 0.5, size=N_LAND)
    w_base = rng.uniform(-5, 5, size=N_WEATHER)
    w_amp = rng.uniform(1, 3, size=N_WEATHER)
    w_phase = rng.uniform(0, WEEKS, size=N_WEATHER)
    l_base = rng.uniform(-5, 5, size=N_LAND)
    l_amp = rng.uniform(1, 3, size=N_LAND)
    l_phase = rng.uniform(0, WEEKS, size=N_LAND)
    s_load = loadings(N_SOIL)
    depth_profile = np.linspace(1.0, 0.4, DEPTHS)
    e_load = loadings(N_EXTRA_STORED)

    weeks = np.arange(WEEKS)
    w_season = w_base[:, None] + w_amp[:, None] * np.sin(
        2 * np.pi * (weeks[None, :] - w_phase[:, None]) / WEEKS
    )
    l_season = l_base[:, None] + l_amp[:, None] * np.sin(
        2 * np.pi * (weeks[None, :] - l_phase[:, None]) / WEEKS
    )

    # regional July-weather field: smooth in space, AR(1) across years
    u = np.zeros((n_years, n))
    u[0] = _standardized_smooth_field(graph, rng)
    carry = _WEATHER_PERSISTENCE
    fresh = np.sqrt(1.0 - carry**2)
    for t in range(1, n_years):
        u[t] = carry * u[t - 1] + fresh * _standardized_smooth_field(graph, rng)

    shape = (n, n_years)
    blocks = {b: np.empty(shape + dims) for b, dims in BLOCK_SHAPES.items()}
    present = np.ones(shape, dtype=bool)

    july = np.zeros(WEEKS)
    july[_JULY_WEEKS] = _JULY_PROFILE
    for t in range(n_years):
        measured = u[t] + rng.normal(scale=_COUNTY_MEASUREMENT_SD, size=n)
        w_signal = (
            w_season[None, :, :]
            + w_load[None, :, None] * measured[:, None, None] * july[None, None, :]
            + w_climate[None, :, None] * climate[:, None, None]
        )
        blocks["weather"][:, t] = w_signal + rng.normal(
            scale=_CELL_NOISE, size=(n, N_WEATHER, WEEKS))
        l_signal = (
            l_season[None, :, :]
            + l_load[None, :, None] * measured[:, None, None] * july[None, None, :]
            + l_climate[None, :, None] * climate[:, None, None]
        )
        blocks["land"][:, t] = l_signal + rng.normal(
            scale=_CELL_NOISE, size=(n, N_LAND, WEEKS))

    soil_core = s_load[None, :, None] * depth_profile[None, None, :] * fert_observed[:, None, None]
    soil_static = soil_core + rng.normal(scale=_CELL_NOISE, size=(n, N_SOIL, DEPTHS))
    extras_static = e_load[None, :] * fert_observed[:, None] + rng.normal(
        scale=0.2, size=(n, N_EXTRA_STORED)
    )
    for t in range(n_years):
        blocks["soil"][:, t] = soil_static
        blocks["extras"][:, t] = extras_static

    yields = YieldTable()
    for crop in CROPS:
        base, trend, fert_gain, weather_gain, noise_sd = _CROP_PARAMS[crop]
        for t, year in enumerate(years):
            vals = (
                base
                + trend * t
                + fert_gain * fert
                + weather_gain * u[t]
                + rng.normal(scale=noise_sd, size=n)
            )
            vals = np.maximum(vals, 1.0)
            for i, county in enumerate(graph.node_ids):
                yields.set(county, year, crop, vals[i])

    return Dataset(graph.node_ids, years, *blocks.values(), present, yields, graph)
