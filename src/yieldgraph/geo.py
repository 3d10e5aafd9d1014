"""Raster-to-county aggregation and daily-to-weekly reduction.

County values are overlap- and agland-weighted means of raster cells; a
county whose valid-cell weight sum is zero yields missing (None), never
an error. Daily series fold to 52 weeks with days 364+ merged into week
51; accumulated ("flux") variables are summed per week, instantaneous
("state") variables averaged.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from yieldgraph.data import WEEKS, csv_rows


class GeoFormatError(ValueError):
    """A geospatial input file violates its documented format."""


@dataclass
class RasterGrid:
    """Row-major grid in map units; cell 0 is the top-left corner."""

    origin_x: float
    origin_y: float
    cell_size: float
    rows: int
    cols: int
    values: np.ndarray
    nodata: float = -9999.0

    def __post_init__(self):
        if self.cell_size <= 0:
            raise GeoFormatError(f"cell_size must be positive, got {self.cell_size}")
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        if self.values.size != self.rows * self.cols:
            raise GeoFormatError(
                f"value count {self.values.size} != rows*cols {self.rows * self.cols}"
            )

    def is_nodata(self, idx):
        return self.values[idx] == self.nodata


_ASCII_HEADER = ("ncols", "nrows", "xllcorner", "yllcorner", "cellsize", "nodata_value")


def _finite_numbers(path, tokens, what):
    """float64 array of ``tokens``, each parsed by ``float``; any token it
    rejects, and any inf or nan, is a GeoFormatError naming ``path``."""
    try:
        values = np.fromiter(map(float, tokens), dtype=np.float64, count=len(tokens))
    except ValueError as e:
        raise GeoFormatError(f"{path}: bad number in the {what} ({e})") from e
    if not np.isfinite(values).all():
        raise GeoFormatError(f"{path}: non-finite number in the {what} "
                             "(mark a missing cell with nodata_value)")
    return values


def read_ascii_grid(path):
    """ESRI ASCII grid: six header lines then whitespace-separated values.
    ncols and nrows are whole numbers; every number is finite."""
    with open(path, "r", encoding="utf-8") as f:
        tokens = f.read().split()
    pos = 2 * len(_ASCII_HEADER)
    for i, key in enumerate(_ASCII_HEADER):
        if 2 * i + 1 >= len(tokens) or tokens[2 * i].lower() != key:
            raise GeoFormatError(
                f"{path}: expected header key {key!r}, got {tokens[2 * i:2 * i + 1]}")
    header = dict(zip(_ASCII_HEADER, _finite_numbers(path, tokens[1:pos:2], "header").tolist()))
    for key in ("ncols", "nrows"):
        if not header[key].is_integer() or header[key] < 0:
            raise GeoFormatError(f"{path}: {key} must be a whole number, got {header[key]!r}")
    return RasterGrid(
        origin_x=header["xllcorner"],
        origin_y=header["yllcorner"],
        cell_size=header["cellsize"],
        rows=int(header["nrows"]),
        cols=int(header["ncols"]),
        values=_finite_numbers(path, tokens[pos:], "cells"),
        nodata=header["nodata_value"],
    )


def write_ascii_grid(grid, path):
    rows = grid.values.reshape(grid.rows, grid.cols).tolist()
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"ncols {grid.cols}\n")
        f.write(f"nrows {grid.rows}\n")
        f.write(f"xllcorner {grid.origin_x!r}\n")
        f.write(f"yllcorner {grid.origin_y!r}\n")
        f.write(f"cellsize {grid.cell_size!r}\n")
        f.write(f"nodata_value {grid.nodata!r}\n")
        f.writelines(" ".join(map(repr, row)) + "\n" for row in rows)


# -- county weights -----------------------------------------------------------


def build_weight_map(county_cells_file, landcover):
    """Combine per-cell county overlap fractions with agland fractions.

    county_cells_file: CSV ``county,cell_index,overlap_fraction`` (a fourth
    ``agland_fraction`` column, the save format, overrides the landcover
    raster). ``landcover``: RasterGrid of agland fractions in [0, 1], or
    None when the file carries its own. Cells with zero weight are
    dropped.

    Returns ``{county: (cells, weights)}``, the form ``aggregate_to_county``
    reads: per county an int64 array of cell indexes and a float64 array of
    weights, in file order.
    """
    weights = {}
    with open(county_cells_file, "r", encoding="utf-8", newline="") as f:
        reader = csv_rows(f, county_cells_file, GeoFormatError)
        header = next(reader, None)
        if header is None or header[:3] != ["county", "cell_index", "overlap_fraction"]:
            raise GeoFormatError(
                f"{county_cells_file}: header must start county,cell_index,overlap_fraction"
            )
        has_agland = len(header) == 4 and header[3] == "agland_fraction"
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise GeoFormatError(f"{county_cells_file}:{lineno}: wrong field count")
            try:
                county, cell, overlap = row[0], int(row[1]), float(row[2])
                agland = float(row[3]) if has_agland else None
            except ValueError as e:
                raise GeoFormatError(f"{county_cells_file}:{lineno}: bad number ({e})") from e
            if abs(cell) >= 2**63:  # past any raster, and past the int64 cell array
                raise GeoFormatError(f"{county_cells_file}:{lineno}: cell {cell} out of range")
            if not 0.0 <= overlap <= 1.0:
                raise GeoFormatError(
                    f"{county_cells_file}:{lineno}: overlap fraction {overlap} outside [0, 1]"
                )
            if agland is None:
                if landcover is None:
                    raise GeoFormatError(
                        f"{county_cells_file}: no agland column and no landcover raster"
                    )
                if cell < 0 or cell >= landcover.values.size:
                    raise GeoFormatError(
                        f"{county_cells_file}:{lineno}: cell {cell} outside the raster"
                    )
                agland = 0.0 if landcover.is_nodata(cell) else float(landcover.values[cell])
            w = overlap * agland
            weights.setdefault(county, [])
            if w > 0.0:
                weights[county].append((cell, w))
    return {county: (np.array([cell for cell, _ in pairs], dtype=np.int64),
                     np.array([w for _, w in pairs], dtype=np.float64))
            for county, pairs in weights.items()}


def save_weight_map(weights, path):
    """Write ``{county: [(cell, weight), ...]}`` in the four-column format
    ``build_weight_map`` reads back."""
    import csv

    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["county", "cell_index", "overlap_fraction", "agland_fraction"])
        for county in sorted(weights):
            for cell, w in sorted(weights[county]):
                writer.writerow([county, cell, repr(float(w)), "1.0"])


_NO_CELLS = (np.zeros(0, dtype=np.int64), np.zeros(0))


def aggregate_to_county(raster, weights, county):
    """Weighted mean over the county's cells, skipping nodata; returns None
    (missing) when no valid weight remains. ``weights`` is in the form
    ``build_weight_map`` returns.

    Both sums run left to right over the cells in order (``cumsum``), and
    adding 0.0 turns a -0.0 sum into the +0.0 that a loop starting from 0.0
    ends with, so the result is bit-for-bit that loop's."""
    cells, w = weights.get(county, _NO_CELLS)
    if cells.size == 0:
        return None
    if cells.view(np.uint64).max() >= raster.values.size:  # as uint64 a negative cell is huge
        cell = cells[np.argmax((cells < 0) | (cells >= raster.values.size))]
        raise GeoFormatError(f"county {county}: cell {cell} outside the raster")
    values = raster.values[cells]
    valid = values != raster.nodata
    if not valid.all():
        values, w = values[valid], w[valid]
        if values.size == 0:
            return None
    den = float(w.cumsum()[-1]) + 0.0
    if den == 0.0:
        return None
    return (float((w * values).cumsum()[-1]) + 0.0) / den


# -- temporal reduction -------------------------------------------------------


def daily_to_weekly(series, variable_kind):
    """Fold a 365/366-day series to 52 weeks: week k covers days
    [7k, 7k+7); days beyond 357 land in week 51. Flux variables sum,
    state variables average."""
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 1 or series.size not in (365, 366):
        raise GeoFormatError(f"daily series must have 365 or 366 days, got {series.shape}")
    if variable_kind not in ("flux", "state"):
        raise ValueError(f"variable_kind must be flux or state, got {variable_kind!r}")
    week_of_day = np.minimum(np.arange(series.size) // 7, WEEKS - 1)
    sums = np.bincount(week_of_day, weights=series, minlength=WEEKS)
    if variable_kind == "flux":
        return sums
    counts = np.bincount(week_of_day, minlength=WEEKS)
    return sums / counts
