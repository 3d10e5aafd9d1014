import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from yieldgraph.geo import (
    GeoFormatError,
    RasterGrid,
    aggregate_to_county,
    build_weight_map,
    daily_to_weekly,
    read_ascii_grid,
    save_weight_map,
    write_ascii_grid,
)

from tests.helpers import (
    TEXTURE_CLASSES,
    TexturePoint,
    classify_texture,
    county_texture_fractions,
    pack_weight_map,
    reference_aggregate_to_county,
    reference_daily_to_weekly,
)

# NRCS class regions as independent, unordered predicates; the sweep test
# checks they tile the simplex and agree with the ordered implementation.
ORACLE_RULES = {
    "Sand": lambda s, si, c: si + 1.5 * c < 15,
    "Loamy Sand": lambda s, si, c: si + 1.5 * c >= 15 and si + 2 * c < 30,
    "Sandy Loam": lambda s, si, c: si + 2 * c >= 30
    and ((7 <= c < 20 and s > 52) or (c < 7 and si < 50)),
    "Loam": lambda s, si, c: 7 <= c < 27 and 28 <= si < 50 and s <= 52,
    "Silt Loam": lambda s, si, c: (si >= 50 and 12 <= c < 27)
    or (50 <= si < 80 and c < 12),
    "Silt": lambda s, si, c: si >= 80 and c < 12,
    "Sandy Clay Loam": lambda s, si, c: 20 <= c < 35 and si < 28 and s > 45,
    "Clay Loam": lambda s, si, c: 27 <= c < 40 and 20 < s <= 45,
    "Silty Clay Loam": lambda s, si, c: 27 <= c < 40 and s <= 20,
    "Sandy Clay": lambda s, si, c: c >= 35 and s > 45,
    "Silty Clay": lambda s, si, c: c >= 40 and si >= 40,
    "Clay": lambda s, si, c: c >= 40 and s <= 45 and si < 40,
}


def grid2x2(values, nodata=-9999.0):
    return RasterGrid(0.0, 0.0, 1.0, 2, 2, np.array(values, dtype=float), nodata)


def test_aggregate_constant_raster_is_identity():
    raster = grid2x2([7.0, 7.0, 7.0, 7.0])
    weights = pack_weight_map({"a": [(0, 0.3), (3, 1.2)]})
    assert aggregate_to_county(raster, weights, "a") == 7.0


def test_aggregate_hand_weighted_mean():
    raster = grid2x2([10.0, 20.0, 0.0, 0.0])
    # overlap {0.5, 1.0} x agland {0.4, 0.2} -> weights {0.2, 0.2}
    weights = pack_weight_map({"a": [(0, 0.5 * 0.4), (1, 1.0 * 0.2)]})
    assert aggregate_to_county(raster, weights, "a") == 15.0


def test_aggregate_all_nodata_is_missing():
    raster = grid2x2([-9999.0, -9999.0, 5.0, 5.0])
    assert aggregate_to_county(raster, pack_weight_map({"a": [(0, 1.0), (1, 1.0)]}), "a") is None
    assert aggregate_to_county(raster, pack_weight_map({"a": []}), "a") is None
    assert aggregate_to_county(raster, {}, "a") is None


def test_aggregate_skips_nodata_cells():
    raster = grid2x2([-9999.0, 20.0, 5.0, 5.0])
    assert aggregate_to_county(raster, pack_weight_map({"a": [(0, 1.0), (1, 1.0)]}), "a") == 20.0


def test_aggregate_within_contributing_bounds():
    rng = np.random.default_rng(0)
    for _ in range(50):
        vals = rng.uniform(-10, 10, size=4)
        raster = grid2x2(vals)
        cells = [(i, w) for i, w in enumerate(rng.uniform(0, 1, size=4)) if w > 0]
        out = aggregate_to_county(raster, pack_weight_map({"a": cells}), "a")
        assert vals.min() - 1e-12 <= out <= vals.max() + 1e-12


def test_aggregate_weight_scale_invariance():
    raster = grid2x2([1.0, 2.0, 3.0, 4.0])
    cells = [(0, 0.1), (2, 0.7), (3, 0.2)]
    base = aggregate_to_county(raster, pack_weight_map({"a": cells}), "a")
    scaled = aggregate_to_county(raster, pack_weight_map({"a": [(c, 37.5 * w) for c, w in cells]}),
                                 "a")
    assert abs(base - scaled) <= 1e-12


def same_bits(a, b):
    """Equal float64 bit patterns (so 0.0 differs from -0.0), a NaN matching
    any NaN; None matches only None and an error message only itself."""
    if a is None or b is None or isinstance(a, str) or isinstance(b, str):
        return a == b
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


def aggregate_both(raster, cells):
    """(aggregate_to_county, the loop oracle) over one county's cell list;
    a GeoFormatError stands in for a result, by its message."""
    out = []
    for fn, weights in ((aggregate_to_county, pack_weight_map({"a": cells})),
                        (reference_aggregate_to_county, {"a": cells})):
        try:
            with np.errstate(all="ignore"):
                out.append(fn(raster, weights, "a"))
        except GeoFormatError as e:
            out.append(str(e))
    return out


_NODATA = -9999.0
_CELL_VALUES = st.one_of(st.sampled_from([_NODATA, 0.0, -0.0, 1.0]), st.floats(width=64))
_CELL_WEIGHTS = st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(0.0, 1e300, allow_subnormal=True))


@pytest.mark.parametrize("values, cells, want", [
    ([_NODATA] * 4, [(0, 1.0), (2, 0.5)], None),                         # all nodata
    ([1.0, 2.0, 3.0, 4.0], [], None),                                    # no cells
    ([1.0, 2.0, 3.0, 4.0], [(1, 0.0), (2, -0.0)], None),                 # zero weights
    ([-0.0, 5.0, 1.0, 1.0], [(0, 1.0)], 0.0),                            # +0.0, as the loop
    ([1.0, 2.0, 3.0, 4.0], [(0, 1.0), (4, 1.0)], "county a: cell 4 outside the raster"),
    ([_NODATA, 2.0, 3.0, 4.0], [(0, 1.0), (-1, 1.0)], "county a: cell -1 outside the raster"),
])
def test_aggregate_edge_cases_match_loop_oracle(values, cells, want):
    got, oracle = aggregate_both(grid2x2(values), cells)
    assert same_bits(got, oracle) and same_bits(got, want)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_aggregate_matches_loop_oracle_bit_for_bit(data):
    size = data.draw(st.integers(1, 9))
    values = data.draw(st.lists(_CELL_VALUES, min_size=size, max_size=size))
    cells = data.draw(st.lists(st.tuples(st.integers(-1, size), _CELL_WEIGHTS), max_size=12))
    raster = RasterGrid(0.0, 0.0, 1.0, 1, size, np.array(values), nodata=_NODATA)
    assert same_bits(*aggregate_both(raster, cells))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(["flux", "state"]),
       st.lists(st.floats(-1e300, 1e300), min_size=365, max_size=366))
@example("flux", [-0.0] * 365)
def test_daily_to_weekly_matches_add_at_oracle_bit_for_bit(kind, series):
    with np.errstate(all="ignore"):
        assert same_bits(daily_to_weekly(series, kind), reference_daily_to_weekly(series, kind))


def assert_packed(packed, weights):
    """``packed`` is ``weights`` in the packed form: the same counties, and
    per county an int64 cell array and a float64 weight array equal to the
    pairs in order."""
    assert packed.keys() == weights.keys()
    for county, pairs in weights.items():
        cells, ws = packed[county]
        assert cells.dtype == np.int64 and ws.dtype == np.float64
        assert cells.tolist() == [c for c, _ in pairs]
        assert ws.tolist() == [w for _, w in pairs]


def test_build_weight_map_products_and_exclusions(tmp_path):
    landcover = grid2x2([0.0, 0.5, 1.0, 0.25])
    path = tmp_path / "cells.csv"
    path.write_text(
        "county,cell_index,overlap_fraction\n"
        "a,0,1.0\n"     # agland 0 -> excluded
        "a,1,0.5\n"     # 0.5 * 0.5 = 0.25
        "b,2,0.5\n"     # 0.5 * 1.0 = 0.5
        "c,0,1.0\n",    # county with no agland anywhere
        encoding="utf-8",
    )
    weights = build_weight_map(str(path), landcover)
    assert_packed(weights, {"a": [(1, 0.25)], "b": [(2, 0.5)], "c": []})
    raster = grid2x2([1.0, 2.0, 3.0, 4.0])
    assert aggregate_to_county(raster, weights, "c") is None


def test_build_weight_map_rejects_bad_overlap(tmp_path):
    path = tmp_path / "cells.csv"
    path.write_text("county,cell_index,overlap_fraction\na,0,1.5\n", encoding="utf-8")
    with pytest.raises(GeoFormatError):
        build_weight_map(str(path), grid2x2([1, 1, 1, 1]))
    path.write_text("county,cell_index,overlap_fraction,agland_fraction\n"
                    "a,0,1.0,1.0\na,9223372036854775808,1.0,1.0\n", encoding="utf-8")
    with pytest.raises(GeoFormatError, match=":3: cell 9223372036854775808 out of range"):
        build_weight_map(str(path), None)


def test_weight_map_roundtrip(tmp_path):
    weights = {"a": [(1, 0.25)], "b": [(2, 0.5), (3, 0.125)]}
    path = tmp_path / "weights.csv"
    save_weight_map(weights, str(path))
    loaded = build_weight_map(str(path), None)
    assert_packed(loaded, weights)


def test_daily_to_weekly_constant_state():
    out = daily_to_weekly(np.full(365, 3.0), "state")
    assert out.shape == (52,)
    assert np.allclose(out, 3.0)


def test_daily_to_weekly_flux_fold_rule():
    out = daily_to_weekly(np.ones(365), "flux")
    assert np.all(out[:51] == 7.0)
    assert out[51] == 8.0
    leap = daily_to_weekly(np.ones(366), "flux")
    assert leap[51] == 9.0


def test_daily_to_weekly_rejects_wrong_length():
    with pytest.raises(GeoFormatError):
        daily_to_weekly(np.ones(360), "flux")
    with pytest.raises(ValueError):
        daily_to_weekly(np.ones(365), "weekly")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 10_000))
def test_daily_to_weekly_flux_conserves_total(leap, seed):
    rng = np.random.default_rng(seed)
    series = rng.uniform(0, 5, size=365 + leap)
    weekly = daily_to_weekly(series, "flux")
    assert weekly.sum() == pytest.approx(series.sum(), abs=1e-9)


def test_texture_examples():
    assert classify_texture(TexturePoint(92, 5, 3)) == "Sand"
    assert classify_texture(TexturePoint(40, 40, 20)) == "Loam"
    assert classify_texture(TexturePoint(20, 20, 60)) == "Clay"


def test_texture_renormalizes_rounded_inputs():
    p = TexturePoint(33.4, 33.4, 33.4)
    assert abs(p.sand + p.silt + p.clay - 100.0) < 1e-12
    assert classify_texture(p) == "Clay Loam"


def test_texture_rejects_bad_points():
    with pytest.raises(ValueError):
        TexturePoint(101, 0, 0)
    with pytest.raises(ValueError):
        TexturePoint(50, 30, 10)


def test_texture_partition_sweep():
    step = 0.5
    grid = np.arange(0.0, 100.0 + step / 2, step)
    mismatches = 0
    for sand in grid:
        for silt in np.arange(0.0, 100.0 - sand + step / 2, step):
            clay = 100.0 - sand - silt
            hits = [name for name, rule in ORACLE_RULES.items() if rule(sand, silt, clay)]
            assert len(hits) == 1, f"({sand},{silt},{clay}) -> {hits}"
            got = classify_texture(TexturePoint(sand, silt, clay))
            if got != hits[0]:
                mismatches += 1
    assert mismatches == 0


def test_fraction_single_point_one_hot():
    out = county_texture_fractions([TexturePoint(92, 5, 3)])
    assert out[TEXTURE_CLASSES.index("Sand")] == 1.0
    assert out.sum() == 1.0


def test_fraction_two_classes_half_half():
    out = county_texture_fractions(
        [TexturePoint(92, 5, 3), TexturePoint(20, 20, 60)], [1.0, 1.0]
    )
    assert out[TEXTURE_CLASSES.index("Sand")] == 0.5
    assert out[TEXTURE_CLASSES.index("Clay")] == 0.5


def test_fraction_empty_is_missing():
    assert county_texture_fractions([]) is None


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_fractions_sum_to_one(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 20))
    raw = rng.dirichlet(np.ones(3), size=n) * 100.0
    points = [TexturePoint(*row) for row in raw]
    weights = rng.uniform(0.1, 2.0, size=n)
    out = county_texture_fractions(points, weights)
    assert abs(out.sum() - 1.0) <= 1e-9


def test_ascii_grid_roundtrip(tmp_path):
    grid = RasterGrid(10.0, 20.0, 0.5, 2, 3, np.arange(6.0), nodata=-1.0)
    path = tmp_path / "grid.asc"
    write_ascii_grid(grid, str(path))
    loaded = read_ascii_grid(str(path))
    assert loaded.rows == 2 and loaded.cols == 3
    assert loaded.cell_size == 0.5
    assert loaded.nodata == -1.0
    assert np.array_equal(loaded.values, grid.values)


def test_ascii_grid_rejects_malformed(tmp_path):
    path = tmp_path / "bad.asc"
    path.write_text("ncols 2\nnrows 2\n1 2 3 4\n", encoding="utf-8")
    with pytest.raises(GeoFormatError):
        read_ascii_grid(str(path))
    with pytest.raises(GeoFormatError):
        RasterGrid(0, 0, 1.0, 2, 2, np.ones(3))


_HEADER = "ncols {}\nnrows 2\nxllcorner 0\nyllcorner 0\ncellsize 1\nnodata_value -9999\n"


@pytest.mark.parametrize("text, message", [
    (_HEADER.format("2.5") + "1 2 3 4 5\n", "ncols must be a whole number, got 2.5"),
    (_HEADER.format("-2") + "1 2 3 4\n", "ncols must be a whole number, got -2.0"),
    (_HEADER.format("1e400") + "1 2\n", "non-finite number in the header"),
    (_HEADER.format("2") + "1 nan 3 4\n", "non-finite number in the cells"),
    (_HEADER.format("2") + "1 2 -inf 4\n", "non-finite number in the cells"),
    (_HEADER.format("2") + "1 2 3 4,5\n", "bad number in the cells"),
    (_HEADER.format("two") + "1 2 3 4\n", "bad number in the header"),
])
def test_ascii_grid_rejects_bad_numbers_naming_the_file(tmp_path, text, message):
    path = tmp_path / "bad.asc"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(GeoFormatError) as e:
        read_ascii_grid(str(path))
    assert str(e.value).startswith(f"{path}: {message}")


def test_ascii_grid_reads_whole_number_spellings(tmp_path):
    path = tmp_path / "ok.asc"
    path.write_text(_HEADER.format("2.0") + "1 2\n3 -9999\n", encoding="utf-8")
    grid = read_ascii_grid(str(path))
    assert (grid.rows, grid.cols) == (2, 2)
    assert grid.values.tolist() == [1.0, 2.0, 3.0, -9999.0]


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_write_ascii_grid_golden_bytes(tmp_path):
    rng = np.random.default_rng(8)
    values = rng.normal(size=12) * 10.0 ** rng.integers(-9, 23, size=12)
    values[[1, 7]] = -9999.0
    values[4] = -0.0
    values[5] = 3.0
    path = tmp_path / "golden.asc"
    write_ascii_grid(RasterGrid(-0.5, 1e-3, 0.041666666666666664, 3, 4, values), str(path))
    assert _sha256(path) == "27f40de70501644b22dae3cfa1a1cf2e295858193ec425c613b177bec9dac1ce"


def test_save_weight_map_golden_bytes(tmp_path):
    weights = {"19153": [(7, 0.3), (2, 1e-7), (40, 1.0)], 'a,"b': [(0, 0.1 + 0.2)], "00001": []}
    path = tmp_path / "golden.csv"
    save_weight_map(weights, str(path))
    assert _sha256(path) == "3d8696370f8fcced48059c87fac7331b046bb927e41b3cea775f139c0b8b755b"
