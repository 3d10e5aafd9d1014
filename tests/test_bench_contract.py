"""The benchmark's hold on the library, checked without running it.

``perfbench/spans.py`` looks up every callable it wraps when it is
imported, so a renamed or deleted public function fails this import here,
not only when the benchmark runs.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import spans  # noqa: E402


def test_bench_wraps_the_conv_block_and_leaves_nothing_installed():
    names = {name for _, _, name in spans.wrap_points()}
    assert "layers.conv1d" in names
    assert names >= {"geo.read_ascii_grid", "geo.aggregate_to_county", "geo.daily_to_weekly",
                     "geo.build_weight_map", "data.save_dataset", "data.load_dataset"}
    assert names >= {"evaluation.evaluate", "data.apply_norm_stats",
                     "evaluation.build_masking_plan", "evaluation.mask_dataset_year",
                     "models.predict_year"}
    assert spans.leaked_wrappers() == []
