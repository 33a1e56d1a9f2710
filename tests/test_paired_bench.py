"""The summary of tools/paired_bench.py: medians, quartiles and pairs won."""

import importlib.util
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "paired_bench.py"
SPEC = importlib.util.spec_from_file_location("paired_bench", PATH)
paired_bench = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(paired_bench)


def test_parse_seeds():
    assert paired_bench.parse_seeds("801-803,900") == [801, 802, 803, 900]


def test_summary_counts_wins_in_the_metric_direction():
    parent = [100.0, 90.0, 110.0, 95.0]
    change = [130.0, 120.0, 105.0, 125.0]
    runs = [{"pair": i, "side": side,
             "metrics": {"trials_per_s": v, "wall_s": 1000.0 / v, "csv_s": 0.0}}
            for i, pair in enumerate(zip(parent, change))
            for side, v in zip(("parent", "change"), pair)]
    # a failed run reports no metrics; its pair is left out
    runs.append({"pair": 4, "side": "parent", "metrics": {}})
    runs.append({"pair": 4, "side": "change", "metrics": {"wall_s": 1.0}})
    out = paired_bench.summarize(runs, {"trials_per_s": "higher", "wall_s": "lower",
                                        "peak_rss_mb": "lower", "csv_s": "lower"})
    assert set(out) == {"trials_per_s", "wall_s", "csv_s"}
    rate = out["trials_per_s"]
    assert rate["pairs"] == 4 and rate["pairs_won"] == 3
    assert rate["parent"]["median"] == 97.5 and rate["change"]["median"] == 122.5
    assert rate["parent"]["q1"] == 93.75 and rate["parent"]["q3"] == 102.5
    assert rate["parent"]["iqr"] == pytest.approx(8.75)
    assert rate["change_over_parent"] == pytest.approx(122.5 / 97.5)
    assert out["wall_s"]["pairs_won"] == 3
    # a layer that reads 0 on both sides: no ratio, and ties win nothing
    assert out["csv_s"]["change_over_parent"] is None
    assert out["csv_s"]["pairs_won"] == 0
