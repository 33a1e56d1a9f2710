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


def summary(parent, change, better="higher", bound=None):
    """summarize's entry for one metric over pairs of (parent, change) values."""
    runs = [{"pair": i, "side": side, "metrics": {"m": v}}
            for i, pair in enumerate(zip(parent, change))
            for side, v in zip(("parent", "change"), pair)]
    return paired_bench.summarize(runs, {"m": better},
                                  None if bound is None else {"m": bound})["m"]


PARENT = [100.0, 98.0, 102.0, 99.0, 101.0, 100.0, 97.0, 103.0, 100.0, 99.0]


def test_gain_needs_nine_of_ten_pairs_and_a_gap_wider_than_the_parent_iqr():
    change = [v + 10.0 for v in PARENT]
    assert summary(PARENT, change)["verdict"] == "gain"
    assert summary(PARENT, change, bound=0.25)["verdict"] == "gain"
    # 9 of 10 won is enough, 8 of 10 is not
    nine = change[:9] + [PARENT[9] - 1.0]
    assert summary(PARENT, nine)["pairs_won"] == 9
    assert summary(PARENT, nine)["verdict"] == "gain"
    eight = change[:8] + [PARENT[8] - 1.0, PARENT[9] - 1.0]
    assert summary(PARENT, eight)["verdict"] == "no gain"
    # every pair won, but by less than the parent's IQR (1.75 here)
    entry = summary(PARENT, [v + 0.5 for v in PARENT])
    assert entry["pairs_won"] == 10 and entry["parent"]["iqr"] == pytest.approx(1.75)
    assert entry["verdict"] == "no gain"


def test_gain_follows_the_metric_direction():
    lower = [v - 10.0 for v in PARENT]
    assert summary(PARENT, lower, better="lower")["verdict"] == "gain"
    assert summary(PARENT, lower, better="higher", bound=0.05)["verdict"] == "regression"


def test_regression_is_a_worse_median_beyond_the_bound():
    # medians 100 and 94: 6% worse
    worse = [v - 6.0 for v in PARENT]
    assert summary(PARENT, worse, bound=0.05)["verdict"] == "regression"
    assert summary(PARENT, worse, bound=0.25)["verdict"] == "within bound"
    assert summary(PARENT, worse)["verdict"] == "no gain"
    # rss-like, lower is better: 36.0 -> 36.9 MB is 2.5%, under a 5% bound
    rss = [36.0] * 10
    assert summary(rss, [36.9] * 10, "lower", 0.05)["verdict"] == "within bound"
    assert summary(rss, [38.0] * 10, "lower", 0.05)["verdict"] == "regression"


def test_a_spread_wider_than_the_bound_is_unresolved():
    wide = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    same = summary(wide, list(wide), bound=0.25)
    assert same["parent"]["iqr"] > 25.0 and same["verdict"] == "unresolved"
    assert summary(wide, list(wide), bound=0.6)["verdict"] == "within bound"
    # unless every run of the change is better than every run of the parent:
    # medians 100 and 111, parent IQR 20, twice the bound
    split = [90.0, 110.0] * 5
    assert summary(split, [100.0] * 10, bound=0.1)["verdict"] == "unresolved"
    assert summary(split, [111.0] * 10, bound=0.1)["verdict"] == "within bound"
    assert summary(split, [89.0] * 10, "lower", 0.1)["verdict"] == "within bound"


def test_operations_sum_each_side_and_give_the_failed_share():
    runs = [{"pair": 0, "side": "parent", "attempted": 40, "failed": 0},
            {"pair": 0, "side": "change", "attempted": 50, "failed": 1},
            {"pair": 1, "side": "change", "attempted": 30, "failed": 3},
            {"pair": 1, "side": "parent", "attempted": 60, "failed": 0},
            # a run that wrote no result line counts as nothing attempted
            {"pair": 2, "side": "parent", "attempted": 0, "failed": 0}]
    out = paired_bench.operations(runs)
    assert out["parent"] == {"attempted": 100, "failed": 0, "failed_frac": 0.0}
    assert out["change"] == {"attempted": 80, "failed": 4, "failed_frac": 0.05}
    assert paired_bench.operations([])["change"]["failed_frac"] == 0.0


def test_source_lines_count_newlines_of_the_package_modules(tmp_path):
    pkg = tmp_path / "src" / "pfrlab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    # wc -l counts newlines: a last line without one is not counted
    (pkg / "b.py").write_text("\n\nz = 3")
    (pkg / "notes.txt").write_text("not\ncode\n")
    (pkg / "sub").mkdir()
    (pkg / "sub" / "c.py").write_text("w = 4\n")
    assert paired_bench.source_lines(tmp_path) == 4
