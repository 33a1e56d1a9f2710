"""Tests of the benchmark itself: its contract file, failure accounting and tracing."""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def small(name, trials, **changes):
    spec = dict(run.WORKLOADS[name], trials=trials, golden={})
    spec.update(changes)
    return spec


def test_benchmark_json_names_what_the_runs_emit():
    bench = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert {w["name"] for w in bench["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.per_layer_units()


def test_known_defect_run_counts_as_failed(tmp_path):
    # uniform-Hamming m=16, D=0.5: redundancy-sweep exits 1 for every seed
    spec = small("hamming64-sweep", 300, inputs={"generate": {
        "m": 16, "D": "0.5", "gamma_grid": ["-2", "-1", "0", "1"]}})
    result = run.run_workload(spec, seed=0, seconds=0, trace=False,
                              workdir=tmp_path)
    assert not result["correct"]
    assert result["attempted"] == 1 + run.MIN_TIMED
    assert result["failed"] == result["attempted"]
    assert all(f.startswith("exit 1") for f in result["failures"])
    # the exit code fails the run; the timings are still measured
    assert result["metrics"]["wall_s"]["value"] > 0


def test_golden_digest_mismatch_counts_as_failed(tmp_path):
    spec = small("bsc-sweep", 200, golden={"tails.csv": "0" * 64,
                                           "trials.csv": "0" * 64})
    result = run.run_workload(spec, seed=1, seconds=0, trace=False,
                              workdir=tmp_path)
    assert result["failed"] == 1
    assert "golden" in result["failures"][0]


@pytest.mark.parametrize("name", ["gw-common-bit", "codec-m16"])
def test_traced_run_reports_every_layer_metric(tmp_path, name):
    result = run.run_workload(small(name, 300), seed=2, seconds=0, trace=True,
                              workdir=tmp_path)
    assert result["correct"], result["failures"]
    assert set(result["metrics"]) == set(run.per_layer_units())
    values = {m: e["value"] for m, e in result["metrics"].items()}
    assert values["pfr.select_calls"] > 0
    assert values["codebook.points_drawn"] >= values["pfr.points_examined"] > 0
    if name == "codec-m16":
        assert values["bitcodes.bits"] > 0
        assert 0 < values["codec.encode_us_p50"] <= values["codec.encode_us_p99"]
    else:
        assert values["gray_wyner.resort_points"] > 0


def test_counter_drift_fails_the_later_traced_process():
    def inv(ba_calls):
        return {"failure": None, "layers": {
            "pfr.examined_ratio": 1.0, "pfr.examined_ratio_se": 0.01,
            "pfr.select_calls": 10, "rd.ba_calls": ba_calls,
            "redundancy.bound_rhs_calls": 78, "pfr.points_examined": 30}}

    traced = [inv(22), inv(22), inv(23)]
    run.check_trace(traced)
    assert [i["failure"] is None for i in traced] == [True, True, False]
    assert "drifted" in traced[2]["failure"]


def test_examined_ratio_off_by_more_than_3_se_fails():
    inv = {"failure": None, "layers": {
        "pfr.examined_ratio": 1.05, "pfr.examined_ratio_se": 0.01,
        "pfr.select_calls": 10, "rd.ba_calls": 0,
        "redundancy.bound_rhs_calls": 0, "pfr.points_examined": 30}}
    run.check_trace([inv])
    assert "3 standard errors" in inv["failure"]


def test_self_time_excludes_child_spans(tmp_path):
    tracer = spans.Tracer()

    def refill():
        time.sleep(0.02)

    wrapped_refill = tracer.span("codebook.refill", refill)

    def select():
        wrapped_refill()
        time.sleep(0.01)

    tracer.span("pfr.select", select)()
    tracer.dump(tmp_path / "t.npz")
    layers = spans.layer_metrics(tmp_path / "t.npz")
    assert layers["codebook.refills"] == 1
    assert layers["codebook.refill_s"] >= 0.02
    assert 0.01 <= layers["pfr.select_self_s"] < layers["codebook.refill_s"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "bsc-sweep", "--seed", "0", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
