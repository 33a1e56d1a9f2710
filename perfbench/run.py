"""pfrlab's benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

Run one workload:

    python3 perfbench/run.py --workload bsc-sweep --seed 3 --seconds 20 --trace 0

Run every workload at its default seed and print every metric by name, with
its unit and sample count:

    python3 perfbench/run.py --workload all --seconds 20 --trace 0

Each measured process is a fresh interpreter (``child.py``) that runs the
real CLI subcommand with ``--threads 1``, or the codec round-trip loop, from
the checkout's ``src/``.  Load is closed-loop: one process at a time, the
next starting when the last one exits, until ``--seconds`` have passed.
Before the timed processes, one run at the workload's default seed is
checked against the golden digests in ``workloads.json`` and is not timed.
Every later process of the run must write byte-identical CSVs.

With ``--trace 0`` the last stdout line is a JSON object with the end-to-end
metrics: median ``setup_s`` (spawn until ``load_config`` returned, or until
the codec model was built), median ``wall_s`` (spawn to exit), median
``trials_per_s`` (trials / (wall_s - setup_s)) and median ``peak_rss_mb``
(the child's ``ru_maxrss``).  With ``--trace 1`` untraced and traced
processes alternate; the JSON holds the per-layer metrics of the traced ones
(medians), ``trace_overhead_frac`` and, for codec-m16, the per-symbol
latency percentiles of the untraced ones.

A process fails on a non-zero exit, a digest mismatch, a codec round-trip
mismatch, an examined ratio more than 3 standard errors from 1, or traced
counters that differ between two traced processes of one seed.  The run
exits 1 if any process failed, and 2, printing no result, when the checkout
holds no pfrlab source.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
WORKLOADS = json.loads((BENCH / "workloads.json").read_text())["workloads"]
MIN_TIMED = 3
MIN_TRACED = 2
# counters that must repeat exactly between traced processes of one seed
DETERMINISTIC = ("rd.ba_calls", "redundancy.bound_rhs_calls", "pfr.points_examined")

END_TO_END = {"setup_s": "s", "wall_s": "s", "trials_per_s": "1/s",
              "peak_rss_mb": "MB"}
CODEC_LATENCY = {"codec.encode_us_p50": "us", "codec.encode_us_p99": "us",
                 "codec.decode_us_p50": "us", "codec.decode_us_p99": "us"}


def per_layer_units() -> dict:
    units = {m: unit for m, (unit, _) in spans.LAYER_METRICS.items()}
    units.update({"pfr.examined_ratio": "ratio", "pfr.scan_yield": "ratio",
                  "gray_wyner.resort_yield": "ratio",
                  "trace_overhead_frac": "ratio"})
    units.update(CODEC_LATENCY)
    return units


def seed_hex(n: int) -> str:
    return hashlib.sha256(f"perfbench-seed:{n}".encode()).hexdigest()


def hamming_config(m: int, distortion: str, gamma_grid, trials: int) -> dict:
    """redundancy-sweep config for a uniform m-ary source under Hamming distortion."""
    return {"mode": "redundancy-sweep",
            "source": [repr(1.0 / m)] * m,
            "distortion": [["0" if i == j else "1" for j in range(m)]
                           for i in range(m)],
            "target_D": distortion, "trials": trials, "seed": seed_hex(0),
            "gamma_grid": gamma_grid}


def child_args(spec: dict, seed: int, out: Path) -> list:
    """Arguments after MARK TRACE for one process of the workload."""
    if spec["kind"] == "codec":
        gen = spec["inputs"]["generate"]
        return ["codec", str(gen["m"]), gen["D"], str(spec["trials"]),
                seed_hex(seed)]
    return ["cli", spec["subcommand"], "--config", spec["config_path"],
            "--out", str(out), "--threads", "1",
            "--trials", str(spec["trials"]), "--seed", seed_hex(seed)]


def prepare(spec: dict, workdir: Path) -> dict:
    """Resolve the workload's inputs, writing a generated config into workdir."""
    spec = dict(spec)
    inputs = spec["inputs"]
    if spec["kind"] == "cli":
        if "config" in inputs:
            path = ROOT / inputs["config"]
            if not path.is_file():
                raise FileNotFoundError(f"workload input {path} is missing")
        else:
            gen = inputs["generate"]
            path = workdir / "config.json"
            path.write_text(json.dumps(hamming_config(
                gen["m"], gen["D"], gen["gamma_grid"], spec["trials"])))
        spec["config_path"] = str(path)
    return spec


def digest_dir(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.glob("*.csv"))}


def invoke(spec: dict, seed: int, out: Path, trace: bool) -> dict:
    """Spawn one child, wait for it, and return its measurements and failure, if any."""
    out.mkdir(parents=True)
    mark_path, trace_path = out / "mark.json", out / "trace.npz"
    argv = [sys.executable, str(BENCH / "child.py"), str(mark_path),
            str(trace_path) if trace else "-"] + child_args(spec, seed, out)
    # the child must import pfrlab from the checkout's src/, not a PYTHONPATH one
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    with open(out / "stdout.txt", "w") as so, open(out / "stderr.txt", "w") as se:
        t0 = time.monotonic()
        proc = subprocess.Popen(argv, stdout=so, stderr=se, cwd=ROOT, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    inv = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024.0, "failure": None}
    if proc.returncode != 0:
        err = (out / "stderr.txt").read_text().strip().splitlines()
        inv["failure"] = f"exit {proc.returncode}" + (f": {err[-1]}" if err else "")
    try:
        mark = json.loads(mark_path.read_text())
    except (OSError, ValueError):
        mark = {}
    if "setup_t" in mark:
        inv["setup"] = mark["setup_t"] - t0
    elif inv["failure"] is None:
        inv["failure"] = "child wrote no set-up mark"
    if spec["kind"] == "codec":
        inv["digests"] = {"codec": mark.get("digest")}
        inv["encode_ns"] = mark.get("encode_ns", [])
        inv["decode_ns"] = mark.get("decode_ns", [])
        if mark.get("mismatches") and inv["failure"] is None:
            inv["failure"] = f"{mark['mismatches']} round-trip mismatches"
    else:
        inv["digests"] = digest_dir(out)
    if trace and trace_path.is_file():
        inv["layers"] = spans.layer_metrics(trace_path)
    shutil.rmtree(out)
    return inv


def check_digests(inv: dict, expected: dict, what: str) -> None:
    if inv["failure"] is None and inv["digests"] != expected:
        inv["failure"] = f"CSV digests differ from {what}: {inv['digests']}"


def check_trace(traced: list) -> None:
    """Examined ratio within 3 standard errors of 1; exact counters repeat."""
    first = None
    for inv in traced:
        layers = inv.get("layers")
        if inv["failure"] is not None:
            continue
        if layers is None:
            inv["failure"] = "traced child wrote no trace"
            continue
        ratio, se = layers["pfr.examined_ratio"], layers["pfr.examined_ratio_se"]
        if layers["pfr.select_calls"] and abs(ratio - 1.0) > 3.0 * se:
            inv["failure"] = (f"pfr.examined_ratio {ratio:.5f} is more than "
                              f"3 standard errors ({se:.5f}) from 1")
            continue
        counts = {k: layers[k] for k in DETERMINISTIC}
        if first is None:
            first = counts
        elif counts != first:
            inv["failure"] = f"traced counters drifted: {counts} != {first}"


def end_to_end(timed: list, trials: int) -> dict:
    ok = [i for i in timed if "setup" in i]
    if not ok:
        return {}
    return {"setup_s": statistics.median(i["setup"] for i in ok),
            "wall_s": statistics.median(i["wall"] for i in ok),
            "trials_per_s": statistics.median(trials / (i["wall"] - i["setup"])
                                              for i in ok),
            "peak_rss_mb": statistics.median(i["rss_mb"] for i in ok)}


def codec_latency(timed: list) -> dict:
    out = {}
    for step in ("encode", "decode"):
        ns = [v for i in timed for v in i.get(f"{step}_ns", [])]
        if len(ns) > 1:
            cuts = statistics.quantiles(ns, n=100, method="inclusive")
            out[f"codec.{step}_us_p50"] = cuts[49] / 1e3
            out[f"codec.{step}_us_p99"] = cuts[98] / 1e3
    return out


def layers(traced: list, timed: list) -> dict:
    ok = [i["layers"] for i in traced if i.get("layers")]
    if not ok or not timed:
        return {}
    units = per_layer_units()
    out = {m: statistics.median(layer[m] for layer in ok)
           for m in units if m in ok[0]}
    out["trace_overhead_frac"] = (statistics.median(i["wall"] for i in traced)
                                  / statistics.median(i["wall"] for i in timed)
                                  - 1.0)
    for m in CODEC_LATENCY:
        out[m] = 0.0
    out.update(codec_latency(timed))
    return out


def run_workload(spec: dict, seed: int, seconds: float, trace: bool,
                 workdir: Path) -> dict:
    """Measure one workload for `seconds`; returns the result and its samples."""
    spec = prepare(spec, workdir)
    default = spec["default_seed"]
    golden = spec.get("golden") or None
    n = 0

    def one(s, traced=False):
        nonlocal n
        n += 1
        return invoke(spec, s, workdir / f"p{n}", traced)

    warm = one(default)
    if golden is not None:
        check_digests(warm, golden, "the golden digests")
    reference = golden if seed == default else None
    timed, traced = [], []
    deadline = time.monotonic() + seconds
    while (time.monotonic() < deadline or len(timed) < MIN_TIMED
           or (trace and len(traced) < MIN_TRACED)):
        traced_now = trace and len(traced) < len(timed)
        inv = one(seed, traced_now)
        if reference is None and inv["failure"] is None:
            reference = inv["digests"]
        check_digests(inv, reference, f"the first process of seed {seed}")
        (traced if traced_now else timed).append(inv)
    if trace:
        check_trace(traced)

    everything = [warm] + timed + traced
    failures = [i["failure"] for i in everything if i["failure"] is not None]
    if trace:
        metrics, units = layers(traced, timed), per_layer_units()
    else:
        metrics, units = end_to_end(timed, spec["trials"]), END_TO_END
    return {"correct": not failures, "attempted": len(everything),
            "failed": len(failures),
            "metrics": {m: {"value": v, "unit": units[m]}
                        for m, v in metrics.items()},
            "samples": {"processes": len(timed), "traced": len(traced),
                        "codec_symbols": sum(len(i.get("encode_ns", []))
                                             for i in timed)},
            "failures": failures}


def environment() -> dict:
    try:
        # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10,
                                env=dict(os.environ,
                                         GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"commit": commit, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__}


def print_table(name: str, result: dict) -> None:
    samples = result["samples"]
    for metric, entry in result["metrics"].items():
        n = (samples["codec_symbols"] if metric.startswith("codec.")
             else samples["traced"] if samples["traced"] and
             metric != "trace_overhead_frac" else samples["processes"])
        print(f"{name:16s} {metric:32s} {entry['value']:14.6g} "
              f"{entry['unit']:6s} n={n}")
    frac = result["failed"] / result["attempted"]
    print(f"{name:16s} {'failed_frac':32s} {frac:14.6g} {'ratio':6s} "
          f"n={result['attempted']}")
    for failure in result["failures"]:
        print(f"{name:16s} FAILED: {failure}", file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: each workload's default_seed)")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "pfrlab" / "__init__.py").is_file():
        print(f"perfbench: no pfrlab source under {ROOT / 'src'}; run the "
              "benchmark from a pfrlab checkout", file=sys.stderr)
        return 2

    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    print("# environment " + json.dumps(env), flush=True)
    results = {}
    for name in names:
        spec = WORKLOADS[name]
        seed = spec["default_seed"] if args.seed is None else args.seed
        workdir = WORK / f"{name}-{seed}-{os.getpid()}"
        workdir.mkdir(parents=True)
        try:
            results[name] = run_workload(spec, seed, args.seconds,
                                         bool(args.trace), workdir)
        except FileNotFoundError as e:
            print(f"perfbench: {e}", file=sys.stderr)
            return 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print_table(name, results[name])
    if args.workload == "all":
        print(json.dumps({"environment": env, "results": results}))
    else:
        r = results[args.workload]
        print(json.dumps({k: r[k] for k in ("correct", "attempted", "failed",
                                            "metrics")}))
    return 0 if all(r["correct"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
