"""Paired benchmark runs of two commits, written to BENCH_<label>.json.

    python3 tools/paired_bench.py --parent HEAD~1 --change HEAD \
        --workload bsc-sweep --seeds 801-810 --seconds 20 --label short_scans

Each commit is exported with ``git archive`` into a fresh temporary
directory, so only committed files are measured.  For every workload and
seed, one pair of ``perfbench/run.py --workload W --seed S --seconds T
--trace X`` runs is made, one per commit, one after the other; the commit
that goes first alternates from pair to pair, so a drift in the machine's
speed falls on both sides alike.  Each run's own JSON result line is kept.

The file holds every run, and per workload and metric (the end-to-end ones,
or with ``--trace 1`` the per-layer ones) the median and quartiles of each
side, the change's median over the parent's, the pairs the change won (a win
is a better value than the parent's run of the same pair, in the direction
BENCHMARK.json gives) and a verdict:

* ``gain``: the change won at least 9 in 10 pairs, and its median is better
  than the parent's by more than the parent's interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json (a fraction of the parent's);
* ``unresolved``: neither, but the parent's interquartile range is wider
  than that bound, and some run of the change reads no better than some run
  of the parent, so the runs cannot tell a regression within the bound;
* ``within bound``: neither, and the spread is narrow enough to tell;
* ``no gain``: neither a gain nor a regression, for a metric without a bound.

The tool exits 1 when a run reports failed processes, after writing the file.
"""

import argparse
import json
import shlex
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list:
    """'801-805,900' -> [801, 802, 803, 804, 805, 900]."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def export(rev: str, into: Path) -> str:
    """Write the files of rev into the directory into; returns its full commit id."""
    commit = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"],
                            cwd=ROOT, check=True, capture_output=True,
                            text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT,
                             check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)
    return commit


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One perfbench run: its environment line and its JSON result line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line.split(" ", 2)[2]) for line in lines
                if line.startswith("# environment ")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                  "error": proc.stderr.strip().splitlines()[-1:]}
    return {"exit": proc.returncode, "environment": env, **result}


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(entry: dict, bound, parent: list, change: list) -> str:
    """The verdict on one metric's summary entry (see the module docstring);
    bound is the metric's relative bound or None, parent and change its runs."""
    sign = 1.0 if entry["better"] == "higher" else -1.0
    base, iqr = entry["parent"]["median"], entry["parent"]["iqr"]
    gap = sign * (entry["change"]["median"] - base)
    if 10 * entry["pairs_won"] >= 9 * entry["pairs"] and gap > iqr:
        return "gain"
    if bound is None:
        return "no gain"
    if -gap > bound * abs(base):
        return "regression"
    # every run of the change better than every run of the parent settles it
    settled = min(sign * v for v in change) > max(sign * v for v in parent)
    if iqr > bound * abs(base) and not settled:
        return "unresolved"
    return "within bound"


def summarize(runs: list, better: dict, bounds=None) -> dict:
    """Per metric: each side's median and quartiles, the ratio of medians, the
    pairs the change won and the verdict, under the relative bounds of the
    metrics that have one.  runs are dicts with pair, side and metrics."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    out = {}
    for metric, direction in better.items():
        both = [(p["parent"][metric], p["change"][metric]) for p in pairs.values()
                if all(metric in p.get(side, {}) for side in SIDES)]
        if not both:
            continue
        entry = {"better": direction, "pairs": len(both)}
        for side, values in zip(SIDES, zip(*both)):
            q1, median, q3 = quartiles(sorted(values))
            entry[side] = {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}
        base = entry["parent"]["median"]
        entry["change_over_parent"] = entry["change"]["median"] / base if base else None
        sign = 1.0 if direction == "higher" else -1.0
        entry["pairs_won"] = sum(sign * (c - p) > 0 for p, c in both)
        entry["verdict"] = verdict(entry, (bounds or {}).get(metric), *zip(*both))
        out[metric] = entry
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent")
    parser.add_argument("--change", required=True, help="git revision of the change")
    parser.add_argument("--workload", action="append", required=True,
                        help="a perfbench workload; repeat for more")
    parser.add_argument("--seeds", required=True, help="seeds, e.g. 801-810,900")
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", required=True, help="writes BENCH_<label>.json")
    parser.add_argument("--what", default="", help="one line on what is compared")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["per_layer" if args.trace else "end_to_end"]
    better = {m["name"]: m["better"] for m in metrics}
    bounds = {m["name"]: m["bound"] for m in metrics if "bound" in m}
    seeds = parse_seeds(args.seeds)
    out = {"what": args.what,
           "command": "python3 tools/paired_bench.py " + shlex.join(
               sys.argv[1:] if argv is None else argv),
           "run_command": "python3 perfbench/run.py --workload W --seed S "
                          f"--seconds {args.seconds:g} --trace {args.trace}",
           "workloads": {}}
    ok = True
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {}
        for side in SIDES:
            checkouts[side] = Path(tmp) / side
            out[f"{side}_commit"] = export(getattr(args, side), checkouts[side])
        for workload in args.workload:
            runs = []
            for pair, seed in enumerate(seeds):
                order = SIDES if pair % 2 == 0 else SIDES[::-1]
                for side in order:
                    run = run_once(checkouts[side], workload, seed, args.seconds,
                                   args.trace)
                    ok &= run["exit"] == 0 and run["correct"]
                    metrics = {m: v["value"] for m, v in run["metrics"].items()}
                    runs.append({"pair": pair, "seed": seed, "side": side,
                                 "first": side == order[0], **run,
                                 "metrics": metrics})
                    print(f"{workload} seed {seed} {side}: "
                          + json.dumps(metrics), flush=True)
            out["workloads"][workload] = {"seeds": seeds,
                                          "summary": summarize(runs, better, bounds),
                                          "runs": runs}
    path = ROOT / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {path}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
