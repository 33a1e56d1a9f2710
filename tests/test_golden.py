"""Golden digests: every CSV of every subcommand, byte for byte, at 2,000 trials.

The digests and exit codes were recorded before the selection scan, the
per-span trial code, the Gray-Wyner decoder sides, the bound tables and the
law tables (row pmfs, weighted KL sums, information-density and re-sort
tables) were each reduced to one implementation; the uniform-Hamming m = 256 case
(f_max = 128, so every scan runs over many points) was recorded before the
sweeps moved to the batched trial engine.  A refactor must leave every byte
unchanged.  Each config runs at --threads 1 and 2; trials always run on one
thread, so the flag is accepted and changes nothing.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pfrlab.cli import main

DEMOS = Path(__file__).resolve().parent.parent / "demos"
TRIALS = "2000"


def demo(name, drop_mode=False):
    cfg = json.loads((DEMOS / name).read_text())
    if drop_mode:
        del cfg["mode"]
    return cfg


def hamming(m, distortion):
    return {"source": [repr(1.0 / m)] * m,
            "distortion": [["0" if i == j else "1" for j in range(m)]
                           for i in range(m)],
            "target_D": distortion, "seed": "5f2e" * 16,
            "gamma_grid": [str(g) for g in range(-2, 11)]}


def squared_error5():
    """Non-uniform five-level source under squared-error distortion: the
    shipped demo config."""
    return demo("sqerr5_sweep.json")


# case -> (subcommand, config, exit code, {csv name: SHA-256})
CASES = {
    "rd-curve-bsc": ("rd-curve", lambda: demo("bsc_sweep.json", drop_mode=True), 0, {
        "rd_curve.csv": "5e0aa915fc922ef08926207dd1a520604dc6b2bc572ce4290553d0388e583b82"}),
    "verify-pfr": ("verify-pfr", lambda: demo("pfr_verify.json"), 0, {
        "pfr_checks.csv": "eb0446de816fb996b5fecab881fbc2171e533c5b0d2d5cc117be7a82b21db48f"}),
    "sweep-bsc": ("redundancy-sweep", lambda: demo("bsc_sweep.json"), 0, {
        "tails.csv": "b022cdf3f4522b1c97311b37d91d83b82ccdc3ab20e3ab125e6529e4666e0370",
        "trials.csv": "7cf8ec21f95c1c4fff1cc56211b6f6d1a40126b408ad2aa8f2bbfe4147c2a30e"}),
    "sweep-hamming64": ("redundancy-sweep", lambda: hamming(64, "0.5"), 0, {
        "tails.csv": "d5910114ddd8b7c57785524d6e4f8a76cdb34b915b973528d3c471276685ab30",
        "trials.csv": "1834ad3b2aaee1e7de17a92b18d58eb28bab7594ffebeb53b4b57ae0aa62e48b"}),
    "sweep-hamming256": ("redundancy-sweep", lambda: hamming(256, "0.5"), 0, {
        "tails.csv": "31f2995ec67648b2e0c2330aa65c4fc16ebf6d9e1d65d75e25576a99c6fd9b0b",
        "trials.csv": "4a135c756610a60afedacdfa0012eb659f14fdc86c5b39908092133f368d847b"}),
    "sweep-sqerr5": ("redundancy-sweep", squared_error5, 0, {
        "tails.csv": "34e25f860426f77766d682a64b1dc70eb94c3c520036a64a1fb2799e057dc5a8",
        "trials.csv": "ee76afc1be91177dd8a464a6848c0ee1c6c55e599583e4b4b20f3b201aa34e85"}),
    "gw-common-bit": ("gray-wyner", lambda: demo("gw_common_bit.json"), 0, {
        "gw_summary.csv": "166c794c5dae7bf1ac38b9d8604cd887b419c8f9c6018a0eaf99c979b1bf589c",
        "gw_trials.csv": "2464537755ec05c626d91fea5ec4b1f03989312ff6e4954221c9741ca164f264"}),
    # non-binary: n1 = n2 = nu = ny1 = 3 and ny2 = 4, every kernel full-support
    "gw-noisy-3x3x3": ("gray-wyner", lambda: demo("gw_noisy_3x3x3.json"), 0, {
        "gw_summary.csv": "4781452038b21cba10ef13758de7fdad5533b832a65a9909a415d3950a1321f3",
        "gw_trials.csv": "a9e0f49129f9de5704a3682c80b29756939709b02a186b28531398c59c33f2cd"}),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_csv_digests_and_exit_code(tmp_path, case, threads):
    command, config, code, golden = CASES[case]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config()))
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out),
                 "--trials", TRIALS, "--threads", threads]) == code
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
           for p in sorted(out.glob("*.csv"))}
    assert got == golden
