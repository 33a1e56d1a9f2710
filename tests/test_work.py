"""Work counts of the CLI runs at 2,000 trials: SHA-256 digests, points drawn
and engine rounds.  A change that hashes more, or draws more points, fails
here rather than only in a benchmark run.  The counts cover every path a run
takes: key derivation, the batched engine, the streaming cross-checks, and
the Gray-Wyner decode."""

import json

import pytest

from conftest import SHA256, substitute_sha256
from pfrlab import codebook
from pfrlab.cli import main
from test_golden import TRIALS, demo, hamming

# case -> (subcommand, config, (digests, points drawn, rounds)); the scans of
# the bsc demo (f_max = 1.78) and of the Gray-Wyner demo draw 4-point SHA-256
# blocks, those of uniform-Hamming m = 64 (f_max = 32) 8-point time groups.
# The Gray-Wyner demo runs two 1024-trial chunks, each decoded with the keys
# its encoder derived
WORK = {
    "sweep-bsc": ("redundancy-sweep", lambda: demo("bsc_sweep.json"),
                  (16_382, 8_764, 6)),
    "sweep-hamming64": ("redundancy-sweep", lambda: hamming(64, "0.5"),
                        (49_412, 74_824, 63)),
    "gw-common-bit": ("gray-wyner", lambda: demo("gw_common_bit.json"),
                      (44_878, 43_340, 34)),
}


@pytest.mark.parametrize("case", sorted(WORK))
def test_digests_points_and_rounds(tmp_path, monkeypatch, case):
    command, config, expected = WORK[case]
    work = {"digests": 0, "points": 0, "rounds": 0}

    def sha256(data=b""):
        work["digests"] += 1
        return SHA256(data)

    def draw_points(gap_keys, mark_keys, cum, start, n, clock):
        work["points"] += len(gap_keys) * n
        work["rounds"] += 1
        return draw(gap_keys, mark_keys, cum, start, n, clock)

    draw = codebook.draw_points
    substitute_sha256(monkeypatch, sha256)
    monkeypatch.setattr(codebook, "draw_points", draw_points)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config()))
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                 "--trials", TRIALS]) == 0
    assert (work["digests"], work["points"], work["rounds"]) == expected
