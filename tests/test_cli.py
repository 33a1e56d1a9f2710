import copy
import io
import json
import math
import tempfile
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pfrlab import cli
from pfrlab.cli import MAX_TRIALS, ConfigError, load_config, main
from pfrlab.rd import solve_at_distortion
from pfrlab.redundancy import (CODE_KINDS, ETA_KINDS, TailEstimate, estimate_tail,
                               records_to_csv, run_trials)
from conftest import binary_entropy

SEED_HEX = "ab" * 32


def write_config(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def bsc_config(**extra):
    cfg = {
        "source": ["0.5", "0.5"],
        "distortion": [["0", "1"], ["1", "0"]],
        "target_D": "0.11",
        "trials": 3000,
        "seed": SEED_HEX,
        "gamma_grid": ["-2", "0", "2", "5"],
    }
    cfg.update(extra)
    return cfg


def read_rows(path):
    lines = path.read_text().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestRdCurve:
    def test_binary_matches_analytic(self, tmp_path):
        cfg = write_config(tmp_path, bsc_config(mode="rd-curve"))
        assert main(["rd-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "rd_curve.csv")
        assert header == ["s", "D", "R", "lambda_star"]
        assert len(rows) >= 20
        ds = [float(r[1]) for r in rows]
        rs = [float(r[2]) for r in rows]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))
        checked = 0
        for d_val, r_val in zip(ds, rs):
            if 1e-6 < d_val < 0.5 - 1e-6:
                assert abs(r_val - (1.0 - binary_entropy(d_val))) <= 1e-4
                checked += 1
        assert checked >= 10

    def test_free_distortion_single_row(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": ["0.4", "0.6"],
            "distortion": [["0", "0"], ["0", "0"]],
        })
        assert main(["rd-curve", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "rd_curve.csv")
        assert len(rows) == 1
        assert float(rows[0][2]) == 0.0

    def test_malformed_pmf_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "source": ["0.5", "0.4"],
            "distortion": [["0", "1"], ["1", "0"]],
        })
        assert main(["rd-curve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "source" in capsys.readouterr().err

    def test_mode_mismatch_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(mode="redundancy-sweep"))
        assert main(["rd-curve", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "mode" in capsys.readouterr().err


class TestRedundancySweep:
    def test_deterministic_and_bounded(self, tmp_path):
        cfg = write_config(tmp_path, bsc_config())
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out2)]) == 0
        for name in ("trials.csv", "tails.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        header, rows = read_rows(out1 / "tails.csv")
        assert header == ["eta_kind", "code_kind", "gamma", "p_hat", "std_err",
                          "bound_rhs"]
        assert len(rows) == 3 * 2 * 4
        for r in rows:
            p_hat, se, rhs = float(r[3]), float(r[4]), float(r[5])
            assert p_hat - 3 * se <= rhs + 1e-12
        header, trows = read_rows(out1 / "trials.csv")
        assert len(trows) == 3000

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, bsc_config(trials=800))
        out1 = tmp_path / "t1"
        out2 = tmp_path / "t4"
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out1),
                     "--threads", "1"]) == 0
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out2),
                     "--threads", "4"]) == 0
        assert (out1 / "trials.csv").read_bytes() == (out2 / "trials.csv").read_bytes()

    def test_threads_env_not_read(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PFRLAB_THREADS", "two")
        cfg = write_config(tmp_path, bsc_config(trials=10))
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0

    def test_huge_gamma_bound_is_finite(self, tmp_path):
        # ([eta+g]_+ + 1)^2 * 2^-g used to be inf * 0 = NaN in the delta rows
        demo = json.loads((Path(__file__).parents[1] / "demos" / "bsc_sweep.json")
                          .read_text())
        cfg = write_config(tmp_path, dict(demo, trials=500, gamma_grid=["1e200"]))
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "tails.csv")
        assert len(rows) == 6
        for r in rows:
            assert r[2] == "1e+200" and float(r[3]) == 0.0 and float(r[5]) == 0.0

    def test_trials_override_and_single_trial(self, tmp_path):
        cfg = write_config(tmp_path, bsc_config())
        out = tmp_path / "one"
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out),
                     "--trials", "1"]) == 0
        _, rows = read_rows(out / "tails.csv")
        for r in rows:
            assert float(r[3]) in (0.0, 1.0)
            assert float(r[4]) == 0.0

    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 2049])
    def test_streamed_sweep_equals_whole_table(self, tmp_path, monkeypatch, n):
        # the sweep writes and counts a span of 1024 trials at a time; its
        # bytes and tail estimates are those of the whole table, with gammas
        # at column values (where >= decides) and far outside them
        cfg = load_config(write_config(tmp_path, bsc_config(trials=n)),
                          "redundancy-sweep")
        sol = solve_at_distortion(cfg.source, cfg.distortion, cfg.target_D)
        table = run_trials(sol, n, cfg.seed)
        kinds = [(eta, code) for eta in ETA_KINDS for code in CODE_KINDS]
        picks = {v for eta, code in kinds
                 for v in np.unique(table[f"{eta.lower()}_{code}"])[[0, -1]].tolist()}
        grid = ["-1e308", "-2", "0", "2", "1e308"] + [repr(v) for v in sorted(picks)]
        made = []

        def from_count(*args):
            made.append(TailEstimate.from_count(*args))
            return made[-1]

        monkeypatch.setattr(cli, "TailEstimate", SimpleNamespace(from_count=from_count))
        path = write_config(tmp_path, bsc_config(trials=n, gamma_grid=grid))
        assert main(["redundancy-sweep", "--config", path, "--out",
                     str(tmp_path)]) in (0, 1)
        buf = io.StringIO()
        records_to_csv(table, buf)
        assert (tmp_path / "trials.csv").read_text() == buf.getvalue()
        _, rows = read_rows(tmp_path / "tails.csv")
        expected = [(eta, code, float(g)) for eta, code in kinds for g in grid]
        assert len(made) == len(rows) == len(expected)
        for tail, row, (eta, code, gamma) in zip(made, rows, expected):
            ref = estimate_tail(table, eta, code, gamma)
            mean = float((table[f"{eta.lower()}_{code}"] >= gamma).mean())
            assert tail == ref and tail.p_hat.hex() == ref.p_hat.hex() == mean.hex()
            assert tail.std_err.hex() == ref.std_err.hex()
            assert row[3:5] == [format(ref.p_hat, ".9g"), format(ref.std_err, ".9g")]

    def test_sweep_memory_does_not_grow_with_trials(self, tmp_path):
        # a sweep that kept its whole table would peak about 4 times higher at
        # 20,000 trials than at 2,000; streamed, one span is live at a time
        demo = str(DEMOS / "bsc_sweep.json")

        def peak(trials):
            tracemalloc.start()
            try:
                assert main(["redundancy-sweep", "--config", demo, "--out",
                             str(tmp_path), "--trials", str(trials)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)  # imports and first-call set-up
        assert peak(20_000) <= 1.25 * peak(2_000)

    def test_missing_gamma_grid_exit_2(self, tmp_path, capsys):
        payload = bsc_config()
        del payload["gamma_grid"]
        cfg = write_config(tmp_path, payload)
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 2
        assert "gamma_grid" in capsys.readouterr().err


class TestVerifyPfr:
    def test_runs_and_passes(self, tmp_path):
        cfg = write_config(tmp_path, {
            "trials": 25_000,
            "seed": SEED_HEX,
            "pfr": {"target": ["0.8", "0.2"], "proposal": ["0.5", "0.5"]},
        })
        assert main(["verify-pfr", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "pfr_checks.csv")
        assert header == ["check", "statistic", "threshold", "passed"]
        names = [r[0] for r in rows]
        assert "marginal_tv" in names
        assert "mean_log2_k_plus_3se" in names
        assert all(r[3] == "true" for r in rows)

    def test_defaults_to_source_and_uniform(self, tmp_path):
        cfg = write_config(tmp_path, {
            "source": ["0.7", "0.3"],
            "trials": 2000,
            "seed": SEED_HEX,
        })
        assert main(["verify-pfr", "--config", cfg, "--out", str(tmp_path)]) == 0

    @pytest.mark.filterwarnings("error")
    def test_single_trial_is_finite(self, tmp_path):
        # one sample has no standard error; the 3-SE term is left out
        cfg = str(Path(__file__).parent.parent / "demos" / "pfr_verify.json")
        assert main(["verify-pfr", "--config", cfg, "--trials", "1",
                     "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "pfr_checks.csv")
        assert all(math.isfinite(float(r[1])) and r[3] == "true" for r in rows)


    def test_replays_stop_at_the_point_budget(self, tmp_path, monkeypatch):
        # the demo replays min(n, 1000) trials; at f_max = 1,000 the replays
        # stop after the trial whose points reach the budget, and at least
        # one trial is replayed whatever the budget
        replays = []
        real = cli.pfr_select

        def counted(*args, horizon_scale=1.0):
            res = real(*args, horizon_scale=horizon_scale)
            if horizon_scale != 1.0:
                replays.append(res.examined)
            return res

        monkeypatch.setattr(cli, "pfr_select", counted)
        demo = str(Path(__file__).parent.parent / "demos" / "pfr_verify.json")
        assert main(["verify-pfr", "--config", demo, "--trials", "1500",
                     "--out", str(tmp_path / "demo")]) == 0
        assert len(replays) == 1000 and sum(replays) < cli.REPLAY_POINTS
        cfg = write_config(tmp_path, {
            "trials": 200, "seed": SEED_HEX,
            "pfr": {"target": ["0.5", "0.5"], "proposal": ["0.0005", "0.9995"]}})
        for budget in (1, 10_000):
            replays.clear()
            monkeypatch.setattr(cli, "REPLAY_POINTS", budget)
            main(["verify-pfr", "--config", cfg, "--out", str(tmp_path / str(budget))])
            total = np.cumsum(replays)
            assert total[-1] >= budget and (len(total) == 1 or total[-2] < budget)
        assert 1 < len(replays) < 200


class TestGrayWyner:
    @staticmethod
    def gw_payload(trials=2000):
        return {
            "trials": trials,
            "seed": SEED_HEX,
            "gray_wyner": {
                "joint_source": [["0.5", "0"], ["0", "0.5"]],
                "u_kernel": [["1", "0"], ["1", "0"], ["0", "1"], ["0", "1"]],
                "y1_kernel": [["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]],
                "y2_kernel": [["1", "0"], ["0", "1"], ["1", "0"], ["0", "1"]],
            },
        }

    def test_common_bit_run(self, tmp_path):
        cfg = write_config(tmp_path, self.gw_payload())
        assert main(["gray-wyner", "--config", cfg, "--out", str(tmp_path)]) == 0
        header, rows = read_rows(tmp_path / "gw_trials.csv")
        assert header == ["trial", "x1", "x2", "u", "y1", "y2", "k0", "k1", "k2",
                          "len0", "len1", "len2"]
        assert len(rows) == 2000
        _, srows = read_rows(tmp_path / "gw_summary.csv")
        k0_row = [r for r in srows if r[0].startswith("mean_log2_k0")][0]
        assert float(k0_row[1]) <= float(k0_row[2]) == 2.0
        assert all(r[3] == "true" for r in srows)

    def test_degenerate_model(self, tmp_path):
        payload = {
            "trials": 50,
            "seed": SEED_HEX,
            "gray_wyner": {
                "joint_source": [["1"]],
                "u_kernel": [["1"]],
                "y1_kernel": [["1"]],
                "y2_kernel": [["1"]],
            },
        }
        cfg = write_config(tmp_path, payload)
        assert main(["gray-wyner", "--config", cfg, "--out", str(tmp_path)]) == 0
        _, rows = read_rows(tmp_path / "gw_trials.csv")
        assert all(r[6] == r[7] == r[8] == "1" for r in rows)

    def test_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, self.gw_payload(trials=500))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert main(["gray-wyner", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["gray-wyner", "--config", cfg, "--out", str(out2)]) == 0
        assert (out1 / "gw_trials.csv").read_bytes() == (out2 / "gw_trials.csv").read_bytes()

    def test_missing_block_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"trials": 10, "seed": SEED_HEX})
        assert main(["gray-wyner", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "gray_wyner" in capsys.readouterr().err

    def test_round_trip_breach_exit_4(self, tmp_path, monkeypatch):
        import pfrlab.cli as cli_mod
        monkeypatch.setattr(cli_mod, "gw_decode",
                            lambda *args, **kw: (-1, -1, -1))
        cfg = write_config(tmp_path, self.gw_payload(trials=5))
        assert main(["gray-wyner", "--config", cfg, "--out", str(tmp_path)]) == 4

    def test_batched_round_trip_breach_exit_4(self, tmp_path, monkeypatch, capsys):
        from pfrlab import gray_wyner
        decode = gray_wyner.gw_decode_chunk

        def off_by_one(model, keys, ks):
            out = decode(model, keys, ks)
            out[2, -1] += 1
            return out

        monkeypatch.setattr(gray_wyner, "gw_decode_chunk", off_by_one)
        cfg = write_config(tmp_path, self.gw_payload(trials=300))
        assert main(["gray-wyner", "--config", cfg, "--out", str(tmp_path)]) == 4
        assert "round-trip mismatch at trial 299" in capsys.readouterr().err


class TestSeedOverride:
    def test_seed_flag(self, tmp_path):
        payload = bsc_config(trials=200)
        del payload["seed"]
        cfg = write_config(tmp_path, payload)
        out = tmp_path / "s"
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out),
                     "--seed", "cd" * 32]) == 0

    def test_bad_seed_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(seed="xyz"))
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 2
        assert "seed" in capsys.readouterr().err


class TestExitCodes:
    def test_target_below_minimum_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(target_D="-0.1"))
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 2
        assert "target_D" in capsys.readouterr().err

    def test_proposal_missing_target_support_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "trials": 100, "seed": SEED_HEX,
            "pfr": {"target": ["0.5", "0.5"], "proposal": ["1", "0"]},
        })
        assert main(["verify-pfr", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "pfr.proposal" in capsys.readouterr().err

    def test_proposal_on_another_alphabet_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {
            "trials": 5, "seed": SEED_HEX,
            "pfr": {"target": ["0.5", "0.5"], "proposal": ["0.2", "0.3", "0.5"]},
        })
        assert main(["verify-pfr", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "common alphabet" in capsys.readouterr().err

    def test_proposal_overflowing_the_ratio_exit_2(self, tmp_path, capsys):
        # 0.5 / 1e-320 overflows to +inf, so no scan could ever stop
        cfg = write_config(tmp_path, {
            "trials": 5, "seed": SEED_HEX,
            "pfr": {"target": ["0.5", "0.5"], "proposal": ["1e-320", "1"]},
        })
        assert main(["verify-pfr", "--config", cfg, "--out", str(tmp_path)]) == 2
        assert "pfr.proposal" in capsys.readouterr().err

    def test_threads_below_one_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(trials=10))
        for flag in ("0", "-3"):
            assert main(["redundancy-sweep", "--config", cfg, "--out",
                         str(tmp_path), "--threads", flag]) == 2
            assert "--threads" in capsys.readouterr().err

    def test_gamma_grid_not_a_list_exit_2(self, tmp_path, capsys):
        # a number used to escape as a TypeError; a string was read per character
        for grid in (3, "12"):
            cfg = write_config(tmp_path, bsc_config(trials=10, gamma_grid=grid))
            assert main(["redundancy-sweep", "--config", cfg, "--out",
                         str(tmp_path)]) == 2
            assert "gamma_grid" in capsys.readouterr().err

    def test_boolean_trials_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(trials=True))
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 2
        assert "trials" in capsys.readouterr().err

    def test_trials_above_ceiling_exit_2(self, tmp_path, capsys, monkeypatch):
        # the sweep streams, but gray-wyner keeps its table, and 10^30 trials
        # would run until killed
        started, run = [], cli.trial_tables

        def counted(sol, n, seed):
            started.append(n)
            return run(sol, n, seed)

        monkeypatch.setattr(cli, "trial_tables", counted)
        for trials, flag in ((10 ** 30, []), (10, ["--trials", "100000000000"]),
                             (MAX_TRIALS + 1, []), (10, ["--trials", "0"])):
            cfg = write_config(tmp_path, bsc_config(trials=trials))
            assert main(["redundancy-sweep", "--config", cfg, "--out",
                         str(tmp_path), *flag]) == 2
            assert "'trials'" in capsys.readouterr().err
        assert started == []
        # the control: an accepted trial count does start the patched run
        cfg = write_config(tmp_path, bsc_config(trials=10))
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 0
        assert started == [10]
        assert load_config(cfg, "redundancy-sweep",
                           trials_override=MAX_TRIALS).trials == MAX_TRIALS
        with pytest.raises(ConfigError, match="trials"):
            load_config(cfg, "redundancy-sweep", trials_override=MAX_TRIALS + 1)

    def test_boolean_number_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(trials=10, target_D=True))
        assert main(["redundancy-sweep", "--config", cfg, "--out",
                     str(tmp_path)]) == 2
        assert "target_D" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["redundancy-sweep", "verify-pfr", "gray-wyner"])
    @pytest.mark.parametrize("field", ["seed", "trials"])
    def test_null_required_field_exit_2(self, tmp_path, capsys, mode, field):
        # null used to escape as an AttributeError (seed) or a TypeError (trials)
        payload = (TestGrayWyner.gw_payload(trials=10) if mode == "gray-wyner"
                   else bsc_config(trials=10))
        payload[field] = None
        cfg = write_config(tmp_path, payload)
        assert main([mode, "--config", cfg, "--out", str(tmp_path)]) == 2
        assert f"'{field}'" in capsys.readouterr().err

    def test_out_is_a_file_exit_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, bsc_config(trials=10))
        out = tmp_path / "taken"
        out.write_text("")
        assert main(["redundancy-sweep", "--config", cfg, "--out", str(out)]) == 2
        assert "--out" in capsys.readouterr().err



DEMOS = Path(__file__).resolve().parent.parent / "demos"
DEMO_CONFIGS = ("bsc_sweep.json", "gw_common_bit.json", "gw_noisy_3x3x3.json",
                "pfr_verify.json")
DROP = "<drop>"
RAGGED = [["0.5", "0.5"], ["1"]]
MUTATIONS = (DROP, None, True, "x", -1, -0.5, 1e308, RAGGED)
# u = 1 has p(u) = 2.5e-309, so iota(1; y) = log2(p(y | 1) / p(y)) overflows;
# the model used to pass validation and raise a ValueError in the run
TINY_U_ROW = ((("gray_wyner", "u_kernel", 3), ["1", 1e-308]),)

HALF = ["0.5", "0.5"]
# valid gray_wyner blocks whose selection tables cannot be built: (a) p_u(0)
# underflows to 0 under a u-target that puts mass there, (b) a u-target's
# ratio 1 / 1e-320 overflows, (c) a y1-target's ratio 1 / p(y1 | u) overflows
UNBUILDABLE_GW = {
    "u-mass": ((("gray_wyner",), {
        "joint_source": [["1e-200", "1"]], "u_kernel": [["1e-200", "1"], ["0", "1"]],
        "y1_kernel": [HALF] * 2, "y2_kernel": [HALF] * 4}),),
    "u-ratio": ((("gray_wyner",), {
        "joint_source": [["1e-320", "1"]], "u_kernel": [["1", "0"], ["0", "1"]],
        "y1_kernel": [HALF] * 2, "y2_kernel": [HALF] * 4}),),
    "y-ratio": ((("gray_wyner",), {
        "joint_source": [["1e-320"], ["1"]], "u_kernel": [["1"], ["1"]],
        "y1_kernel": [["1", "0"], ["0", "1"]], "y2_kernel": [HALF]}),),
}

# x1 = 1 and 2 have probability 3e-309, and u = 1 only follows them: decoder
# 1's r[1] f_max at x1 = 2 overflows to inf, on a row no trial draws
OVERFLOW_GW = ((("gray_wyner",), {
    "joint_source": [["1"], ["3e-309"], ["3e-309"]],
    "u_kernel": [["1", "0"], ["0", "1"], ["0", "1"]],
    "y1_kernel": [["1", "0"]] * 5 + [["0", "1"]], "y2_kernel": [["1"], ["1"]]}),)


def json_paths(node, prefix=()):
    """The path to every dict field and list entry of a JSON tree."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutate(cfg, path, value):
    *where, last = path
    for key in where:
        cfg = cfg[key]
    if value == DROP:
        del cfg[last]
    else:
        cfg[last] = copy.deepcopy(value)


@st.composite
def demo_mutations(draw):
    """(demo config name, trials <= 200, one or two (path, mutation) pairs)."""
    name = draw(st.sampled_from(DEMO_CONFIGS))
    cfg = json.loads((DEMOS / name).read_text())
    edits = []
    for _ in range(draw(st.integers(min_value=1, max_value=2))):
        paths = sorted(json_paths(cfg), key=repr)
        if not paths:
            break
        edits.append((draw(st.sampled_from(paths)), draw(st.sampled_from(MUTATIONS))))
        mutate(cfg, *edits[-1])
    return name, draw(st.integers(min_value=1, max_value=200)), tuple(edits)


def run_mutated(name, trials, edits):
    """Exit code of the demo's subcommand on the demo config with trials and edits."""
    cfg = json.loads((DEMOS / name).read_text())
    mode = cfg["mode"]
    cfg["trials"] = trials
    for path, value in edits:
        mutate(cfg, path, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "cfg.json"
        config.write_text(json.dumps(cfg))
        return main([mode, "--config", str(config), "--out", tmp])


class TestExitCodeFuzz:
    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(case=demo_mutations())
    @example(case=("gw_common_bit.json", 50, TINY_U_ROW))
    @example(case=("gw_common_bit.json", 50, UNBUILDABLE_GW["u-mass"]))
    @example(case=("gw_common_bit.json", 50, UNBUILDABLE_GW["u-ratio"]))
    @example(case=("gw_common_bit.json", 50, UNBUILDABLE_GW["y-ratio"]))
    @example(case=("gw_common_bit.json", 50, OVERFLOW_GW))
    def test_every_exit_is_documented(self, case):
        assert run_mutated(*case) in {0, 1, 2, 3, 4}

    @pytest.mark.parametrize("distortion, code", [
        ([["0", "1e308"], ["1e308", "0"]], 3),
        # -s * d overflows in the BA solve and the tilted information
        ([["0", "1e308"], ["1", "0"]], 0),
        # -s * d is finite, but its exp2 overflows in the tilted information
        ([["0", "1e300"], ["1", "0"]], 0)])
    def test_huge_distortions_exit_without_warnings(self, distortion, code):
        # 2^-inf = 0 and 2^inf = inf are the intended limits of an overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_mutated("bsc_sweep.json", 50,
                               ((("distortion",), distortion),)) == code

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_unresortable_gw_model_exit_2(self, capsys):
        assert run_mutated("gw_common_bit.json", 50, TINY_U_ROW) == 2
        assert "'gray_wyner'" in capsys.readouterr().err

    @pytest.mark.parametrize("edits", UNBUILDABLE_GW.values(), ids=UNBUILDABLE_GW)
    def test_unbuildable_selection_tables_exit_2(self, edits, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_mutated("gw_common_bit.json", 50, edits) == 2
        assert "'gray_wyner'" in capsys.readouterr().err

    def test_overflowing_scan_of_an_undrawn_row_exits_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_mutated("gw_common_bit.json", 200, OVERFLOW_GW) == 0

    def test_unreleased_mark_scale_exits_without_warnings(self):
        # iota(0; 1) = log2(1e-320 / 0.5) < -1024 on side 1: its scale 2^-iota
        # overflows to inf, the intended scale of a mark that is never released
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_mutated("gw_common_bit.json", 200, (
                (("gray_wyner", "y1_kernel", 0), ["1", 1e-320]),)) == 0
