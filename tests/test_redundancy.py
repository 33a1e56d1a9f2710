import io
import math
import re
import warnings

import numpy as np
import pytest

from pfrlab import (FinitePmf, Seed, UnsupportedEta, bound_rhs, estimate_tail,
                    records_to_csv, run_trials, summary_stats)
from pfrlab import redundancy
from pfrlab.redundancy import CSV_HEADER

SEED = Seed.from_int(2024)
# the bound variants that are not clipped at 1
UNCLIPPED = (("PRR", "plain", "general"), ("PSDR", "plain", "psdr_simple"),
             ("PSDR", "plain", "psdr_tight"), ("PSDR", "delta", "psdr_prefix"))


@pytest.fixture(scope="module")
def bsc_records(bsc_sol, uniform2, hamming2):
    return run_trials(bsc_sol, uniform2, hamming2, 4000, SEED)


class TestRecords:
    def test_lengths_match_codes(self, bsc_records):
        for r in bsc_records[:500]:
            assert r.len_plain == r.k.bit_length() - 1
            n = r.k.bit_length()
            assert r.len_delta == n + 2 * n.bit_length() - 2

    def test_tilted_shift_identity(self, bsc_sol, bsc_records):
        lam, d0 = bsc_sol.slope_lambda, bsc_sol.distortion
        for r in bsc_records:
            assert abs(r.j_xd - (r.j_x - lam * (r.dist - d0))) <= 1e-9

    def test_iota_identity(self, bsc_records):
        for r in bsc_records:
            assert abs(r.j_xd - r.iota) <= 1e-6

    def test_redundancy_fields_consistent(self, bsc_sol, bsc_records):
        for r in bsc_records[:500]:
            lk = math.log2(r.k)
            assert r.prr_plain == pytest.approx(lk - bsc_sol.rate, abs=1e-12)
            assert r.psr_plain == pytest.approx(lk - r.j_x, abs=1e-12)
            assert r.psdr_plain == pytest.approx(lk - r.j_xd, abs=1e-12)
            assert r.prr_delta == pytest.approx(r.len_delta - bsc_sol.rate, abs=1e-12)

    def test_mean_distortion_near_target(self, bsc_sol, bsc_records):
        dist = np.array([r.dist for r in bsc_records])
        se = dist.std(ddof=1) / math.sqrt(dist.size)
        assert abs(dist.mean() - bsc_sol.distortion) <= 3 * se + 1e-9

    def test_deterministic_and_threaded(self, bsc_sol, uniform2, hamming2):
        a = run_trials(bsc_sol, uniform2, hamming2, 500, SEED)
        b = run_trials(bsc_sol, uniform2, hamming2, 500, SEED)
        assert a == b

    def test_prefix_independent_of_total(self, bsc_sol, uniform2, hamming2):
        a = run_trials(bsc_sol, uniform2, hamming2, 50, SEED)
        b = run_trials(bsc_sol, uniform2, hamming2, 200, SEED)
        assert a == b[:50]


class TestTails:
    def test_vacuous_thresholds(self, bsc_records):
        assert estimate_tail(bsc_records, "PRR", "plain", -1e6).p_hat == 1.0
        assert estimate_tail(bsc_records, "PRR", "plain", 1e6).p_hat == 0.0

    def test_single_trial(self, bsc_sol, uniform2, hamming2):
        recs = run_trials(bsc_sol, uniform2, hamming2, 1, SEED)
        t = estimate_tail(recs, "PSDR", "delta", 0.0)
        assert t.p_hat in (0.0, 1.0) and t.std_err == 0.0 and t.n == 1

    def test_std_err_formula(self, bsc_records):
        t = estimate_tail(bsc_records, "PSR", "plain", 0.5)
        assert t.std_err == pytest.approx(
            math.sqrt(t.p_hat * (1 - t.p_hat) / t.n), abs=1e-15)

    def test_unknown_kind_rejected(self, bsc_records):
        with pytest.raises(UnsupportedEta):
            estimate_tail(bsc_records, "XYZ", "plain", 0.0)
        with pytest.raises(ValueError):
            estimate_tail(bsc_records, "PRR", "huffman", 0.0)


class TestBoundRhs:
    def test_psdr_simple_values(self, bsc_sol, uniform2, hamming2):
        assert bound_rhs(bsc_sol, uniform2, hamming2, "PSDR", "plain", 2.0,
                         "psdr_simple") == pytest.approx(1.0)
        assert bound_rhs(bsc_sol, uniform2, hamming2, "PSDR", "plain", 5.0,
                         "psdr_simple") == pytest.approx(0.125)

    def test_general_psdr_collapses(self, bsc_sol, uniform2, hamming2):
        # with eta = iota the general form is 2^{-g+1} (1 + E[2^-iota])
        for g in [0.0, 2.0, 4.0]:
            lhs = bound_rhs(bsc_sol, uniform2, hamming2, "PSDR", "plain", g,
                            "general")
            tight = bound_rhs(bsc_sol, uniform2, hamming2, "PSDR", "plain", g,
                              "psdr_tight")
            assert lhs == pytest.approx(tight, rel=1e-9)
            assert lhs <= 2.0 ** (-g + 2.0) + 1e-12

    def test_full_support_exp_iota_is_one(self, bsc_sol, uniform2, hamming2):
        # full-support solution: E[2^-iota] = 1, so the tight bound at g = 1
        # is 2^{-1+1} (1 + 1) = 2
        got = bound_rhs(bsc_sol, uniform2, hamming2, "PSDR", "plain", 1.0,
                        "psdr_tight")
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_clipped_never_exceeds_general(self, bsc_sol, uniform2, hamming2):
        for eta in ("PRR", "PSR", "PSDR"):
            for g in [-2.0, 0.0, 1.0, 3.0, 6.0]:
                clip = bound_rhs(bsc_sol, uniform2, hamming2, eta, "plain", g)
                gen = bound_rhs(bsc_sol, uniform2, hamming2, eta, "plain", g,
                                "general")
                assert clip <= gen + 1e-12
                assert clip <= 1.0 + 1e-12

    def test_empirical_tails_below_bounds(self, bsc_sol, uniform2, hamming2,
                                          bsc_records):
        for eta in ("PRR", "PSR", "PSDR"):
            for code in ("plain", "delta"):
                for g in range(-2, 11):
                    t = estimate_tail(bsc_records, eta, code, g)
                    rhs = bound_rhs(bsc_sol, uniform2, hamming2, eta, code, g)
                    assert t.p_hat - 3 * t.std_err <= rhs + 1e-12

    def test_huge_gamma_is_finite(self, bsc_sol, uniform2, hamming2):
        # ([eta+g]_+ + 1)^2 overflows to inf where 2^-g underflows to 0; the
        # true term tends to 0, so the bound must not be 0 * inf = NaN
        for eta, variant in (("PRR", "prefix"), ("PSR", "prefix"),
                             ("PSDR", "prefix"), ("PSDR", "psdr_prefix")):
            for g in (1e150, 1e200, 1e308):
                assert bound_rhs(bsc_sol, uniform2, hamming2, eta, "delta", g,
                                 variant) == 0.0
        with np.errstate(over="ignore"):
            assert bound_rhs(bsc_sol, uniform2, hamming2, "PSR", "delta",
                             -1e200) == pytest.approx(1.0)

    def test_steep_negative_gamma_is_inf(self, bsc_sol, uniform2, hamming2):
        # 2^{-g+c} overflows a float; the trivially valid bound is +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta, code, variant in UNCLIPPED:
                assert bound_rhs(bsc_sol, uniform2, hamming2, eta, code, -2000.0,
                                 variant) == math.inf

    def test_unclipped_values_unchanged(self, bsc_sol, uniform2, hamming2):
        # the reference is the plain float power 2.0 ** (-g + c)
        rows = bsc_sol.kernel.rows
        iota_tab, j_x, _ = redundancy._tables(bsc_sol)
        w = uniform2.probs[:, None] * rows
        mask = w > 0.0
        weights, iota = w[mask], iota_tab[mask]
        eta = np.full(weights.size, bsc_sol.rate)
        for g in [float(g) for g in range(-2, 11)] + [1e3]:
            want = {
                "general": float(2.0 ** (-g + 1.0) * np.dot(
                    weights, np.exp2(-eta) * (np.exp2(iota) + 1.0))),
                "psdr_simple": 2.0 ** (-g + 2.0),
                "psdr_tight": float(2.0 ** (-g + 1.0)
                                    * (1.0 + np.dot(weights, np.exp2(-iota)))),
                "psdr_prefix": float(2.0 ** (-g + 3.0) * np.dot(
                    weights, (np.clip(iota + g, 0.0, 1e150) + 1.0) ** 2)),
            }
            for eta_kind, code, variant in UNCLIPPED:
                got = bound_rhs(bsc_sol, uniform2, hamming2, eta_kind, code, g,
                                variant)
                assert got.hex() == want[variant].hex()

    def test_variant_validation(self, bsc_sol, uniform2, hamming2):
        with pytest.raises(UnsupportedEta):
            bound_rhs(bsc_sol, uniform2, hamming2, "PSR", "plain", 1.0,
                      "psdr_simple")
        with pytest.raises(ValueError):
            bound_rhs(bsc_sol, uniform2, hamming2, "PSR", "plain", 1.0, "nope")


class TestSummary:
    def test_targets_and_bounds(self, bsc_sol, bsc_records):
        s = summary_stats(bsc_records, bsc_sol)
        assert s.rate == bsc_sol.rate
        assert s.plain_target == pytest.approx(bsc_sol.rate + 2.01)
        assert s.delta_target == pytest.approx(
            bsc_sol.rate + math.log2(bsc_sol.rate + 3.01) + 4.01)
        assert s.mean_len_plain + 3 * s.se_len_plain <= s.plain_target
        assert s.mean_len_delta + 3 * s.se_len_delta <= s.delta_target
        assert s.entropy_k <= s.entropy_k_bound + 0.05
        assert abs(s.mean_j_x - bsc_sol.rate) <= 3 * s.se_j_x + 1e-9

    def test_mean_log_k_below_rate_plus_one(self, bsc_sol, bsc_records):
        s = summary_stats(bsc_records, bsc_sol)
        assert s.mean_log2_k + 3 * s.se_log2_k <= bsc_sol.rate + 1.0

    def test_prefix_free_means_nonnegative(self, bsc_records):
        # prefix-free redundancies have nonnegative expectation
        for eta in ("PRR", "PSR", "PSDR"):
            vals = np.array([getattr(r, f"{eta.lower()}_delta")
                             for r in bsc_records])
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert vals.mean() >= -3 * se


class TestDegenerateSource:
    def test_single_symbol_source(self):
        from pfrlab import DistortionMatrix, solve_at_distortion
        src = FinitePmf(np.array([1.0]))
        d = DistortionMatrix(np.array([[0.0, 1.0]]))
        sol = solve_at_distortion(src, d, 0.0)
        assert sol.rate == 0.0
        recs = run_trials(sol, src, d, 2000, SEED)
        assert all(r.iota == 0.0 for r in recs)
        assert all(r.k == 1 for r in recs)  # constant ratio: first point wins
        s = summary_stats(recs, sol)
        assert s.mean_len_plain <= 2.01


class TestCsv:
    def test_schema_and_digits(self, bsc_records):
        buf = io.StringIO()
        records_to_csv(bsc_records[:50], buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 51
        row = lines[1].split(",")
        assert len(row) == 16
        for cell in row[6:]:
            if "." in cell:
                digits = re.sub(r"[-.]|e.*", "", cell).lstrip("0")
                assert len(digits) <= 9

    def test_byte_identical(self, bsc_sol, uniform2, hamming2):
        out = []
        for _ in range(2):
            recs = run_trials(bsc_sol, uniform2, hamming2, 300, SEED)
            buf = io.StringIO()
            records_to_csv(recs, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]
