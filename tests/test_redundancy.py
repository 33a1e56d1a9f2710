import io
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pfrlab import (CODE_KINDS, ETA_KINDS, DistortionMatrix, FinitePmf, Seed,
                    UnsupportedEta, arrival_stream, bound_rhs, delta_code_length,
                    derive_subseed, encode_delta, encode_plain, estimate_tail,
                    pfr_select, plain_code_length, records_to_csv, run_trials,
                    sample_pmf, solve_at_distortion, summary_stats)
from pfrlab import redundancy
from pfrlab.redundancy import CSV_HEADER
from conftest import (PROPERTY, assert_same_table, head, iota_reference, rows,
                      uniform_hamming)

SEED = Seed.from_int(2024)
# the bound variants that are not clipped at 1
UNCLIPPED = (("PRR", "plain", "general"), ("PSDR", "plain", "psdr_simple"),
             ("PSDR", "plain", "psdr_tight"), ("PSDR", "delta", "psdr_prefix"))


@pytest.fixture(scope="module")
def bsc_table(bsc_sol):
    return run_trials(bsc_sol, 4000, SEED)


class TestRecords:
    def test_table_columns_follow_the_csv_header(self, bsc_table):
        assert ",".join(bsc_table) == CSV_HEADER
        assert {col.shape for col in bsc_table.values()} == {(4000,)}
        assert bsc_table["trial"].tolist() == list(range(4000))

    def test_lengths_match_codes(self, bsc_table):
        for k, lp, ld in rows(head(bsc_table, 500), "k", "len_plain", "len_delta"):
            assert lp == k.bit_length() - 1
            n = k.bit_length()
            assert ld == n + 2 * n.bit_length() - 2

    def test_tilted_shift_identity(self, bsc_sol, bsc_table):
        lam, d0 = bsc_sol.slope_lambda, bsc_sol.distortion
        t = bsc_table
        assert np.all(np.abs(t["j_xd"] - (t["j_x"] - lam * (t["dist"] - d0))) <= 1e-9)

    def test_iota_identity(self, bsc_table):
        assert np.all(np.abs(bsc_table["j_xd"] - bsc_table["iota"]) <= 1e-6)

    def test_redundancy_fields_consistent(self, bsc_sol, bsc_table):
        for k, jx, jxd, ld, prr, psr, psdr, prr_d in rows(
                head(bsc_table, 500), "k", "j_x", "j_xd", "len_delta",
                "prr_plain", "psr_plain", "psdr_plain", "prr_delta"):
            lk = math.log2(k)
            assert prr == pytest.approx(lk - bsc_sol.rate, abs=1e-12)
            assert psr == pytest.approx(lk - jx, abs=1e-12)
            assert psdr == pytest.approx(lk - jxd, abs=1e-12)
            assert prr_d == pytest.approx(ld - bsc_sol.rate, abs=1e-12)

    def test_plain_redundancies_use_math_log2(self, bsc_sol, monkeypatch):
        # np.log2 is 1 ulp off math.log2 at these k; the CSV digits follow math.log2
        ks = [1621, 3242, 6484, 7957, 12968, 1621, 1]
        log_k, len_plain, len_delta = redundancy._per_k(
            np.array(ks), math.log2, plain_code_length, delta_code_length)
        assert [v.hex() for v in log_k.tolist()] == [math.log2(k).hex() for k in ks]
        assert len_plain.tolist() == [len(encode_plain(k)) for k in ks]
        assert len_delta.tolist() == [len(encode_delta(k)) for k in ks]
        monkeypatch.setattr(redundancy, "select_span",
                            lambda keys, targets, xs, q: (np.array(ks), xs))
        t = run_trials(bsc_sol, len(ks), SEED)
        for k, j_x, j_xd, prr, psr, psdr in rows(
                t, "k", "j_x", "j_xd", "prr_plain", "psr_plain", "psdr_plain"):
            lk = math.log2(k)
            assert prr.hex() == (lk - bsc_sol.rate).hex()
            assert psr.hex() == (lk - j_x).hex()
            assert psdr.hex() == (lk - j_xd).hex()

    def test_mean_distortion_near_target(self, bsc_sol, bsc_table):
        dist = bsc_table["dist"]
        se = dist.std(ddof=1) / math.sqrt(dist.size)
        assert abs(dist.mean() - bsc_sol.distortion) <= 3 * se + 1e-9

    def test_deterministic_and_threaded(self, bsc_sol):
        a = run_trials(bsc_sol, 500, SEED)
        b = run_trials(bsc_sol, 500, SEED)
        assert_same_table(a, b)

    def test_sweep_spans_equal_streaming_selection(self):
        # a full selection span and a one-trial span, at f_max = 8: every row
        # is its trial's own source draw and streaming pfr_select
        source, d = uniform_hamming(16)
        sol = solve_at_distortion(source, d, 0.5)
        n = redundancy._SPAN + 1
        t = run_trials(sol, n, SEED)
        q = sol.output_marginal
        for trial, x, k, y in rows(t, "trial", "x", "k", "y"):
            assert x == sample_pmf(source, derive_subseed(SEED, trial, "source")
                                   .stream("draw"))
            r = pfr_select(sol.kernel.row(x), q, arrival_stream(
                derive_subseed(SEED, trial, "codebook"), "codebook", q))
            assert (k, y) == (r.k, r.y)

    def test_prefix_independent_of_total(self, bsc_sol):
        a = run_trials(bsc_sol, 50, SEED)
        b = run_trials(bsc_sol, 200, SEED)
        assert_same_table(a, head(b, 50))


class TestTails:
    def test_vacuous_thresholds(self, bsc_table):
        assert estimate_tail(bsc_table, "PRR", "plain", -1e6).p_hat == 1.0
        assert estimate_tail(bsc_table, "PRR", "plain", 1e6).p_hat == 0.0

    def test_single_trial(self, bsc_sol):
        recs = run_trials(bsc_sol, 1, SEED)
        t = estimate_tail(recs, "PSDR", "delta", 0.0)
        assert t.p_hat in (0.0, 1.0) and t.std_err == 0.0 and t.n == 1

    def test_std_err_formula(self, bsc_table):
        t = estimate_tail(bsc_table, "PSR", "plain", 0.5)
        assert t.std_err == pytest.approx(
            math.sqrt(t.p_hat * (1 - t.p_hat) / t.n), abs=1e-15)

    def test_unknown_kind_rejected(self, bsc_table):
        with pytest.raises(UnsupportedEta):
            estimate_tail(bsc_table, "XYZ", "plain", 0.0)
        with pytest.raises(ValueError):
            estimate_tail(bsc_table, "PRR", "huffman", 0.0)


class TestBoundRhs:
    def test_psdr_simple_values(self, bsc_sol):
        assert bound_rhs(bsc_sol, "PSDR", "plain", 2.0,
                         "psdr_simple") == pytest.approx(1.0)
        assert bound_rhs(bsc_sol, "PSDR", "plain", 5.0,
                         "psdr_simple") == pytest.approx(0.125)

    def test_general_psdr_collapses(self, bsc_sol):
        # with eta = iota the general form is 2^{-g+1} (1 + E[2^-iota])
        for g in [0.0, 2.0, 4.0]:
            lhs = bound_rhs(bsc_sol, "PSDR", "plain", g,
                            "general")
            tight = bound_rhs(bsc_sol, "PSDR", "plain", g,
                              "psdr_tight")
            assert lhs == pytest.approx(tight, rel=1e-9)
            assert lhs <= 2.0 ** (-g + 2.0) + 1e-12

    def test_full_support_exp_iota_is_one(self, bsc_sol):
        # full-support solution: E[2^-iota] = 1, so the tight bound at g = 1
        # is 2^{-1+1} (1 + 1) = 2
        got = bound_rhs(bsc_sol, "PSDR", "plain", 1.0,
                        "psdr_tight")
        assert got == pytest.approx(2.0, rel=1e-9)

    def test_clipped_never_exceeds_general(self, bsc_sol):
        for eta in ("PRR", "PSR", "PSDR"):
            for g in [-2.0, 0.0, 1.0, 3.0, 6.0]:
                clip = bound_rhs(bsc_sol, eta, "plain", g)
                gen = bound_rhs(bsc_sol, eta, "plain", g,
                                "general")
                assert clip <= gen + 1e-12
                assert clip <= 1.0 + 1e-12

    def test_empirical_tails_below_bounds(self, bsc_sol, bsc_table):
        for eta in ("PRR", "PSR", "PSDR"):
            for code in ("plain", "delta"):
                for g in range(-2, 11):
                    t = estimate_tail(bsc_table, eta, code, g)
                    rhs = bound_rhs(bsc_sol, eta, code, g)
                    assert t.p_hat - 3 * t.std_err <= rhs + 1e-12

    def test_huge_gamma_is_finite(self, bsc_sol):
        # ([eta+g]_+ + 1)^2 overflows to inf where 2^-g underflows to 0; the
        # true term tends to 0, so the bound must not be 0 * inf = NaN
        for eta, variant in (("PRR", "prefix"), ("PSR", "prefix"),
                             ("PSDR", "prefix"), ("PSDR", "psdr_prefix")):
            for g in (1e150, 1e200, 1e308):
                assert bound_rhs(bsc_sol, eta, "delta", g,
                                 variant) == 0.0
        with np.errstate(over="ignore"):
            assert bound_rhs(bsc_sol, "PSR", "delta",
                             -1e200) == pytest.approx(1.0)

    def test_steep_negative_gamma_is_inf(self, bsc_sol):
        # 2^{-g+c} overflows a float; the trivially valid bound is +inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta, code, variant in UNCLIPPED:
                assert bound_rhs(bsc_sol, eta, code, -2000.0,
                                 variant) == math.inf

    def test_very_negative_gamma_is_silent(self, bsc_sol, uniform2):
        # 2^{-eta-g} overflows to inf and every clipped term is 1, so the bound
        # is the total weight on the support, with no overflow warning
        w = uniform2.probs[:, None] * bsc_sol.kernel.rows
        total = float(np.dot(w[w > 0.0], np.ones(int((w > 0.0).sum()))))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for eta in ETA_KINDS:
                for code in CODE_KINDS:
                    got = bound_rhs(bsc_sol, eta, code, -2000.0)
                    assert got.hex() == total.hex()

    def test_unclipped_values_unchanged(self, bsc_sol, uniform2):
        # the reference is the plain float power 2.0 ** (-g + c)
        rows = bsc_sol.kernel.rows
        iota_tab, j_x, _, _ = redundancy._tables(bsc_sol)
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
                got = bound_rhs(bsc_sol, eta_kind, code, g,
                                variant)
                assert got.hex() == want[variant].hex()

    def test_variant_validation(self, bsc_sol):
        with pytest.raises(UnsupportedEta):
            bound_rhs(bsc_sol, "PSR", "plain", 1.0,
                      "psdr_simple")
        with pytest.raises(ValueError):
            bound_rhs(bsc_sol, "PSR", "plain", 1.0, "nope")


class TestIotaTable:
    @pytest.mark.parametrize("m, distortion", [(2, 0.11), (4, 0.3), (3, 0.05)])
    def test_equals_the_expression_it_replaced(self, m, distortion):
        source, d = uniform_hamming(m)
        sol = solve_at_distortion(source, d, distortion)
        iota = redundancy._tables(sol)[0]
        assert np.array_equal(iota, iota_reference(sol.kernel.rows,
                                                   sol.output_marginal.probs))

    def test_pruned_outputs_are_minus_inf(self):
        # output 2 costs 5 from every source symbol, so BA prunes it to q = 0
        source = FinitePmf.uniform(2)
        d = DistortionMatrix([[0.0, 1.0, 5.0], [1.0, 0.0, 5.0]])
        sol = solve_at_distortion(source, d, 0.2)
        iota = redundancy._tables(sol)[0]
        assert sol.output_marginal.probs[2] == 0.0
        assert np.all(iota[:, 2] == -np.inf)
        assert np.array_equal(iota, iota_reference(sol.kernel.rows,
                                                   sol.output_marginal.probs))


class TestSummary:
    def test_targets_and_bounds(self, bsc_sol, bsc_table):
        s = summary_stats(bsc_table, bsc_sol)
        assert s.rate == bsc_sol.rate
        assert s.plain_target == pytest.approx(bsc_sol.rate + 2.01)
        assert s.delta_target == pytest.approx(
            bsc_sol.rate + math.log2(bsc_sol.rate + 3.01) + 4.01)
        assert s.mean_len_plain + 3 * s.se_len_plain <= s.plain_target
        assert s.mean_len_delta + 3 * s.se_len_delta <= s.delta_target
        assert s.entropy_k <= s.entropy_k_bound + 0.05
        assert abs(s.mean_j_x - bsc_sol.rate) <= 3 * s.se_j_x + 1e-9

    def test_mean_log_k_below_rate_plus_one(self, bsc_sol, bsc_table):
        s = summary_stats(bsc_table, bsc_sol)
        assert s.mean_log2_k + 3 * s.se_log2_k <= bsc_sol.rate + 1.0

    def test_prefix_free_means_nonnegative(self, bsc_table):
        # prefix-free redundancies have nonnegative expectation
        for eta in ("PRR", "PSR", "PSDR"):
            vals = bsc_table[f"{eta.lower()}_delta"]
            se = vals.std(ddof=1) / math.sqrt(vals.size)
            assert vals.mean() >= -3 * se


class TestDegenerateSource:
    def test_single_symbol_source(self):
        from pfrlab import DistortionMatrix, solve_at_distortion
        src = FinitePmf(np.array([1.0]))
        d = DistortionMatrix(np.array([[0.0, 1.0]]))
        sol = solve_at_distortion(src, d, 0.0)
        assert sol.rate == 0.0
        recs = run_trials(sol, 2000, SEED)
        assert np.all(recs["iota"] == 0.0)
        assert np.all(recs["k"] == 1)  # constant ratio: first point wins
        s = summary_stats(recs, sol)
        assert s.mean_len_plain <= 2.01


class TestCsv:
    def test_schema_and_digits(self, bsc_table):
        buf = io.StringIO()
        records_to_csv(head(bsc_table, 50), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 51
        row = lines[1].split(",")
        assert len(row) == 16
        for cell in row[6:]:
            if "." in cell:
                digits = re.sub(r"[-.]|e.*", "", cell).lstrip("0")
                assert len(digits) <= 9

    def test_byte_identical(self, bsc_sol):
        out = []
        for _ in range(2):
            recs = run_trials(bsc_sol, 300, SEED)
            buf = io.StringIO()
            records_to_csv(recs, buf)
            out.append(buf.getvalue())
        assert out[0] == out[1]


# floats whose formatting is easy to get wrong, and ints at the int64 edges
EDGE_FLOATS = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
               2.2250738585072009e-308, 1e308, -1e308, 1.7976931348623157e308]
EDGE_INTS = [0, 1, -1, 2**63 - 1, 2**63 - 2, -2**63, -2**63 + 1]


def line_per_row_csv(table):
    """The CSV as a line % row per row: the format the table writer keeps."""
    cols = list(table.values())
    line = ",".join("%d" if c.dtype.kind in "iu" else "%.9g" for c in cols) + "\n"
    return ",".join(table) + "\n" + "".join(
        [line % row for row in zip(*(c.tolist() for c in cols))])


@st.composite
def csv_tables(draw):
    """int64 and float64 columns, each of few values repeated or of random bits
    (every float class: nans with payloads, subnormals, infinities, -0.0)."""
    n = draw(st.one_of(st.integers(min_value=1, max_value=3000),
                       st.sampled_from([1, 1023, 1024, 1025, 2048, 2049, 3000])))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    table = {}
    for j, kind in enumerate(draw(st.lists(st.sampled_from("if"), min_size=1,
                                           max_size=5))):
        if kind == "i":
            pool = draw(st.lists(st.integers(min_value=-2**63, max_value=2**63 - 1),
                                 max_size=8)) + EDGE_INTS
        else:
            pool = draw(st.lists(st.floats(), max_size=8)) + EDGE_FLOATS
        pool = np.array(pool, dtype=np.int64 if kind == "i" else np.float64)
        if draw(st.booleans()):
            col = pool[rng.integers(0, draw(st.integers(1, len(pool))), size=n)]
        else:
            col = rng.integers(-2**63, 2**63 - 1, size=n, endpoint=True).view(pool.dtype)
        table[f"{kind}{j}"] = col
    return table


# a table of thousands of random rows does not shrink to a smaller example in
# useful time, so a failure is reported as found
@settings(PROPERTY, phases=(Phase.explicit, Phase.generate))
@given(table=csv_tables())
def test_table_writer_equals_a_line_per_row(table):
    buf = io.StringIO()
    redundancy._write_table(table, buf)
    assert buf.getvalue() == line_per_row_csv(table)
