"""Acceptance suite: every criterion at its stated tolerance and trial count.

Each test prints one PASS/FAIL line (run with -s to see them).  The heavy
trial sets are shared module-scoped fixtures so the suite stays inside the
stated runtime budgets.
"""

import math
import time
from collections import Counter

import numpy as np
import pytest

from pfrlab import (FinitePmf, GwModel, Kernel, Seed, arrival_stream,
                    bound_rhs, decode_delta, decode_plain, delta_code_length,
                    derive_subseed, dominance_parameter, encode_delta,
                    encode_plain, entropy, estimate_tail,
                    geometric_parameter_exact, gw_run_trials, kl_divergence,
                    pfr_select, plain_code_length, run_trials,
                    solve_at_distortion, summary_stats, tilted_information)
from conftest import (binary_entropy, conditional_triple_law, group_rows,
                      information_density, rows, uniform_hamming)

ACC_SEED = Seed.from_hex("5f2e" * 16)

PFR_TARGET = FinitePmf(np.array([0.8, 0.2]))
PFR_PROPOSAL = FinitePmf.uniform(2)
N_TRIALS = 100_000


def report(criterion, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] criterion {criterion}: {detail}")
    assert passed, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def pfr_draws():
    """(k, y) over 1e5 fresh-codebook selections, plus the wall time."""
    ks = np.empty(N_TRIALS, dtype=np.int64)
    ys = np.empty(N_TRIALS, dtype=np.int64)
    t0 = time.perf_counter()
    for t in range(N_TRIALS):
        stream = arrival_stream(derive_subseed(ACC_SEED, t, "codebook"),
                                "codebook", PFR_PROPOSAL)
        res = pfr_select(PFR_TARGET, PFR_PROPOSAL, stream)
        ks[t], ys[t] = res.k, res.y
    return ks, ys, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bsc(uniform2, hamming2):
    t0 = time.perf_counter()
    sol = solve_at_distortion(uniform2, hamming2, 0.11, tol_D=1e-7)
    return sol, time.perf_counter() - t0


@pytest.fixture(scope="module")
def bsc_run(bsc):
    sol, _ = bsc
    t0 = time.perf_counter()
    table = run_trials(sol, N_TRIALS, ACC_SEED)
    return table, time.perf_counter() - t0


def common_bit_model():
    return GwModel(
        joint_source=np.array([[0.5, 0.0], [0.0, 0.5]]),
        u_kernel=Kernel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])),
        y1_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        y2_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])))


def independent_u_model():
    return GwModel(
        joint_source=np.array([[0.4, 0.1], [0.2, 0.3]]),
        u_kernel=Kernel(np.tile([0.5, 0.5], (4, 1))),
        y1_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
        y2_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])))


def test_criterion_01_pfr_marginal_law(pfr_draws):
    ks, ys, elapsed = pfr_draws
    freq = np.bincount(ys, minlength=2) / N_TRIALS
    tv = 0.5 * float(np.abs(freq - PFR_TARGET.probs).sum())
    report(1, tv <= 0.015 and elapsed < 5.0,
           f"TV={tv:.5f} (<=0.015), runtime={elapsed:.2f}s (<5s)")


def test_criterion_02_conditional_geometric_law(pfr_draws):
    ks, ys, _ = pfr_draws
    p0 = geometric_parameter_exact(PFR_TARGET, PFR_PROPOSAL, 0)
    assert p0 == pytest.approx(0.625)
    k0 = ks[ys == 0]
    kmax = int(k0.max())
    emp = np.bincount(k0, minlength=kmax + 1)[1:] / k0.size
    pmf = p0 * (1.0 - p0) ** (np.arange(1, kmax + 1) - 1)
    tv = 0.5 * (float(np.abs(emp - pmf).sum()) + (1.0 - p0) ** kmax)
    k1 = ks[ys == 1]
    all_one = bool((k1 == 1).all()) and k1.size >= 10_000
    report(2, tv <= 0.02 and all_one,
           f"TV(K|y=0 vs Geom(0.625))={tv:.5f} (<=0.02); "
           f"K=1 on all {k1.size} samples with y=1: {all_one}")


def test_criterion_03_stochastic_dominance(pfr_draws):
    ks, ys, _ = pfr_draws
    worst = -math.inf
    for y in range(2):
        ky = ks[ys == y]
        p_dom = dominance_parameter(PFR_TARGET, PFR_PROPOSAL, y)
        for k in range(1, 51):
            surv = float((ky > k).mean())
            se = math.sqrt(surv * (1.0 - surv) / ky.size)
            worst = max(worst, surv - (1.0 - p_dom) ** k - 3.0 * se)
    report(3, worst <= 1e-12, f"max survival slack over y, k<=50: {worst:.2e} (<=0)")


def test_criterion_04_expected_log_length(pfr_draws):
    ks, _, _ = pfr_draws
    logk = np.log2(ks)
    stat = float(logk.mean()) + 3.0 * float(logk.std(ddof=1)) / math.sqrt(N_TRIALS)
    bound = kl_divergence(PFR_TARGET, PFR_PROPOSAL) + 1.0
    assert bound == pytest.approx(1.278072, abs=1e-6)
    report(4, stat <= bound, f"E[log2 K]+3SE={stat:.5f} <= {bound:.6f}")


def test_criterion_05_rd_solver(bsc):
    sol, elapsed = bsc
    r_err = abs(sol.rate - (1.0 - binary_entropy(0.11)))
    lam_err = abs(sol.slope_lambda - math.log2(0.89 / 0.11))
    report(5, r_err <= 1e-4 and lam_err <= 1e-3 and elapsed < 1.0,
           f"|R-analytic|={r_err:.2e} (<=1e-4), |lambda-analytic|={lam_err:.2e} "
           f"(<=1e-3), runtime={elapsed:.3f}s (<1s)")


def test_criterion_06_tilted_identities(bsc, uniform2):
    sol, _ = bsc
    worst_shift = 0.0
    worst_iota = 0.0
    lam, d0 = sol.slope_lambda, sol.distortion
    dmat = sol.distortion_matrix.d
    for x in range(2):
        j_x = tilted_information(sol, x, d0)
        for y in sol.output_marginal.support:
            delta = float(dmat[x, int(y)])
            j_xd = tilted_information(sol, x, delta)
            worst_shift = max(worst_shift, abs(j_xd - (j_x - lam * (delta - d0))))
            iota = information_density(sol.kernel, uniform2, x, int(y))
            worst_iota = max(worst_iota, abs(j_xd - iota))
    report(6, worst_shift <= 1e-9 and worst_iota <= 1e-6,
           f"shift identity worst={worst_shift:.2e} (<=1e-9), "
           f"density identity worst={worst_iota:.2e} (<=1e-6)")


def test_criterion_07_expected_length_targets(bsc, bsc_run):
    sol, _ = bsc
    table, elapsed = bsc_run
    s = summary_stats(table, sol)
    plain_stat = s.mean_len_plain + 3.0 * s.se_len_plain
    delta_stat = s.mean_len_delta + 3.0 * s.se_len_delta
    plain_ok = plain_stat <= 2.5101
    delta_ok = delta_stat <= sol.rate + math.log2(sol.rate + 3.01) + 4.01
    report(7, plain_ok and delta_ok and elapsed < 30.0,
           f"E[len_plain]+3SE={plain_stat:.4f} (<=2.5101), "
           f"E[len_delta]+3SE={delta_stat:.4f} "
           f"(<= {sol.rate + math.log2(sol.rate + 3.01) + 4.01:.4f}), "
           f"runtime={elapsed:.1f}s (<30s)")


def test_criterion_08_psdr_tail(bsc, bsc_run):
    sol, _ = bsc
    table, _ = bsc_run
    worst_simple = -math.inf
    worst_tight = -math.inf
    for gamma in range(1, 9):
        t = estimate_tail(table, "PSDR", "plain", float(gamma))
        stat = t.p_hat - 3.0 * t.std_err
        simple = bound_rhs(sol, "PSDR", "plain", gamma,
                           "psdr_simple")
        tight = bound_rhs(sol, "PSDR", "plain", gamma,
                          "psdr_tight")
        assert simple == pytest.approx(2.0 ** (-gamma + 2.0))
        worst_simple = max(worst_simple, stat - simple)
        worst_tight = max(worst_tight, stat - tight)
    report(8, worst_simple <= 1e-12 and worst_tight <= 1e-12,
           f"worst slack vs 2^(-g+2): {worst_simple:.2e}; "
           f"vs 2^(-g+1)(1+E[2^-iota]): {worst_tight:.2e} (both <=0)")


def test_criterion_09_tail_grid(bsc, bsc_run):
    sol, _ = bsc
    table, _ = bsc_run
    worst = -math.inf
    count = 0
    for eta in ("PRR", "PSR", "PSDR"):
        for code in ("plain", "delta"):
            for gamma in range(-2, 11):
                t = estimate_tail(table, eta, code, float(gamma))
                rhs = bound_rhs(sol, eta, code, float(gamma))
                worst = max(worst, t.p_hat - 3.0 * t.std_err - rhs)
                count += 1
    report(9, worst <= 1e-12,
           f"{count} (eta, code, gamma) cells; worst slack {worst:.2e} (<=0)")


def test_criterion_10_bitcodes():
    t0 = time.perf_counter()
    kraft = 0.0
    for k in range(1, 1_000_001):
        b = encode_plain(k)
        assert decode_plain(b) == k
        assert len(b) == plain_code_length(k)
        d = encode_delta(k)
        v, used = decode_delta(d)
        assert v == k and used == len(d) == delta_code_length(k)
        lk = math.log2(k) if k > 1 else 0.0
        assert len(d) <= lk + 2.0 * math.log2(lk + 1.0) + 1.0 + 1e-9
        if k < 2 ** 16 and delta_code_length(k) <= 24:
            kraft += 2.0 ** -delta_code_length(k)
    elapsed = time.perf_counter() - t0
    report(10, kraft <= 1.0 and elapsed < 10.0,
           f"round trips k in [1,1e6] exact; Kraft(<=24 bits)={kraft:.6f} (<=1); "
           f"runtime={elapsed:.1f}s (<10s)")


def test_criterion_11_gray_wyner():
    t0 = time.perf_counter()
    results = []
    for name, model in (("common-bit", common_bit_model()),
                        ("independent-U", independent_u_model())):
        table = gw_run_trials(model, N_TRIALS, ACC_SEED)
        triples = rows(table, "u", "y1", "y2")
        tv_ok = True
        for (x1, x2), rs in group_rows(table, "x1", "x2").items():
            if len(rs) < 10_000:
                continue
            law = conditional_triple_law(model, x1, x2)
            emp = np.zeros_like(law)
            for key, cnt in Counter(triples[i] for i in rs).items():
                emp[key] = cnt / len(rs)
            tv_ok &= 0.5 * float(np.abs(emp - law).sum()) <= 0.02
        dom_ok = True
        from pfrlab import gw_dominance_params
        for tup, rs in group_rows(table, "x1", "x2", "u", "y1", "y2").items():
            if len(rs) < 1000:
                continue
            params = gw_dominance_params(model, *tup)
            for ks, p in zip((table["k0"][rs], table["k1"][rs], table["k2"][rs]),
                             params):
                for k in range(1, 31):
                    surv = float((ks > k).mean())
                    se = math.sqrt(surv * (1.0 - surv) / ks.size)
                    dom_ok &= surv <= (1.0 - p) ** k + 3.0 * se + 1e-12
        len_ok = True
        bounds = (model.mi_u_sources + 1.0,
                  model.mi_y_source_given_u(1) + 1.0,
                  model.mi_y_source_given_u(2) + 1.0)
        for ks, bound in zip((table["k0"], table["k1"], table["k2"]), bounds):
            logk = np.log2(ks.astype(float))
            stat = float(logk.mean())
            if logk.size > 1 and logk.std(ddof=1) > 0:
                stat += 3.0 * float(logk.std(ddof=1)) / math.sqrt(logk.size)
            len_ok &= stat <= bound
        results.append((name, tv_ok, dom_ok, len_ok))
    elapsed = time.perf_counter() - t0
    passed = all(tv and dom and ln for _, tv, dom, ln in results) and elapsed < 60.0
    detail = "; ".join(f"{n}: TV {'ok' if tv else 'BAD'}, dominance "
                       f"{'ok' if dom else 'BAD'}, lengths {'ok' if ln else 'BAD'}"
                       for n, tv, dom, ln in results)
    report(11, passed, f"{detail}; runtime={elapsed:.1f}s (<60s)")


def test_criterion_12_entropy_of_index(bsc, bsc_run, pfr_draws):
    sol, _ = bsc
    table, _ = bsc_run
    s = summary_stats(table, sol)
    ok_main = s.entropy_k <= s.entropy_k_bound + 0.05
    ks, _, _ = pfr_draws
    _, counts = np.unique(ks, return_counts=True)
    h_k = entropy(FinitePmf(counts / counts.sum()))
    m_lk = float(np.log2(ks).mean())
    ok_pfr = h_k <= m_lk + math.log2(m_lk + 1.0) + 1.0 + 0.05
    report(12, ok_main and ok_pfr,
           f"BSC run: H(K)={s.entropy_k:.4f} <= {s.entropy_k_bound + 0.05:.4f}; "
           f"PFR run: H(K)={h_k:.4f} <= {m_lk + math.log2(m_lk + 1.0) + 1.05:.4f}")


def test_criterion_13_non_binary_laws():
    # uniform m = 16 under Hamming distortion at D = 0.5: (x, y) must follow
    # source x kernel, and K given the selected mark its exact law; the
    # runtime is reported, not gated
    m = 16
    source, d = uniform_hamming(m)
    sol = solve_at_distortion(source, d, 0.5)
    t0 = time.perf_counter()
    table = run_trials(sol, N_TRIALS, ACC_SEED)
    elapsed = time.perf_counter() - t0
    x, y, k = table["x"], table["y"], table["k"]
    law = source.probs[:, None] * sol.kernel.rows
    emp = np.bincount(x * m + y, minlength=m * m).reshape(m, m) / N_TRIALS
    tv = 0.5 * float(np.abs(emp - law).sum())
    # E[TV] <= this, since E|p_hat - p| <= sqrt(p (1 - p) / n) for each cell
    tv_bound = 0.5 * float(np.sqrt(law * (1.0 - law) / N_TRIALS).sum())
    q = sol.output_marginal
    p_geom = np.array([geometric_parameter_exact(sol.kernel.row(i), q, i)
                       for i in range(m)])
    assert p_geom == pytest.approx(0.125, abs=1e-6)
    # y != x: f(y) is the least density ratio, so E[max{f(y), f(Y')}] = 1
    assert all(geometric_parameter_exact(sol.kernel.row(i), q, j) == pytest.approx(1.0)
               for i in range(m) for j in range(m) if j != i)
    off = x != y
    ones = bool((k[off] == 1).all()) and off.sum() >= 40_000
    # y = x: K is geometric(p(x)); the pooled law mixes them by row counts
    kd, xd = k[~off], x[~off]
    kmax = int(kd.max())
    grid = np.arange(1, kmax + 1)
    w = np.bincount(xd, minlength=m) / kd.size
    pmf = (w[:, None] * p_geom[:, None] * (1.0 - p_geom[:, None]) ** (grid - 1)).sum(0)
    tail = float(np.dot(w, (1.0 - p_geom) ** kmax))
    emp_k = np.bincount(kd, minlength=kmax + 1)[1:] / kd.size
    tv_k = 0.5 * (float(np.abs(emp_k - pmf).sum()) + tail)
    report(13, tv <= tv_bound and tv_k <= 0.02 and ones,
           f"TV((x, y) vs source x kernel)={tv:.5f} (<={tv_bound:.5f}); "
           f"TV(K|y=x vs Geom(1/8))={tv_k:.5f} (<=0.02); K=1 on all "
           f"{int(off.sum())} samples with y!=x: {ones}; runtime={elapsed:.2f}s")
