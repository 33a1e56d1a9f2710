"""One-shot lossy coding of a binary source: length statistics and tail bounds.

Runs the full pipeline (solver -> per-trial selection -> integer codes) and
prints the empirical tail of each pointwise redundancy next to the exact
evaluation of its upper bound.  The plain accounting counts log2 K bits
(non-prefix-free); the delta accounting counts actual Elias delta codeword
lengths (prefix-free).
"""

import numpy as np

from pfrlab import (DistortionMatrix, FinitePmf, Seed, bound_rhs,
                    estimate_tail, run_trials, solve_at_distortion,
                    summary_stats)

source = FinitePmf.uniform(2)
hamming = DistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
sol = solve_at_distortion(source, hamming, 0.11)
table = run_trials(sol, 30_000, Seed.from_int(77))

s = summary_stats(table, sol)
print(f"R(D) = {s.rate:.5f} bits at D = {sol.distortion:.5f}")
print(f"mean distortion      {s.mean_dist:.5f}")
print(f"mean plain length    {s.mean_len_plain:.4f}  (target {s.plain_target:.4f})")
print(f"mean delta length    {s.mean_len_delta:.4f}  (target {s.delta_target:.4f})")
print(f"empirical H(K)       {s.entropy_k:.4f}  (bound {s.entropy_k_bound:.4f})\n")

print("tails: P(length - eta >= gamma), empirical vs exact bound")
print("eta   code   gamma   p_hat      bound")
for eta in ("PRR", "PSR", "PSDR"):
    for code in ("plain", "delta"):
        for gamma in (0.0, 2.0, 4.0, 6.0):
            t = estimate_tail(table, eta, code, gamma)
            rhs = bound_rhs(sol, eta, code, gamma)
            print(f"{eta:<5} {code:<6} {gamma:5.1f}   {t.p_hat:.5f}    {rhs:.5f}")

print("\nPSDR special forms (plain):")
for gamma in range(1, 7):
    t = estimate_tail(table, "PSDR", "plain", float(gamma))
    simple = bound_rhs(sol, "PSDR", "plain", gamma, "psdr_simple")
    tight = bound_rhs(sol, "PSDR", "plain", gamma, "psdr_tight")
    print(f"  gamma={gamma}: p_hat={t.p_hat:.5f}  <=  {tight:.5f}  <=  {simple:.5f}")
