"""One encoder, two decoders: the common-bit Gray-Wyner example.

X1 = X2 = U is a shared uniform bit and both reconstructions equal U.  The
common index k0 then carries I(U; X1, X2) = 1 bit of information (expected
log-length at most 2 bits), while the private indices are always 1.  Decoder
1 sees only (k0, k1), decoder 2 only (k0, k2); both reconstruct exactly by
replaying the shared streams.
"""

import numpy as np

from pfrlab import (GwModel, Kernel, Seed, derive_subseed, gw_decode,
                    gw_dominance_params, gw_encode, gw_run_trials)

model = GwModel(
    joint_source=np.array([[0.5, 0.0], [0.0, 0.5]]),
    u_kernel=Kernel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])),
    y1_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])),
    y2_kernel=Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]])))

print(f"I(U; X1, X2)    = {model.mi_u_sources:.4f} bits")
print(f"I(Y1; X1 | U)   = {model.mi_y_source_given_u(1):.4f} bits")
print(f"dominance parameters at the all-zero tuple: "
      f"{gw_dominance_params(model, 0, 0, 0, 0, 0)}\n")

seed = Seed.from_int(5150)
res = gw_encode(model, 1, 1, seed)
print(f"encode (x1=1, x2=1): k0={res.k0}, k1={res.k1}, k2={res.k2} "
      f"-> (u={res.u}, y1={res.y1}, y2={res.y2})")
print(f"decode replays the same streams: {gw_decode(model, res.k0, res.k1, res.k2, seed)}\n")

n = 20_000
table = gw_run_trials(model, n, seed)  # a numpy column per field of gw_trials.csv
x1, u, y1, y2, k0, k1, k2 = (table[c] for c in ("x1", "u", "y1", "y2", "k0", "k1", "k2"))
print(f"{n} trials:")
print(f"  E[log2 K0] = {np.log2(k0).mean():.4f}  <=  I(U;X1,X2) + 1 = "
      f"{model.mi_u_sources + 1.0:.4f}")
print(f"  private indices constant: k1=k2=1 on all trials: "
      f"{bool(np.all((k1 == 1) & (k2 == 1)))}")
print(f"  reconstructions equal the common bit: "
      f"{bool(np.all((y1 == u) & (y2 == u) & (u == x1)))}")

mism = 0
for t in range(2000):
    dec = gw_decode(model, int(k0[t]), int(k1[t]), int(k2[t]),
                    derive_subseed(seed, t, "gw"))
    mism += dec != (u[t], y1[t], y2[t])
print(f"  decode mismatches in 2000 replayed trials: {mism}")
