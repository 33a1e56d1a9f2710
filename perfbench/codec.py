"""The codec-m16 workload: single-symbol round trips through pfrlab's public API.

Encode: sample_pmf -> arrival_stream -> pfr_select -> encode_delta.
Decode: decode_delta -> replay the shared codebook to the K-th point, whose
mark must equal the selected y.  Each symbol uses its own subseeds of the
run's seed, so encoder and decoder share only that seed.
"""

import hashlib
import time

import numpy as np

EXIT_MISMATCH = 5


def run(m: int, distortion: float, symbols: int, seed_hex: str, mark: dict) -> int:
    """Round-trip `symbols` symbols of a uniform m-ary source under Hamming distortion.

    Fills mark with setup_t, per-symbol encode/decode times in ns, the
    SHA-256 of the (x, k, y, codeword) stream and the mismatch count.
    """
    # bound here, not at import, so names the traced run rewrapped are used
    from pfrlab import (DistortionMatrix, FinitePmf, Seed, arrival_stream,
                        decode_delta, derive_subseed, encode_delta, pfr_select,
                        sample_pmf, solve_at_distortion)

    source = FinitePmf.uniform(m)
    sol = solve_at_distortion(source, DistortionMatrix(1.0 - np.eye(m)), distortion)
    q = sol.output_marginal
    targets = [sol.kernel.row(x) for x in range(m)]
    root = Seed.from_hex(seed_hex)
    mark["setup_t"] = time.monotonic()

    clock = time.perf_counter_ns
    enc_ns, dec_ns = [], []
    digest = hashlib.sha256()
    mismatches = 0
    for i in range(symbols):
        t0 = clock()
        x = sample_pmf(source, derive_subseed(root, i, "source").stream("draw"))
        res = pfr_select(targets[x], q,
                         arrival_stream(derive_subseed(root, i, "codebook"),
                                        "codebook", q))
        word = encode_delta(res.k)
        t1 = clock()
        k, used = decode_delta(word)
        replay = arrival_stream(derive_subseed(root, i, "codebook"), "codebook", q)
        for _ in range(k - 1):
            replay.next_marked_point()
        y = replay.next_marked_point().mark
        t2 = clock()
        enc_ns.append(t1 - t0)
        dec_ns.append(t2 - t1)
        if (k, y, used) != (res.k, res.y, len(word)):
            mismatches += 1
        digest.update(f"{x},{res.k},{res.y},{word.bits}\n".encode())

    mark.update(encode_ns=enc_ns, decode_ns=dec_ns, digest=digest.hexdigest(),
                mismatches=mismatches)
    return EXIT_MISMATCH if mismatches else 0
