"""Monte Carlo harness for pointwise-redundancy experiments.

Each trial draws a source symbol, runs the functional-representation
selector against the RD-optimal kernel with the optimal output marginal as
proposal, and records the index, code lengths, distortion and the three
per-trial redundancies:

* PRR  (rate redundancy):              length - R(D)
* PSR  (source-wise):                  length - jx(x, D)
* PSDR (source-distortion-wise):       length - jx(x, D, d(x, y))

where "length" is log2 k for the plain (non-prefix-free) accounting and the
Elias delta codeword length for the prefix-free one.  Tail fractions of each
redundancy are compared against exact finite-alphabet evaluations of the
corresponding upper bounds.

Every trial derives its own seed from (seed, trial index), so records do not
depend on how trials are grouped; one single-threaded loop over
:func:`trial_chunks` drives both the sweep here and the Gray-Wyner trials.

The trial engine works on chunks of _CHUNK trials.  For a chunk it derives
every trial's keys in one pass, draws the source symbols at once, and runs
the selections side by side (:func:`select_span`): each round of
:func:`scan_rounds` draws the next points of every unfinished scan and
applies the stop rule to all of them with pfr_scan_rows.  The records equal
those of one pfr_select per trial, bit for bit; the engine falls back to
pfr_select for a trial whose drawn gaps hold a zero.  The Gray-Wyner common
index runs on select_span too, and its private indices on scan_rounds.
"""

import math
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np

from .bitcodes import delta_code_length
from .codebook import (_BLOCK, arrival_stream, derive_subseed, draw_points,
                        span_keys, stream_keys)
from .errors import UnsupportedEta
from .pfr import _ratio_rows, pfr_scan_rows, pfr_select
from .prob import (DistortionMatrix, FinitePmf, Seed, SymbolId, entropy,
                   sample_pmf_keys)
from .rd import RdSolution, tilted_information

# trials per chunk of the engine; bounds its working arrays whatever n is
_CHUNK = 128

ETA_KINDS = ("PRR", "PSR", "PSDR")
CODE_KINDS = ("plain", "delta")

CSV_HEADER = ("trial,x,y,k,len_plain,len_delta,dist,iota,j_x,j_xd,"
              "prr_plain,psr_plain,psdr_plain,prr_delta,psr_delta,psdr_delta")


@dataclass(frozen=True, slots=True)
class TrialRecord:
    trial: int
    x: SymbolId
    y: SymbolId
    k: int
    len_plain: int
    len_delta: int
    dist: float
    iota: float
    j_x: float
    j_xd: float
    prr_plain: float
    psr_plain: float
    psdr_plain: float
    prr_delta: float
    psr_delta: float
    psdr_delta: float


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail fraction with its binomial standard error."""

    gamma: float
    p_hat: float
    std_err: float
    n: int


@lru_cache(maxsize=16)
def _tables(sol: RdSolution):
    """Per-(x, y) lookup tables shared by the trial loop and the bound sums.

    Built once per solution.  j(x, d(x, y)) is evaluated once per distinct
    distortion level in row x; the affine form j(x, D) - lambda* (d(x, y) - D)
    is not bit-identical (it turns an exact -0 into -1.1e-16 in the CSV).
    """
    rows = sol.kernel.rows
    q = sol.output_marginal.probs
    with np.errstate(divide="ignore"):
        iota = np.where(rows > 0.0,
                        np.log2(np.divide(rows, q[None, :],
                                          out=np.ones_like(rows), where=q > 0)),
                        -np.inf)
    nx = rows.shape[0]
    j_x = np.array([tilted_information(sol, x, sol.distortion) for x in range(nx)])
    j_xd = np.empty(rows.shape)
    for x, drow in enumerate(sol.distortion_matrix.d):
        levels, at = np.unique(drow, return_inverse=True)
        j_xd[x] = np.array([tilted_information(sol, x, float(v)) for v in levels])[at]
    return iota, j_x, j_xd


@lru_cache(maxsize=16)
def _targets(sol: RdSolution) -> tuple:
    """The kernel rows as pmfs, built once per solution; they key the ratio cache."""
    return tuple(sol.kernel.row(x) for x in range(sol.kernel.shape[0]))


def chunk_spans(n: int):
    """The _CHUNK-trial spans of range(n), in order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (range(c, min(c + _CHUNK, n)) for c in range(0, n, _CHUNK))


def trial_chunks(source: FinitePmf, seed: Seed, n: int):
    """(span, xs) per span of chunk_spans(n); xs are the trials' source draws."""
    for span in chunk_spans(n):
        keys = span_keys(seed, span, "source", ("draw",))[0]
        yield span, sample_pmf_keys(source, keys)


def _round_points(f_max: float) -> int:
    """Points each round draws per unfinished scan: about 3/4 of f_max + 1.

    A scan examines f_max + 1 points on average, with a long geometric-like
    tail.  Rounds of 3/4 of that mean keep both the points drawn past the
    stop and the number of rounds low.
    """
    return _BLOCK * math.ceil(0.75 * (f_max + 1.0) / _BLOCK)


def scan_rounds(keys, cum: np.ndarray, n: int, step, fallback) -> None:
    """Rounds of the next n points of each live stream i of a chunk (gap key
    keys[0][i], mark key keys[1][i]) until step(live, start, times, marks) says
    it needs no more; a zero gap sends it to fallback(i), the streaming path."""
    gap_keys, mark_keys = keys
    live, time0, start = np.arange(len(gap_keys)), np.zeros(len(gap_keys)), 0
    while live.size:
        times, marks, zero = draw_points([gap_keys[i] for i in live],
                                         [mark_keys[i] for i in live],
                                         cum, start, n, time0[live])
        more = step(live, start, times, marks)
        for i in live[zero]:
            fallback(i)
        time0[live] = times[:, -1]
        live = live[more & ~zero]
        start += n


def select_span(seed: Seed, span, targets, xs, proposal: FinitePmf,
                role: str = "codebook", label: str = "codebook", keys=None):
    """(k, y) arrays of pfr_select(targets[xs[i]], proposal, stream i), batched.

    Stream i is arrival_stream(derive_subseed(seed, span[i], role), label,
    proposal), keys its stream_keys if given.  The results equal the streaming
    scan's, bit for bit.  The working arrays grow with the span (one chunk).
    """
    f, f_max = _ratio_rows(tuple(targets), proposal)
    k, y = np.zeros((2, len(span)), dtype=np.int64)
    scale = f_max[xs]
    best = np.full(len(span), math.inf)

    def step(live, start, times, marks):
        stop, col, score = pfr_scan_rows(f[xs[live, None], marks], times,
                                         scale[live], best[live])
        better = score < best[live]
        won = live[better]
        best[won] = score[better]
        k[won] = start + col[better] + 1
        y[won] = marks[better, col[better]]
        return stop == times.shape[1]

    def fallback(i):
        res = pfr_select(targets[xs[i]], proposal, arrival_stream(
            derive_subseed(seed, span[i], role), label, proposal))
        k[i], y[i] = res.k, res.y

    scan_rounds(keys or stream_keys(seed, span, role, label), proposal.cumulative(),
                _round_points(float(scale.max())), step, fallback)
    return k, y


def run_trials(sol: RdSolution, source: FinitePmf, d: DistortionMatrix,
               n: int, seed: Seed) -> list:
    """n independent trials of the one-shot scheme; deterministic in (seed, n)."""
    iota, j_x, j_xd = _tables(sol)
    rate = sol.rate
    dmat = d.d
    q = sol.output_marginal
    targets = _targets(sol)
    out = []
    for span, xs in trial_chunks(source, seed, n):
        ks, ys = select_span(seed, span, targets, xs, q)
        for t, x, y, k in zip(span, xs.tolist(), ys.tolist(), ks.tolist()):
            log_k = math.log2(k)
            ld = delta_code_length(k)
            jx = float(j_x[x])
            jxd = float(j_xd[x, y])
            out.append(TrialRecord(
                trial=t, x=x, y=y, k=k,
                len_plain=k.bit_length() - 1, len_delta=ld,
                dist=float(dmat[x, y]), iota=float(iota[x, y]), j_x=jx, j_xd=jxd,
                prr_plain=log_k - rate, psr_plain=log_k - jx, psdr_plain=log_k - jxd,
                prr_delta=ld - rate, psr_delta=ld - jx, psdr_delta=ld - jxd))
    return out


def _check_kinds(eta_kind: str, code_kind: str) -> None:
    if eta_kind not in ETA_KINDS:
        raise UnsupportedEta(f"unknown redundancy kind {eta_kind!r}")
    if code_kind not in CODE_KINDS:
        raise ValueError(f"unknown code kind {code_kind!r}")


def estimate_tail(records, eta_kind: str, code_kind: str,
                  gamma: float) -> TailEstimate:
    """Empirical P(length - eta >= gamma) over the records."""
    _check_kinds(eta_kind, code_kind)
    name = f"{eta_kind.lower()}_{code_kind}"
    vals = np.array([getattr(r, name) for r in records])
    n = vals.size
    if n == 0:
        raise ValueError("records must be nonempty")
    p_hat = float((vals >= gamma).mean())
    return TailEstimate(gamma=float(gamma), p_hat=p_hat,
                        std_err=math.sqrt(p_hat * (1.0 - p_hat) / n), n=n)


def _exp2(e: float) -> float:
    """2.0 ** e, or +inf (a valid bound) where that overflows; times a float, too."""
    return 2.0 ** e if e < 1024.0 else math.inf


def bound_rhs(sol: RdSolution, source: FinitePmf, d: DistortionMatrix,
              eta_kind: str, code_kind: str, gamma: float,
              variant: str = "") -> float:
    """Exact right-hand side of the applicable tail bound.

    Default variants are the clipped non-prefix bound for the plain code and
    the prefix-free bound for the delta code.  Explicit variants:

    * "general":      2^{-g+1} E[2^{-eta} (2^iota + 1)]          (plain)
    * "clipped":      E[min{2^{-eta-g+1} (2^iota + 1), 1}]       (plain)
    * "prefix":       E[min{2^{-eta-g+2} ([eta+g]_+ + 1)^2 (2^iota + 1), 1}]
    * "psdr_simple":  2^{-g+2}                                    (PSDR, plain)
    * "psdr_tight":   2^{-g+1} (1 + E[2^-iota])                   (PSDR, plain)
    * "psdr_prefix":  2^{-g+3} E[([iota+g]_+ + 1)^2]              (PSDR, delta)
    """
    _check_kinds(eta_kind, code_kind)
    if not variant:
        variant = "prefix" if code_kind == "delta" else "clipped"
    if variant.startswith("psdr") and eta_kind != "PSDR":
        raise UnsupportedEta(f"variant {variant!r} applies to PSDR only")

    iota_tab, j_x, j_xd = _tables(sol)
    rows = sol.kernel.rows
    w = source.probs[:, None] * rows
    mask = w > 0.0
    weights = w[mask]
    iota = iota_tab[mask]
    if eta_kind == "PRR":
        eta = np.full(weights.size, sol.rate)
    elif eta_kind == "PSR":
        eta = np.broadcast_to(j_x[:, None], rows.shape)[mask]
    else:
        eta = j_xd[mask]

    if variant == "general":
        return _exp2(-gamma + 1.0) * float(
            np.dot(weights, np.exp2(-eta) * (np.exp2(iota) + 1.0)))
    if variant == "clipped":
        term = np.exp2(-eta - gamma + 1.0) * (np.exp2(iota) + 1.0)
        return float(np.dot(weights, np.minimum(term, 1.0)))
    # [.]_+ is capped so its square stays finite: past 1e150 the 2^-g factor is 0
    if variant == "prefix":
        plus = np.clip(eta + gamma, 0.0, 1e150)
        term = (np.exp2(-eta - gamma + 2.0) * (plus + 1.0) ** 2
                * (np.exp2(iota) + 1.0))
        return float(np.dot(weights, np.minimum(term, 1.0)))
    if variant == "psdr_simple":
        return _exp2(-gamma + 2.0)
    if variant == "psdr_tight":
        return _exp2(-gamma + 1.0) * (1.0 + float(np.dot(weights, np.exp2(-iota))))
    if variant == "psdr_prefix":
        plus = np.clip(iota + gamma, 0.0, 1e150)
        return _exp2(-gamma + 3.0) * float(np.dot(weights, (plus + 1.0) ** 2))
    raise ValueError(f"unknown bound variant {variant!r}")


@dataclass(frozen=True)
class TrialSummary:
    n: int
    mean_dist: float
    mean_len_plain: float
    mean_len_delta: float
    mean_log2_k: float
    se_dist: float
    se_len_plain: float
    se_len_delta: float
    se_log2_k: float
    mean_j_x: float
    mean_j_xd: float
    se_j_x: float
    se_j_xd: float
    entropy_k: float
    rate: float
    plain_target: float
    delta_target: float
    entropy_k_bound: float


def _mean_se(vals):
    n = vals.size
    return float(vals.mean()), float(vals.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0


def summary_stats(records, sol: RdSolution) -> TrialSummary:
    """Averages, their standard errors, and the expected-length comparison targets."""
    if not records:
        raise ValueError("records must be nonempty")
    dist = np.array([r.dist for r in records])
    lp = np.array([r.len_plain for r in records], dtype=float)
    ld = np.array([r.len_delta for r in records], dtype=float)
    ks = np.array([r.k for r in records])
    lk = np.log2(ks)
    jx = np.array([r.j_x for r in records])
    jxd = np.array([r.j_xd for r in records])
    _, counts = np.unique(ks, return_counts=True)
    h_k = entropy(FinitePmf(counts / counts.sum()))
    m_dist, se_dist = _mean_se(dist)
    m_lp, se_lp = _mean_se(lp)
    m_ld, se_ld = _mean_se(ld)
    m_lk, se_lk = _mean_se(lk)
    m_jx, se_jx = _mean_se(jx)
    m_jxd, se_jxd = _mean_se(jxd)
    r = sol.rate
    return TrialSummary(
        n=len(records), mean_dist=m_dist, mean_len_plain=m_lp,
        mean_len_delta=m_ld, mean_log2_k=m_lk,
        se_dist=se_dist, se_len_plain=se_lp, se_len_delta=se_ld, se_log2_k=se_lk,
        mean_j_x=m_jx, mean_j_xd=m_jxd, se_j_x=se_jx, se_j_xd=se_jxd,
        entropy_k=h_k, rate=r,
        plain_target=r + 2.01,
        delta_target=r + math.log2(r + 3.01) + 4.01,
        entropy_k_bound=m_lk + math.log2(m_lk + 1.0) + 1.0)


def _fmt(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return format(float(v), ".9g")


def records_to_csv(records, fh) -> None:
    """Write the fixed trial schema; floats carry 9 significant digits."""
    fh.write(CSV_HEADER + "\n")
    names = [f.name for f in fields(TrialRecord)]
    for r in records:
        fh.write(",".join(_fmt(getattr(r, name)) for name in names) + "\n")
