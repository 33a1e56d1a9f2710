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

Every trial derives its own seed from (seed, trial index), so its row does
not depend on how trials are grouped; one single-threaded loop over
:func:`trial_chunks` drives both the sweep here and the Gray-Wyner trials.
The sweep's table comes a span at a time (:func:`trial_tables`), so its
memory does not grow with the trial count.

The trial engine works on spans of trials.  For a span it derives every
trial's keys in one pass, draws the source symbols at once, and runs the
selections side by side (:func:`select_span`): each round of
codebook.scan_rounds draws the next points of every unfinished scan and
applies the stop rule to all of them with pfr_scan_rows.  The results equal
those of one pfr_select per trial, bit for bit, whatever the span and round
sizes; scan_rounds itself replays a stream whose drawn gaps hold a zero.
The sweep selects over spans of _SPAN = 1024 trials, where scan_rounds
sizes rounds of one 8-point time group, or one 4-point SHA-256 block at
f_max <= 3, so each scan draws just the groups or blocks its stop rule
examines.  Every table a solution needs, for the trials and for the bound
sums, comes from one cached build (:func:`_tables`).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitcodes import delta_code_length, plain_code_length
from .codebook import scan_rounds, span_keys, stream_keys
from .errors import UnsupportedEta
from .pfr import _ratio_rows, pfr_scan_rows
from .prob import FinitePmf, Seed, entropy, information_density_table, sample_pmf_keys
from .rd import RdSolution, tilted_information

# trials per span of the sweep's selections and CSV batch, and at most per
# Gray-Wyner chunk; it bounds their working arrays whatever n is
_SPAN = 1024

ETA_KINDS = ("PRR", "PSR", "PSDR")
CODE_KINDS = ("plain", "delta")

CSV_HEADER = ("trial,x,y,k,len_plain,len_delta,dist,iota,j_x,j_xd,"
              "prr_plain,psr_plain,psdr_plain,prr_delta,psr_delta,psdr_delta")


@dataclass(frozen=True)
class TailEstimate:
    """Empirical tail fraction with its binomial standard error."""

    gamma: float
    p_hat: float
    std_err: float
    n: int

    @classmethod
    def from_count(cls, gamma: float, count: int, n: int) -> "TailEstimate":
        """The estimate from count of n trials at or above gamma.  count / n
        equals the mean of the trials' 0/1 indicators bit for bit: their float
        sum is exact."""
        p_hat = count / n
        return cls(gamma=float(gamma), p_hat=p_hat,
                   std_err=math.sqrt(p_hat * (1.0 - p_hat) / n), n=n)


@lru_cache(maxsize=16)
def _tables(sol: RdSolution):
    """Every per-solution table, built once: (iota, j_x, j_xd, bound).

    iota, j_x and j_xd are the per-(x, y) lookups of the trial loop.  j(x,
    d(x, y)) is evaluated once per distinct distortion level in row x; the
    affine form j(x, D) - lambda* (d(x, y) - D) is not bit-identical (it
    turns an exact -0 into -1.1e-16 in the CSV).  bound holds bound_rhs's
    tables that do not depend on gamma: on the (x, y) where source x kernel
    is positive, those weights, iota, 2^iota + 1 and the eta column of each
    kind.
    """
    iota = information_density_table(sol.kernel.rows, sol.output_marginal.probs)
    nx = iota.shape[0]
    j_x = np.array([tilted_information(sol, x, sol.distortion) for x in range(nx)])
    j_xd = np.empty(iota.shape)
    for x, drow in enumerate(sol.distortion_matrix.d):
        levels, at = np.unique(drow, return_inverse=True)
        j_xd[x] = np.array([tilted_information(sol, x, float(v)) for v in levels])[at]
    w = sol.source.probs[:, None] * sol.kernel.rows
    mask = w > 0.0
    etas = dict(PRR=np.full(mask.sum(), sol.rate),
                PSR=np.broadcast_to(j_x[:, None], w.shape)[mask], PSDR=j_xd[mask])
    return iota, j_x, j_xd, (w[mask], iota[mask], np.exp2(iota[mask]) + 1.0, etas)


def chunk_spans(n: int, width: int):
    """The spans of range(n) of width trials each (the last may be shorter), in order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return (range(c, min(c + width, n)) for c in range(0, n, width))


def trial_chunks(source: FinitePmf, seed: Seed, n: int, width: int):
    """(span, xs) per span of chunk_spans(n, width); xs are the trials' source
    draws, which do not depend on width."""
    for span in chunk_spans(n, width):
        keys = span_keys(seed, span, "source", ("draw",))[0]
        yield span, sample_pmf_keys(source, keys)


def select_span(keys, targets, xs, proposal: FinitePmf):
    """(k, y) arrays of pfr_select(targets[xs[i]], proposal, stream i), batched.

    Stream i has gap key keys[0][i] and mark key keys[1][i], as stream_keys
    gives them, and marks from proposal.  The results equal the streaming
    scan's, bit for bit, whatever the span.  scan_rounds sizes the rounds from
    the span's largest f_max, so a round's arrays hold at most
    codebook.MAX_POINTS points; the other working arrays grow with the span.
    """
    f, f_max = _ratio_rows(tuple(targets), proposal)
    k, y = np.zeros((2, len(xs)), dtype=np.int64)
    scale = f_max[xs]
    best = np.full(len(xs), math.inf)

    def step(live, start, times, marks):
        stop, col, score = pfr_scan_rows(f[xs[live, None], marks], times,
                                         scale[live], best[live])
        better = score < best[live]
        won = live[better]
        best[won] = score[better]
        k[won] = start + col[better] + 1
        y[won] = marks[better, col[better]]
        return stop == times.shape[1]

    scan_rounds(keys, proposal, float(scale.max()), step)
    return k, y


def _per_k(k: np.ndarray, *fns) -> tuple:
    """The column fn(k) for each fn, evaluated once per distinct k and gathered."""
    distinct, at = np.unique(k, return_inverse=True)
    return tuple(np.array([fn(v) for v in distinct.tolist()])[at] for fn in fns)


def trial_tables(sol: RdSolution, n: int, seed: Seed):
    """run_trials' table one span of _SPAN trials at a time: each yield holds
    the columns of rows span.start..span.stop, so memory does not grow with n."""
    iota, j_x, j_xd, _ = _tables(sol)
    targets, q, rate, d = (sol.kernel.pmfs, sol.output_marginal, sol.rate,
                           sol.distortion_matrix.d)
    for span, x in trial_chunks(sol.source, seed, n, _SPAN):
        k, y = select_span(stream_keys(seed, span, "codebook"), targets, x, q)
        # math.log2, not np.log2: that is 1 ulp off at k = 1621 and would change the CSV
        log_k, len_plain, len_delta = _per_k(k, math.log2, plain_code_length,
                                             delta_code_length)
        jx, jxd = j_x[x], j_xd[x, y]
        yield dict(trial=np.arange(span.start, span.stop), x=x, y=y, k=k,
                   len_plain=len_plain, len_delta=len_delta, dist=d[x, y],
                   iota=iota[x, y], j_x=jx, j_xd=jxd, prr_plain=log_k - rate,
                   psr_plain=log_k - jx, psdr_plain=log_k - jxd,
                   prr_delta=len_delta - rate, psr_delta=len_delta - jx,
                   psdr_delta=len_delta - jxd)


def run_trials(sol: RdSolution, n: int, seed: Seed) -> dict:
    """n independent trials of the one-shot scheme on sol's source, distortion
    and kernel; deterministic in (sol, seed, n).  Returns the trial table: a
    dict of CSV_HEADER's fields to numpy columns."""
    tables = list(trial_tables(sol, n, seed))
    return {c: np.concatenate([t[c] for t in tables]) for c in tables[0]}


def _check_kinds(eta_kind: str, code_kind: str) -> None:
    if eta_kind not in ETA_KINDS:
        raise UnsupportedEta(f"unknown redundancy kind {eta_kind!r}")
    if code_kind not in CODE_KINDS:
        raise ValueError(f"unknown code kind {code_kind!r}")


def estimate_tail(table: dict, eta_kind: str, code_kind: str,
                  gamma: float) -> TailEstimate:
    """Empirical P(length - eta >= gamma) over the rows of a trial table."""
    _check_kinds(eta_kind, code_kind)
    vals = table[f"{eta_kind.lower()}_{code_kind}"]
    n = vals.size
    if n == 0:
        raise ValueError("the trial table must be nonempty")
    return TailEstimate.from_count(gamma, int(np.count_nonzero(vals >= gamma)), n)


def _exp2(e: float) -> float:
    """2.0 ** e, or +inf (a valid bound) where that overflows; times a float, too."""
    return 2.0 ** e if e < 1024.0 else math.inf


def bound_rhs(sol: RdSolution, eta_kind: str, code_kind: str, gamma: float,
              variant: str = "") -> float:
    """Exact right-hand side of the applicable tail bound, an expectation over
    sol.source and sol.kernel.

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

    weights, iota, iota_up, etas = _tables(sol)[3]
    eta = etas[eta_kind]
    if variant == "general":
        return _exp2(-gamma + 1.0) * float(np.dot(weights, np.exp2(-eta) * iota_up))
    # 2^{-eta-g} overflows to inf for g below about -1020; such a term clips to 1.
    # [.]_+ is capped so its square stays finite: past 1e150 the 2^-g factor is 0
    with np.errstate(over="ignore"):
        if variant == "clipped":
            term = np.exp2(-eta - gamma + 1.0) * iota_up
            return float(np.dot(weights, np.minimum(term, 1.0)))
        if variant == "prefix":
            plus = np.clip(eta + gamma, 0.0, 1e150)
            term = np.exp2(-eta - gamma + 2.0) * (plus + 1.0) ** 2 * iota_up
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


def summary_stats(table: dict, sol: RdSolution) -> TrialSummary:
    """Averages, their standard errors, and the expected-length comparison targets."""
    ks = table["k"]
    if ks.size == 0:
        raise ValueError("the trial table must be nonempty")
    _, counts = np.unique(ks, return_counts=True)
    stats = {}
    for name in ("dist", "len_plain", "len_delta", "log2_k", "j_x", "j_xd"):
        vals = np.log2(ks) if name == "log2_k" else table[name].astype(float)
        stats[f"mean_{name}"], stats[f"se_{name}"] = _mean_se(vals)
    m_lk, r = stats["mean_log2_k"], sol.rate
    return TrialSummary(
        n=ks.size, **stats, entropy_k=entropy(FinitePmf(counts / counts.sum())),
        rate=r, plain_target=r + 2.01,
        delta_target=r + math.log2(r + 3.01) + 4.01,
        entropy_k_bound=m_lk + math.log2(m_lk + 1.0) + 1.0)


def _write_table(table: dict, fh) -> None:
    """Write a trial table of 64-bit columns as CSV: a header of its keys where
    fh is at offset 0, so tables of consecutive spans append to one file, then
    a line per row, %d for integer columns and %.9g for floats.  _SPAN rows at
    a time, each column's distinct values are formatted once and gathered;
    values are told apart by their bits, so -0.0 stays -0."""
    cols = list(table.values())
    specs = ["%d" if c.dtype.kind in "iu" else "%.9g" for c in cols]
    if fh.tell() == 0:
        fh.write(",".join(table) + "\n")
    for c in range(0, cols[0].size, _SPAN):
        fields = []
        for col, spec in zip(cols, specs):
            part = col[c:c + _SPAN]
            bits, at = np.unique(part.view(np.int64), return_inverse=True)
            text = np.array([spec % v for v in bits.view(part.dtype).tolist()],
                            dtype=object)
            fields.append(text[at].tolist())
        fh.write("\n".join(map(",".join, zip(*fields))) + "\n")


def records_to_csv(table: dict, fh) -> None:
    """Write run_trials' table, or each of trial_tables' in turn to one fh;
    floats carry 9 significant digits."""
    _write_table(table, fh)
