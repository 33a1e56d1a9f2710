"""Poisson functional representation: exact selection over an infinite process.

Given a target law P and a proposal law Q with P << Q, the selector returns
K = argmin_i T_i / f(mark_i) over a marked Poisson stream with marks ~ Q,
where f = dP/dQ is the density ratio (a ratio of pmf entries here).  The
selected mark is distributed exactly P, and K given the selected mark y is
geometric with parameter 1 / E[max{f(y), f(Y')}], Y' ~ Q.

The argmin over the infinite process is certified by a finite stopping rule:
with f_max = max_y f(y), no point arriving after time f_max * (best score so
far) can improve the minimum, so generation stops there.

pfr_select runs the rule one point at a time over any stream; pfr_scan_rows
runs the same rule over a round of points for many scans at once.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AbsoluteContinuityViolated
from .prob import FinitePmf, SymbolId


@dataclass(frozen=True)
class PfrResult:
    """Selected index k, its mark y, the winning score, and points generated.

    examined is the index of the point whose arrival time certified that no
    later point can win; the stream stops there.
    """

    k: int
    y: SymbolId
    score: float
    examined: int


def _density_ratio(target: FinitePmf, proposal: FinitePmf) -> np.ndarray:
    if len(target) != len(proposal):
        raise ValueError("target and proposal need a common alphabet")
    p, q = target.probs, proposal.probs
    if np.any((p > 0) & (q == 0)):
        raise AbsoluteContinuityViolated("target has mass where proposal is zero")
    with np.errstate(over="ignore"):
        f = np.divide(p, q, out=np.zeros_like(p), where=q > 0)
    # an infinite f_max would make the stop test inf * 0 = nan, never true
    if not np.all(np.isfinite(f)):
        raise ValueError("target / proposal overflows: a proposal entry is too small")
    return f


@lru_cache(maxsize=512)
def _ratio_rows(targets: tuple, proposal: FinitePmf):
    """Density ratios of the targets against one proposal, a row each; row maxima."""
    f = np.array([_density_ratio(t, proposal) for t in targets])
    f_max = f.max(axis=1)
    f.flags.writeable = f_max.flags.writeable = False
    return f, f_max


@lru_cache(maxsize=512)
def _mark_law_matches(mark_law: FinitePmf, proposal: FinitePmf) -> bool:
    return bool(np.allclose(mark_law.probs, proposal.probs, rtol=0, atol=1e-9))


def pfr_select(target: FinitePmf, proposal: FinitePmf, stream,
               *, horizon_scale: float = 1.0) -> PfrResult:
    """Exact argmin_i T_i / f(mark_i); marks with f = 0 are skipped but keep their index.

    stream yields (index, mark, time) triples in arrival order and carries
    a mark_law, which must be the proposal.  horizon_scale > 1 extends the
    scan past the provable cutoff (used to regression-test the stopping rule;
    the result never changes).
    """
    rows, f_max = _ratio_rows((target,), proposal)
    f = rows[0].tolist()
    if not _mark_law_matches(stream.mark_law, proposal):
        raise ValueError("stream mark law differs from the proposal")
    stop_scale = horizon_scale * float(f_max[0])
    best = math.inf
    best_k = 0
    best_y = -1
    for idx, mark, t in stream:
        if t >= best * stop_scale:
            return PfrResult(best_k, best_y, best, idx)
        fy = f[mark]
        if fy > 0.0:
            score = t / fy
            if score < best:
                best, best_k, best_y = score, idx, mark


def pfr_scan_rows(fy: np.ndarray, times: np.ndarray, stop_scale: np.ndarray,
                  best: np.ndarray) -> tuple:
    """pfr_select's loop over one round of points for many scans at once.

    Row i continues a scan whose best score so far is best[i]; its next
    points have arrival times times[i] and density ratios fy[i].  The stop
    test of each point uses the minimum score of the points before it, a
    prefix minimum.  Returns (stop, col, score): stop[i] is the column of
    the point that stops the scan, or the row length when no point does;
    score[i] is the least score of the columns before stop[i], first taken
    at column col[i].  The scan's best changes only where score < best.
    """
    rows, n = times.shape
    scores = np.divide(times, fy, out=np.full(times.shape, math.inf), where=fy > 0.0)
    before = np.minimum.accumulate(
        np.concatenate([best[:, None], scores[:, :-1]], axis=1), axis=1)
    hit = times >= before * stop_scale[:, None]
    stop = np.where(hit.any(axis=1), hit.argmax(axis=1), n)
    scored = np.where(np.arange(n) < stop[:, None], scores, math.inf)
    col = scored.argmin(axis=1)
    return stop, col, scored[np.arange(rows), col]


def geometric_parameter_exact(target: FinitePmf, proposal: FinitePmf,
                              y: SymbolId) -> float:
    """Exact conditional-geometric parameter of K given the selected mark y."""
    f = _density_ratio(target, proposal)
    if f[y] <= 0.0:
        raise ValueError(f"target({y}) must be positive")
    return 1.0 / float(np.dot(proposal.probs, np.maximum(f[y], f)))


def dominance_parameter(target: FinitePmf, proposal: FinitePmf,
                        y: SymbolId) -> float:
    """Parameter of the dominating geometric law J given mark y: 1/(f(y) + 1).

    First-order dominates the exact conditional law of K, since
    E[max{f(y), f(Y')}] <= f(y) + 1.
    """
    f = _density_ratio(target, proposal)
    if f[y] <= 0.0:
        raise ValueError(f"target({y}) must be positive")
    return 1.0 / (float(f[y]) + 1.0)
