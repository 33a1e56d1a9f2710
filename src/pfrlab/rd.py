"""Blahut-Arimoto rate-distortion solver and tilted information.

The solver is slope-parameterized: for a Lagrange slope s >= 0 (bits per
distortion unit) it alternates

    w(y|x) ∝ q(y) 2^{-s d(x,y)}        (row normalization Z_x)
    q(y)  <- sum_x p(x) w(y|x)

to the fixed point of min_q sum_x p(x) (-log2 sum_y q(y) 2^{-s d(x,y)}).
The per-iteration multiplier c_y = q_new(y)/q_old(y) yields the standard
optimality gap log2(max_y c_y), which upper-bounds how far the returned rate
sits above the curve at the achieved distortion.

Hitting a distortion target is a bisection over the slope, which also hands
back lambda* = -R'(D) for free.  A solution's rate is computed on first read,
so the slopes the bisection tries and discards never pay for one.

The returned solution is self-consistent by construction: the kernel is the
exact reweighting of the returned output marginal, so the identity between
the tilted information at delta = d(x,y) and the information density holds to
float rounding on the whole support.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NotConverged, TargetOutOfRange
from .prob import (DistortionMatrix, FinitePmf, Kernel, SymbolId,
                   mutual_information)

_PRUNE_TOL = 1e-12
# keeps |output_marginal - marginal(kernel)| an order below the 1e-9 contract
_MARGINAL_TOL = 1e-10
# a coordinate with update ratio below 1 - _DYING_TOL is still draining mass;
# convergence waits until it either crosses the prune threshold or its ratio
# settles at 1 (so log2 of the ratio stays within the identity tolerances)
_DYING_TOL = 5e-7


@dataclass(frozen=True)
class RdSolution:
    """One point of the rate-distortion curve with its optimizing objects.

    slope_lambda is the Lagrange slope s = lambda* = -R'(D) in bits per
    distortion unit; kernel is the optimizing conditional law; distortion
    its expected distortion; rate, I(X;Y) in bits at the kernel, is computed
    on first read.  The problem data (source, distortion_matrix) ride along
    so tilted information is computable from the solution alone.
    """

    slope_lambda: float
    kernel: Kernel
    output_marginal: FinitePmf
    distortion: float
    source: FinitePmf
    distortion_matrix: DistortionMatrix

    @cached_property
    def rate(self) -> float:
        """At least 0, and 0 at slope 0, where a marginal an ulp short of 1
        would leave 3e-16 bits."""
        if self.slope_lambda == 0.0:
            return 0.0
        return max(mutual_information(self.source, self.kernel), 0.0)


def _zero_rate_solution(source: FinitePmf, d: DistortionMatrix) -> RdSolution:
    per_y = source.probs @ d.d
    y_star = int(np.argmin(per_y))
    m = d.d.shape[1]
    q = FinitePmf.point_mass(y_star, m)
    rows = np.tile(q.probs, (len(source), 1))
    return RdSolution(slope_lambda=0.0, kernel=Kernel(rows), output_marginal=q,
                      distortion=float(per_y[y_star]),
                      source=source, distortion_matrix=d)


def _assemble(source, d, s, q, a) -> RdSolution:
    z = a @ q
    rows = a * q[None, :] / z[:, None]
    kernel = Kernel(rows)
    dist = float(source.probs @ (rows * d.d).sum(axis=1))
    return RdSolution(slope_lambda=float(s), kernel=kernel,
                      output_marginal=FinitePmf(q), distortion=dist,
                      source=source, distortion_matrix=d)


def ba_fixed_slope(source: FinitePmf, d: DistortionMatrix, s: float,
                   tol: float = 1e-10, max_iter: int = 100_000) -> RdSolution:
    """Parametric RD point at Lagrange slope s, with optimality gap <= tol bits.

    Raises NotConverged (carrying the last iterate in ``last``) if the gap
    criterion is not met within max_iter sweeps.
    """
    if len(source) != d.shape[0]:
        raise ValueError("source length does not match distortion rows")
    if s < 0:
        raise ValueError("slope s must be >= 0")
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if s == 0.0:
        return _zero_rate_solution(source, d)

    p = source.probs
    # an overflowed -s * d is -inf or +inf, whose exp2 (0 or inf) is the limit
    with np.errstate(over="ignore"):
        a = np.exp2(-s * d.d)
    m = d.shape[1]
    q = np.full(m, 1.0 / m)
    iters = 0
    while True:
        converged = False
        while iters < max_iter:
            iters += 1
            z = a @ q
            if np.any(z <= 0.0):
                raise NotConverged(max_iter, last=None)
            c = (p / z) @ a
            gap = math.log2(max(float(c.max()), 1.0))
            drift = float(np.abs(q * (c - 1.0)).max())
            dying = bool(np.any((q > _PRUNE_TOL) & (c < 1.0 - _DYING_TOL)))
            q = q * c
            q /= q.sum()
            if gap <= tol and drift <= _MARGINAL_TOL and not dying:
                converged = True
                break
        if not converged:
            raise NotConverged(max_iter, last=_assemble(source, d, s, q, a))
        small = (q > 0) & (q < _PRUNE_TOL)
        if not small.any():
            break
        q[small] = 0.0
        q /= q.sum()
    return _assemble(source, d, s, q, a)


def solve_at_distortion(source: FinitePmf, d: DistortionMatrix,
                        target_D: float, tol_D: float = 1e-6) -> RdSolution:
    """R(D) point at distortion target_D via bisection on the slope.

    Targets at or above the zero-rate distortion return the rate-0 solution
    (minimal slope); targets below the minimum achievable distortion raise
    TargetOutOfRange.
    """
    if tol_D <= 0:
        raise ValueError("tol_D must be > 0")
    d_min = float(source.probs @ d.d.min(axis=1))
    zero_rate = _zero_rate_solution(source, d)
    if target_D >= zero_rate.distortion:
        return zero_rate
    if target_D < d_min:
        raise TargetOutOfRange(
            f"target_D={target_D} below minimum achievable distortion {d_min}")

    lo = 0.0
    # non-dyadic start keeps the doubling sequence off the small-integer
    # slopes where rate-distortion curves of dyadic models tend to kink
    # (exactly at a kink the alternating minimization is sublinear)
    hi = 0.75
    hi_sol = ba_fixed_slope(source, d, hi)
    grow = 0
    while hi_sol.distortion > target_D:
        if abs(hi_sol.distortion - target_D) <= tol_D:
            return hi_sol
        lo = hi
        hi *= 2.0
        grow += 1
        if grow > 60:
            raise NotConverged(grow, last=hi_sol)
        hi_sol = ba_fixed_slope(source, d, hi)

    best = hi_sol
    for _ in range(200):
        if abs(best.distortion - target_D) <= tol_D:
            return best
        mid = 0.5 * (lo + hi)
        mid_sol = ba_fixed_slope(source, d, mid)
        if abs(mid_sol.distortion - target_D) < abs(best.distortion - target_D):
            best = mid_sol
        if mid_sol.distortion > target_D:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-13 * max(1.0, hi):
            break
    if abs(best.distortion - target_D) <= tol_D:
        return best
    raise NotConverged(200, last=best)


def tilted_information(sol: RdSolution, x: SymbolId, delta: float) -> float:
    """Distortion-tilted information at source symbol x and distortion level delta.

    -log2 E[2^{-lambda* (d(x, Y*) - delta)}] with Y* following the output
    marginal.  At delta = sol.distortion this is the tilted information in x;
    it is linear in delta with slope -lambda*.
    """
    q = sol.output_marginal.probs
    mask = q > 0
    lam = sol.slope_lambda
    drow = sol.distortion_matrix.d[x]
    with np.errstate(over="ignore"):  # as in ba_fixed_slope
        val = float(np.dot(q[mask], np.exp2(-lam * (drow[mask] - delta))))
    return -math.log2(val)
