"""One-shot lossy Gray-Wyner coding via nested functional-representation selection.

One encoder sees a source pair (x1, x2) and emits three positive integers.
Decoder 1 reconstructs from (k0, k1), decoder 2 from (k0, k2).  The common
index k0 selects an auxiliary symbol u from a marked Poisson stream with
marks following the u-marginal; each private index then selects from a
*re-sorted* stream: the y-stream's times are rescaled by 2^{-iota(u; mark)}
and re-indexed in ascending order, which conditionally on u is again a
marked Poisson process whose marks follow the conditional law given u.

Encoder and decoder share only the seed; replaying the streams reproduces
the identical selections, so decoding is exact.

gw_encode and gw_decode run one trial, re-sorting through a heap.  Batched,
gw_run_trials encodes a chunk of trials to the same results: the common index
on redundancy.select_span, each private one on rounds of base points scanned
in re-sorted order, both on codebook.scan_rounds, which replays a stream
whose drawn gaps hold a zero.  It then decodes the chunk with the same stream
keys, as an independent replay with its own rounds and stop rule, and raises
RoundTripMismatch at the first trial whose decode differs.  A chunk holds
_SPAN trials, or fewer where they would pass codebook.MAX_POINTS points at
the model's longest expected private scan (GwModel.chunk_width).  The
gray-wyner command also replays its first 32 trials through gw_encode and
gw_decode as a check."""

import heapq
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .bitcodes import plain_code_length
from .codebook import (MAX_POINTS, CodebookStream, MarkedPoint, arrival_stream,
                       nth_marks, scan_rounds, stream_keys)
from .errors import RoundTripMismatch, UnsupportedPoint
from .pfr import pfr_scan_rows, pfr_select
from .prob import (FinitePmf, Kernel, Seed, SymbolId, _frozen_array,
                   information_density_table, mutual_information, weighted_kl)
from .redundancy import _SPAN, _per_k, _write_table, select_span, trial_chunks

GW_CSV_HEADER = "trial,x1,x2,u,y1,y2,k0,k1,k2,len0,len1,len2"


@dataclass(frozen=True)
class GwModel:
    """Source pair, auxiliary channel, and the two private reconstruction channels.

    joint_source is an (n1, n2) matrix; u_kernel rows are indexed by
    x1 * n2 + x2, y1_kernel rows by x1 * nu + u, y2_kernel rows by
    x2 * nu + u.  All derived marginals are computed by composition.
    """

    joint_source: np.ndarray
    u_kernel: Kernel
    y1_kernel: Kernel
    y2_kernel: Kernel

    def __post_init__(self):
        a = _frozen_array(self.joint_source, 2, "joint_source")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValueError("joint_source must sum to 1")
        object.__setattr__(self, "joint_source", a)
        n1, n2 = a.shape
        nu = self.u_kernel.shape[1]
        if self.u_kernel.shape[0] != n1 * n2:
            raise ValueError("u_kernel must have n1*n2 rows")
        if self.y1_kernel.shape[0] != n1 * nu:
            raise ValueError("y1_kernel must have n1*nu rows")
        if self.y2_kernel.shape[0] != n2 * nu:
            raise ValueError("y2_kernel must have n2*nu rows")
        # the re-sort tables reject a model with iota(u; y) = +inf for a
        # drawable y (a p(u) so small that 1 / p(y) overflows): build them now
        self.sides

    @property
    def n1(self) -> int:
        return self.joint_source.shape[0]

    @property
    def n2(self) -> int:
        return self.joint_source.shape[1]

    @property
    def nu(self) -> int:
        return self.u_kernel.shape[1]

    def u_target(self, x1: SymbolId, x2: SymbolId) -> FinitePmf:
        return self.u_kernel.row(x1 * self.n2 + x2)

    @cached_property
    def source_pmf(self) -> FinitePmf:
        return FinitePmf(self.joint_source.reshape(-1))

    @cached_property
    def p_u(self) -> FinitePmf:
        return self.u_kernel.output_marginal(self.source_pmf)

    @cached_property
    def sides(self) -> tuple:
        """(decoder 1, decoder 2) as GwSide objects, built once per model."""
        w = self.joint_source.reshape(-1)[:, None] * self.u_kernel.rows
        w = w.reshape(self.n1, self.n2, self.nu)
        return (GwSide(w.sum(axis=1), self.y1_kernel, "gw-y1"),
                GwSide(w.sum(axis=0), self.y2_kernel, "gw-y2"))

    @cached_property
    def mi_u_sources(self) -> float:
        """I(U; X1, X2) in bits."""
        return mutual_information(self.source_pmf, self.u_kernel)

    def mi_y_source_given_u(self, which: int) -> float:
        """I(Y_i; X_i | U) in bits, summed over u, then x."""
        side = self.sides[which - 1]
        xs = range(side.p_x_u.shape[0])
        return weighted_kl(side.p_x_u.T.ravel(),
                           [side.target(x, u) for u in range(side.nu) for x in xs],
                           [q for q in side.cond_pmfs for _ in xs])

    @cached_property
    def chunk_width(self) -> int:
        """Trials per chunk of gw_run_trials: _SPAN, or fewer where they times the
        longest expected private scan would pass MAX_POINTS points.  That scan
        is the max of r[u] f_max over the drawable (x, u) rows of both sides."""
        scan = max((s.r * s.f_max.reshape(-1, self.nu))[s.p_x_u > 0].max()
                   for s in self.sides)
        return int(max(1, min(_SPAN, MAX_POINTS // scan)))


@dataclass(frozen=True)
class GwResult:
    k0: int
    k1: int
    k2: int
    u: SymbolId
    y1: SymbolId
    y2: SymbolId


class ResortedStream:
    """Base-stream points with times rescaled by 2^{-iota(u; mark)}, re-indexed ascending.

    scale is the row 2^{-iota(u; .)} and r the release ratio, the max over
    drawable marks of 2^{iota(u; mark)}; mark_law is the conditional law of
    the emitted marks given u.  A transformed point is released only
    once the raw-time frontier exceeds (its transformed time) * r: no raw
    point generated later can map below it, so the emitted order is exact.
    Marks with iota = -inf map to infinite times and are never released.
    """

    def __init__(self, base: CodebookStream, scale: list, r: float,
                 mark_law: FinitePmf):
        self.base = base
        self._scale = scale
        self._r = r
        self.mark_law = mark_law
        self.cursor = 0
        self._heap = []
        self._frontier = 0.0
        self._seq = 0

    def next_marked_point(self) -> MarkedPoint:
        heap = self._heap
        scale = self._scale
        r = self._r
        advance = iter(self.base).__next__
        frontier = self._frontier
        while not heap or heap[0][0] > frontier / r:
            _, mark, t = advance()
            frontier = t
            t_new = t * scale[mark]
            if math.isfinite(t_new):
                self._seq += 1
                heapq.heappush(heap, (t_new, self._seq, mark))
        self._frontier = frontier
        t_new, _, mark = heapq.heappop(heap)
        self.cursor += 1
        return MarkedPoint(self.cursor, mark, t_new)

    def __iter__(self):
        while True:
            yield self.next_marked_point()


class GwSide:
    """One decoder side: the (x_i, u) -> y_i channel and every law derived from it.

    kernel rows are indexed by x_i * nu + u and p_x_u is the joint law of
    (x_i, u).  Holds p_y, p(y | u) with its pmfs, the iota(u; y) table that
    drives the time rescaling, the re-sort tables (scale and r, a row and an
    entry per u), and the density ratios of the targets against p(y | u).
    """

    def __init__(self, p_x_u: np.ndarray, kernel: Kernel, label: str):
        (nx, nu), ny = p_x_u.shape, kernel.shape[1]
        self.p_x_u, self.kernel, self.nu, self.label = p_x_u, kernel, nu, label
        # a sum over x in order, as a loop over x adds (numpy's may pair terms)
        joint_uy = sum((p_x_u.reshape(-1, 1) * kernel.rows).reshape(nx, nu, ny))
        s = joint_uy.sum(axis=1, keepdims=True)
        # an unreachable u gets a uniform placeholder row
        cond = np.divide(joint_uy, s, out=np.full((nu, ny), 1.0 / ny), where=s > 0)
        self.p_y = FinitePmf(joint_uy.sum(axis=0))
        self.p_y_given_u = cond
        self.cond_pmfs = Kernel(cond).pmfs
        self.iota = information_density_table(cond, self.p_y.probs)
        drawable = self.p_y.probs > 0
        if np.isposinf(self.iota[:, drawable]).any():
            raise ValueError("iota(u; mark) must be < +inf for drawable marks")
        self.scale = np.exp2(-self.iota)
        self.r = np.exp2(self.iota[:, drawable]).max(axis=1)
        q = np.tile(cond, (nx, 1))  # row x * nu + u: p(y | u), the proposal
        self.f = np.divide(kernel.rows, q, out=np.zeros_like(q), where=q > 0)
        self.f_max = self.f.max(axis=1)

    def target(self, x: SymbolId, u: SymbolId) -> FinitePmf:
        """The kernel row of (x_i, u): the law y_i is selected from."""
        return self.kernel.row(x * self.nu + u)

    def stream(self, u: SymbolId, seed: Seed) -> ResortedStream:
        """This side's shared y-stream under seed, re-sorted for u."""
        return ResortedStream(arrival_stream(seed, self.label, self.p_y),
                              self.scale[u].tolist(), float(self.r[u]), self.cond_pmfs[u])

    def scan_span(self, keys, us, xs=None, ks=None) -> tuple:
        """(k, y) of gw_encode's selection on this side for rows (xs, us), or of
        gw_decode's point ks[i] for rows (us, ks).

        Rounds add base points to each live row, kept in (tau, base index)
        order, tau = t * scale[u][mark] (inf: never released).  Encoding runs
        pfr_scan_rows over them until the raw frontier reaches r * f_max * best;
        decoding until frontier / r reaches tau of point ks[i], as the heap does.
        """
        r = self.r[us]
        if ks is None:
            rows = xs * self.nu + us
            bound = r * self.f_max[rows]
        k, y = np.zeros((2, len(us)), dtype=np.int64)
        drawn = []

        def step(live, start, times, marks):
            new = times * self.scale[us[live, None], marks], marks
            if drawn:
                at = np.searchsorted(drawn[0], live)
                new = [np.concatenate([a[at], b], axis=1) for a, b in zip(drawn[1:], new)]
            at = np.arange(live.size)[:, None], np.argsort(new[0], axis=1, kind="stable")
            drawn[:] = live, tau, marks = live, new[0][at], new[1][at]
            at, frontier = np.arange(live.size), times[:, -1]
            if ks is None:
                _, col, best = pfr_scan_rows(self.f[rows[live, None], marks], tau,
                                             self.f_max[rows[live]],
                                             np.full(live.size, math.inf))
                done = frontier >= bound[live] * best
            else:
                col = np.minimum(ks[live], tau.shape[1]) - 1
                done = (ks[live] <= tau.shape[1]) & (tau[at, col] <= frontier / r[live])
            k[live], y[live] = col + 1, marks[at, col]
            return ~done

        scan = bound.max() if ks is None else np.mean(r * ks)
        scan_rounds(keys, self.p_y, float(scan), step)
        return k, y


def gw_encode(model: GwModel, x1: SymbolId, x2: SymbolId, seed: Seed) -> GwResult:
    """Three-index encoding of the source pair under the shared seed."""
    r0 = pfr_select(model.u_target(x1, x2), model.p_u,
                    arrival_stream(seed, "gw-u", model.p_u))
    u = r0.y
    r1, r2 = (pfr_select(side.target(x, u), side.cond_pmfs[u], side.stream(u, seed))
              for side, x in zip(model.sides, (x1, x2)))
    return GwResult(k0=r0.k, k1=r1.k, k2=r2.k, u=u, y1=r1.y, y2=r2.y)


def _nth_mark(stream, k: int) -> SymbolId:
    return next(islice(stream, k - 1, None))[1]


def gw_decode(model: GwModel, k0: int, k1: int, k2: int, seed: Seed) -> tuple:
    """Reconstruct (u, y1, y2) by replaying the shared streams.

    (u, y1) is a function of (seed, k0, k1) only, and (u, y2) of
    (seed, k0, k2) only, so each decoder needs just its own pair.
    """
    u = _nth_mark(arrival_stream(seed, "gw-u", model.p_u), k0)
    y1, y2 = (_nth_mark(side.stream(u, seed), k)
              for side, k in zip(model.sides, (k1, k2)))
    return u, y1, y2


def gw_dominance_params(model: GwModel, x1: SymbolId, x2: SymbolId,
                        u: SymbolId, y1: SymbolId, y2: SymbolId) -> tuple:
    """Geometric parameters of the three dominating index laws at the tuple."""
    laws = [(float(model.p_u.probs[u]), float(model.u_target(x1, x2).probs[u]))]
    for side, x, y in zip(model.sides, (x1, x2), (y1, y2)):
        laws.append((float(side.p_y_given_u[u, y]), float(side.target(x, u).probs[y])))
    if min(min(pair) for pair in laws) <= 0.0:
        raise UnsupportedPoint("a conditional probability at the tuple is zero")
    return tuple(1.0 / (t / c + 1.0) for c, t in laws)


def gw_run_trials(model: GwModel, n: int, seed: Seed) -> dict:
    """n trials of gw_encode(model, x1, x2, derive_subseed(seed, t, "gw")), with
    source pairs drawn from the model, a chunk at once.  Each chunk is decoded
    again from its keys; RoundTripMismatch names the first trial that decodes to
    another (u, y1, y2).
    Returns the trial table, a numpy column per field of GW_CSV_HEADER."""
    # a pair of probability 0 is never drawn; p_u stands in for its u-target
    u_rows = [row if w > 0 else model.p_u
              for row, w in zip(model.u_kernel.pmfs, model.source_pmf.probs)]
    parts = []
    for span, pairs in trial_chunks(model.source_pmf, seed, n, model.chunk_width):
        keys = stream_keys(seed, span, "gw", "gw-u", "gw-y1", "gw-y2")
        k0, u = select_span(keys[:2], u_rows, pairs, model.p_u)
        x1, x2 = np.divmod(pairs, model.n2)
        (k1, y1), (k2, y2) = (side.scan_span(kk, u, xs=x) for side, kk, x
                              in zip(model.sides, (keys[2:4], keys[4:]), (x1, x2)))
        bad = (gw_decode_chunk(model, keys, (k0, k1, k2)) != (u, y1, y2)).any(axis=0)
        if bad.any():
            raise RoundTripMismatch(span[bad.argmax()])
        parts.append((x1, x2, u, y1, y2, k0, k1, k2))
    x1, x2, u, y1, y2, k0, k1, k2 = (np.concatenate(col) for col in zip(*parts))
    len0, len1, len2 = (_per_k(k, plain_code_length)[0] for k in (k0, k1, k2))
    return dict(trial=np.arange(n), x1=x1, x2=x2, u=u, y1=y1, y2=y2, k0=k0, k1=k1,
                k2=k2, len0=len0, len1=len1, len2=len2)


def gw_decode_chunk(model: GwModel, keys, ks) -> np.ndarray:
    """(u, y1, y2) rows of gw_decode(model, *ks[:, i], derive_subseed(seed, t, "gw"))
    for each trial t of a span, keys its stream_keys(seed, span, "gw", "gw-u",
    "gw-y1", "gw-y2"); ks holds the k0, k1 and k2 columns."""
    u = nth_marks(keys[1], ks[0], model.p_u.cumulative())
    return np.stack([u, *(side.scan_span(kk, u, ks=k)[1] for side, kk, k
                          in zip(model.sides, (keys[2:4], keys[4:]), ks[1:]))])


def gw_records_to_csv(table: dict, fh) -> None:
    _write_table(table, fh)
