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
gw_run_trials and gw_decode_trials run a chunk of trials to the same results:
the common index on redundancy.select_span, each private one on rounds of base
points scanned in re-sorted order.  The gray-wyner command decodes every trial
so, and replays its first 32 through gw_encode and gw_decode as a check."""

import heapq
import math
from dataclasses import astuple, dataclass
from functools import cached_property

import numpy as np

from .codebook import (CodebookStream, MarkedPoint, arrival_stream, derive_subseed,
                       nth_marks, stream_keys)
from .errors import UnsupportedPoint
from .pfr import pfr_scan_rows, pfr_select
from .prob import FinitePmf, Kernel, Seed, SymbolId, kl_divergence
from .redundancy import (_round_points, chunk_spans, scan_rounds, select_span,
                         trial_chunks)

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
        a = np.asarray(self.joint_source, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError("joint_source must be an (n1, n2) matrix")
        if np.any(a < 0) or not np.all(np.isfinite(a)):
            raise ValueError("joint_source entries must be finite and >= 0")
        if abs(a.sum() - 1.0) > 1e-12:
            raise ValueError("joint_source must sum to 1")
        a = a.copy()
        a.flags.writeable = False
        object.__setattr__(self, "joint_source", a)
        n1, n2 = a.shape
        nu = self.u_kernel.shape[1]
        if self.u_kernel.shape[0] != n1 * n2:
            raise ValueError("u_kernel must have n1*n2 rows")
        if self.y1_kernel.shape[0] != n1 * nu:
            raise ValueError("y1_kernel must have n1*nu rows")
        if self.y2_kernel.shape[0] != n2 * nu:
            raise ValueError("y2_kernel must have n2*nu rows")

    @property
    def n1(self) -> int:
        return self.joint_source.shape[0]

    @property
    def n2(self) -> int:
        return self.joint_source.shape[1]

    @property
    def nu(self) -> int:
        return self.u_kernel.shape[1]

    @cached_property
    def _u_rows(self) -> tuple:
        return tuple(self.u_kernel.row(i) for i in range(self.u_kernel.shape[0]))

    def u_target(self, x1: SymbolId, x2: SymbolId) -> FinitePmf:
        return self._u_rows[x1 * self.n2 + x2]

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
        total = 0.0
        for row, w in enumerate(self.source_pmf.probs):
            if w > 0:
                total += w * kl_divergence(self.u_kernel.row(row), self.p_u)
        return total

    def mi_y_source_given_u(self, which: int) -> float:
        """I(Y_i; X_i | U) in bits."""
        side = self.sides[which - 1]
        total = 0.0
        for u, cond_pmf in enumerate(side.cond_pmfs):
            for x in range(side.p_x_u.shape[0]):
                w = side.p_x_u[x, u]
                if w > 0:
                    total += w * kl_divergence(side.target(x, u), cond_pmf)
        return total

    def conditional_triple_law(self, x1: SymbolId, x2: SymbolId) -> np.ndarray:
        """Law of (u, y1, y2) given the source pair, as a (nu, ny1, ny2) array."""
        pu = self.u_target(x1, x2).probs
        s1, s2 = self.sides
        return np.stack([pu[u] * np.outer(s1.target(x1, u).probs, s2.target(x2, u).probs)
                         for u in range(self.nu)])


@dataclass(frozen=True)
class GwResult:
    k0: int
    k1: int
    k2: int
    u: SymbolId
    y1: SymbolId
    y2: SymbolId


def resort_tables(base_law: FinitePmf, iota_row) -> tuple:
    """Re-sort tables for one u: the scale row 2^{-iota(u; .)}, as a list, and
    the release ratio r = max over drawable marks of 2^{iota(u; mark)}."""
    row = np.asarray(iota_row, dtype=np.float64)
    drawable = base_law.probs > 0
    if np.any(np.isposinf(row[drawable])):
        raise ValueError("iota(u; mark) must be < +inf for drawable marks")
    return np.exp2(-row).tolist(), float(np.exp2(row[drawable]).max())


class ResortedStream:
    """Base-stream points with times rescaled by 2^{-iota(u; mark)}, re-indexed ascending.

    scale and r come from :func:`resort_tables`; mark_law is the conditional
    law of the emitted marks given u.  A transformed point is released only
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
        advance = self.base.next_marked_point
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
    drives the time rescaling, the re-sort tables for each u, and the density
    ratios of the targets against p(y | u).
    """

    def __init__(self, p_x_u: np.ndarray, kernel: Kernel, label: str):
        (nx, nu), ny = p_x_u.shape, kernel.shape[1]
        self.p_x_u, self.nu, self.label = p_x_u, nu, label
        self.rows = tuple(kernel.row(i) for i in range(kernel.shape[0]))
        # a sum over x in order, as a loop over x adds (numpy's may pair terms)
        joint_uy = sum((p_x_u.reshape(-1, 1) * kernel.rows).reshape(nx, nu, ny))
        s = joint_uy.sum(axis=1, keepdims=True)
        # an unreachable u gets a uniform placeholder row
        cond = np.divide(joint_uy, s, out=np.full((nu, ny), 1.0 / ny), where=s > 0)
        self.p_y = FinitePmf(joint_uy.sum(axis=0))
        self.p_y_given_u = cond
        self.cond_pmfs = tuple(FinitePmf(row) for row in cond)
        p_y = self.p_y.probs
        with np.errstate(divide="ignore"):
            self.iota = np.where(cond > 0.0,
                                 np.log2(np.divide(cond, p_y[None, :],
                                                   out=np.ones_like(cond),
                                                   where=p_y > 0)),
                                 -np.inf)
        self.resort = tuple(resort_tables(self.p_y, row) for row in self.iota)
        self.scale, self.r = (np.array(a) for a in zip(*self.resort))
        q = np.tile(cond, (nx, 1))  # row x * nu + u: p(y | u), the proposal
        self.f = np.divide(kernel.rows, q, out=np.zeros_like(q), where=q > 0)
        self.f_max = self.f.max(axis=1)

    def target(self, x: SymbolId, u: SymbolId) -> FinitePmf:
        """The kernel row of (x_i, u): the law y_i is selected from."""
        return self.rows[x * self.nu + u]

    def stream(self, u: SymbolId, seed: Seed) -> ResortedStream:
        """This side's shared y-stream under seed, re-sorted for u."""
        return ResortedStream(arrival_stream(seed, self.label, self.p_y),
                              *self.resort[u], self.cond_pmfs[u])

    def scan_span(self, keys, us, fallback, xs=None, ks=None) -> tuple:
        """(k, y) of gw_encode's selection on this side for rows (xs, us), or of
        gw_decode's point ks[i] for rows (us, ks); a zero gap sends row i to fallback.

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

        n = bound.max() if ks is None else np.mean(r * ks)
        scan_rounds(keys, self.p_y.cumulative(), _round_points(float(n)), step, fallback)
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
    for _ in range(k - 1):
        stream.next_marked_point()
    return stream.next_marked_point().mark


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


@dataclass(frozen=True, slots=True)
class GwTrialRecord:
    trial: int
    x1: SymbolId
    x2: SymbolId
    u: SymbolId
    y1: SymbolId
    y2: SymbolId
    k0: int
    k1: int
    k2: int
    len0: int
    len1: int
    len2: int


def gw_run_trials(model: GwModel, n: int, seed: Seed) -> list:
    """n trials of gw_encode(model, x1, x2, derive_subseed(seed, t, "gw")), with
    source pairs drawn from the model, a chunk at once; zero gaps rerun a trial."""
    # a pair of probability 0 is never drawn; p_u stands in for its u-target
    u_rows = [row if w > 0 else model.p_u
              for row, w in zip(model._u_rows, model.source_pmf.probs)]
    out = []
    for span, pairs in trial_chunks(model.source_pmf, seed, n):
        keys, zero = stream_keys(seed, span, "gw", "gw-u", "gw-y1", "gw-y2"), set()
        k0, u = select_span(seed, span, u_rows, pairs, model.p_u,
                            role="gw", label="gw-u", keys=keys[:2])
        x1, x2 = np.divmod(pairs, model.n2)
        (k1, y1), (k2, y2) = (side.scan_span(kk, u, zero.add, xs=x) for side, kk, x
                              in zip(model.sides, (keys[2:4], keys[4:]), (x1, x2)))
        for i in zero:
            res = gw_encode(model, int(x1[i]), int(x2[i]),
                            derive_subseed(seed, span[i], "gw"))
            k0[i], k1[i], k2[i], u[i], y1[i], y2[i] = astuple(res)
        for t, *row in zip(span, *(a.tolist() for a in (x1, x2, u, y1, y2, k0, k1, k2))):
            out.append(GwTrialRecord(t, *row, *(k.bit_length() - 1 for k in row[-3:])))
    return out


def gw_decode_trials(model: GwModel, seed: Seed, ks: np.ndarray) -> np.ndarray:
    """(u, y1, y2) of gw_decode(model, *ks[t], derive_subseed(seed, t, "gw")) for
    each row t of the (n, 3) array ks, a chunk at once; zero gaps rerun a trial."""
    out = np.empty(ks.shape, dtype=np.int64)
    for span in chunk_spans(len(ks)):
        keys, zero = stream_keys(seed, span, "gw", "gw-u", "gw-y1", "gw-y2"), set()
        k0, k1, k2 = ks[span.start:span.stop].T
        u = out[span, 0] = nth_marks(keys[1], k0, model.p_u.cumulative())
        for i, side, kk, k in zip((1, 2), model.sides, (keys[2:4], keys[4:]), (k1, k2)):
            out[span, i] = side.scan_span(kk, u, zero.add, ks=k)[1]
        for t in (span[i] for i in zero):
            out[t] = gw_decode(model, *ks[t].tolist(), derive_subseed(seed, t, "gw"))
    return out


def gw_records_to_csv(records, fh) -> None:
    fh.write(GW_CSV_HEADER + "\n")
    for r in records:
        fh.write(f"{r.trial},{r.x1},{r.x2},{r.u},{r.y1},{r.y2},"
                 f"{r.k0},{r.k1},{r.k2},{r.len0},{r.len1},{r.len2}\n")
