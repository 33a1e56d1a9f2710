"""Lazy, seed-deterministic marked Poisson process streams.

A stream realizes the shared random codebook: arrival times with i.i.d.
Exp(1) gaps and marks i.i.d. from a fixed law, independent of the times.
Gaps and marks come from two separate labeled substreams of the seed, and
replaying a (seed, label) pair always reproduces the points exactly.

The stream format is fixed here.  Point i takes gap word i and mark word i
of the two substreams (their word sequences do not depend on how draws are
batched).  Times are summed in groups of _BLOCK = 8 points: a cumulative
sum within the group, plus the last time of the group before.  That
grouping is part of the format: another block size changes the last bits
of most times.  CodebookStream produces one group per refill;
:func:`draw_points` produces many groups for many streams at once, with
the same arithmetic.

Nothing is ever materialized: points are produced on demand and discarded
by the caller once a stopping rule fires.
"""

import struct
from typing import NamedTuple

import numpy as np

from .prob import (FinitePmf, Seed, SymbolId, _counter_blocks, _encode_label, _kdf,
                   key_words, unit_interval, unit_interval_oc)

_BLOCK = 8


class MarkedPoint(NamedTuple):
    """One point of the marked process: 1-based index, mark, arrival time."""

    index: int
    mark: SymbolId
    time: float


def _subseed(root: bytes, trial: int, role: bytes) -> bytes:
    return _kdf(root, struct.pack(">q", trial), role)


def derive_subseed(seed: Seed, trial: int, role: str) -> Seed:
    """Collision-resistant per-(trial, role) seed; distinct pairs give distinct streams."""
    return Seed(_subseed(seed.value, trial, _encode_label(role)))


def span_keys(seed: Seed, trials, role: str, *labels) -> list:
    """Keys of derive_subseed(seed, t, role).stream(*labels), t in trials.

    One list of keys per label tuple; each subseed is derived once.
    """
    root, role = seed.value, _encode_label(role)
    subs = [_subseed(root, t, role) for t in trials]
    out = []
    for ls in labels:
        parts = [_encode_label(x) for x in ls]
        out.append([_kdf(sub, *parts) for sub in subs])
    return out


def stream_keys(seed: Seed, trials, role: str, *labels) -> tuple:
    """Gap and mark keys of arrival_stream(derive_subseed(seed, t, role), label, .)
    for each label in turn (default: role itself), t in trials."""
    parts = [(label, part) for label in labels or (role,) for part in ("gaps", "marks")]
    return tuple(span_keys(seed, trials, role, *parts))


def draw_points(gap_keys, mark_keys, cum: np.ndarray, start: int, n: int,
                time0: np.ndarray) -> tuple:
    """Points start + 1 .. start + n of many streams at once, one row per stream.

    start is a multiple of _BLOCK, and time0 holds each stream's time of
    point start (0.0 when start is 0).  Returns (times, marks, zero): the
    rows equal what next_marked_point yields, bit for bit, unless the row's
    zero flag is set.  A zero flag means a gap word mapped to a zero gap;
    the stream regenerates such a gap from later words, so that row must be
    replayed by a CodebookStream.
    """
    blocks = -(-n // _BLOCK)
    first, count = start // 4, blocks * _BLOCK // 4  # 4 words per SHA-256 block
    gaps = -np.log(unit_interval_oc(key_words(gap_keys, first, count)))
    rows = gaps.shape[0]
    within = np.cumsum(gaps.reshape(rows, blocks, _BLOCK), axis=2)
    ends = np.cumsum(np.concatenate([time0[:, None], within[:, :-1, -1]], axis=1),
                     axis=1)
    times = (ends[:, :, None] + within).reshape(rows, blocks * _BLOCK)[:, :n]
    marks = np.searchsorted(cum, unit_interval(key_words(mark_keys, first, count)),
                            side="right")[:, :n]
    return times, marks, ~gaps.all(axis=1)


def nth_marks(mark_keys, ks: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The mark of point ks[i] of stream i: mark word ks[i] - 1, whatever the gaps."""
    buf = b"".join([_counter_blocks(key, (k - 1) // 4, 1)
                    for key, k in zip(mark_keys, ks.tolist())])
    words = np.frombuffer(buf, dtype=">u8").reshape(-1, 4)
    return np.searchsorted(cum, unit_interval(words[np.arange(len(ks)), (ks - 1) % 4]),
                           side="right")


class CodebookStream:
    """Marked Poisson process with rate 1 and marks i.i.d. mark_law.

    Single-owner mutable state (cursor); distinct streams are independent of
    each other.  Use :func:`arrival_stream` to construct one.
    """

    def __init__(self, seed: Seed, label: str, mark_law: FinitePmf):
        self.seed = seed
        self.label = label
        self.mark_law = mark_law
        self.cursor = 0
        self._time = 0.0
        self._gaps_rng = seed.stream(label, "gaps")
        self._marks_rng = seed.stream(label, "marks")
        self._cum = mark_law.cumulative()
        self._times = np.empty(0)
        self._marks = np.empty(0, dtype=np.int64)
        self._pos = 0

    def _refill(self):
        gaps = -np.log(self._gaps_rng.uniforms_oc(_BLOCK))
        # zero gaps (u == 1.0, probability about 2^-54 per word) would create
        # time ties; regenerate those entries
        while not gaps.all():
            zero = gaps == 0.0
            gaps[zero] = -np.log(self._gaps_rng.uniforms_oc(int(zero.sum())))
        times = self._time + np.cumsum(gaps)
        self._time = float(times[-1])
        self._times = times
        self._marks = np.searchsorted(self._cum, self._marks_rng.uniforms(_BLOCK),
                                      side="right")
        self._pos = 0

    def next_marked_point(self) -> MarkedPoint:
        """The next point in arrival order; advances the cursor."""
        if self._pos >= self._times.size:
            self._refill()
        i = self._pos
        self._pos = i + 1
        self.cursor += 1
        return MarkedPoint(self.cursor, int(self._marks[i]), float(self._times[i]))

    def __iter__(self):
        """(index, mark, time) triples from the refill buffer, in arrival order.

        The cursor advances before each yield, so a caller that stops
        iterating leaves the stream on the last point it was given.
        """
        while True:
            if self._pos >= self._times.size:
                self._refill()
            i = self._pos
            for mark, t in zip(self._marks[i:].tolist(), self._times[i:].tolist()):
                self._pos += 1
                self.cursor += 1
                yield self.cursor, mark, t


def arrival_stream(seed: Seed, label: str, mark_law: FinitePmf) -> CodebookStream:
    """Fresh stream on the labeled substream of seed; replay-exact."""
    return CodebookStream(seed, label, mark_law)
