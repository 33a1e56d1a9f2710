"""Lazy, seed-deterministic marked Poisson process streams.

A stream realizes the shared random codebook: arrival times with i.i.d.
Exp(1) gaps and marks i.i.d. from a fixed law, independent of the times.
Gaps and marks come from two separate labeled substreams of the seed, so
the point sequence is invariant to internal buffering and replaying a
(seed, label) pair always reproduces it exactly.

Nothing is ever materialized: points are produced on demand in small
blocks and discarded by the caller once a stopping rule fires.
"""

import struct
from typing import NamedTuple

import numpy as np

from .prob import FinitePmf, Seed, SymbolId, _encode_label, _kdf

_BLOCK = 8


class MarkedPoint(NamedTuple):
    """One point of the marked process: 1-based index, mark, arrival time."""

    index: int
    mark: SymbolId
    time: float


def derive_subseed(seed: Seed, trial: int, role: str) -> Seed:
    """Collision-resistant per-(trial, role) seed; distinct pairs give distinct streams."""
    return Seed(_kdf(seed.value, struct.pack(">q", trial), _encode_label(role)))


class CodebookStream:
    """Marked Poisson process with rate 1 and marks i.i.d. mark_law.

    Single-owner mutable state (cursor); distinct streams may be advanced
    concurrently.  Use :func:`arrival_stream` to construct one.
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
        # zero gaps (u == 1.0, probability 2^-64 per word) would create time
        # ties; regenerate those entries
        zero = gaps == 0.0
        while zero.any():
            gaps[zero] = -np.log(self._gaps_rng.uniforms_oc(int(zero.sum())))
            zero = gaps == 0.0
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
