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
:func:`draw_points` produces many streams' points at once, with the same
arithmetic.  Its reads are whole SHA-256 blocks of 4 words, so a round may
stop mid-group: each stream then carries the group's base time and its
partial sum, and the next round goes on with points 5-8 of the group.
:func:`scan_rounds` runs such rounds for a span of streams, in blocks or
groups sized from the scans' expected length (:func:`_round_points`); a
stream whose drawn gaps hold a zero is replayed from there on by a
CodebookStream, so this module alone knows how a zero gap is regenerated.
A round's size changes how many points are drawn, never what a scan sees.

Nothing is ever materialized: points are produced on demand and discarded
by the caller once a stopping rule fires.
"""

import math
import struct
from itertools import islice
from typing import NamedTuple

import numpy as np

from .prob import (FinitePmf, RngState, Seed, SymbolId, _encode_label, _kdf,
                   _kdf_many, block_words, key_words, unit_interval, unit_interval_oc)

_BLOCK = 8
# the point budget of a round of scan_rounds (which still draws at least
# one block a scan) and of a Gray-Wyner chunk's rows times its longest scan
MAX_POINTS = 2 ** 18


class MarkedPoint(NamedTuple):
    """One point of the marked process: 1-based index, mark, arrival time."""

    index: int
    mark: SymbolId
    time: float


def derive_subseed(seed: Seed, trial: int, role: str) -> Seed:
    """Collision-resistant per-(trial, role) seed; distinct pairs give distinct streams."""
    return Seed(_kdf(seed.value, struct.pack(">q", trial), _encode_label(role)))


def span_keys(seed: Seed, trials, role: str, *labels) -> list:
    """Keys of derive_subseed(seed, t, role).stream(*labels), t in trials.

    One list of keys per label tuple; each subseed is derived once.
    """
    subs = _kdf_many((seed.value,), [struct.pack(">q", t) for t in trials],
                     (_encode_label(role),))
    return [_kdf_many((), subs, [_encode_label(x) for x in ls]) for ls in labels]


def stream_keys(seed: Seed, trials, role: str, *labels) -> tuple:
    """Gap and mark keys of arrival_stream(derive_subseed(seed, t, role), label, .)
    for each label in turn (default: role itself), t in trials."""
    parts = [(label, part) for label in labels or (role,) for part in ("gaps", "marks")]
    return tuple(span_keys(seed, trials, role, *parts))


def draw_points(gap_keys, mark_keys, cum: np.ndarray, start: int, n: int,
                clock: np.ndarray) -> tuple:
    """Points start + 1 .. start + n of many streams at once, one row per stream.

    start is a multiple of 4 (a whole SHA-256 block of words).  clock holds
    each stream's sums at point start: clock[0] is the last time of the time
    group before, clock[1] the sum of this group's gaps so far (zeros when
    start is 0).  Returns (times, marks, zero, clock): the rows equal what
    next_marked_point yields, bit for bit, unless the row's zero flag is set,
    and the new clock stands at point start + n when n is a multiple of 4.  A
    zero flag means a gap word mapped to a zero gap; the stream regenerates
    such a gap from later words, so :func:`scan_rounds` replays that row.
    """
    first, count = start // 4, -(-n // 4)  # 4 words per SHA-256 block
    gaps = -np.log(unit_interval_oc(key_words(gap_keys, first, count)))
    rows, lead, end = gaps.shape[0], start % _BLOCK, start % _BLOCK + 4 * count
    # the gaps in place in their time groups; the group's sum so far stands
    # just before them, so the cumulative sums go on from it
    groups = np.zeros((rows, -(-end // _BLOCK), _BLOCK))
    flat = groups.reshape(rows, -1)
    flat[:, lead:end] = gaps
    if lead:
        flat[:, lead - 1] = clock[1]
    within = np.cumsum(groups, axis=2)
    ends = np.cumsum(np.concatenate([clock[0][:, None], within[:, :-1, -1]], axis=1),
                     axis=1)
    times = (ends[:, :, None] + within).reshape(rows, -1)[:, lead:lead + n]
    marks = np.searchsorted(cum, unit_interval(key_words(mark_keys, first, count)),
                            side="right")[:, :n]
    stop = end % _BLOCK
    clock = ((ends[:, -1], within[:, -1, stop - 1]) if stop
             else (ends[:, -1] + within[:, -1, -1], np.zeros(rows)))
    return times, marks, ~gaps.all(axis=1), np.array(clock)


def _round_points(scan: float, rows: int) -> int:
    """Points each round draws per unfinished scan of a span of rows scans,
    where a scan examines about scan + 1 points: one 4-point SHA-256 block
    where about 2 sqrt(scan + 1) points is at most that, else whole 8-point
    time groups, about 2 sqrt(scan + 1) points and at least one group.

    A scan has a long geometric-like tail.  A round of n points overshoots
    a scan's stop by about n / 2 points, and a span needs about
    (scan + 1) ln(rows) / n rounds, each with a fixed cost of some 100 us of
    numpy calls.  The sum of the two is least at n proportional to
    sqrt(scan + 1); at 1024 rows and scan = 32 that is one time group (8
    points) per round, so each scan draws its examined points rounded up to
    whole groups, and at scan <= 3 one block.  The round is capped at
    MAX_POINTS // rows points per scan, so it draws at most MAX_POINTS.
    """
    size = 2.0 * math.sqrt(scan + 1.0)
    if size <= 4.0:
        return 4
    cap = max(1, MAX_POINTS // (rows * _BLOCK))
    return _BLOCK * max(1, round(min(size / _BLOCK, cap)))


def scan_rounds(keys, law: FinitePmf, scan: float, step) -> None:
    """Rounds of the next _round_points(scan, rows) points of each live stream
    i of a span of rows (gap key keys[0][i], mark key keys[1][i], marks from
    law) until step(live, start, times, marks) says it needs no more; the
    longest of the span's scans is expected to examine about scan + 1 points.
    Every row step sees is exact: a row whose round holds a zero gap is
    replayed by a CodebookStream from point start on, for that round and
    every later one."""
    gap_keys, mark_keys = keys
    n = _round_points(scan, len(gap_keys))
    cum, replays = law.cumulative(), {}
    live, clock, start = np.arange(len(gap_keys)), np.zeros((2, len(gap_keys))), 0
    while live.size:
        times, marks, zero, clock[:, live] = draw_points(
            [gap_keys[i] for i in live], [mark_keys[i] for i in live], cum, start, n,
            clock[:, live])
        for i in live[zero]:
            if i not in replays:
                replays[i] = CodebookStream(RngState(gap_keys[i]),
                                            RngState(mark_keys[i]), law)
                for _ in islice(replays[i], start):
                    pass
        if replays:
            for row in np.flatnonzero(np.isin(live, list(replays))):
                _, marks[row], times[row] = zip(*islice(replays[live[row]], n))
        live = live[step(live, start, times, marks)]
        start += n


def nth_marks(mark_keys, ks: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The mark of point ks[i] of stream i: mark word ks[i] - 1, whatever the gaps."""
    words = block_words(mark_keys, ((ks - 1) // 4).tolist())
    return np.searchsorted(cum, unit_interval(words[np.arange(len(ks)), (ks - 1) % 4]),
                           side="right")


class CodebookStream:
    """Marked Poisson process with rate 1 and marks i.i.d. mark_law.

    gaps and marks are the two uniform streams its gap and mark words come
    from.  The stream is its own iterator of (index, mark, time) triples in
    arrival order: iter(stream) is stream, so every reader, next_marked_point
    too, advances the one cursor, which stands on the last point given out.
    Single-owner mutable state; distinct streams are independent of each
    other.  :func:`arrival_stream` builds one from a seed and label.
    """

    def __init__(self, gaps: RngState, marks: RngState, mark_law: FinitePmf):
        self.mark_law = mark_law
        self.cursor = 0
        self._time = 0.0
        self._gaps_rng = gaps
        self._marks_rng = marks
        self._cum = mark_law.cumulative()
        self._times = np.empty(0)
        self._points = iter(())

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
        marks = np.searchsorted(self._cum, self._marks_rng.uniforms(_BLOCK), side="right")
        self._points = zip(marks.tolist(), times.tolist())

    def __iter__(self):
        # not a generator stored on the stream: that would hold the stream in a
        # reference cycle, which only the cyclic collector frees
        return self

    def __next__(self) -> tuple:
        point = next(self._points, None)
        if point is None:
            self._refill()
            point = next(self._points)
        self.cursor += 1
        return (self.cursor, *point)

    def next_marked_point(self) -> MarkedPoint:
        """The next point in arrival order; advances the cursor."""
        return MarkedPoint(*next(self))


def arrival_stream(seed: Seed, label: str, mark_law: FinitePmf) -> CodebookStream:
    """Fresh stream on the labeled substream of seed; replay-exact."""
    return CodebookStream(seed.stream(label, "gaps"), seed.stream(label, "marks"),
                          mark_law)
