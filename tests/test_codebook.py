import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pfrlab import FinitePmf, Seed, arrival_stream, derive_subseed, pfr_select
from pfrlab.codebook import draw_points, span_keys, stream_keys
from conftest import PROPERTY


def take(stream, n):
    return [stream.next_marked_point() for _ in range(n)]


class TestDeterminism:
    def test_same_seed_label_replays(self):
        q = FinitePmf(np.array([0.25, 0.75]))
        s = Seed.from_int(11)
        a = take(arrival_stream(s, "cb", q), 100)
        b = take(arrival_stream(s, "cb", q), 100)
        assert a == b

    def test_labels_independent_streams(self):
        q = FinitePmf.uniform(2)
        s = Seed.from_int(11)
        a = take(arrival_stream(s, "one", q), 50)
        b = take(arrival_stream(s, "two", q), 50)
        assert a != b

    def test_iter_shares_cursor_with_next_marked_point(self):
        q = FinitePmf(np.array([0.25, 0.75]))
        ref = take(arrival_stream(Seed.from_int(1), "cb", q), 30)
        st = arrival_stream(Seed.from_int(1), "cb", q)
        pt = st.next_marked_point()
        assert pt.index == 1 and st.cursor == 1
        got = [pt]
        for idx, mark, t in st:
            got.append((idx, mark, t))
            assert st.cursor == idx
            if idx == 19:  # stop mid-block: the stream stays on point 19
                break
        got += take(st, 11)
        assert got == ref

    def test_interleaved_iterators_read_one_stream(self):
        # every reader advances the one position: alternating two iterators
        # reads each point once, in arrival order
        q = FinitePmf(np.array([0.25, 0.75]))
        ref = take(arrival_stream(Seed.from_int(1), "cb", q), 30)
        st = arrival_stream(Seed.from_int(1), "cb", q)
        a, b = iter(st), iter(st)
        assert [next(b if i % 2 else a) for i in range(30)] == ref
        assert iter(st) is iter(st)

    def test_streaming_selections_free_their_streams(self):
        # each stream is freed when its selection returns, so the peak does not
        # grow with the selections.  One selection holds 2.5-4.5 KB, and its
        # allocator noise alone moved the ratio past 1.25 at times, so the base is
        # at least 16 KB; a stream that waited for the cyclic collector (one that
        # held a generator over itself) read 200 KB at 2,000 and 260 KB at 20,000
        q = FinitePmf.uniform(2)
        target = FinitePmf(np.array([0.8, 0.2]))

        def peak(n):
            tracemalloc.start()
            try:
                for t in range(n):
                    stream = arrival_stream(derive_subseed(Seed.from_int(3), t, "cb"),
                                            "cb", q)
                    pfr_select(target, q, stream)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(100)
        assert peak(20_000) <= 1.25 * max(peak(2_000), 16_384)


class TestBatchedDraw:
    """draw_points follows the stream format of next_marked_point, bit for bit."""

    TRIALS = range(40, 45)

    def reference(self, q, n):
        return [take(arrival_stream(derive_subseed(Seed.from_int(9), t, "cb"), "cb", q),
                     n) for t in self.TRIALS]

    def draw(self, q, start, n, clock):
        gap_keys, mark_keys = stream_keys(Seed.from_int(9), self.TRIALS, "cb")
        return draw_points(gap_keys, mark_keys, q.cumulative(), start, n, clock)

    @pytest.mark.parametrize("n", [1, 4, 7, 8, 9, 1000])
    def test_equals_next_marked_point(self, n):
        q = FinitePmf(np.array([0.1, 0.0, 0.6, 0.3]))
        times, marks, zero, _ = self.draw(q, 0, n, np.zeros((2, len(self.TRIALS))))
        assert times.shape == marks.shape == (len(self.TRIALS), n)
        assert not zero.any()
        for row, ref in enumerate(self.reference(q, n)):
            assert times[row].tolist() == [p.time for p in ref]
            assert marks[row].tolist() == [p.mark for p in ref]

    @pytest.mark.parametrize("n", [4, 12])
    def test_starts_mid_group(self, n):
        # a first round of one 4-point block leaves the clock mid-group; the
        # next round goes on from its partial sum
        q = FinitePmf(np.array([0.1, 0.0, 0.6, 0.3]))
        head, _, _, clock = self.draw(q, 0, 4, np.zeros((2, len(self.TRIALS))))
        times, marks, zero, _ = self.draw(q, 4, n, clock)
        assert times.shape == marks.shape == (len(self.TRIALS), n)
        assert not zero.any()
        for row, ref in enumerate(self.reference(q, 4 + n)):
            assert times[row].tolist() == [p.time for p in ref[4:]]
            assert marks[row].tolist() == [p.mark for p in ref[4:]]
            assert head[row].tolist() == [p.time for p in ref[:4]]

    def test_rounds_continue_the_stream(self):
        q = FinitePmf.uniform(5)
        clock = np.zeros((2, len(self.TRIALS)))
        parts = []
        for start, n in ((0, 16), (16, 4), (20, 4), (24, 12), (36, 4), (40, 8), (48, 4)):
            times, marks, _, clock = self.draw(q, start, n, clock)
            parts.append((times, marks))
        times = np.concatenate([p[0] for p in parts], axis=1)
        marks = np.concatenate([p[1] for p in parts], axis=1)
        for row, ref in enumerate(self.reference(q, 52)):
            assert times[row].tolist() == [p.time for p in ref]
            assert marks[row].tolist() == [p.mark for p in ref]


class TestSubseeds:
    def test_repeatable(self):
        s = Seed.from_int(0)
        assert derive_subseed(s, 0, "codebook") == derive_subseed(s, 0, "codebook")

    def test_trial_separates(self):
        s = Seed.from_int(0)
        assert derive_subseed(s, 0, "codebook") != derive_subseed(s, 1, "codebook")

    def test_role_separates(self):
        s = Seed.from_int(0)
        assert derive_subseed(s, 0, "codebook") != derive_subseed(s, 0, "source")


INT64 = st.integers(min_value=-2**63, max_value=2**63 - 1)
trial_ids = st.one_of(st.sampled_from([-2**63, -1, 0, 2**32, 2**63 - 1]), INT64)
labels = st.one_of(st.text(max_size=8), st.binary(max_size=80), INT64)
seeds = st.binary(min_size=32, max_size=32).map(Seed)


class TestBatchedKeysProperty:
    """span_keys and stream_keys against one _kdf chain per trial."""

    @PROPERTY
    @given(seed=seeds, trials=st.lists(trial_ids, max_size=6), role=st.text(max_size=8),
           label_tuples=st.lists(st.lists(labels, max_size=3).map(tuple),
                                 min_size=1, max_size=3))
    @example(seed=Seed(bytes(32)), trials=[-1, 0, 2**32, 2**63 - 1], role="codebook",
             label_tuples=[("codebook", "gaps"), (b"\xff" * 100,), (-5, "marks"), ()])
    def test_span_keys(self, seed, trials, role, label_tuples):
        want = [[derive_subseed(seed, t, role).stream(*ls)._key for t in trials]
                for ls in label_tuples]
        assert span_keys(seed, trials, role, *label_tuples) == want

    @PROPERTY
    @given(seed=seeds, trials=st.lists(trial_ids, max_size=6), role=st.text(max_size=8),
           names=st.lists(st.text(max_size=8), max_size=3))
    def test_stream_keys(self, seed, trials, role, names):
        want = [[derive_subseed(seed, t, role).stream(name, part)._key for t in trials]
                for name in names or [role] for part in ("gaps", "marks")]
        assert list(stream_keys(seed, trials, role, *names)) == want


class TestPointLaw:
    def test_times_strictly_increasing(self):
        st = arrival_stream(Seed.from_int(2), "cb", FinitePmf.uniform(3))
        pts = take(st, 100)
        assert all(b.time > a.time for a, b in zip(pts, pts[1:]))
        assert [p.index for p in pts] == list(range(1, 101))

    def test_gap_mean_is_one(self):
        st = arrival_stream(Seed.from_int(3), "cb", FinitePmf.uniform(2))
        pts = take(st, 100_000)
        times = np.array([p.time for p in pts])
        gaps = np.diff(np.concatenate([[0.0], times]))
        assert 0.99 <= gaps.mean() <= 1.01

    def test_mark_frequencies(self):
        q = FinitePmf(np.array([0.25, 0.75]))
        st = arrival_stream(Seed.from_int(4), "cb", q)
        pts = take(st, 100_000)
        freq = np.bincount([p.mark for p in pts], minlength=2) / len(pts)
        assert 0.5 * np.abs(freq - q.probs).sum() <= 0.01

    def test_marks_independent_of_gaps(self):
        st = arrival_stream(Seed.from_int(5), "cb", FinitePmf(np.array([0.25, 0.75])))
        pts = take(st, 100_000)
        times = np.array([p.time for p in pts])
        gaps = np.diff(np.concatenate([[0.0], times]))
        marks = np.array([p.mark for p in pts], dtype=float)
        corr = np.corrcoef(marks, gaps)[0, 1]
        assert abs(corr) <= 0.02

    def test_label_streams_uncorrelated(self):
        s = Seed.from_int(6)
        q = FinitePmf.uniform(2)
        ga = np.diff(np.concatenate([[0.0], [p.time for p in take(arrival_stream(s, "a", q), 10_000)]]))
        gb = np.diff(np.concatenate([[0.0], [p.time for p in take(arrival_stream(s, "b", q), 10_000)]]))
        assert abs(np.corrcoef(ga, gb)[0, 1]) <= 0.02

    def test_counts_are_poisson(self):
        # counts in disjoint unit-5 windows of one stream are i.i.d. Poisson(5)
        st = arrival_stream(Seed.from_int(7), "cb", FinitePmf.uniform(2))
        reps = 10_000
        horizon = 5.0 * reps
        counts = np.zeros(reps, dtype=int)
        while True:
            p = st.next_marked_point()
            if p.time >= horizon:
                break
            counts[int(p.time // 5.0)] += 1
        mean, var = counts.mean(), counts.var()
        assert 5.0 * 0.95 <= mean <= 5.0 * 1.05
        assert 5.0 * 0.85 <= var <= 5.0 * 1.15
