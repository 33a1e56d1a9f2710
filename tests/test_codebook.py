import numpy as np

from pfrlab import FinitePmf, Seed, arrival_stream, derive_subseed


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
