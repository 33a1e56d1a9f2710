import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfrlab import (AbsoluteContinuityViolated, FinitePmf, GwModel, Kernel, Seed,
                    arrival_stream, derive_subseed, dominance_parameter,
                    geometric_parameter_exact, gw_run_trials, mutual_information,
                    pfr_select, run_trials, solve_at_distortion)
from pfrlab import codebook
from pfrlab.cli import load_config
from pfrlab.codebook import MAX_POINTS, _round_points, draw_points, stream_keys
from pfrlab.redundancy import _SPAN, select_span
from conftest import (PROPERTY, assert_same_table, binary_entropy, expected_log_k_bound,
                      patch_first_words, record_replays, record_slices,
                      substitute_sha256, uniform_hamming)

# a span narrower than the sweep's: more rounds per scan, spans cross it
NARROW = 128

TARGET = FinitePmf(np.array([0.8, 0.2]))
UNIFORM = FinitePmf.uniform(2)
SEED = Seed.from_int(1234)


def select_once(trial, target=TARGET, proposal=UNIFORM, **kw):
    stream = arrival_stream(derive_subseed(SEED, trial, "codebook"), "codebook",
                            proposal)
    return pfr_select(target, proposal, stream, **kw)


def run_many(n, target=TARGET, proposal=UNIFORM):
    ks = np.empty(n, dtype=np.int64)
    ys = np.empty(n, dtype=np.int64)
    for t in range(n):
        r = select_once(t, target, proposal)
        ks[t], ys[t] = r.k, r.y
    return ks, ys


class TestExactParameters:
    def test_geometric_identity_when_equal(self):
        for y in range(2):
            assert geometric_parameter_exact(UNIFORM, UNIFORM, y) == pytest.approx(1.0)

    def test_geometric_derived_values(self):
        # oracle: sum_y' q(y') max{f(y), f(y')} with f = (1.6, 0.4)
        assert geometric_parameter_exact(TARGET, UNIFORM, 0) == pytest.approx(0.625)
        assert geometric_parameter_exact(TARGET, UNIFORM, 1) == pytest.approx(1.0)

    def test_dominance_values(self):
        assert dominance_parameter(UNIFORM, UNIFORM, 0) == pytest.approx(0.5)
        assert dominance_parameter(TARGET, UNIFORM, 0) == pytest.approx(1 / 2.6)
        assert dominance_parameter(TARGET, UNIFORM, 1) == pytest.approx(1 / 1.4)

    def test_dominance_never_exceeds_exact(self):
        # J's survival dominates K's: geometric parameter of J is the smaller
        rng = np.random.default_rng(0)
        for _ in range(100):
            a = rng.random(3) + 1e-2
            b = rng.random(3) + 1e-2
            p, q = FinitePmf(a / a.sum()), FinitePmf(b / b.sum())
            for y in range(3):
                assert (dominance_parameter(p, q, y)
                        <= geometric_parameter_exact(p, q, y) + 1e-12)


class TestSelection:
    def test_equal_laws_select_first_point(self):
        for t in range(200):
            r = select_once(t, UNIFORM, UNIFORM)
            assert r.k == 1
            assert r.k <= r.examined

    def test_point_mass_target(self):
        target = FinitePmf.point_mass(1, 4)
        proposal = FinitePmf.uniform(4)
        ks = []
        for t in range(4000):
            r = select_once(t, target, proposal)
            assert r.y == 1
            ks.append(r.k)
        # K is the index of the first point with the winning mark: Geom(1/4)
        ks = np.array(ks)
        for k in range(1, 8):
            emp = (ks > k).mean()
            se = math.sqrt(emp * (1 - emp) / ks.size) + 1e-9
            assert emp <= 0.75 ** k + 3 * se

    def test_absolute_continuity_enforced(self):
        bad_prop = FinitePmf(np.array([1.0, 0.0]))
        stream = arrival_stream(SEED, "cb", bad_prop)
        with pytest.raises(AbsoluteContinuityViolated):
            pfr_select(TARGET, bad_prop, stream)

    def test_overflowing_density_ratio_rejected(self):
        # 0.5 / 1e-320 is +inf: the stop test would never fire, and both
        # scans used to run forever (select_span raised OverflowError first)
        tiny = FinitePmf(np.array([1e-320, 1.0]))
        with pytest.raises(ValueError, match="overflows"):
            pfr_select(TARGET, tiny, arrival_stream(SEED, "cb", tiny))
        with pytest.raises(ValueError, match="overflows"):
            batched(SEED, range(3), [TARGET], np.zeros(3, dtype=np.int64), tiny)

    def test_mark_law_mismatch_rejected(self):
        stream = arrival_stream(SEED, "cb", FinitePmf(np.array([0.3, 0.7])))
        with pytest.raises(ValueError):
            pfr_select(TARGET, UNIFORM, stream)

    def test_determinism(self):
        assert select_once(77) == select_once(77)

    def test_score_definition(self):
        r = select_once(5)
        stream = arrival_stream(derive_subseed(SEED, 5, "codebook"), "codebook",
                                UNIFORM)
        pts = [stream.next_marked_point() for _ in range(r.examined)]
        f = TARGET.probs / UNIFORM.probs
        winner = pts[r.k - 1]
        assert winner.mark == r.y
        assert r.score == pytest.approx(winner.time / f[winner.mark], rel=1e-12)
        finite = [p.time / f[p.mark] for p in pts if f[p.mark] > 0]
        assert min(finite) == pytest.approx(r.score, rel=1e-12)


class TestLaws:
    def test_marginal_and_conditional(self):
        n = 20_000
        ks, ys = run_many(n)
        freq = np.bincount(ys, minlength=2) / n
        assert 0.5 * np.abs(freq - TARGET.probs).sum() <= 3 * math.sqrt(2 / n)
        # exact conditional geometric law given y, parameter from the oracle
        k1 = ks[ys == 1]
        assert (k1 == 1).all()
        k0 = ks[ys == 0]
        p = geometric_parameter_exact(TARGET, UNIFORM, 0)
        kmax = int(k0.max())
        emp = np.bincount(k0, minlength=kmax + 1)[1:] / k0.size
        pmf = p * (1 - p) ** (np.arange(1, kmax + 1) - 1)
        tv = 0.5 * (np.abs(emp - pmf).sum() + (1 - p) ** kmax)
        assert tv <= 0.02

    def test_stochastic_dominance(self):
        ks, ys = run_many(20_000)
        for y in range(2):
            ky = ks[ys == y]
            p_dom = dominance_parameter(TARGET, UNIFORM, y)
            for k in range(1, 51):
                surv = (ky > k).mean()
                se = math.sqrt(surv * (1 - surv) / ky.size)
                assert surv <= (1 - p_dom) ** k + 3 * se + 1e-12

    def test_expected_log_k_bound_holds(self):
        ks, _ = run_many(20_000)
        logk = np.log2(ks)
        # one source symbol, whose kernel row is the target
        bound = expected_log_k_bound(FinitePmf(np.ones(1)), Kernel(TARGET.probs[None, :]),
                                     UNIFORM)
        assert logk.mean() + 3 * logk.std(ddof=1) / math.sqrt(ks.size) <= bound

    def test_stopping_rule_exactness(self):
        for t in range(10_000):
            a = select_once(t)
            b = select_once(t, horizon_scale=2.0)
            assert (a.k, a.y) == (b.k, b.y)
            assert b.examined >= a.examined


def assert_exact_selection(target, proposal, make_stream):
    """pfr_select's (k, y) is the brute-force argmin of T_i / f(Y_i).

    The argmin is taken over the first `examined` points, replayed one at a
    time with next_marked_point, and no point out to twice the stopping
    horizon may beat it.  The replayed times must ascend, or the stopping
    rule would not be sound.
    """
    r = pfr_select(target, proposal, make_stream())
    f = np.divide(target.probs, proposal.probs, out=np.zeros(len(target)),
                  where=proposal.probs > 0)
    replay = make_stream()
    best = (math.inf, 0, -1)
    horizon = 2.0 * float(f.max()) * r.score
    last = 0.0
    while True:
        p = replay.next_marked_point()
        assert p.time > last
        last = p.time
        if p.index > r.examined and p.time >= horizon:
            break
        if f[p.mark] > 0:
            best = min(best, (p.time / f[p.mark], p.index, p.mark))
        if p.index == r.examined:
            assert (best[1], best[2]) == (r.k, r.y)
    assert (best[1], best[2]) == (r.k, r.y)
    assert best[0] == r.score


weights = st.integers(min_value=0, max_value=20)


@st.composite
def pmf_pairs(draw):
    m = draw(st.integers(min_value=2, max_value=64))
    q = np.array(draw(st.lists(weights.map(lambda w: w + 1), min_size=m, max_size=m)),
                 dtype=float)
    p = np.array(draw(st.lists(weights, min_size=m, max_size=m)), dtype=float)
    p[draw(st.integers(min_value=0, max_value=m - 1))] += 1.0
    return FinitePmf(p / p.sum()), FinitePmf(q / q.sum())


class TestOneScanProperty:
    @PROPERTY
    @given(pair=pmf_pairs(), seed=st.integers(min_value=0, max_value=2**64))
    def test_codebook_stream(self, pair, seed):
        target, proposal = pair
        assert_exact_selection(target, proposal, lambda: arrival_stream(
            Seed.from_int(seed), "codebook", proposal))

    @PROPERTY
    @given(model_seed=st.integers(min_value=0, max_value=2**32),
           seed=st.integers(min_value=0, max_value=2**64),
           ny=st.integers(min_value=3, max_value=6),
           pick=st.integers(min_value=0, max_value=2**16))
    def test_resorted_stream(self, model_seed, seed, ny, pick):
        rng = np.random.default_rng(model_seed)

        def kern(rows, cols):
            a = rng.random((rows, cols)) ** 3 + 0.01
            return Kernel(a / a.sum(axis=1, keepdims=True))

        joint = rng.random((3, 3)) + 0.05
        model = GwModel(joint_source=joint / joint.sum(), u_kernel=kern(9, 3),
                        y1_kernel=kern(9, ny), y2_kernel=kern(9, 7 - ny % 4))
        side = model.sides[pick % 2]
        x, u = divmod(pick // 2 % 9, 3)
        assert_exact_selection(side.target(x, u), side.cond_pmfs[u],
                               lambda: side.stream(u, Seed.from_int(seed)))


def streaming(seed, trials, targets, xs, proposal):
    """(k, y) of one streaming pfr_select per trial: the batched engine's reference."""
    out = []
    for t, x in zip(trials, xs):
        r = pfr_select(targets[x], proposal, arrival_stream(
            derive_subseed(seed, t, "codebook"), "codebook", proposal))
        out.append((r.k, r.y))
    return out


def batched(seed, trials, targets, xs, proposal):
    """select_span over the trials' codebook streams."""
    return select_span(stream_keys(seed, trials, "codebook"), targets, xs, proposal)


DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.fixture(scope="module")
def default_tables(bsc_sol):
    """name: (a run, its table at the default round sizes) for the bsc sweep,
    uniform-Hamming m = 16 at D = 0.5 and both Gray-Wyner demos."""
    ham16 = solve_at_distortion(*uniform_hamming(16), 0.5)
    seed = Seed.from_int(8)
    runs = {"bsc": lambda: run_trials(bsc_sol, 2000, seed),
            "hamming16": lambda: run_trials(ham16, 1500, seed)}
    for name in ("gw_common_bit", "gw_noisy_3x3x3"):
        model = load_config(str(DEMOS / f"{name}.json"), "gray-wyner").gw_model
        runs[name] = lambda model=model: gw_run_trials(model, 1500, seed)
    return {name: (run, run()) for name, run in runs.items()}


class TestBatchedScanProperty:
    @PROPERTY
    @given(pair=pmf_pairs(), seed=st.integers(min_value=0, max_value=2**64),
           first=st.integers(min_value=0, max_value=2**40),
           n=st.integers(min_value=1, max_value=2 * NARROW + 40).filter(
               lambda n: n % NARROW),
           pick=st.integers(min_value=0, max_value=2**16))
    def test_equals_streaming_pfr_select(self, pair, seed, first, n, pick):
        target, proposal = pair
        # a point mass on the least likely mark: f_max = 1 / q_min, long scans
        sharp = FinitePmf.point_mass(int(np.argmin(proposal.probs)), len(proposal))
        targets = [target, sharp]
        xs = np.random.default_rng(pick).integers(0, 2, size=n)
        trials = range(first, first + n)
        ks, ys = batched(Seed.from_int(seed), trials, targets, xs, proposal)
        assert list(zip(ks.tolist(), ys.tolist())) == streaming(
            Seed.from_int(seed), trials, targets, xs, proposal)

    @settings(PROPERTY, max_examples=8)
    @given(pair=pmf_pairs(), seed=st.integers(min_value=0, max_value=2**64),
           first=st.integers(min_value=0, max_value=2**40),
           n=st.integers(min_value=_SPAN - 40, max_value=_SPAN + 40),
           pick=st.integers(min_value=0, max_value=2**16))
    def test_equals_streaming_pfr_select_at_sweep_width(self, pair, seed, first, n,
                                                         pick):
        # spans as wide as the sweep's, past it too; 16 rows take the point
        # mass on the least likely mark, so a few scans run long
        target, proposal = pair
        sharp = FinitePmf.point_mass(int(np.argmin(proposal.probs)), len(proposal))
        targets = [target, sharp]
        xs = np.zeros(n, dtype=np.int64)
        xs[np.random.default_rng(pick).choice(n, size=16, replace=False)] = 1
        trials = range(first, first + n)
        ks, ys = batched(Seed.from_int(seed), trials, targets, xs, proposal)
        assert list(zip(ks.tolist(), ys.tolist())) == streaming(
            Seed.from_int(seed), trials, targets, xs, proposal)

    @pytest.mark.parametrize("rows", [1, 100, NARROW, 1000, _SPAN, 2 ** 15 + 1])
    def test_round_points_are_whole_groups_within_the_budget(self, rows, monkeypatch):
        sizes = [_round_points(f_max, rows)
                 for f_max in (0.0, 1.0, 32.0, 5e3, 1e6, 1e12, 1e300, math.inf)]
        # one 4-point block while 2 sqrt(f_max + 1) <= 4, whole groups after
        assert sizes[:2] == [4, 4]
        assert all(n % 8 == 0 and n >= 8 for n in sizes[2:])
        assert sizes == sorted(sizes)
        assert _round_points(3.0, rows) == 4 and _round_points(3.01, rows) == 8
        # 2^18 points a round, but never less than one time group per scan
        # past f_max = 3
        assert max(sizes) * rows <= max(MAX_POINTS, 8 * rows)
        assert _round_points(32.0, rows) == 8
        # a Gray-Wyner slice's expected scans, here about rows + 1 points
        # each on decoder 1, add up to within the same budget
        eps = 1.0 / (rows + 1.0)
        model = GwModel(joint_source=np.array([[1.0 - eps], [eps]]),
                        u_kernel=Kernel(np.ones((2, 1))), y1_kernel=Kernel(np.eye(2)),
                        y2_kernel=Kernel(np.ones((1, 1))))
        side = model.sides[0]
        scan = side.f_max[1]
        assert side.r.tolist() == [1.0] and scan == pytest.approx(rows + 1.0)
        slices = record_slices(monkeypatch)
        side.scan_span(([b""] * _SPAN,) * 2, np.zeros(_SPAN, dtype=np.int64),
                       xs=np.ones(_SPAN, dtype=np.int64))
        width = slices[0][0]
        assert 1 <= width <= _SPAN and width * scan <= MAX_POINTS
        assert width == _SPAN or (width + 1) * scan > MAX_POINTS
        assert slices == [(width, scan)] * (_SPAN // width) + [
            (_SPAN % width, scan)] * (_SPAN % width > 0)

    @pytest.mark.parametrize("points", [4, 8, 24, 64])
    def test_round_size_is_pure_policy(self, monkeypatch, points, default_tables):
        # rounds of one block, one group, three blocks across groups and
        # eight groups draw other points per round, never other selections
        monkeypatch.setattr(codebook, "_round_points", lambda scan, rows: points)
        for name, (run, want) in default_tables.items():
            assert_same_table(run(), want)

    def test_rounds_fit_the_point_budget(self, monkeypatch):
        # f_max = 5,000 (144 points per round and scan) on a 128-trial span
        # and 500 (48) on a sweep span; every (width / 128)-th trial is
        # checked against the streaming scan
        round_points = []

        def counted(gap_keys, mark_keys, cum, start, n, clock):
            round_points.append(len(gap_keys) * n)
            return draw_points(gap_keys, mark_keys, cum, start, n, clock)

        monkeypatch.setattr(codebook, "draw_points", counted)
        seed, target = Seed.from_int(5), FinitePmf(np.array([0.5, 0.5]))
        for width, q0 in ((NARROW, 1e-4), (_SPAN, 1e-3)):
            round_points.clear()
            trials, xs = range(width), np.zeros(width, dtype=np.int64)
            proposal = FinitePmf(np.array([q0, 1.0 - q0]))
            ks, ys = batched(seed, trials, [target], xs, proposal)
            assert len(round_points) > 1 and max(round_points) <= 2 ** 18
            every = width // NARROW
            assert list(zip(ks[::every].tolist(), ys[::every].tolist())) == streaming(
                seed, trials[::every], [target], xs[::every], proposal)

    def test_sweep_span_draws_just_the_examined_groups(self, monkeypatch):
        # uniform-Hamming m = 64 at D = 0.5 has f_max = 32: at the sweep's
        # width a round is one 8-point time group per unfinished scan, so a
        # scan draws the points its stop rule examines, rounded up to groups
        source, d = uniform_hamming(64)
        sol = solve_at_distortion(source, d, 0.5)
        targets = [sol.kernel.row(x) for x in range(64)]
        proposal = sol.output_marginal
        seed, trials = Seed.from_int(6), range(_SPAN)
        xs = np.arange(_SPAN) % 64
        drawn = []

        def counted(gap_keys, mark_keys, cum, start, n, time0):
            drawn.append(len(gap_keys) * n)
            return draw_points(gap_keys, mark_keys, cum, start, n, time0)

        monkeypatch.setattr(codebook, "draw_points", counted)
        ks, ys = batched(seed, trials, targets, xs, proposal)
        runs = [pfr_select(targets[x], proposal, arrival_stream(
            derive_subseed(seed, t, "codebook"), "codebook", proposal))
            for t, x in zip(trials, xs.tolist())]
        assert [(r.k, r.y) for r in runs] == list(zip(ks.tolist(), ys.tolist()))
        f_max = max(float((t.probs / proposal.probs).max()) for t in targets)
        assert f_max == pytest.approx(32.0, abs=1e-3) and _round_points(f_max, _SPAN) == 8
        assert sum(drawn) == sum(8 * -(-r.examined // 8) for r in runs)

    def test_bsc_span_draws_just_the_examined_blocks(self, monkeypatch, bsc_sol):
        # the bsc demo has f_max = 1.78: a round is one 4-point SHA-256 block
        # per unfinished scan, so a scan draws its examined points rounded up
        # to whole blocks, not to 8-point time groups
        targets = [bsc_sol.kernel.row(x) for x in range(2)]
        proposal = bsc_sol.output_marginal
        seed, trials = Seed.from_int(7), range(_SPAN)
        xs = np.arange(_SPAN) % 2
        drawn = []

        def counted(gap_keys, mark_keys, cum, start, n, clock):
            drawn.append(len(gap_keys) * n)
            return draw_points(gap_keys, mark_keys, cum, start, n, clock)

        monkeypatch.setattr(codebook, "draw_points", counted)
        ks, ys = batched(seed, trials, targets, xs, proposal)
        runs = [pfr_select(targets[x], proposal, arrival_stream(
            derive_subseed(seed, t, "codebook"), "codebook", proposal))
            for t, x in zip(trials, xs.tolist())]
        assert [(r.k, r.y) for r in runs] == list(zip(ks.tolist(), ys.tolist()))
        f_max = max(float((t.probs / proposal.probs).max()) for t in targets)
        assert f_max == pytest.approx(1.78, abs=1e-3) and _round_points(f_max, _SPAN) == 4
        assert sum(drawn) == sum(4 * -(-r.examined // 4) for r in runs)
        assert any(r.examined > 4 for r in runs)

    def test_zero_gap_replays_the_stream(self, monkeypatch):
        # gap word 2^64 - 1 gives a zero gap; the stream regenerates it from
        # the next word, so every later point of that trial moves
        seed, trials, victim = Seed.from_int(77), range(5, 25), 15
        target = FinitePmf(np.array([0.05, 0.15, 0.8]))
        proposal = FinitePmf(np.array([0.5, 0.3, 0.2]))
        # counter block 0 of the victim's gap stream starts with word 2^64 - 1,
        # for the streaming and the batched reader alike
        block0 = stream_keys(seed, [victim], "codebook")[0][0] + bytes(8)
        patch_first_words(monkeypatch, {block0: 2**64 - 1})
        replays = record_replays(monkeypatch)
        xs = np.zeros(len(trials), dtype=np.int64)
        ks, ys = batched(seed, trials, [target], xs, proposal)
        assert replays == [0]
        got = list(zip(ks.tolist(), ys.tolist()))
        assert got == streaming(seed, trials, [target], xs, proposal)
        substitute_sha256(monkeypatch)
        assert got != streaming(seed, trials, [target], xs, proposal)

    def test_zero_gap_in_a_later_round_replays_from_its_start(self, monkeypatch):
        # uniform-Hamming m = 64 at D = 0.5 (f_max = 32) draws rounds of 8
        # points; a zero gap at point 9 of trial 16 (block 2) is found in the
        # round from point 9, and the replay must go on from there: the trial
        # then selects point 75, not point 1
        source, d = uniform_hamming(64)
        sol = solve_at_distortion(source, d, 0.5)
        targets, proposal = sol.kernel.pmfs, sol.output_marginal
        seed, trials, victim = Seed.from_int(8), range(64), 16
        block2 = stream_keys(seed, [victim], "codebook")[0][0] + (2).to_bytes(8, "big")
        patch_first_words(monkeypatch, {block2: 2**64 - 1})
        replays = record_replays(monkeypatch)
        xs = np.arange(64)
        ks, ys = batched(seed, trials, targets, xs, proposal)
        assert replays == [8] and ks[victim] == 75
        got = list(zip(ks.tolist(), ys.tolist()))
        assert got == streaming(seed, trials, targets, xs, proposal)
        substitute_sha256(monkeypatch)
        assert got != streaming(seed, trials, targets, xs, proposal)

    def test_top_mark_word_draws_in_the_support(self, monkeypatch):
        # mark word 2^64 - 1 maps to 1.0, at or past every cumulative sum: it
        # draws the last symbol with mass, never symbol 3 or an index past the end
        seed, trials, victim = Seed.from_int(78), range(5, 25), 15
        target = FinitePmf(np.array([0.05, 0.15, 0.8, 0.0]))
        proposal = FinitePmf(np.array([0.5, 0.3, 0.2, 0.0]))
        block0 = stream_keys(seed, [victim], "codebook")[1][0] + bytes(8)
        patch_first_words(monkeypatch, {block0: 2**64 - 1})
        stream = arrival_stream(derive_subseed(seed, victim, "codebook"), "codebook",
                                proposal)
        assert stream.next_marked_point().mark == 2
        xs = np.zeros(len(trials), dtype=np.int64)
        ks, ys = batched(seed, trials, [target], xs, proposal)
        assert list(zip(ks.tolist(), ys.tolist())) == streaming(
            seed, trials, [target], xs, proposal)


class TestExpectedLogKBound:
    def test_zero_divergence(self):
        k = Kernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        assert expected_log_k_bound(UNIFORM, k, UNIFORM) == pytest.approx(1.0)

    def test_output_marginal_gives_mi_plus_one(self):
        k = Kernel(np.array([[0.89, 0.11], [0.11, 0.89]]))
        q = k.output_marginal(UNIFORM)
        got = expected_log_k_bound(UNIFORM, k, q)
        assert got == pytest.approx(mutual_information(UNIFORM, k) + 1.0, abs=1e-12)
        assert got == pytest.approx(1.0 - binary_entropy(0.11) + 1.0, abs=1e-12)

    def test_absolute_continuity(self):
        k = Kernel(np.array([[0.5, 0.5], [0.5, 0.5]]))
        with pytest.raises(AbsoluteContinuityViolated):
            expected_log_k_bound(UNIFORM, k, FinitePmf(np.array([1.0, 0.0])))
