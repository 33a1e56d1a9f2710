import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfrlab import (FinitePmf, GwModel, Kernel, ResortedStream, Seed,
                    UnsupportedPoint, arrival_stream, derive_subseed, gw_decode,
                    gw_dominance_params, gw_encode, gw_run_trials, kl_divergence,
                    sample_pmf)
from pfrlab import gray_wyner
from pfrlab.codebook import MAX_POINTS, stream_keys
from pfrlab.gray_wyner import GW_CSV_HEADER, gw_decode_chunk
from pfrlab.pfr import _density_ratio
from conftest import (PROPERTY, assert_same_table, conditional_triple_law, group_rows,
                      iota_reference, patch_first_words, record_replays, record_slices,
                      resort_tables, rows)

SEED = Seed.from_int(99)


def common_bit_model():
    """X1 = X2 = U uniform binary, Y1 = Y2 = U."""
    joint = np.array([[0.5, 0.0], [0.0, 0.5]])
    u_kernel = Kernel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]]))
    y_kernel = Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    return GwModel(joint_source=joint, u_kernel=u_kernel,
                   y1_kernel=y_kernel, y2_kernel=y_kernel)


def independent_u_model():
    """U uniform binary independent of the sources; Y1 = Y2 = U."""
    joint = np.array([[0.4, 0.1], [0.2, 0.3]])
    u_kernel = Kernel(np.tile([0.5, 0.5], (4, 1)))
    y_kernel = Kernel(np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0]]))
    return GwModel(joint_source=joint, u_kernel=u_kernel,
                   y1_kernel=y_kernel, y2_kernel=y_kernel)


def random_model(seed=0):
    rng = np.random.default_rng(seed)

    def kern(nr, nc):
        a = rng.random((nr, nc)) ** 2 + 0.05
        return Kernel(a / a.sum(axis=1, keepdims=True))

    joint = rng.random((2, 2)) + 0.1
    joint /= joint.sum()
    return GwModel(joint_source=joint, u_kernel=kern(4, 2),
                   y1_kernel=kern(4, 2), y2_kernel=kern(4, 2))


def trivial_model():
    return GwModel(joint_source=np.array([[1.0]]),
                   u_kernel=Kernel(np.array([[1.0]])),
                   y1_kernel=Kernel(np.array([[1.0]])),
                   y2_kernel=Kernel(np.array([[1.0]])))


class TestModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            GwModel(joint_source=np.array([[0.5, 0.5]]),
                    u_kernel=Kernel(np.array([[1.0]])),
                    y1_kernel=Kernel(np.array([[1.0]])),
                    y2_kernel=Kernel(np.array([[1.0]])))

    def test_common_bit_quantities(self):
        m = common_bit_model()
        assert np.allclose(m.p_u.probs, [0.5, 0.5])
        assert m.mi_u_sources == pytest.approx(1.0)
        assert m.mi_y_source_given_u(1) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(m.sides[0].p_y_given_u, np.eye(2))

    def test_independent_u_quantities(self):
        m = independent_u_model()
        assert m.mi_u_sources == pytest.approx(0.0, abs=1e-12)
        assert m.mi_y_source_given_u(1) == pytest.approx(0.0, abs=1e-12)

    def test_marginals_consistent_with_composition(self):
        m = random_model(3)
        flat = m.joint_source.reshape(-1)
        pu = flat @ m.u_kernel.rows
        assert np.abs(pu - m.p_u.probs).max() <= 1e-9
        # p_y1 via the full chain
        py1 = np.zeros(2)
        for x1 in range(2):
            for x2 in range(2):
                for u in range(2):
                    w = m.joint_source[x1, x2] * m.u_kernel.rows[x1 * 2 + x2, u]
                    py1 += w * m.y1_kernel.rows[x1 * 2 + u]
        assert np.abs(py1 - m.sides[0].p_y.probs).max() <= 1e-9


class TestResortedStream:
    def test_identity_transform(self):
        q = FinitePmf(np.array([0.3, 0.7]))
        base1 = arrival_stream(SEED, "r", q)
        base2 = arrival_stream(SEED, "r", q)
        rs = ResortedStream(base1, *resort_tables(q, np.zeros(2)), q)
        pts_resorted = [rs.next_marked_point() for _ in range(200)]
        pts_base = [base2.next_marked_point() for _ in range(200)]
        assert pts_resorted == pts_base

    def test_times_ascending(self):
        base = arrival_stream(SEED, "r2", FinitePmf.uniform(2))
        rs = ResortedStream(base, *resort_tables(base.mark_law, [1.0, -1.0]),
                            FinitePmf(np.array([0.8, 0.2])))
        pts = [rs.next_marked_point() for _ in range(1000)]
        times = [p.time for p in pts]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert [p.index for p in pts] == list(range(1, 1001))

    def test_mark_law_matches_conditional(self):
        m = random_model(1)
        u = 0
        side = m.sides[0]
        base = arrival_stream(SEED, "r3", side.p_y)
        rs = ResortedStream(base, *resort_tables(side.p_y, side.iota[u]),
                            side.cond_pmfs[u])
        marks = np.array([rs.next_marked_point().mark for _ in range(100_000)])
        freq = np.bincount(marks, minlength=2) / marks.size
        assert 0.5 * np.abs(freq - side.p_y_given_u[u]).sum() <= 0.02

    def test_rate_preserved(self):
        # transformed process keeps unit rate when iota is a true density log-ratio
        m = random_model(2)
        side = m.sides[0]
        base = arrival_stream(SEED, "r4", side.p_y)
        rs = ResortedStream(base, *resort_tables(side.p_y, side.iota[1]),
                            side.cond_pmfs[1])
        pts = [rs.next_marked_point() for _ in range(20_000)]
        gaps = np.diff([0.0] + [p.time for p in pts])
        assert 0.97 <= gaps.mean() <= 1.03


class TestEncodeDecode:
    def test_trivial_model(self):
        res = gw_encode(trivial_model(), 0, 0, SEED)
        assert (res.k0, res.k1, res.k2) == (1, 1, 1)
        assert (res.u, res.y1, res.y2) == (0, 0, 0)
        assert gw_decode(trivial_model(), 1, 1, 1, SEED) == (0, 0, 0)

    def test_independent_u_gives_unit_indices(self):
        m = independent_u_model()
        for t in range(200):
            res = gw_encode(m, t % 2, (t // 2) % 2, derive_subseed(SEED, t, "gw"))
            assert (res.k0, res.k1, res.k2) == (1, 1, 1)
            assert res.y1 == res.y2 == res.u

    def test_round_trip(self):
        m = random_model(4)
        for t in range(10_000):
            sub = derive_subseed(SEED, t, "gw")
            x1, x2 = t % 2, (t // 2) % 2
            res = gw_encode(m, x1, x2, sub)
            assert gw_decode(m, res.k0, res.k1, res.k2, sub) == (res.u, res.y1,
                                                                 res.y2)

    def test_decoder_one_ignores_k2(self):
        m = random_model(5)
        sub = derive_subseed(SEED, 7, "gw")
        res = gw_encode(m, 1, 0, sub)
        for k2 in (1, 2, 3, 9, 40):
            u, y1, _ = gw_decode(m, res.k0, res.k1, k2, sub)
            assert (u, y1) == (res.u, res.y1)

    def test_encode_deterministic(self):
        m = common_bit_model()
        assert gw_encode(m, 1, 1, SEED) == gw_encode(m, 1, 1, SEED)


class TestLaws:
    def test_joint_conditional_law(self):
        m = random_model(6)
        n = 60_000
        recs = gw_run_trials(m, n, SEED)
        triples = rows(recs, "u", "y1", "y2")
        for (x1, x2), at in group_rows(recs, "x1", "x2").items():
            sel = [triples[i] for i in at]
            if len(sel) < 10_000:
                continue
            law = conditional_triple_law(m, x1, x2)
            emp = np.zeros_like(law)
            for key, cnt in Counter(sel).items():
                emp[key] = cnt / len(sel)
            assert 0.5 * np.abs(emp - law).sum() <= 0.02

    def test_dominance_params_values(self):
        m = common_bit_model()
        p0, p1, p2 = gw_dominance_params(m, 0, 0, 0, 0, 0)
        assert p0 == pytest.approx(1.0 / 3.0)
        assert p1 == pytest.approx(0.5) and p2 == pytest.approx(0.5)
        mi = independent_u_model()
        p0, p1, p2 = gw_dominance_params(mi, 1, 0, 1, 1, 1)
        assert p0 == pytest.approx(0.5)
        assert p1 == pytest.approx(0.5)

    def test_dominance_params_unsupported_point(self):
        m = common_bit_model()
        with pytest.raises(UnsupportedPoint):
            gw_dominance_params(m, 0, 0, 1, 1, 1)  # u=1 impossible given x=(0,0)

    def test_index_dominance_and_length_bound(self):
        m = random_model(7)
        n = 30_000
        recs = gw_run_trials(m, n, SEED)
        for tup, at in group_rows(recs, "x1", "x2", "u", "y1", "y2").items():
            if len(at) < 3000:
                continue
            p0, p1, p2 = gw_dominance_params(m, *tup)
            for ks, p in ((recs["k0"][at], p0), (recs["k1"][at], p1),
                          (recs["k2"][at], p2)):
                for k in range(1, 31):
                    surv = (ks > k).mean()
                    se = math.sqrt(surv * (1 - surv) / ks.size)
                    assert surv <= (1 - p) ** k + 3 * se + 1e-12
        for which in range(3):
            logk = np.log2(recs[f"k{which}"].astype(float))
            bound = (m.mi_u_sources if which == 0
                     else m.mi_y_source_given_u(which)) + 1.0
            assert logk.mean() + 3 * logk.std(ddof=1) / math.sqrt(n) <= bound

    def test_trials_deterministic(self):
        m = common_bit_model()
        a = gw_run_trials(m, 400, SEED)
        b = gw_run_trials(m, 400, SEED)
        assert_same_table(a, b)

    def test_table_columns_follow_the_csv_header(self):
        recs = gw_run_trials(random_model(3), 300, SEED)
        assert ",".join(recs) == GW_CSV_HEADER
        assert {col.shape for col in recs.values()} == {(300,)}
        assert recs["trial"].tolist() == list(range(300))
        for i in range(3):
            assert recs[f"len{i}"].tolist() == [k.bit_length() - 1
                                                for k in recs[f"k{i}"].tolist()]

    def test_source_pairs_are_per_trial_draws(self):
        # the chunked source draw equals one sample_pmf per trial on the
        # trial's "source" subseed, for spans across a chunk boundary
        m = independent_u_model()
        recs = gw_run_trials(m, 300, SEED)
        for t, x1, x2 in rows(recs, "trial", "x1", "x2"):
            pair = sample_pmf(m.source_pmf,
                              derive_subseed(SEED, t, "source").stream("draw"))
            assert (x1, x2) == divmod(pair, m.n2)


def sparse_model(model_seed, n1, n2, nu, ny1, ny2, dead_u):
    """Random model whose kernels hold zeros.

    Some source pairs have probability 0; u = dead_u (if < nu) is
    unreachable; and given u, y = u mod ny has probability 0 on both sides
    while other u draw it, so iota(u; y) = -inf for a drawable mark.
    """
    rng = np.random.default_rng(model_seed)

    def kern(rows, cols, dead=None):
        a = rng.random((rows, cols)) ** 3 * (rng.random((rows, cols)) < 0.7)
        keep = rng.integers(0, cols, size=rows)
        if dead is not None and cols > 1:  # row i puts no mass on column dead[i]
            keep = np.where(keep == dead, (keep + 1) % cols, keep)
            a[np.arange(rows), dead] = 0.0
        a[np.arange(rows), keep] += 0.05
        return Kernel(a / a.sum(axis=1, keepdims=True))

    joint = rng.random((n1, n2)) * (rng.random((n1, n2)) < 0.8)
    joint.flat[rng.integers(0, n1 * n2)] += 0.1
    return GwModel(joint_source=joint / joint.sum(),
                   u_kernel=kern(n1 * n2, nu, np.full(n1 * n2, dead_u)
                                 if dead_u < nu else None),
                   y1_kernel=kern(n1 * nu, ny1, np.arange(n1 * nu) % nu % ny1),
                   y2_kernel=kern(n2 * nu, ny2, np.arange(n2 * nu) % nu % ny2))


def decode_chunks(model, seed, ks, width):
    """gw_decode_chunk over spans of width trials of the (n, 3) array ks, trial
    t at row t; the (u, y1, y2) rows, a row per trial."""
    spans = (range(c, min(c + width, len(ks))) for c in range(0, len(ks), width))
    return np.concatenate([
        gw_decode_chunk(model, stream_keys(seed, span, "gw", "gw-u", "gw-y1", "gw-y2"),
                        ks[span.start:span.stop].T).T
        for span in spans])


def assert_batched_equals_streaming(model, n, seed):
    recs = gw_run_trials(model, n, seed)
    decoded = decode_chunks(model, seed, np.array(rows(recs, "k0", "k1", "k2")), n)
    for (t, x1, x2, k0, k1, k2, u, y1, y2), dec in zip(
            rows(recs, "trial", "x1", "x2", "k0", "k1", "k2", "u", "y1", "y2"),
            decoded.tolist()):
        sub = derive_subseed(seed, t, "gw")
        res = gw_encode(model, x1, x2, sub)
        assert (k0, k1, k2, u, y1, y2) == (res.k0, res.k1, res.k2,
                                           res.u, res.y1, res.y2)
        assert tuple(dec) == gw_decode(model, k0, k1, k2, sub) == (u, y1, y2)
    return recs


class TestBatchedEqualsStreaming:
    @PROPERTY
    @given(model_seed=st.integers(min_value=0, max_value=2**32),
           seed=st.integers(min_value=0, max_value=2**64),
           dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3,
                          *[st.integers(min_value=1, max_value=8)] * 2),
           dead_u=st.integers(min_value=0, max_value=5),
           n=st.integers(min_value=1, max_value=40))
    def test_random_models(self, model_seed, seed, dims, dead_u, n):
        model = sparse_model(model_seed, *dims, dead_u)
        assert_batched_equals_streaming(model, n, Seed.from_int(seed))

    def test_unreachable_u_and_never_released_marks(self):
        model = sparse_model(11, 3, 3, 3, 5, 4, dead_u=1)
        assert model.p_u.probs[1] == 0.0
        assert any(np.isneginf(side.iota[u]).any() and np.isfinite(side.iota[u]).any()
                   for side in model.sides for u in (0, 2))
        recs = assert_batched_equals_streaming(model, 200, SEED)
        assert np.all(recs["u"] != 1)

    def test_span_across_chunks(self):
        assert_batched_equals_streaming(random_model(8), 300, SEED)

    def test_large_private_alphabet(self):
        model = sparse_model(5, 2, 2, 2, 64, 64, dead_u=9)
        recs = assert_batched_equals_streaming(model, 150, SEED)
        assert max(recs["k1"].max(), recs["k2"].max()) > 8  # scans past one round

    def test_zero_gap_replays_the_stream(self, monkeypatch):
        # gap word 2^64 - 1 gives a zero gap, which the stream regenerates;
        # force one at block 0 of one trial's gw-u and another's gw-y1 stream
        seed, model, n = Seed.from_int(31), random_model(9), 40
        blocks = {stream_keys(seed, [t], "gw", label)[0][0] + bytes(8): 2**64 - 1
                  for t, label in ((7, "gw-u"), (12, "gw-y1"))}
        patch_first_words(monkeypatch, blocks)
        replays = record_replays(monkeypatch)
        recs = gw_run_trials(model, n, seed)
        # the gw-u scan of trial 7 and the gw-y1 encode and decode scans of
        # trial 12 each replay their stream; decoding u reads mark words only,
        # so the gw-u gap has no effect there
        assert replays == [0, 0, 0]
        ks = np.array(rows(recs, "k0", "k1", "k2"))
        decoded = decode_chunks(model, seed, ks, n).tolist()
        assert replays == [0, 0, 0, 0]
        assert_batched_equals_streaming(model, n, seed)
        assert [tuple(d) for d in decoded] == rows(recs, "u", "y1", "y2")

    def test_zero_gap_in_a_later_round_of_a_decode_scan(self, monkeypatch):
        # a zero gap at point 13 (block 3) of trial 30's gw-y1 stream is found
        # in the decode scan's round from point 9, which replays from there;
        # at the same k1 it reads another y1 than the stream without the zero
        seed, n, victim = Seed.from_int(31), 40, 30
        model = sparse_model(5, 2, 2, 2, 64, 64, dead_u=9)
        recs = gw_run_trials(model, n, seed)
        ks = np.array(rows(recs, "k0", "k1", "k2"))
        keys = stream_keys(seed, range(n), "gw", "gw-u", "gw-y1", "gw-y2")
        patch_first_words(monkeypatch, {keys[2][victim] + (3).to_bytes(8, "big"):
                                        2**64 - 1})
        replays = record_replays(monkeypatch)
        decoded = [tuple(d) for d in gw_decode_chunk(model, keys, ks.T).T.tolist()]
        assert replays == [8]
        assert decoded == [gw_decode(model, *k, derive_subseed(seed, t, "gw"))
                           for t, k in enumerate(ks.tolist())]
        want = rows(recs, "u", "y1", "y2")
        assert [t for t in range(n) if decoded[t] != want[t]] == [victim]


def information_loops(model):
    """I(U; X1, X2), I(Y1; X1 | U) and I(Y2; X2 | U) as one kl_divergence per
    term, on pmfs built here: the first over source pairs in order, the others
    over u, then x."""
    total = 0.0
    for i, w in enumerate(model.source_pmf.probs):
        if w > 0:
            total += w * kl_divergence(FinitePmf(model.u_kernel.rows[i]), model.p_u)
    out = [total]
    for side, kernel in zip(model.sides, (model.y1_kernel, model.y2_kernel)):
        total = 0.0
        for u, cond in enumerate(side.cond_pmfs):
            for x in range(side.p_x_u.shape[0]):
                w = side.p_x_u[x, u]
                if w > 0:
                    total += w * kl_divergence(FinitePmf(kernel.rows[x * model.nu + u]),
                                               cond)
        out.append(total)
    return out


class TestLawTables:
    """Each table a GwModel reads has one builder, which gives, bit for bit,
    what the loops and expressions it replaced gave."""

    @PROPERTY
    @given(model_seed=st.integers(min_value=0, max_value=2**32),
           dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3,
                          *[st.integers(min_value=1, max_value=6)] * 2),
           dead_u=st.integers(min_value=0, max_value=5))
    def test_equal_the_loops_they_replaced(self, model_seed, dims, dead_u):
        for model in (random_model(model_seed), sparse_model(model_seed, *dims, dead_u)):
            mi_u, mi_1, mi_2 = information_loops(model)
            assert model.mi_u_sources == mi_u
            assert model.mi_y_source_given_u(1) == mi_1
            assert model.mi_y_source_given_u(2) == mi_2
            for side in model.sides:
                assert np.array_equal(side.iota,
                                      iota_reference(side.p_y_given_u, side.p_y.probs))
                scale, r = zip(*(resort_tables(side.p_y, row) for row in side.iota))
                assert np.array_equal(side.scale, scale) and np.array_equal(side.r, r)

    @PROPERTY
    @given(model_seed=st.integers(min_value=0, max_value=2**32),
           dims=st.tuples(*[st.integers(min_value=1, max_value=3)] * 3,
                          *[st.integers(min_value=1, max_value=6)] * 2),
           dead_u=st.integers(min_value=0, max_value=5))
    def test_selection_ratios_come_from_density_ratio(self, model_seed, dims, dead_u):
        # a drawable (x, u) row is _density_ratio of its target against p(y | u),
        # bit for bit; a row of probability 0 is never read and holds zeros
        for model in (random_model(model_seed), sparse_model(model_seed, *dims, dead_u)):
            for side in model.sides:
                for (x, u), w in np.ndenumerate(side.p_x_u):
                    want = (_density_ratio(side.target(x, u).probs,
                                           side.cond_pmfs[u].probs) if w > 0
                            else np.zeros(side.p_y.probs.size))
                    assert np.array_equal(side.f[x * model.nu + u], want)
            for row, w, target in zip(model.u_kernel.pmfs, model.source_pmf.probs,
                                      model.u_targets):
                assert target is (row if w > 0 else model.p_u)

    def test_rows_are_the_kernels_pmfs(self):
        m = sparse_model(11, 3, 3, 3, 5, 4, dead_u=1)
        for x1 in range(m.n1):
            for x2 in range(m.n2):
                assert m.u_target(x1, x2) is m.u_kernel.row(x1 * m.n2 + x2)
        for side, kernel in zip(m.sides, (m.y1_kernel, m.y2_kernel)):
            assert side.target(2, 1) is kernel.row(2 * m.nu + 1) is side.target(2, 1)


def long_scan_model(eps):
    """x1 = 1 with probability eps, and then y1 = 1, which p(y1 | u) also gives
    probability eps: decoder 1's scans at x1 = 1 run about 1 / eps points."""
    return GwModel(joint_source=np.array([[1.0 - eps], [eps]]),
                   u_kernel=Kernel(np.ones((2, 1))), y1_kernel=Kernel(np.eye(2)),
                   y2_kernel=Kernel(np.ones((1, 1))))


def assert_slices_fit(widths, scans, budget):
    """widths cut the rows of scans into consecutive slices whose scans, each
    clipped at budget, add up to at most budget, or that hold one row; and no
    slice could also have taken the row after it."""
    clipped = np.minimum(scans, budget)
    assert sum(widths) == len(scans) and min(widths) >= 1
    for lo, width in zip(np.cumsum([0] + widths[:-1]), widths):
        total = clipped[lo:lo + width].sum()
        assert width == 1 or total <= budget * (1 + 1e-12)
        if lo + width < len(scans):
            assert total + clipped[lo + width] > budget * (1 - 1e-12)


class TestSliceBudget:
    @pytest.mark.parametrize("make, n", [
        (lambda: random_model(8), 300),
        (lambda: sparse_model(11, 3, 3, 3, 5, 4, dead_u=1), 200),
        (lambda: sparse_model(5, 2, 2, 2, 64, 64, dead_u=9), 150)],
        ids=["random", "sparse", "sparse-64"])
    def test_tables_do_not_depend_on_the_budget(self, make, n, monkeypatch):
        want = gw_run_trials(make(), n, SEED)
        ks = np.array(rows(want, "k0", "k1", "k2"))
        # a budget of 1 runs every row alone, and 50 cuts each chunk into
        # slices of several rows, at other rows when encoding than decoding
        for budget, width in ((1, 1), (50, 7), (700, n)):
            monkeypatch.setattr(gray_wyner, "MAX_POINTS", budget)
            slices = record_slices(monkeypatch, run=True)
            assert_same_table(gw_run_trials(make(), n, SEED), want)
            widths = [w for w, _ in slices]
            if budget == 1:
                assert widths == [1] * (4 * n)
            if budget == 50:
                assert len(widths) > 4 and max(widths) > 1
            assert decode_chunks(make(), SEED, ks, width).tolist() == [
                list(r) for r in rows(want, "u", "y1", "y2")]
            monkeypatch.undo()

    def test_slices_keep_to_the_point_budget(self, monkeypatch):
        # f_max = 512 at (x1, u) = (1, 0), about 1 at (0, 0), and r = 1
        side = long_scan_model(2.0 ** -9).sides[0]
        assert side.r.tolist() == [1.0] and side.f_max[1] == pytest.approx(512.0)
        slices = record_slices(monkeypatch)
        keys, us = ([b""] * 1024,) * 2, np.zeros(1024, dtype=np.int64)
        side.scan_span(keys, us, xs=np.ones(1024, dtype=np.int64))
        assert slices == [(512, 512.0)] * 2
        rng = np.random.default_rng(25)
        xs = (rng.random(1024) < 0.3).astype(np.int64)
        slices.clear()
        side.scan_span(keys, us, xs=xs)
        widths = [w for w, _ in slices]
        assert_slices_fit(widths, side.f_max[xs], MAX_POINTS)
        ends = np.cumsum(widths)
        assert [scan for _, scan in slices] == [
            side.f_max[xs[e - w:e]].max() for w, e in zip(widths, ends)]
        # decoding reads r * ks; a row past the budget runs alone
        ks = rng.integers(1, 5000, 1024)
        ks[100] = 10 ** 7
        slices.clear()
        side.scan_span(keys, us, ks=ks)
        widths = [w for w, _ in slices]
        assert_slices_fit(widths, ks.astype(float), MAX_POINTS)
        assert (1, 1e7) in slices
        assert [scan for _, scan in slices] == [
            ks[e - w:e].mean() for w, e in zip(widths, np.cumsum(widths))]

    def test_an_infinite_scan_runs_alone_without_warnings(self, monkeypatch):
        side = long_scan_model(2.0 ** -9).sides[0]
        side.r = np.array([math.inf])
        slices = record_slices(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            side.scan_span(([b""] * 3,) * 2, np.zeros(3, dtype=np.int64),
                           xs=np.array([0, 1, 0]))
        assert slices == [(1, math.inf)] * 3

    def test_an_unlikely_u_keeps_whole_chunks(self, monkeypatch):
        # p(u = 1) = 6e-309, so r[1] is about 1.7e308: a chunk slices by the
        # rows it holds, never by a row no trial draws
        model = GwModel(joint_source=np.array([[0.5, 0.0], [0.0, 0.5]]),
                        u_kernel=Kernel(np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                                                  [1.0, 1.2e-308]])),
                        y1_kernel=common_bit_model().y1_kernel,
                        y2_kernel=common_bit_model().y2_kernel)
        assert model.sides[0].r[1] > 1e308
        spans, keys = [], gray_wyner.stream_keys

        def counted(seed, trials, *labels):
            spans.append(len(trials))
            return keys(seed, trials, *labels)

        monkeypatch.setattr(gray_wyner, "stream_keys", counted)
        table = gw_run_trials(model, 2000, SEED)
        assert spans == [1024, 976]
        assert (table["u"] == 0).all()
