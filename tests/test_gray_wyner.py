import hashlib
import math
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfrlab import (FinitePmf, GwModel, Kernel, ResortedStream, Seed,
                    UnsupportedPoint, arrival_stream, derive_subseed, gw_decode,
                    gw_dominance_params, gw_encode, gw_run_trials, resort_tables,
                    sample_pmf)
from pfrlab import gray_wyner, prob, redundancy
from pfrlab.codebook import stream_keys
from pfrlab.gray_wyner import gw_decode_trials

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
        groups = {}
        for r in recs:
            groups.setdefault((r.x1, r.x2), []).append((r.u, r.y1, r.y2))
        for (x1, x2), sel in groups.items():
            if len(sel) < 10_000:
                continue
            law = m.conditional_triple_law(x1, x2)
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
        groups = {}
        for r in recs:
            groups.setdefault((r.x1, r.x2, r.u, r.y1, r.y2), []).append(r)
        for tup, rs in groups.items():
            if len(rs) < 3000:
                continue
            p0, p1, p2 = gw_dominance_params(m, *tup)
            for ks, p in ((np.array([r.k0 for r in rs]), p0),
                          (np.array([r.k1 for r in rs]), p1),
                          (np.array([r.k2 for r in rs]), p2)):
                for k in range(1, 31):
                    surv = (ks > k).mean()
                    se = math.sqrt(surv * (1 - surv) / ks.size)
                    assert surv <= (1 - p) ** k + 3 * se + 1e-12
        for which, ks in ((0, [r.k0 for r in recs]), (1, [r.k1 for r in recs]),
                          (2, [r.k2 for r in recs])):
            logk = np.log2(np.array(ks, dtype=float))
            bound = (m.mi_u_sources if which == 0
                     else m.mi_y_source_given_u(which)) + 1.0
            assert logk.mean() + 3 * logk.std(ddof=1) / math.sqrt(n) <= bound

    def test_trials_deterministic(self):
        m = common_bit_model()
        a = gw_run_trials(m, 400, SEED)
        b = gw_run_trials(m, 400, SEED)
        assert a == b

    def test_source_pairs_are_per_trial_draws(self):
        # the chunked source draw equals one sample_pmf per trial on the
        # trial's "source" subseed, for spans across a chunk boundary
        m = independent_u_model()
        recs = gw_run_trials(m, 300, SEED)
        for r in recs:
            pair = sample_pmf(m.source_pmf,
                              derive_subseed(SEED, r.trial, "source").stream("draw"))
            assert (r.x1, r.x2) == divmod(pair, m.n2)


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


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


def assert_batched_equals_streaming(model, n, seed):
    recs = gw_run_trials(model, n, seed)
    ks = np.array([(r.k0, r.k1, r.k2) for r in recs])
    decoded = gw_decode_trials(model, seed, ks).tolist()
    for r, dec in zip(recs, decoded):
        sub = derive_subseed(seed, r.trial, "gw")
        res = gw_encode(model, r.x1, r.x2, sub)
        assert (r.k0, r.k1, r.k2, r.u, r.y1, r.y2) == (res.k0, res.k1, res.k2,
                                                       res.u, res.y1, res.y2)
        assert tuple(dec) == gw_decode(model, r.k0, r.k1, r.k2, sub) == (r.u, r.y1,
                                                                         r.y2)
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
        assert all(r.u != 1 for r in recs)

    def test_span_across_chunks(self):
        assert_batched_equals_streaming(random_model(8), 300, SEED)

    def test_large_private_alphabet(self):
        model = sparse_model(5, 2, 2, 2, 64, 64, dead_u=9)
        recs = assert_batched_equals_streaming(model, 150, SEED)
        assert max(max(r.k1, r.k2) for r in recs) > 8  # scans past one round

    def test_zero_gap_falls_back_to_stream(self, monkeypatch):
        # gap word 2^64 - 1 gives a zero gap, which the stream regenerates;
        # force one at block 0 of one trial's gw-u and another's gw-y1 stream
        seed, model, n = Seed.from_int(31), random_model(9), 40
        blocks = {stream_keys(seed, [t], "gw", label)[0][0] + bytes(8)
                  for t, label in ((7, "gw-u"), (12, "gw-y1"))}

        def sha256(data=b""):
            h = hashlib.sha256(data)
            if data not in blocks:
                return h
            return SimpleNamespace(digest=lambda: b"\xff" * 8 + h.digest()[8:])

        monkeypatch.setattr(prob, "hashlib", SimpleNamespace(sha256=sha256))
        calls = Counter()

        def counted(mod, name):
            orig = getattr(mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return orig(*args, **kwargs)

            monkeypatch.setattr(mod, name, wrapper)

        counted(redundancy, "pfr_select")
        counted(gray_wyner, "gw_encode")
        counted(gray_wyner, "gw_decode")
        recs = gw_run_trials(model, n, seed)
        ks = np.array([(r.k0, r.k1, r.k2) for r in recs])
        decoded = gw_decode_trials(model, seed, ks).tolist()
        # the gw-u scan of trial 7 reruns on its stream; trial 12 reruns whole.
        # Decoding u reads mark words only, so the gw-u gap has no effect there
        assert calls == {"pfr_select": 1, "gw_encode": 1, "gw_decode": 1}
        monkeypatch.undo()
        monkeypatch.setattr(prob, "hashlib", SimpleNamespace(sha256=sha256))
        assert_batched_equals_streaming(model, n, seed)
        assert [tuple(d) for d in decoded] == [(r.u, r.y1, r.y2) for r in recs]
