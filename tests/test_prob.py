import hashlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfrlab import (AbsoluteContinuityViolated, DistortionMatrix, FinitePmf,
                    GwModel, Kernel, Seed, entropy, kl_divergence,
                    mutual_information, sample_pmf)
from pfrlab.codebook import nth_marks
from pfrlab.prob import RngState, _kdf, _kdf_many, information_density_table
from conftest import (PROPERTY, UnsupportedOutput, binary_entropy,
                      expected_log_k_bound, information_density, iota_reference,
                      patch_first_words)


def pmf(*vals):
    return FinitePmf(np.array(vals, dtype=float))


def draw(p, rng, n):
    return np.array([sample_pmf(p, rng) for _ in range(n)])


def tv(freq, p):
    return 0.5 * float(np.abs(freq - p.probs).sum())


class TestValidation:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            pmf(1.2, -0.2)

    def test_rejects_bad_sum(self):
        for vals in ((0.5, 0.4), (0.0, 0.0)):
            with pytest.raises(ValueError):
                pmf(*vals)

    def test_kernel_rejects_bad_row(self):
        with pytest.raises(ValueError):
            Kernel(np.array([[0.5, 0.5], [0.7, 0.2]]))

    def test_pmf_immutable(self):
        p = pmf(0.5, 0.5)
        with pytest.raises(ValueError):
            p.probs[0] = 0.9

    def test_seed_width(self):
        with pytest.raises(ValueError):
            Seed(b"short")
        assert Seed.from_hex("00" * 32).value == bytes(32)


def gw_model(joint):
    """A GwModel on the (2, 2) joint source with a one-letter auxiliary."""
    one = Kernel(np.ones((2, 1)))
    return GwModel(joint_source=joint, u_kernel=Kernel(np.ones((4, 1))),
                   y1_kernel=one, y2_kernel=one)


# (constructor, the field it stores, a valid input)
ARRAY_INPUTS = {
    "FinitePmf": (FinitePmf, "probs", [0.25, 0.75]),
    "Kernel": (Kernel, "rows", [[0.25, 0.75], [1.0, 0.0]]),
    "DistortionMatrix": (DistortionMatrix, "d", [[0.0, 1.0], [2.0, 0.5]]),
    "GwModel": (gw_model, "joint_source", [[0.25, 0.25], [0.125, 0.375]]),
}


def bad_arrays(valid):
    """Inputs each class must refuse: a NaN, an inf or a negative entry (the
    last keeping every sum at 1), one dimension too many, an empty dimension."""
    a = np.array(valid)
    nan, inf, neg = a.copy(), a.copy(), a.copy()
    nan.flat[0], inf.flat[0] = np.nan, np.inf
    neg.flat[0], neg.flat[1] = neg.flat[0] - 0.5, neg.flat[1] + 0.5
    empty = np.zeros(a.shape[:-1] + (0,))
    return dict(nan=nan, inf=inf, negative=neg, extra_dim=a[None], empty=empty)


class TestArrayValidation:
    @pytest.mark.parametrize("name", ARRAY_INPUTS)
    @pytest.mark.parametrize("bad", ["nan", "inf", "negative", "extra_dim", "empty"])
    def test_rejects(self, name, bad):
        build, _, valid = ARRAY_INPUTS[name]
        with pytest.raises(ValueError):
            build(bad_arrays(valid)[bad])

    @pytest.mark.parametrize("name", ARRAY_INPUTS)
    def test_stores_a_read_only_copy(self, name):
        build, field, valid = ARRAY_INPUTS[name]
        a = np.array(valid)
        stored = getattr(build(a), field)
        a.flat[0] = 7.0
        assert np.array_equal(stored, valid)
        assert stored.dtype == np.float64
        with pytest.raises(ValueError):
            stored.flat[0] = 7.0


class TestEntropy:
    def test_uniform_binary(self):
        assert entropy(pmf(0.5, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate(self):
        assert entropy(pmf(1.0, 0.0)) == 0.0

    def test_biased(self):
        # oracle: direct evaluation of -sum p log2 p
        expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        assert entropy(pmf(0.8, 0.2)) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.721928, abs=1e-6)


class TestKl:
    def test_identical(self):
        p = pmf(0.3, 0.7)
        assert kl_divergence(p, p) == 0.0

    def test_biased_vs_uniform(self):
        expected = 0.8 * math.log2(1.6) + 0.2 * math.log2(0.4)
        got = kl_divergence(pmf(0.8, 0.2), pmf(0.5, 0.5))
        assert got == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.278072, abs=1e-6)

    def test_point_mass_vs_uniform(self):
        assert kl_divergence(pmf(1.0, 0.0), pmf(0.5, 0.5)) == pytest.approx(1.0)

    def test_absolute_continuity(self):
        with pytest.raises(AbsoluteContinuityViolated):
            kl_divergence(pmf(0.5, 0.5), pmf(1.0, 0.0))

    def test_nonnegative_random_pairs(self):
        # strictly positive for distinct laws, zero only at equality
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = rng.random(4) + 1e-3
            b = rng.random(4) + 1e-3
            p, q = FinitePmf(a / a.sum()), FinitePmf(b / b.sum())
            assert kl_divergence(p, q) > 0.0
        p = pmf(0.25, 0.25, 0.25, 0.25)
        assert kl_divergence(p, p) == 0.0


class TestInformationDensity:
    def test_independent_rows(self):
        k = Kernel(np.array([[0.3, 0.7], [0.3, 0.7]]))
        px = pmf(0.4, 0.6)
        for x in range(2):
            for y in range(2):
                assert information_density(k, px, x, y) == pytest.approx(0.0, abs=1e-12)

    def test_identity_kernel(self):
        k = Kernel(np.eye(2))
        assert information_density(k, pmf(0.5, 0.5), 0, 0) == pytest.approx(1.0)

    def test_bsc(self):
        k = Kernel(np.array([[0.89, 0.11], [0.11, 0.89]]))
        got = information_density(k, pmf(0.5, 0.5), 0, 0)
        assert got == pytest.approx(math.log2(0.89 / 0.5), abs=1e-12)
        assert got == pytest.approx(0.831877, abs=1e-6)

    def test_zero_marginal_rejected(self):
        k = Kernel(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(UnsupportedOutput):
            information_density(k, pmf(0.5, 0.5), 0, 1)

    def test_zero_conditional_is_minus_inf(self):
        k = Kernel(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert information_density(k, pmf(0.5, 0.5), 0, 1) == -math.inf


class TestMutualInformation:
    def test_independent(self):
        k = Kernel(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert mutual_information(pmf(0.4, 0.6), k) == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        assert mutual_information(pmf(0.5, 0.5), Kernel(np.eye(2))) == pytest.approx(1.0)

    def test_bsc_analytic(self):
        k = Kernel(np.array([[0.89, 0.11], [0.11, 0.89]]))
        got = mutual_information(pmf(0.5, 0.5), k)
        assert got == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_equals_average_information_density(self):
        rng = np.random.default_rng(2)
        a = rng.random((3, 4)) + 0.05
        k = Kernel(a / a.sum(axis=1, keepdims=True))
        w = rng.random(3) + 0.05
        px = FinitePmf(w / w.sum())
        total = 0.0
        for x in range(3):
            for y in range(4):
                total += px[x] * k.rows[x, y] * information_density(k, px, x, y)
        assert mutual_information(px, k) == pytest.approx(total, abs=1e-12)

    def test_expected_two_pow_minus_iota_at_most_one(self):
        # exact summation: E[2^-iota] = sum_{x,y in support} p(x) P_Y(y) <= 1
        rng = np.random.default_rng(3)
        for _ in range(50):
            a = rng.random((3, 3)) ** 3
            a[a < 0.2] = 0.0
            a += np.eye(3) * 0.1
            k = Kernel(a / a.sum(axis=1, keepdims=True))
            w = rng.random(3) + 0.05
            px = FinitePmf(w / w.sum())
            py = k.output_marginal(px)
            total = 0.0
            for x in range(3):
                for y in range(3):
                    if px[x] * k.rows[x, y] > 0:
                        total += px[x] * k.rows[x, y] * 2.0 ** (
                            -information_density(k, px, x, y))
            assert total <= 1.0 + 1e-12


def sparse_kernel(seed, m, n):
    """A random m-symbol source and m x n kernel, both with zero entries; a
    zero-weight x may have mass where the output marginal has none."""
    rng = np.random.default_rng(seed)
    a = rng.random((m, n)) * (rng.random((m, n)) < 0.6)
    a[np.arange(m), rng.integers(0, n, size=m)] += 0.05
    w = rng.random(m) * (rng.random(m) < 0.7)
    w[rng.integers(0, m)] += 0.1
    return FinitePmf(w / w.sum()), Kernel(a / a.sum(axis=1, keepdims=True))


def kl_in_x_order(px, k, q):
    """sum over x = 0, 1, ... of px(x) KL(k[x] || q) where px(x) > 0, one
    kl_divergence at a time, on pmfs built here."""
    total = 0.0
    for x in range(len(px)):
        w = float(px.probs[x])
        if w > 0:
            total += w * kl_divergence(FinitePmf(k.rows[x]), q)
    return total


class TestSharedBuilders:
    """The one builder of each law table gives, bit for bit, what the loops and
    expressions it replaced gave."""

    @PROPERTY
    @given(seed=st.integers(min_value=0, max_value=2**32),
           m=st.integers(min_value=1, max_value=6),
           n=st.integers(min_value=1, max_value=6))
    def test_equal_the_loops_they_replaced(self, seed, m, n):
        px, k = sparse_kernel(seed, m, n)
        py = k.output_marginal(px)
        full = np.random.default_rng(seed + 1).random(n) + 0.01
        q = FinitePmf(full / full.sum())
        assert mutual_information(px, k) == kl_in_x_order(px, k, py)
        assert expected_log_k_bound(px, k, q) == kl_in_x_order(px, k, q) + 1.0
        assert expected_log_k_bound(px, k, py) == kl_in_x_order(px, k, py) + 1.0
        for table_q in (py.probs, q.probs):
            assert np.array_equal(information_density_table(k.rows, table_q),
                                  iota_reference(k.rows, table_q))

    def test_one_weight_per_row(self):
        # a source longer or shorter than the kernel is not summed in part
        q = FinitePmf.uniform(2)
        for m in (1, 3):
            with pytest.raises(ValueError):
                expected_log_k_bound(FinitePmf.uniform(m), Kernel(np.eye(2)), q)

    def test_kernel_rows_are_built_once(self):
        _, k = sparse_kernel(7, 4, 3)
        for x in range(4):
            assert k.row(x) is k.row(x) is k.pmfs[x]
            assert np.array_equal(k.row(x).probs, k.rows[x])


class TestSampling:
    def test_point_mass(self):
        p = FinitePmf.point_mass(2, 4)
        rng = Seed.from_int(0).stream("s")
        assert all(sample_pmf(p, rng) == 2 for _ in range(50))

    def test_uniform_tv(self):
        p = FinitePmf.uniform(4)
        draws = draw(p, Seed.from_int(1).stream("s"), 100_000)
        freq = np.bincount(draws, minlength=4) / draws.size
        assert tv(freq, p) <= 0.01

    def test_determinism(self):
        p = pmf(0.5, 0.5)
        a = [sample_pmf(p, Seed.from_int(9).stream("s")) for _ in range(1)]
        runs = [[sample_pmf(p, rng) for _ in range(3)]
                for rng in (Seed.from_int(9).stream("s"), Seed.from_int(9).stream("s"))]
        assert runs[0] == runs[1]
        assert runs[0][0] == a[0]

    def test_tv_concentration_bound(self):
        # TV <= 3 sqrt(|alphabet| / N) for N >= 1e4
        p = pmf(0.1, 0.2, 0.3, 0.4)
        n = 10_000
        draws = draw(p, Seed.from_int(2).stream("s"), n)
        freq = np.bincount(draws, minlength=4) / n
        assert tv(freq, p) <= 3 * math.sqrt(4 / n)

    def test_zero_probability_symbol_never_drawn(self):
        p = pmf(0.5, 0.0, 0.5)
        draws = draw(p, Seed.from_int(3).stream("s"), 20_000)
        assert not np.any(draws == 1)


    @pytest.mark.parametrize("probs", [(0.5, 0.0, 0.5), (0.3, 0.7, 0.0), (1.0,),
                                       (0.1, 0.2, 0.3, 0.4)])
    def test_keys_equal_fresh_streams(self, probs):
        # the batched sampler both CLI drivers draw their sources with
        p = pmf(*probs)
        keys = [hashlib.sha256(b"sample-pmf-keys:%d" % i).digest() for i in range(200)]
        got = nth_marks(keys, np.ones(len(keys), dtype=np.int64), p.cumulative())
        want = [sample_pmf(p, RngState(key)) for key in keys]
        assert got.tolist() == want
        assert np.all(p.probs[got] > 0.0)

    @pytest.mark.parametrize("word", [2**64 - 1, 2**64 - 1025, 2**64 - 2048])
    def test_top_words_draw_in_the_support(self, monkeypatch, word):
        # word / 2^64 rounds to 1.0, or to 1 - 2^-53: the sum of the first three
        # probabilities, so "right" of it used to be the zero-mass symbol 3
        p = pmf(0.7, 0.2, 0.1, 0.0)
        key = Seed.from_int(4).stream("draw")._key
        patch_first_words(monkeypatch, {key + bytes(8): word})
        assert sample_pmf(p, RngState(key)) == 2
        assert nth_marks([key], np.ones(1, dtype=np.int64), p.cumulative()).tolist() == [2]


class TestKeyDerivation:
    def test_kdf_known_answer(self):
        # SHA-256 over each part prefixed by its 4-byte big-endian length;
        # pins the framing that every key, batched or streaming, is built on
        key = _kdf(b"pfrlab", struct.pack(">q", -1), b"codebook")
        assert key.hex() == ("7da8e02572077856d4e578905c643670"
                             "402fcea7eacf802027856f14dc269900")

    def test_batched_form(self):
        middles = [struct.pack(">q", t) for t in (-1, 0, 2**40)]
        assert _kdf_many((b"pfrlab",), middles, (b"codebook", b"")) == [
            _kdf(b"pfrlab", m, b"codebook", b"") for m in middles]
        assert _kdf_many((), [], (b"x",)) == []
        with pytest.raises(ValueError):
            _kdf_many((), [b"ab", b"abc"], ())


class TestRngState:
    def test_batching_invariance(self):
        a = Seed.from_int(5).stream("x")
        b = Seed.from_int(5).stream("x")
        one = a.uniforms(7)
        parts = np.concatenate([b.uniforms(2), b.uniforms(1), b.uniforms(4)])
        assert np.array_equal(one, parts)

    def test_labels_differ(self):
        s = Seed.from_int(5)
        assert not np.array_equal(s.stream("a").uniforms(8), s.stream("b").uniforms(8))

    def test_open_closed_range(self):
        u = Seed.from_int(6).stream("x").uniforms_oc(10_000)
        assert np.all(u > 0.0) and np.all(u <= 1.0)
