import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pfrlab import (DistortionMatrix, FinitePmf, NotConverged, TargetOutOfRange,
                    ba_fixed_slope, mutual_information, solve_at_distortion,
                    tilted_information)
from pfrlab import rd
from conftest import PROPERTY, binary_entropy, information_density, uniform_hamming


def pmf(*vals):
    return FinitePmf(np.array(vals, dtype=float))


HAMMING = DistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
UNIFORM = FinitePmf.uniform(2)


class TestFixedSlope:
    def test_zero_slope_endpoint(self):
        src = pmf(0.3, 0.7)
        d = DistortionMatrix(np.array([[0.2, 1.0], [0.9, 0.1]]))
        sol = ba_fixed_slope(src, d, 0.0)
        assert sol.rate == 0.0
        per_y = src.probs @ d.d
        assert sol.distortion == pytest.approx(per_y.min())
        star = int(np.argmin(per_y))
        assert sol.output_marginal[star] == 1.0
        assert np.allclose(sol.kernel.rows, sol.output_marginal.probs)

    def test_binary_analytic_point(self):
        # lambda* = log2((1-D)/D) pins D = 0.11 for the uniform binary source
        s = math.log2(0.89 / 0.11)
        sol = ba_fixed_slope(UNIFORM, HAMMING, s)
        assert sol.distortion == pytest.approx(0.11, abs=1e-9)
        assert sol.rate == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-9)

    def test_free_distortion(self):
        src = pmf(0.4, 0.6)
        sol = ba_fixed_slope(src, DistortionMatrix(np.zeros((2, 3))), 2.0)
        assert sol.rate == pytest.approx(0.0, abs=1e-9)

    def test_not_converged_carries_last(self):
        with pytest.raises(NotConverged) as exc:
            ba_fixed_slope(pmf(0.3, 0.7), HAMMING, 3.0, tol=1e-10, max_iter=2)
        assert exc.value.last is not None
        assert exc.value.last.slope_lambda == 3.0

    def test_rejects_negative_slope(self):
        with pytest.raises(ValueError):
            ba_fixed_slope(UNIFORM, HAMMING, -1.0)


class TestSolveAtDistortion:
    def test_bsc_point(self, bsc_sol):
        assert abs(bsc_sol.rate - (1.0 - binary_entropy(0.11))) <= 1e-4
        assert abs(bsc_sol.slope_lambda - math.log2(0.89 / 0.11)) <= 1e-3
        assert abs(bsc_sol.distortion - 0.11) <= 1e-7

    def test_zero_rate_target(self):
        sol = solve_at_distortion(UNIFORM, HAMMING, 0.5)
        assert sol.rate == 0.0 and sol.slope_lambda == 0.0
        sol2 = solve_at_distortion(UNIFORM, HAMMING, 0.8)
        assert sol2.rate == 0.0

    def test_biased_binary_analytic(self):
        # R(D) = h(p) - h(D) for Bern(p) with Hamming distortion
        sol = solve_at_distortion(pmf(0.8, 0.2), HAMMING, 0.1, tol_D=1e-7)
        expected = binary_entropy(0.2) - binary_entropy(0.1)
        assert sol.rate == pytest.approx(expected, abs=1e-5)

    def test_below_minimum_rejected(self):
        d = DistortionMatrix(np.array([[0.5, 1.0], [1.0, 0.5]]))
        with pytest.raises(TargetOutOfRange):
            solve_at_distortion(UNIFORM, d, 0.2)


class TestRateOnFirstRead:
    def test_solve_computes_the_rate_once_when_read(self, monkeypatch):
        calls = []

        def counted(px, k):
            calls.append(k)
            return mutual_information(px, k)

        monkeypatch.setattr(rd, "mutual_information", counted)
        sol = solve_at_distortion(*uniform_hamming(64), 0.5)
        assert calls == []
        assert sol.rate.hex() == "0x1.01745dca4755ap+1"
        assert calls == [sol.kernel]
        assert sol.rate.hex() == "0x1.01745dca4755ap+1"
        assert len(calls) == 1

    def test_zero_rate_is_exactly_zero(self):
        # the float marginal of ten 0.1s misses 1 and its bare I(X;Y) is 3e-16
        src, d = uniform_hamming(10)
        sol = solve_at_distortion(src, d, 0.95)
        assert sol.slope_lambda == 0.0
        assert mutual_information(src, sol.kernel) > 0.0
        assert sol.rate == 0.0


class TestSolutionInvariants:
    def test_marginal_consistency(self, bsc_sol):
        marg = bsc_sol.kernel.output_marginal(bsc_sol.source)
        assert np.abs(marg.probs - bsc_sol.output_marginal.probs).max() <= 1e-9

    def test_rate_is_mutual_information(self, bsc_sol):
        assert bsc_sol.rate == pytest.approx(
            mutual_information(bsc_sol.source, bsc_sol.kernel), abs=1e-9)

    def test_feasible_distortion(self, bsc_sol):
        w = bsc_sol.kernel.rows
        d = bsc_sol.distortion_matrix.d
        got = float(bsc_sol.source.probs @ (w * d).sum(axis=1))
        assert got == pytest.approx(bsc_sol.distortion, abs=1e-12)
        assert got <= 0.11 + 1e-6

    def test_curve_monotone_convex(self):
        src = pmf(0.5, 0.2, 0.3)
        d = DistortionMatrix(np.array([[0.0, 1.0, 0.6],
                                       [1.0, 0.0, 0.7],
                                       [0.8, 0.9, 0.0]]))
        slopes = np.geomspace(0.05, 24.0, 20)
        sols = [ba_fixed_slope(src, d, float(s)) for s in slopes]
        ds = [s.distortion for s in sols]
        rs = [s.rate for s in sols]
        assert all(b <= a + 1e-9 for a, b in zip(ds, ds[1:]))
        assert all(b >= a - 1e-9 for a, b in zip(rs, rs[1:]))
        # convexity: chord slopes (R drop per D step) steepen as D shrinks
        chords = []
        for (d0, r0), (d1, r1) in zip(zip(ds, rs), zip(ds[1:], rs[1:])):
            if d0 - d1 > 1e-7:
                chords.append((r1 - r0) / (d0 - d1))
        assert all(b >= a - 1e-6 for a, b in zip(chords, chords[1:]))


@st.composite
def slope_problems(draw):
    """A source on at most 5 symbols (one of them sure to be positive), a
    distortion matrix of up to 5 columns with entries in [0, 4], and a slope."""
    m, n = (draw(st.integers(min_value=1, max_value=5)) for _ in range(2))
    p = np.array(draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)), float)
    p[draw(st.integers(min_value=0, max_value=m - 1))] += 1.0
    d = draw(st.lists(st.lists(st.integers(0, 8), min_size=n, max_size=n),
                      min_size=m, max_size=m))
    s = draw(st.floats(min_value=0.01, max_value=20.0))
    return FinitePmf(p / p.sum()), DistortionMatrix(np.array(d, float) / 2.0), s


class TestGapCertificate:
    @PROPERTY
    @given(problem=slope_problems(), tol=st.sampled_from([1e-4, 1e-7, 1e-10]))
    def test_objective_within_tol_of_the_dual_bound(self, problem, tol):
        # for any q, sum_x p(x) (-log2 sum_y q(y) 2^{-s d(x, y)}) - log2 max_y c_y
        # is at most min R + s D; ba_fixed_slope's own point is within tol of it
        source, d, s = problem
        sol = ba_fixed_slope(source, d, s, tol=tol)
        a = np.exp2(-s * d.d)
        z = a @ sol.output_marginal.probs
        c = (source.probs / z) @ a
        lower = float(source.probs @ -np.log2(z)) - math.log2(float(c.max()))
        excess = sol.rate + s * sol.distortion - lower
        assert -1e-12 <= excess <= tol + 1e-12


class TestTiltedInformation:
    def test_symmetric_equals_rate(self, bsc_sol):
        for x in range(2):
            assert tilted_information(bsc_sol, x, bsc_sol.distortion) == pytest.approx(
                bsc_sol.rate, abs=1e-9)

    def test_linear_shift_in_delta(self, bsc_sol):
        lam = bsc_sol.slope_lambda
        for x in range(2):
            j_d = tilted_information(bsc_sol, x, bsc_sol.distortion)
            shifted = tilted_information(bsc_sol, x, bsc_sol.distortion + 1.0 / lam)
            assert shifted == pytest.approx(j_d - 1.0, abs=1e-12)

    def test_matches_information_density(self, bsc_sol):
        for x in range(2):
            for y in bsc_sol.output_marginal.support:
                j = tilted_information(bsc_sol, x,
                                       float(bsc_sol.distortion_matrix.d[x, y]))
                iota = information_density(bsc_sol.kernel, bsc_sol.source, x, int(y))
                assert j == pytest.approx(iota, abs=1e-6)

    def test_average_tilted_is_rate(self):
        src = pmf(0.6, 0.1, 0.3)
        d = DistortionMatrix(np.array([[0.0, 1.0, 0.3],
                                       [1.0, 0.0, 0.4],
                                       [0.5, 0.8, 0.0]]))
        sol = solve_at_distortion(src, d, 0.12, tol_D=1e-8)
        avg = sum(src[x] * tilted_information(sol, x, sol.distortion)
                  for x in range(3))
        assert avg == pytest.approx(sol.rate, abs=1e-6)
        for x in range(3):
            for y in sol.output_marginal.support:
                j = tilted_information(sol, x, float(d.d[x, int(y)]))
                iota = information_density(sol.kernel, src, x, int(y))
                assert j == pytest.approx(iota, abs=1e-6)
