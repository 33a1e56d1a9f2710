import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import settings

from pfrlab import (DistortionMatrix, FinitePmf, Kernel, PfrlabError, codebook,
                    gray_wyner, prob, solve_at_distortion)

PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)

# prob's own SHA-256 constructor, taken before any test substitutes another
SHA256 = prob._sha256


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def substitute_sha256(monkeypatch, sha256=SHA256):
    """Make every hashing site of prob call sha256 in place of its SHA-256
    constructor, until the test ends; the default puts prob's own back."""
    monkeypatch.setattr(prob, "_sha256", sha256)


def patch_first_words(monkeypatch, words):
    """Make prob's SHA-256 of each counter block in words (key + 8-byte counter)
    start with the given 64-bit word, for the streaming and batched readers alike.
    """
    def sha256(data=b""):
        h = SHA256(data)
        if data not in words:
            return h
        return SimpleNamespace(
            digest=lambda: words[data].to_bytes(8, "big") + h.digest()[8:])

    substitute_sha256(monkeypatch, sha256)


def record_replays(monkeypatch):
    """A list that gets an entry for each CodebookStream built from now on: the
    start of the round codebook.draw_points drew last, None before any.  So
    the streams scan_rounds builds to replay a zero gap show as the starts of
    the rounds they replay from."""
    built, last = [], [None]
    draw = codebook.draw_points

    def draw_points(gap_keys, mark_keys, cum, start, n, clock):
        last[0] = start
        return draw(gap_keys, mark_keys, cum, start, n, clock)

    class Recorded(codebook.CodebookStream):
        def __init__(self, *args):
            built.append(last[0])
            super().__init__(*args)

    monkeypatch.setattr(codebook, "draw_points", draw_points)
    monkeypatch.setattr(codebook, "CodebookStream", Recorded)
    return built


def record_slices(monkeypatch, run=False):
    """A list that gets (rows, scan) for each gray_wyner.scan_rounds call from
    now on: one per slice of GwSide.scan_span.  Unless run, the call draws
    nothing, so scan_span returns at once (with k and y left 0)."""
    calls, scan_rounds = [], gray_wyner.scan_rounds

    def recorded(keys, law, scan, step):
        calls.append((len(keys[0]), scan))
        if run:
            scan_rounds(keys, law, scan, step)

    monkeypatch.setattr(gray_wyner, "scan_rounds", recorded)
    return calls

def uniform_hamming(m):
    """The uniform m-ary source and the m-ary Hamming distortion."""
    return FinitePmf.uniform(m), DistortionMatrix(1.0 - np.eye(m))


def iota_reference(rows, q):
    """log2(rows / q) per row, -inf where rows is 0: the expression each module
    once wrote out for its information-density table."""
    with np.errstate(divide="ignore"):
        return np.where(rows > 0.0,
                        np.log2(np.divide(rows, q[None, :],
                                          out=np.ones_like(rows), where=q > 0)),
                        -np.inf)


class UnsupportedOutput(PfrlabError, ValueError):
    """An output symbol has zero marginal probability where positive mass is required."""


def information_density(joint, px, x, y):
    """log2 of joint[x][y] over the output marginal at y, one entry at a time:
    -inf when joint[x][y] = 0, UnsupportedOutput when the marginal is 0."""
    py = float(px.probs @ joint.rows[:, y])
    if py == 0.0:
        raise UnsupportedOutput(f"output symbol {y} has zero marginal probability")
    w = float(joint.rows[x, y])
    if w == 0.0:
        return float("-inf")
    return math.log2(w / py)


def delta_length_calculus(a: float) -> tuple:
    """The length calculus L(t) = t + 2 log2(t+1) + 1 and its inverse lower bound.

    Returns (L(a), max{a - 2 log2([a]_+ + 1) - 1, 0}); the second value
    lower-bounds L^{-1}(a) and is taken as 0 for a < 1.
    """
    if a < 0 or not math.isfinite(a):
        big_l = float("nan")
    else:
        big_l = a + 2.0 * math.log2(a + 1.0) + 1.0
    inv = max(a - 2.0 * math.log2(max(a, 0.0) + 1.0) - 1.0, 0.0)
    return big_l, inv


def expected_log_k_bound(px: FinitePmf, k: Kernel, q: FinitePmf) -> float:
    """Upper bound on E[log2 K]: the px-average of KL(k[x] || q), plus one bit."""
    return prob.weighted_kl(px.probs, k.pmfs, [q] * len(px)) + 1.0


def resort_tables(base_law: FinitePmf, iota_row) -> tuple:
    """Re-sort tables for one u, one row at a time: the scale row
    2^{-iota(u; .)}, as a list, and the release ratio r = max over drawable
    marks of 2^{iota(u; mark)}."""
    row = np.asarray(iota_row, dtype=np.float64)
    drawable = base_law.probs > 0
    if np.any(np.isposinf(row[drawable])):
        raise ValueError("iota(u; mark) must be < +inf for drawable marks")
    return np.exp2(-row).tolist(), float(np.exp2(row[drawable]).max())


def conditional_triple_law(model, x1, x2):
    """Law of (u, y1, y2) given the source pair of a GwModel, as a (nu, ny1, ny2)
    array."""
    pu = model.u_target(x1, x2).probs
    s1, s2 = model.sides
    return np.stack([pu[u] * np.outer(s1.target(x1, u).probs, s2.target(x2, u).probs)
                     for u in range(model.nu)])


def head(table, n):
    """The first n rows of a trial table (a dict of numpy columns)."""
    return {name: col[:n] for name, col in table.items()}


def rows(table, *names):
    """The rows of a trial table as tuples of the named columns' values."""
    return list(zip(*(table[name].tolist() for name in names)))


def group_rows(table, *names):
    """Row indices of a trial table, grouped by the tuple of the named columns."""
    groups = {}
    for i, key in enumerate(rows(table, *names)):
        groups.setdefault(key, []).append(i)
    return groups


def assert_same_table(a, b):
    """The two trial tables have the same columns, dtypes and bytes."""
    assert list(a) == list(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert a[name].tobytes() == b[name].tobytes(), name


@pytest.fixture(scope="session")
def uniform2():
    return FinitePmf.uniform(2)


@pytest.fixture(scope="session")
def hamming2():
    return DistortionMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))


@pytest.fixture(scope="session")
def bsc_sol(uniform2, hamming2):
    """RD solution for the uniform binary source with Hamming distortion at D = 0.11."""
    return solve_at_distortion(uniform2, hamming2, 0.11, tol_D=1e-7)
