"""Finite-alphabet probability primitives.

Distributions, conditional kernels, information measures (all in bits), and
seeded sampling.  Randomness is counter-based and splittable: every stream is
SHA-256 in counter mode keyed by (seed, labels...), so sub-streams are
reproducible and independent of the order in which trials are run.

Every digest comes from _sha256, CPython's built-in SHA-256.  hashlib's, slower
per one-block message and loading OpenSSL (3.7 MB of a 36 MB peak), is the fallback.
"""

import struct
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AbsoluteContinuityViolated

try:  # 3.12+
    from _sha2 import sha256 as _sha256
except ImportError:
    try:  # 3.10 and 3.11
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

SymbolId = int

_PMF_SUM_TOL = 1e-12
_TWO_NEG64 = 2.0 ** -64


def _frame(parts) -> bytes:
    """The parts, each behind its length as 4 big-endian bytes."""
    return b"".join([struct.pack(">I", len(p)) + p for p in parts])


def _kdf(*parts: bytes) -> bytes:
    """Collision-resistant key derivation: SHA-256 over length-prefixed parts."""
    return _sha256(_frame(parts)).digest()


def _kdf_many(heads, middles, tails) -> list:
    """[_kdf(*heads, m, *tails) for m in middles], for middles of one length.

    The same keys, with the constant parts and the middles' length prefix
    framed once, and one SHA-256 call per key.
    """
    widths = set(map(len, middles))
    if len(widths) > 1:
        raise ValueError("_kdf_many needs middles of one length")
    sha256, tail = _sha256, _frame(tails)
    head = _frame(heads) + struct.pack(">I", widths.pop() if widths else 0)
    return [sha256(head + m + tail).digest() for m in middles]


def key_words(keys, first: int, count: int) -> np.ndarray:
    """Words 4*first .. 4*(first + count) - 1 of RngState(key), one row per key.

    The batched form of RngState.uint64 for streams that all stand at the
    same block-aligned position.  Block c is SHA-256(key || c as 8 big-endian
    bytes), 4 words each, as in RngState.uint64.
    """
    sha256 = _sha256
    counters = [c.to_bytes(8, "big") for c in range(first, first + count)]
    buf = b"".join([sha256(k + c).digest() for k in keys for c in counters])
    return np.frombuffer(buf, dtype=">u8").reshape(len(keys), 4 * count)


def block_words(keys, blocks) -> np.ndarray:
    """Words 4*c .. 4*c + 3 of RngState(key) for each key and its block c."""
    sha256 = _sha256
    buf = b"".join([sha256(k + c.to_bytes(8, "big")).digest()
                    for k, c in zip(keys, blocks)])
    return np.frombuffer(buf, dtype=">u8").reshape(-1, 4)


def unit_interval(words: np.ndarray) -> np.ndarray:
    """Words as uniforms in [0, 1)."""
    return words.astype(np.float64) * _TWO_NEG64


def unit_interval_oc(words: np.ndarray) -> np.ndarray:
    """Words as uniforms in (0, 1]; safe as -log input."""
    return (words.astype(np.float64) + 1.0) * _TWO_NEG64


def _frozen_array(values, ndim: int, what: str) -> np.ndarray:
    """A read-only float64 copy of values, which must have ndim nonempty
    dimensions and finite entries >= 0; a ValueError naming what otherwise."""
    a = np.array(values, dtype=np.float64)
    if a.ndim != ndim or 0 in a.shape:
        raise ValueError(f"{what} needs a {ndim}-D array with no empty dimension")
    if not np.all(np.isfinite(a)) or np.any(a < 0):
        raise ValueError(f"{what} entries must be finite and >= 0")
    a.flags.writeable = False
    return a


def _encode_label(label) -> bytes:
    if isinstance(label, bytes):
        return label
    if isinstance(label, str):
        return label.encode("utf-8")
    if isinstance(label, int):
        return struct.pack(">q", label)
    raise TypeError(f"label must be str/int/bytes, got {type(label).__name__}")


@dataclass(frozen=True)
class Seed:
    """A 256-bit opaque token; the single root of all randomness in a run."""

    value: bytes

    def __post_init__(self):
        if not isinstance(self.value, bytes) or len(self.value) != 32:
            raise ValueError("Seed.value must be exactly 32 bytes")

    @classmethod
    def from_hex(cls, s: str) -> "Seed":
        s = s.strip()
        if len(s) != 64:
            raise ValueError(f"seed must be 64 hex chars, got {len(s)}")
        return cls(bytes.fromhex(s))

    @classmethod
    def from_int(cls, n: int) -> "Seed":
        """Convenience for tests: embed a small integer into a full-width seed."""
        return cls(n.to_bytes(32, "big"))

    def stream(self, *labels) -> "RngState":
        """Labeled substream: distinct label tuples give independent streams."""
        key = _kdf(self.value, *[_encode_label(l) for l in labels])
        return RngState(key)


class RngState:
    """Deterministic uniform stream: SHA-256(key, counter) expanded to 64-bit words.

    The emitted word sequence depends only on the key, not on how draws are
    batched, so replaying any prefix is exact.
    """

    __slots__ = ("_key", "_counter", "_buf", "_pos")

    def __init__(self, key: bytes):
        if len(key) != 32:
            raise ValueError("RngState key must be 32 bytes")
        self._key = key
        self._counter = 0
        self._buf = b""
        self._pos = 0

    def uint64(self, n: int) -> np.ndarray:
        """Next n words as uint64."""
        need = 8 * n
        avail = len(self._buf) - self._pos
        if avail < need:
            blocks = [self._buf[self._pos:]] if avail else []
            key, sha256, c = self._key, _sha256, self._counter
            missing = need - avail
            for _ in range((missing + 31) // 32):
                blocks.append(sha256(key + c.to_bytes(8, "big")).digest())
                c += 1
            self._counter = c
            self._buf = b"".join(blocks)
            self._pos = 0
        out = np.frombuffer(self._buf, dtype=">u8", count=n, offset=self._pos)
        self._pos += need
        return out.astype(np.uint64)

    def uniforms(self, n: int) -> np.ndarray:
        """n uniforms in [0, 1)."""
        return unit_interval(self.uint64(n))

    def uniforms_oc(self, n: int) -> np.ndarray:
        """n uniforms in (0, 1]; safe as -log input."""
        return unit_interval_oc(self.uint64(n))


@dataclass(frozen=True, eq=False)
class FinitePmf:
    """Probability vector over a finite alphabet indexed by SymbolId.

    Instances are immutable and compare by identity (so they can key caches);
    compare contents with ``np.array_equal(p.probs, q.probs)``.
    """

    probs: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.probs, 1, "FinitePmf")
        s = float(a.sum())
        if abs(s - 1.0) > _PMF_SUM_TOL:
            raise ValueError(f"FinitePmf entries must sum to 1 (got {s!r})")
        object.__setattr__(self, "probs", a)
        cum = np.cumsum(a)
        cum[np.flatnonzero(a)[-1]:] = np.inf
        cum.flags.writeable = False
        object.__setattr__(self, "_cum", cum)

    def __len__(self) -> int:
        return self.probs.size

    def __getitem__(self, i: SymbolId) -> float:
        return float(self.probs[i])

    @property
    def support(self) -> np.ndarray:
        return np.flatnonzero(self.probs > 0)

    def cumulative(self) -> np.ndarray:
        """Cumulative sums for inverse-CDF use, +inf from the last symbol with mass on.

        searchsorted(cum, u, side="right") of any u in [0, 1] is a symbol of
        the support, even for u = 1.0 (the top 2^10 words) or u past a sum
        that rounds below 1.
        """
        return self._cum

    @classmethod
    def uniform(cls, m: int) -> "FinitePmf":
        return cls(np.full(m, 1.0 / m))

    @classmethod
    def point_mass(cls, i: SymbolId, m: int) -> "FinitePmf":
        p = np.zeros(m)
        p[i] = 1.0
        return cls(p)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Conditional distribution: row x is a FinitePmf over the output alphabet,
    built once (pmfs), so a row is one object and keys one cache entry."""

    rows: np.ndarray

    def __post_init__(self):
        a = _frozen_array(self.rows, 2, "Kernel")
        sums = a.sum(axis=1)
        bad = np.flatnonzero(np.abs(sums - 1.0) > _PMF_SUM_TOL)
        if bad.size:
            raise ValueError(f"Kernel row {bad[0]} sums to {sums[bad[0]]!r}, not 1")
        object.__setattr__(self, "rows", a)

    @property
    def shape(self) -> tuple:
        return self.rows.shape

    @cached_property
    def pmfs(self) -> tuple:
        return tuple(FinitePmf(r) for r in self.rows)

    def row(self, x: SymbolId) -> FinitePmf:
        return self.pmfs[x]

    def output_marginal(self, px: FinitePmf) -> FinitePmf:
        """Law of the output when the input follows px."""
        if len(px) != self.rows.shape[0]:
            raise ValueError("input pmf length does not match kernel rows")
        return FinitePmf(px.probs @ self.rows)


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """d[x][y] >= 0, finite."""

    d: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", _frozen_array(self.d, 2, "DistortionMatrix"))

    @property
    def shape(self) -> tuple:
        return self.d.shape


def entropy(p: FinitePmf) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    a = p.probs[p.probs > 0]
    return float(-(a * np.log2(a)).sum())


def weighted_kl(weights, pmfs, laws) -> float:
    """The sum of w KL(p || q) in bits over the (w, p, q) of zip(weights, pmfs,
    laws) with w > 0, added in that order; each such p must be absolutely
    continuous w.r.t. its q."""
    if len(weights) != len(pmfs):
        raise ValueError("weighted_kl needs one weight per pmf")
    total = 0.0
    for w, p, q in zip(weights, pmfs, laws):
        if w > 0:
            if len(p) != len(q):
                raise ValueError("kl_divergence needs a common alphabet")
            mask = p.probs > 0
            if np.any(q.probs[mask] == 0):
                raise AbsoluteContinuityViolated("p has mass where q is zero")
            pa, qa = p.probs[mask], q.probs[mask]
            total += w * float((pa * np.log2(pa / qa)).sum())
    return float(total)


def kl_divergence(p: FinitePmf, q: FinitePmf) -> float:
    """KL divergence in bits; requires p absolutely continuous w.r.t. q."""
    return weighted_kl((1.0,), (p,), (q,))


def information_density_table(rows: np.ndarray, q: np.ndarray) -> np.ndarray:
    """log2(rows[i, y] / q[y]) for every row i and column y: -inf where rows is 0,
    0 where q is 0 but rows is not, and +inf where the ratio overflows."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.where(rows > 0.0, np.log2(np.divide(
            rows, q[None, :], out=np.ones_like(rows), where=q > 0)), -np.inf)


def mutual_information(px: FinitePmf, k: Kernel) -> float:
    """I(X;Y) in bits: the px-average of KL(k[x] || output marginal)."""
    return weighted_kl(px.probs, k.pmfs, [k.output_marginal(px)] * len(px))


def sample_pmf(p: FinitePmf, rng_state: RngState) -> SymbolId:
    """One draw from p; deterministic given the stream position."""
    u = float(rng_state.uniforms(1)[0])
    return int(np.searchsorted(p.cumulative(), u, side="right"))
