"""Deterministic counter-based randomness keyed by canonical forms.

Every uniform draw is a pure function of (master seed, stream tag, point
digest), where the digest depends only on the canonical word of the point.
That makes samples reproducible bit-for-bit and independent of enumeration
order, and serves as the finite-seed surrogate for equivariant i.i.d.
markings: translating the window translates the digests with it.

The mixer is a splitmix64-style finalizer applied twice, vectorised over
numpy uint64 arrays.  `SeededRandomness.pair_bits_into` is the fused form
of `uniforms(combine_digests(a, b), tag)` for tiles of pairs: it runs the
three mixing rounds that depend on both points in place in one buffer.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SH = (np.uint64(30), np.uint64(27), np.uint64(31))
_DROP11 = np.uint64(11)  # a uniform is made of a word's top 53 bits
_U53 = np.float64(1.0 / (1 << 53))

# Stream tags mirror the construction's four i.i.d. markings: centers and
# replicated diamond marks, then percolation and overlap-breaking labels.
STREAM_CENTERS = "u1:centers"
STREAM_MARKS = "u2:marks"
STREAM_PERCOLATION = "w1:percolation"
STREAM_OVERLAP = "w2:overlap"


def _mix(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> _SH[0])) * _M1
    z = (z ^ (z >> _SH[1])) * _M2
    return z ^ (z >> _SH[2])


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """`_mix` in place on a uint64 array; `tmp` is scratch of its shape."""
    for sh, m in zip(_SH, (_M1, _M2, None)):
        np.right_shift(z, sh, out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        if m is not None:
            np.multiply(z, m, out=z)


def digest_bytes(data: bytes) -> int:
    """Stable 64-bit digest of arbitrary bytes (blake2b prefix)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def digest_str(text: str) -> int:
    return digest_bytes(text.encode("utf-8"))


def premix(a) -> np.ndarray:
    """The first mixing round of `combine_digests(a, b)`, which depends on
    `a` alone: computed once per point, it serves every pair led by it."""
    a = np.asarray(a, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix(a + _GOLDEN)


def combine_digests(a, b):
    """Digest of an ordered pair; accepts ints or uint64 arrays."""
    b = np.asarray(b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix((premix(a) ^ b) + _GOLDEN)


def combine_unordered(a, b):
    """Digest of an unordered pair: symmetric in its arguments."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return combine_digests(np.minimum(a, b), np.maximum(a, b))


def bits_below(t: float) -> int:
    """The integer k with (b < k) == (b * 2**-53 < t) for every 53-bit b.

    A uniform is u = b * 2**-53 exactly, and t * 2**53 is exact for t < 1,
    so u < t holds exactly when b < ceil(t * 2**53).  The bound is clamped
    at 2**53, so any t >= 1 admits every b and t <= 0 admits none.
    """
    if t >= 1.0:
        return 1 << 53
    return math.ceil(t * 2.0**53) if t > 0 else 0


class SeededRandomness:
    """Pure uniform labels u(seed, stream, digest) in [0, 1)."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        with np.errstate(over="ignore"):
            self._seed_mixed = _mix(np.uint64(self.master_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        self._streams = {}

    def _stream64(self, tag: str) -> np.uint64:
        key = self._streams.get(tag)
        if key is None:
            key = np.uint64(digest_str("stream:" + tag))
            self._streams[tag] = key
        return key

    def words(self, digests, tag: str) -> np.ndarray:
        d = np.asarray(digests, dtype=np.uint64)
        with np.errstate(over="ignore"):
            z = _mix(d ^ self._seed_mixed)
            z = _mix(z ^ self._stream64(tag))
        return z

    def uniforms(self, digests, tag: str) -> np.ndarray:
        return (self.words(digests, tag) >> _DROP11).astype(np.float64) * _U53

    def pair_bits_into(self, lo_mixed, hi, tag: str, out, tmp) -> np.ndarray:
        """The 53 bits b of u = b * 2**-53 = uniforms(combine_digests(lo,
        hi), tag), written into the uint64 array `out` and returned.

        `lo_mixed` is `premix(lo)`; it broadcasts against `hi` to the shape
        of `out`, and `tmp` is scratch of that shape.
        """
        np.bitwise_xor(lo_mixed, hi, out=out)
        np.add(out, _GOLDEN, out=out)
        _mix_into(out, tmp)
        np.bitwise_xor(out, self._seed_mixed, out=out)
        _mix_into(out, tmp)
        np.bitwise_xor(out, self._stream64(tag), out=out)
        _mix_into(out, tmp)
        return np.right_shift(out, _DROP11, out=out)

    def uniform(self, digest: int, tag: str) -> float:
        return float(self.uniforms(np.uint64(digest), tag))


def seed_digest(master_seed: int, seed_index: int) -> int:
    """Per-seed key for multi-seed sweeps, mixed from the master seed."""
    return digest_str(f"seed:{master_seed}:{seed_index}")
