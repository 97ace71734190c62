"""Deterministic counter-based randomness keyed by canonical forms.

Every uniform draw is a pure function of (master seed, stream tag, point
digest), where the digest depends only on the canonical word of the point.
That makes samples reproducible bit-for-bit and independent of enumeration
order, and serves as the finite-seed surrogate for equivariant i.i.d.
markings: translating the window translates the digests with it.

The mixer is a splitmix64-style finalizer applied twice, vectorised over
numpy uint64 arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_SH = (np.uint64(30), np.uint64(27), np.uint64(31))
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


def digest_bytes(data: bytes) -> int:
    """Stable 64-bit digest of arbitrary bytes (blake2b prefix)."""
    return int.from_bytes(hashlib.blake2b(data, digest_size=8).digest(), "little")


def digest_str(text: str) -> int:
    return digest_bytes(text.encode("utf-8"))


def combine_digests(a, b):
    """Digest of an ordered pair; accepts ints or uint64 arrays."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix((_mix(a + _GOLDEN) ^ b) + _GOLDEN)


def combine_unordered(a, b):
    """Digest of an unordered pair: symmetric in its arguments."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return combine_digests(np.minimum(a, b), np.maximum(a, b))


class SeededRandomness:
    """Pure uniform labels u(seed, stream, digest) in [0, 1)."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        self._seed64 = np.uint64(self.master_seed & 0xFFFFFFFFFFFFFFFF)
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
            z = _mix(d ^ _mix(self._seed64 + _GOLDEN))
            z = _mix(z ^ self._stream64(tag))
        return z

    def uniforms(self, digests, tag: str) -> np.ndarray:
        return (self.words(digests, tag) >> np.uint64(11)).astype(np.float64) * _U53

    def uniform(self, digest: int, tag: str) -> float:
        return float(self.uniforms(np.uint64(digest), tag))


def seed_digest(master_seed: int, seed_index: int) -> int:
    """Per-seed key for multi-seed sweeps, mixed from the master seed."""
    return digest_str(f"seed:{master_seed}:{seed_index}")
