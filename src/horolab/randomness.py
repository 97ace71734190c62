"""Deterministic counter-based randomness keyed by canonical forms.

Every uniform draw is a pure function of (master seed, stream tag, point
digest), where the digest depends only on the canonical word of the point.
That makes samples reproducible bit-for-bit and independent of enumeration
order, and serves as the finite-seed surrogate for equivariant i.i.d.
markings: translating the window translates the digests with it.

The mixer is a splitmix64-style finalizer applied twice, vectorised over
numpy uint64 arrays.

A pair's uniform `uniforms(combine_digests(lo, hi), tag)` is three mixing
rounds past `premix(lo)`, and it comes in three parts for tiles of pairs
drawn under many seeds:

- `combine_into` runs the round that no seed enters, once per tile.
- `fold_into` runs the first half-step z ^ (z >> 30) of the first seeded
  round with the seed left out, once per tile too: for logical shifts
  (w ^ s) ^ ((w ^ s) >> 30) = (w ^ (w >> 30)) ^ (s ^ (s >> 30)), so the
  seed enters as one folded constant.
- `SeededRandomness.heads_into` XORs in that constant and runs the rest of
  the two seeded rounds into a buffer, stopping before the last step
  e = d ^ (d >> 31); it returns the head d.  `head_bits(d)` finishes the
  53 bits b of u = b * 2**-53.
- The last step keeps the top 33 bits (e >> 33 == d >> 33), so b < k
  implies d < `head_limit(k)`: a sampler compares the heads against that
  bound and finishes only the few that pass.  `bits_below(t)` and
  `bits_at_most(t)` give the k of the tests u < t and u <= t.

The diamond process draws its centers the same way, from the covering
centers' digests folded once (`fold_into`).
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


# `_mix` as five in-place steps: the even ones z ^= z >> shift, the odd
# ones z *= multiplier.
_STEPS = (_SH[0], _M1, _SH[1], _M2, _SH[2])


def _mix_into(z: np.ndarray, tmp: np.ndarray, start: int = 0, stop: int = len(_STEPS)) -> None:
    """Steps start .. stop - 1 of `_mix` in place on a uint64 array; `tmp`
    is scratch of its shape."""
    for step in range(start, stop):
        if step % 2:
            np.multiply(z, _STEPS[step], out=z)
        else:
            np.right_shift(z, _STEPS[step], out=tmp)
            np.bitwise_xor(z, tmp, out=z)


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


def combine_into(lo_mixed, hi, out, tmp) -> np.ndarray:
    """`combine_digests(lo, hi)` written into the uint64 array `out` and
    returned: the round of a pair's hash that no seed enters.

    `lo_mixed` is `premix(lo)`; it broadcasts against `hi` to the shape of
    `out`, and `tmp` is scratch of that shape.
    """
    np.bitwise_xor(lo_mixed, hi, out=out)
    np.add(out, _GOLDEN, out=out)
    _mix_into(out, tmp)
    return out


def fold_into(words, tmp) -> np.ndarray:
    """w ^ (w >> 30) in place on the uint64 array `words`, returned: the
    seed-free half of the first seeded step, whose result
    `SeededRandomness.heads_into` takes.  `tmp` is scratch of its shape."""
    _mix_into(words, tmp, stop=1)
    return words


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


def bits_at_most(t: float) -> int:
    """The integer k with (b < k) == (b * 2**-53 <= t) for every 53-bit b.

    t * 2**53 is exact for 0 <= t < 1, so u <= t holds exactly when b <=
    floor(t * 2**53); where t * 2**53 is an integer, u = t is kept.  Any t
    >= 1 admits every b and t < 0 admits none.
    """
    if t >= 1.0:
        return 1 << 53
    return math.floor(t * 2.0**53) + 1 if t >= 0 else 0


def head_bits(heads) -> np.ndarray:
    """The 53 bits b of u = b * 2**-53 whose word has the head `heads`
    (see `SeededRandomness.heads_into`)."""
    return (heads ^ (heads >> _SH[2])) >> _DROP11


def head_limit(k: int):
    """A bound L with d < L for every head d whose bits b = head_bits(d)
    satisfy b < k, for 0 < k <= 2**53; None when L would be 2**64 and so
    every head may pass.

    The last step e = d ^ (d >> 31) leaves the top 33 bits alone, e >> 33 ==
    d >> 33, and b = e >> 11 < k gives e >> 33 <= (k - 1) >> 22.  The bound
    is conservative: a head below it may still have b >= k.
    """
    limit = (((k - 1) >> 22) + 1) << 33
    return None if limit >> 64 else np.uint64(limit)


def to_uniforms(bits) -> np.ndarray:
    """u = b * 2**-53 for 53-bit integers b, exactly."""
    return bits.astype(np.float64) * _U53


class SeededRandomness:
    """Pure uniform labels u(seed, stream, digest) in [0, 1)."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        with np.errstate(over="ignore"):
            self._seed_mixed = _mix(np.uint64(self.master_seed & 0xFFFFFFFFFFFFFFFF) + _GOLDEN)
        self._seed_folded = self._seed_mixed ^ (self._seed_mixed >> _SH[0])
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
        return to_uniforms(self.words(digests, tag) >> _DROP11)

    def heads_into(self, folded, tag: str, out, tmp) -> np.ndarray:
        """The head d of every word of `words(digests, tag)`, from the
        digests' folds `folded = fold_into(digests)`: the word before its
        last step d ^ (d >> 31), written into the uint64 array `out` (of
        the digests' shape) and returned; `tmp` is scratch of that shape.
        `head_bits(d)` are the uniforms' 53 bits."""
        np.bitwise_xor(folded, self._seed_folded, out=out)
        _mix_into(out, tmp, start=1)
        np.bitwise_xor(out, self._stream64(tag), out=out)
        _mix_into(out, tmp, stop=4)
        return out

    def uniform(self, digest: int, tag: str) -> float:
        return float(self.uniforms(np.uint64(digest), tag))


def seed_digest(master_seed: int, seed_index: int) -> int:
    """Per-seed key for multi-seed sweeps, mixed from the master seed."""
    return digest_str(f"seed:{master_seed}:{seed_index}")
