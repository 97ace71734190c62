"""Deterministic counter-based randomness keyed by canonical forms.

Every uniform draw is a pure function of (master seed, stream tag, point
digest), where the digest depends only on the canonical word of the point.
That makes samples reproducible bit-for-bit and independent of enumeration
order, and serves as the finite-seed surrogate for equivariant i.i.d.
markings: translating the window translates the digests with it.

The mixer is a splitmix64-style finalizer, z ^= z >> 30, z *= M1, z ^=
z >> 27, z *= M2, z ^= z >> 31, run in place on numpy uint64 arrays with
one scratch array (`_mix_into`); no step allocates.  `combine_digests`
mixes twice on one array of its inputs' broadcast shape, and
`SeededRandomness.words` is the one hash path of the draws: twice, under
the seed and the stream, into a fresh array or a buffer the caller holds
(`out`, with its scratch `tmp`), which may be the digests themselves.
Its seed is the instance's, or one per digest (`seeds`, an array of
`mixed_seeds` broadcast against the digests), so a batch of seeds draws
its labels in one call, each digest's word the one its own seed gives.

A Bernoulli choice at rate t keeps the digests whose uniform u = b *
2**-53 has bits b < k = `bits_at_most(t)`, the exact integer form of u <=
t.  `SeededRandomness.below` is the one draw of that test: it runs `words`
up to the head d, the word before its last step d ^ (d >> 31), and
finishes only the heads at most `head_limit(k)`.  It draws the diamond
centers, and the corner events over row blocks of digest pairs into one
buffer (`point_process.corner_event_probability`).  The percolation draws
far fewer words, by geometric gaps (`graphing.PercolationKernel.open_pairs`):
its first round hashes into buffers held for the call, and its later
rounds go through `uniforms`.
"""

from __future__ import annotations

import functools
import math

# hashlib's blake2b is this module's; taken from here, it leaves hashlib's
# OpenSSL backend (`_hashlib` and libcrypto) unloaded.
try:
    from _blake2 import blake2b
except ImportError:  # a Python built without its own blake2
    from hashlib import blake2b

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


# The mixer as five in-place steps: the even ones z ^= z >> shift, the odd
# ones z *= multiplier.
_STEPS = (_SH[0], _M1, _SH[1], _M2, _SH[2])


def _mix_into(z: np.ndarray, tmp: np.ndarray, stop: int = len(_STEPS)) -> None:
    """Steps 0 .. stop - 1 of the mixer in place on a uint64 array; `tmp`
    is scratch of its shape."""
    for step in range(stop):
        if step % 2:
            np.multiply(z, _STEPS[step], out=z)
        else:
            np.right_shift(z, _STEPS[step], out=tmp)
            np.bitwise_xor(z, tmp, out=z)


def digest_bytes(data: bytes) -> int:
    """Stable 64-bit digest of arbitrary bytes (blake2b prefix)."""
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "little")


def digest_str(text: str) -> int:
    return digest_bytes(text.encode("utf-8"))


def digest_strs(prefix: str, texts) -> np.ndarray:
    """`digest_str(prefix + text)` of each of `texts`, as a read-only uint64
    array: one pass of blake2b digests appended to one buffer, which is all
    it holds besides the texts."""
    buf = bytearray()
    for t in texts:
        buf += blake2b((prefix + t).encode("utf-8"), digest_size=8).digest()
    return np.frombuffer(bytes(buf), dtype="<u8")


def combine_digests(a, b):
    """Digest of an ordered pair, mix((mix(a + golden) ^ b) + golden);
    accepts ints or uint64 arrays, and is run in place on one array of
    their broadcast shape (a numpy scalar for scalars)."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    z = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.uint64)
    tmp = np.empty_like(z)
    np.add(a, _GOLDEN, out=z)
    _mix_into(z, tmp)
    np.bitwise_xor(z, b, out=z)
    np.add(z, _GOLDEN, out=z)
    _mix_into(z, tmp)
    return z[()]


def combine_unordered(a, b):
    """Digest of an unordered pair: symmetric in its arguments."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    return combine_digests(np.minimum(a, b), np.maximum(a, b))


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
    """The 53 bits b of u = b * 2**-53 whose word has the head `heads`, the
    word before its last step d ^ (d >> 31) (see `SeededRandomness.below`)."""
    return (heads ^ (heads >> _SH[2])) >> _DROP11


def head_limit(k: int) -> np.uint64:
    """The largest head that can pass: d <= head_limit(k) for every head d
    whose bits b = head_bits(d) satisfy b < k, for 0 < k <= 2**53.

    The last step e = d ^ (d >> 31) leaves the top 33 bits alone, e >> 33 ==
    d >> 33, and b = e >> 11 < k gives e >> 33 <= (k - 1) >> 22, so d <
    L = (((k - 1) >> 22) + 1) << 33; the limit is min(L, 2**64) - 1, the
    largest uint64 when L saturates.  The bound is conservative: a head
    within it may still have b >= k.
    """
    return np.uint64(min((((k - 1) >> 22) + 1) << 33, 1 << 64) - 1)


def to_uniforms(bits) -> np.ndarray:
    """u = b * 2**-53 for 53-bit integers b, exactly."""
    return bits.astype(np.float64) * _U53


@functools.lru_cache(maxsize=64)
def _stream64(tag: str) -> np.uint64:
    """The key of stream `tag`, which no seed changes: hashed once per tag."""
    return np.uint64(digest_str("stream:" + tag))


class SeededRandomness:
    """Pure uniform labels u(seed, stream, digest) in [0, 1)."""

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed)
        z = np.array(self.master_seed & 0xFFFFFFFFFFFFFFFF, dtype=np.uint64)
        np.add(z, _GOLDEN, out=z)
        _mix_into(z, np.empty_like(z))
        self._seed_mixed = z[()]

    def words(self, digests, tag: str, out=None, tmp=None, stop: int = len(_STEPS), seeds=None) -> np.ndarray:
        """The word of each digest: the mixer run on it under the seed, then
        under the stream's key, up to step `stop` of the second round.

        `seeds`, when given, is an array of mixed seeds (`mixed_seeds`)
        broadcast against the digests, and replaces this one's: each digest
        is hashed under its own seed, as that seed's `words` would.  The
        rounds run in place on `out`, a uint64 array of the digests' shape
        (the digests themselves may be it), with `tmp` as scratch of that
        shape; either is allocated when not given.  `out` is returned.
        """
        digests = np.asarray(digests, dtype=np.uint64)
        z = np.empty_like(digests) if out is None else out
        tmp = np.empty_like(z) if tmp is None else tmp
        np.bitwise_xor(digests, self._seed_mixed if seeds is None else seeds, out=z)
        _mix_into(z, tmp)
        np.bitwise_xor(z, _stream64(tag), out=z)
        _mix_into(z, tmp, stop)
        return z

    def uniforms(self, digests, tag: str, seeds=None) -> np.ndarray:
        z = self.words(digests, tag, seeds=seeds)
        return to_uniforms(np.right_shift(z, _DROP11, out=z))

    def below(self, digests, tag: str, k: int, out=None, tmp=None) -> np.ndarray:
        """The positions of the `digests` whose `uniforms(digests, tag)` have
        bits b < k, 0 < k <= 2**53, in rising order: `words` runs up to the
        heads, before its last step, and only the heads at most
        `head_limit(k)` are finished (`head_bits`).  `out` and `tmp` are as
        for `words`."""
        heads = self.words(digests, tag, out, tmp, stop=len(_STEPS) - 1)
        passed = np.flatnonzero(heads <= head_limit(k))
        return passed[head_bits(heads[passed]) < k]

    def uniform(self, digest: int, tag: str) -> float:
        return float(self.uniforms(np.uint64(digest), tag))


def mixed_seeds(rngs) -> np.ndarray:
    """The mixed seed of each SeededRandomness of `rngs`, the `seeds` that
    `SeededRandomness.words` takes."""
    return np.array([rng._seed_mixed for rng in rngs], dtype=np.uint64)


def seed_digest(master_seed: int, seed_index: int) -> int:
    """Per-seed key for multi-seed sweeps, mixed from the master seed."""
    return digest_str(f"seed:{master_seed}:{seed_index}")


_TILE = 1 << 15  # pairs per row block of the corner events, cells per block of `open_pairs`
