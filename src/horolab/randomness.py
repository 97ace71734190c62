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
  implies d <= `head_limit(k)`: a sampler compares the heads against that
  bound and finishes only the few that pass.  `bits_below(t)` and
  `bits_at_most(t)` give the k of the tests u < t and u <= t.

`threshold_pairs` is the one loop over those tiles: it draws the pairs
(i, j) of a rectangle lo x hi whose uniform under each seed has bits
b < k.  The corner events sample through it, and the diamond process
draws its centers the same way through `SeededRandomness.below`.  The
percolation draws far fewer words, by geometric gaps
(`graphing.PercolationKernel.open_pairs`), through `uniforms`; its
keys of gap 0, like a tile's pairs, are hashed once for every seed.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

from .errors import ResourceCapError

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


def digest_strs(prefix: str, texts) -> np.ndarray:
    """`digest_str(prefix + text)` of each of `texts`, as a read-only uint64
    array: one pass of blake2b digests appended to one buffer, which is all
    it holds besides the texts."""
    blake2b, buf = hashlib.blake2b, bytearray()
    for t in texts:
        buf += blake2b((prefix + t).encode("utf-8"), digest_size=8).digest()
    return np.frombuffer(bytes(buf), dtype="<u8")


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
        """The word of each digest: `_mix` of it under the seed, then under
        the stream's key, run in place on a copy with one scratch array."""
        z = np.array(digests, dtype=np.uint64)
        tmp = np.empty_like(z)
        np.bitwise_xor(z, self._seed_mixed, out=z)
        _mix_into(z, tmp)
        np.bitwise_xor(z, self._stream64(tag), out=z)
        _mix_into(z, tmp)
        return z

    def uniforms(self, digests, tag: str) -> np.ndarray:
        z = self.words(digests, tag)
        return to_uniforms(np.right_shift(z, _DROP11, out=z))

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

    def below(self, digests, tag: str, k: int) -> np.ndarray:
        """The positions of the `digests` whose `uniforms(digests, tag)` have
        bits b < k, 0 < k <= 2**53, in rising order: a folded copy of the
        digests (`fold_into`) is drawn into heads in place (`heads_into`),
        and only the heads at most `head_limit(k)` are finished."""
        heads = np.array(digests, dtype=np.uint64)
        tmp = np.empty_like(heads)
        self.heads_into(fold_into(heads, tmp), tag, heads, tmp)
        passed = np.flatnonzero(heads <= head_limit(k))
        return passed[head_bits(heads[passed]) < k]

    def uniform(self, digest: int, tag: str) -> float:
        return float(self.uniforms(np.uint64(digest), tag))


def seed_digest(master_seed: int, seed_index: int) -> int:
    """Per-seed key for multi-seed sweeps, mixed from the master seed."""
    return digest_str(f"seed:{master_seed}:{seed_index}")


_TILE = 1 << 15  # pairs per tile of `threshold_pairs`, cells per block of `open_pairs`


def _tiles(rows: int, cols: int):
    """Rectangles (i0, i1, j0, j1), rows i0 .. i1-1 by columns j0 .. j1-1,
    of at most `_TILE` pairs that together hold each pair of range(rows) x
    range(cols) once.  Each block of rows takes as many rows as fit `_TILE`
    pairs with its columns; a row longer than `_TILE` is cut into `_TILE`
    columns.
    """
    height, width = max(1, _TILE // max(1, cols)), min(cols, _TILE)
    for i0 in range(0, rows if cols else 0, height):
        for j0 in range(0, cols, width):
            yield i0, min(i0 + height, rows), j0, min(j0 + width, cols)


def threshold_pairs(lo, hi, rngs, tag: str, k: int, cap: int, what: str):
    """Batches (seed, i, j, bits), four arrays in no set order, of the pairs
    (i, j) of the rectangle lo x hi whose uniform under `rngs[seed]`,
    uniforms(combine_digests(lo[i], hi[j]), tag) = bits * 2**-53, has
    bits < k.

    Tiles (`_tiles`) are hashed in four buffers of `_TILE` entries (three
    uint64 and one bool, about 800 KB), which each draw allocates and
    frees when it is exhausted or closed: `premix` once per row,
    `combine_into` and `fold_into` once per tile, then `heads_into` per
    seed, keeping the heads at most `head_limit(k)`.
    The kept heads are held until `_TILE` of them are, or to the end; then
    the batch is finished (`_passes`) and yielded, and nothing of it is
    held while the next tile is hashed.  Each seed's passes may not exceed
    `cap` (ResourceCapError names `what`).  The check runs after every
    tile: the passes so far plus all held heads bound every seed's passes
    from above, so a batch is also finished when that bound exceeds `cap`.
    """
    if not k or not rngs:
        return
    words, heads, tmp = (np.empty(_TILE, dtype=np.uint64) for _ in range(3))
    below = np.empty(_TILE, dtype=bool)
    mixed = premix(lo)
    limit = head_limit(k)
    passed = np.zeros(len(rngs), dtype=np.int64)  # exact, to the last batch
    held = []
    count = 0  # heads held, of every seed
    for i0, i1, j0, j1 in _tiles(len(lo), len(hi)):
        shape = (i1 - i0, j1 - j0)
        size = shape[0] * shape[1]
        pair = combine_into(
            mixed[i0:i1, None], hi[None, j0:j1], words[:size].reshape(shape), tmp[:size].reshape(shape)
        ).reshape(-1)
        fold_into(pair, tmp[:size])
        for s, rng in enumerate(rngs):
            d = rng.heads_into(pair, tag, heads[:size], tmp[:size])
            pos = np.less_equal(d, limit, out=below[:size]).nonzero()[0]
            if len(pos):
                held.append((s, i0, j0, shape[1], pos, d[pos]))
                count += len(pos)
        if count >= _TILE or passed.max() + count > cap:
            yield _passes(held, passed, k, cap, what)
            count = 0
    if held:
        yield _passes(held, passed, k, cap, what)


def _passes(held, passed, k: int, cap: int, what: str) -> tuple:
    """(seed, i, j, bits) of the passes of the batch `held`, which lists
    (s, i0, j0, width, pos, d): heads d of seed s at the positions pos of a
    tile of `width` columns from row i0 and column j0.  The passes are
    added to the per-seed counts `passed`; `held` is emptied, and its
    arrays are freed as soon as they are read."""
    s, i0, j0, width = (np.asarray(col) for col in list(zip(*held))[:4])
    lens = [len(h[4]) for h in held]
    pos = np.concatenate([h[4] for h in held])
    d = np.concatenate([h[5] for h in held])
    held.clear()
    i, j = np.divmod(pos, np.repeat(width, lens))
    del pos
    i += np.repeat(i0, lens)
    j += np.repeat(j0, lens)
    hit = np.flatnonzero(head_bits(d) < k)
    bits = head_bits(d[hit])
    del d
    seed = np.repeat(s, lens)[hit]
    passed += np.bincount(seed, minlength=len(passed))
    if passed.max() > cap:
        raise ResourceCapError(what, cap)
    return seed, i[hit], j[hit], bits
