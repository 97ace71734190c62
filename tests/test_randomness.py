import ast
from pathlib import Path

import numpy as np
import pytest

from horolab import randomness
from horolab.randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    STREAM_OVERLAP,
    SeededRandomness,
    bits_at_most,
    combine_digests,
    combine_unordered,
    digest_str,
    head_bits,
    head_limit,
    mixed_seeds,
    seed_digest,
    to_uniforms,
)


def test_bit_identical_reruns():
    d = np.array([digest_str(f"w{i}") for i in range(100)], dtype=np.uint64)
    a = SeededRandomness(7).uniforms(d, STREAM_CENTERS)
    b = SeededRandomness(7).uniforms(d, STREAM_CENTERS)
    assert (a == b).all()


def test_seed_and_stream_separation():
    d = np.array([digest_str(f"w{i}") for i in range(200)], dtype=np.uint64)
    r = SeededRandomness(7)
    a = r.uniforms(d, STREAM_CENTERS)
    b = r.uniforms(d, STREAM_MARKS)
    c = SeededRandomness(8).uniforms(d, STREAM_CENTERS)
    assert not (a == b).any()
    assert not (a == c).any()
    assert abs(np.corrcoef(a, b)[0, 1]) < 0.25


def test_value_depends_only_on_canonical_key():
    r = SeededRandomness(3)
    u1 = r.uniform(digest_str("abA"), STREAM_CENTERS)
    u2 = r.uniform(digest_str("abA"), STREAM_CENTERS)
    u3 = r.uniform(digest_str("abB"), STREAM_CENTERS)
    assert u1 == u2 != u3


def test_scalar_matches_vector_path():
    d = np.array([digest_str("p"), digest_str("q")], dtype=np.uint64)
    r = SeededRandomness(11)
    vec = r.uniforms(d, STREAM_MARKS)
    assert vec[0] == r.uniform(int(d[0]), STREAM_MARKS)
    assert vec[1] == r.uniform(int(d[1]), STREAM_MARKS)


def _mix(z):
    """The splitmix64-style finalizer as allocating expressions: the
    definition that `randomness._mix_into` runs in place."""
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        return z ^ (z >> np.uint64(31))


def _combine(a, b):
    """`combine_digests` by its allocating definition."""
    golden = np.uint64(0x9E3779B97F4A7C15)
    a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix((_mix(a + golden) ^ b) + golden)


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, -3])
def test_words_run_in_place_are_the_mix_composition(seed):
    # `words` runs the two seeded rounds in place on a fresh array, or on the
    # caller's `out`, which may be the digests themselves; the words are the
    # two `_mix` rounds composed on fresh arrays, bit for bit, and the
    # caller's digests are left as they were unless they are `out`.
    digests = np.random.default_rng(seed & 0xFFFF).integers(0, 2**64, 3000, dtype=np.uint64)
    kept = digests.copy()
    r = SeededRandomness(seed)
    assert r._seed_mixed == _mix(np.uint64((seed + 0x9E3779B97F4A7C15) % 2**64))
    want = _mix(_mix(digests ^ r._seed_mixed) ^ randomness._stream64(STREAM_MARKS))
    assert r.words(digests, STREAM_MARKS).tobytes() == want.tobytes()
    assert (digests == kept).all()
    out, tmp = np.empty((2, 3000), dtype=np.uint64)
    assert r.words(digests, STREAM_MARKS, out=out, tmp=tmp) is out
    assert out.tobytes() == want.tobytes() and (digests == kept).all()
    own = digests.copy()
    assert r.words(own, STREAM_MARKS, out=own) is own and own.tobytes() == want.tobytes()
    assert r.uniforms(digests, STREAM_MARKS).tobytes() == to_uniforms(want >> np.uint64(11)).tobytes()
    assert r.uniform(int(digests[0]), STREAM_MARKS) == float(to_uniforms(want[:1] >> np.uint64(11))[0])


def test_each_stream_key_is_hashed_once_per_tag(monkeypatch):
    # A batch makes one SeededRandomness per seed; a stream's key depends on
    # its tag alone, so the process hashes each tag once, whatever the seed.
    calls = []
    digest = randomness.digest_str
    monkeypatch.setattr(randomness, "digest_str", lambda s: calls.append(s) or digest(s))
    randomness._stream64.cache_clear()
    d = np.arange(5, dtype=np.uint64)
    for seed in range(4):
        SeededRandomness(seed).uniforms(d, STREAM_MARKS)
        SeededRandomness(seed).below(d, STREAM_CENTERS, 2**52)
    assert sorted(calls) == ["stream:" + STREAM_CENTERS, "stream:" + STREAM_MARKS]


def test_words_under_per_element_seeds_are_each_seeds_words():
    # One call under an array of mixed seeds, one per digest, hashes each
    # digest as its own seed's call would; a (rows, 1) seed column is
    # broadcast over the columns of a (rows, classes) block, in place too.
    rngs = [SeededRandomness(seed) for seed in (0, 7, 2**64 - 1, -3)]
    digests = np.random.default_rng(5).integers(0, 2**64, (4, 300), dtype=np.uint64)
    seeds = mixed_seeds(rngs)
    assert seeds.dtype == np.uint64 and seeds.tolist() == [int(r._seed_mixed) for r in rngs]
    want = np.stack([r.words(row, STREAM_MARKS) for r, row in zip(rngs, digests)])
    got = rngs[1].words(digests, STREAM_MARKS, seeds=seeds[:, None])
    assert got.tobytes() == want.tobytes()
    own = digests.copy()
    rngs[0].words(own, STREAM_MARKS, out=own, tmp=np.empty_like(own), seeds=seeds[:, None])
    assert own.tobytes() == want.tobytes()
    flat, seed = digests.ravel(), np.repeat(np.arange(4), 300)
    order = np.random.default_rng(6).permutation(len(flat))
    got = rngs[2].uniforms(flat[order], STREAM_OVERLAP, seeds=seeds[seed[order]])
    want = np.concatenate([r.uniforms(row, STREAM_OVERLAP) for r, row in zip(rngs, digests)])
    assert got.tobytes() == want[order].tobytes()
    assert rngs[3].uniforms(flat[:0], STREAM_OVERLAP, seeds=seeds[:0]).shape == (0,)


def test_uniform_range_and_rough_moments():
    d = np.array([digest_str(f"x{i}") for i in range(20000)], dtype=np.uint64)
    u = SeededRandomness(42).uniforms(d, STREAM_CENTERS)
    assert ((0 <= u) & (u < 1)).all()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1 / 12) < 0.005


@pytest.mark.parametrize(
    "a, b",
    [
        (5, 7),
        (0, 2**64 - 1),
        (2**64 - 1, 2**64 - 1),  # a + golden wraps past 2^64
        (np.arange(2**64 - 40, 2**64 - 1, dtype=np.uint64), 3),
        (np.arange(100, dtype=np.uint64), np.arange(100, dtype=np.uint64)[::-1]),
        (np.arange(2**64 - 9, 2**64 - 1, dtype=np.uint64)[:, None], np.arange(5, dtype=np.uint64)),
    ],
    ids=["scalars", "zero-and-max", "wrapping-scalars", "wrapping-1d", "1d", "block-by-classes"],
)
def test_combine_digests_in_place_is_the_allocating_definition(a, b):
    # One array of the broadcast shape, mixed in place: the same bits as the
    # two allocating mixes, the (B, 1) x (D,) block of `open_pairs` included,
    # and a numpy scalar for scalar inputs.
    got, want = combine_digests(a, b), _combine(a, b)
    assert np.shape(got) == np.shape(want) and np.asarray(got).tobytes() == want.tobytes()
    assert isinstance(got, np.uint64) == (np.ndim(want) == 0)


def test_combine_unordered_symmetric():
    a, b = digest_str("left"), digest_str("right")
    assert combine_unordered(a, b) == combine_unordered(b, a)
    assert combine_digests(a, b) != combine_digests(b, a)


@pytest.mark.parametrize(
    "k", [1, 2, 3, 2**22, 2**22 + 1, 2**40 + 12345, 2**53 - 2**22, 2**53 - 2**22 + 1, 2**53]
)
def test_head_limit_keeps_every_head_whose_bits_pass(k):
    # Heads whose bits are k - 1, k and k + 1 (with the dropped low bits all
    # 0 or all 1), extreme heads and random ones: every head with
    # head_bits(d) < k lies below head_limit(k).
    bits, heads = [], [0, 1, 2**33 - 1, 2**33, 2**63, 2**64 - 1]
    for b in (k - 1, k, k + 1):
        for low in (0, 2**11 - 1):
            e = (b << 11) | low
            if e < 2**64:
                bits.append(b)
                heads.append(e ^ (e >> 31) ^ (e >> 62))  # d with d ^ (d >> 31) == e
    rng = np.random.default_rng(k % 2**32)
    d = np.concatenate(
        [np.array(heads, dtype=np.uint64), rng.integers(0, 2**64, 20000, dtype=np.uint64)]
    )
    assert head_bits(d[6 : 6 + len(bits)]).tolist() == bits
    passes = head_bits(d) < np.uint64(k)
    assert passes.any()
    limit = head_limit(k)
    assert int(limit) == min((((k - 1) >> 22) + 1) << 33, 2**64) - 1
    assert (d[passes] <= limit).all()


@pytest.mark.parametrize("k", [1, 2**22 + 1, 2**40 + 12345, 2**52, 2**53])
def test_below_is_the_bits_test_of_the_uniforms(k):
    # `below` keeps exactly the positions whose uniform has bits < k, with
    # its words in fresh arrays or the caller's, and leaves its digests as
    # they were.
    d = np.random.default_rng(k % 2**32).integers(0, 2**64, 5000, dtype=np.uint64)
    kept = d.copy()
    rng = SeededRandomness(k)
    want = np.flatnonzero(rng.words(d, STREAM_CENTERS) >> np.uint64(11) < np.uint64(k))
    assert rng.below(d, STREAM_CENTERS, k).tolist() == want.tolist()
    assert rng.below(d, STREAM_CENTERS, k, *np.empty((2, len(d)), dtype=np.uint64)).tolist() == want.tolist()
    assert (d == kept).all()
    # u <= t keeps the digest whose uniform is t, u < t does not.
    t = float(rng.uniforms(d[17], STREAM_CENTERS))
    assert 17 in rng.below(d, STREAM_CENTERS, bits_at_most(t))
    assert 17 not in rng.below(d, STREAM_CENTERS, bits_at_most(t) - 1)


def test_only_randomness_reaches_into_the_hash_rounds():
    # The heads and mixing rounds are the randomness module's own: every
    # other module draws through `words`, `uniforms` or `below`.
    internals = {"head_limit", "head_bits", "_mix_into"}
    offenders = []
    for path in sorted(Path(randomness.__file__).parent.glob("*.py")):
        if path.name == "randomness.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
            else:
                names = [getattr(node, "id", None) or getattr(node, "attr", None)]
            for name in internals.intersection(names):
                offenders.append(f"{path.name}:{node.lineno} names {name}")
    assert offenders == []


def test_bits_at_most_is_the_exact_integer_form_of_u_at_most_t():
    u = SeededRandomness(5).uniforms(
        np.array([digest_str(f"t{i}") for i in range(2000)], dtype=np.uint64), STREAM_MARKS
    )
    bits = (u * 2.0**53).astype(np.uint64)
    low = float(u.min())
    # low and float(u[7]) are uniforms, so t * 2**53 is an integer there and
    # u == t must be kept.
    for t in [0.0, -1.0, 1e-300, 2.0**-53, 0.3, low, np.nextafter(low, 1), float(u[7]), 1.0, 3.0]:
        assert ((bits < np.uint64(bits_at_most(t))) == (u <= t)).all(), t
    assert bits_at_most(low) == int(low * 2.0**53) + 1
    assert bits_at_most(2.0**-53) == 2 and bits_at_most(0.0) == 1
    assert bits_at_most(1.0) == bits_at_most(1e300) == 2**53
    assert bits_at_most(-1e-300) == bits_at_most(float("nan")) == 0


def test_seed_digest_distinct():
    keys = {seed_digest(5, i) for i in range(100)}
    assert len(keys) == 100
