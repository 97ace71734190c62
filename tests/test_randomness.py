import numpy as np

from horolab.randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    STREAM_PERCOLATION,
    SeededRandomness,
    bits_below,
    combine_digests,
    combine_unordered,
    digest_str,
    premix,
    seed_digest,
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


def test_uniform_range_and_rough_moments():
    d = np.array([digest_str(f"x{i}") for i in range(20000)], dtype=np.uint64)
    u = SeededRandomness(42).uniforms(d, STREAM_CENTERS)
    assert ((0 <= u) & (u < 1)).all()
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1 / 12) < 0.005


def test_combine_unordered_symmetric():
    a, b = digest_str("left"), digest_str("right")
    assert combine_unordered(a, b) == combine_unordered(b, a)
    assert combine_digests(a, b) != combine_digests(b, a)


def test_fused_pair_hash_matches_uniforms():
    d = np.sort(np.array([digest_str(f"p{i}") for i in range(40)], dtype=np.uint64))
    lo, hi = d[:15], d[15:]  # sorted, so lo[i] <= hi[j]: the unordered min
    for seed in (0, 9, 2**64 - 1):
        r = SeededRandomness(seed)
        out = np.empty((15, 25), dtype=np.uint64)
        bits = r.pair_bits_into(
            premix(lo)[:, None], hi[None, :], STREAM_PERCOLATION, out, np.empty_like(out)
        )
        want = r.uniforms(combine_unordered(lo[:, None], hi[None, :]), STREAM_PERCOLATION)
        assert bits is out
        assert (bits.astype(np.float64) * 2.0**-53).tobytes() == want.tobytes()


def test_bits_below_is_the_exact_integer_form_of_u_below_t():
    u = SeededRandomness(5).uniforms(
        np.array([digest_str(f"t{i}") for i in range(2000)], dtype=np.uint64), STREAM_MARKS
    )
    bits = (u * 2.0**53).astype(np.uint64)
    low = float(u.min())  # small, so t * 2**53 just above it is not an integer
    for t in [0.0, -1.0, 1e-300, 2.0**-53, 0.3, low, np.nextafter(low, 1), 1.0, 3.0]:
        assert ((bits < np.uint64(bits_below(t))) == (u < t)).all(), t
    assert bits_below(1.0) == bits_below(1e300) == 2**53
    assert bits_below(0.0) == bits_below(float("nan")) == 0


def test_seed_digest_distinct():
    keys = {seed_digest(5, i) for i in range(100)}
    assert len(keys) == 100
