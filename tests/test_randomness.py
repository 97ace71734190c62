import ast
from pathlib import Path

import numpy as np
import pytest

from horolab import randomness
from horolab.errors import ResourceCapError
from horolab.randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    STREAM_PERCOLATION,
    SeededRandomness,
    bits_at_most,
    bits_below,
    combine_digests,
    combine_into,
    combine_unordered,
    digest_str,
    fold_into,
    head_bits,
    head_limit,
    premix,
    seed_digest,
    threshold_pairs,
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


@pytest.mark.parametrize("seed", [0, 7, 2**63 + 5, 2**64 - 1, -3])
def test_words_run_in_place_are_the_mix_composition(seed):
    # `words` runs the two seeded rounds in place on one copy; the words are
    # the two `_mix` rounds composed on fresh arrays, bit for bit, and the
    # caller's digests are left as they were.
    digests = np.random.default_rng(seed & 0xFFFF).integers(0, 2**64, 3000, dtype=np.uint64)
    kept = digests.copy()
    r = SeededRandomness(seed)
    with np.errstate(over="ignore"):
        want = randomness._mix(randomness._mix(digests ^ r._seed_mixed) ^ r._stream64(STREAM_MARKS))
    assert r.words(digests, STREAM_MARKS).tobytes() == want.tobytes()
    assert (digests == kept).all()
    assert r.uniforms(digests, STREAM_MARKS).tobytes() == to_uniforms(want >> np.uint64(11)).tobytes()
    assert r.uniform(int(digests[0]), STREAM_MARKS) == float(to_uniforms(want[:1] >> np.uint64(11))[0])


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
    # The split hash: the seedless round and the folded half-step once, the
    # rest of the seeded rounds to the heads, then the last step; 0 and
    # 2**64 - 1 are edge digests.
    d = np.array([digest_str(f"p{i}") for i in range(38)] + [0, 2**64 - 1], dtype=np.uint64)
    d = np.sort(d)
    lo, hi = d[:15], d[15:]  # sorted, so lo[i] <= hi[j]: the unordered min
    out = np.empty((15, 25), dtype=np.uint64)
    tmp = np.empty_like(out)
    pair = combine_into(premix(lo)[:, None], hi[None, :], out, tmp)
    assert pair is out
    assert (pair == combine_digests(lo[:, None], hi[None, :])).all()
    folded = fold_into(pair.copy(), tmp)
    assert (folded == pair ^ (pair >> np.uint64(30))).all()
    edge = np.array([0, 2**64 - 1], dtype=np.uint64)
    edge_tmp = np.empty_like(edge)
    for seed in (0, 9, 2**64 - 1):
        r = SeededRandomness(seed)
        # The fold commutes with the seed: w ^ s folds to fold(w) ^ fold(s).
        shifted = fold_into(edge ^ r._seed_mixed, edge_tmp)
        assert (shifted == fold_into(edge.copy(), edge_tmp) ^ r._seed_folded).all()
        heads = r.heads_into(folded, STREAM_PERCOLATION, np.empty_like(out), tmp)
        want = r.uniforms(combine_unordered(lo[:, None], hi[None, :]), STREAM_PERCOLATION)
        assert to_uniforms(head_bits(heads)).tobytes() == want.tobytes()
        # The edge words themselves as folded digests.
        folded_edge = fold_into(edge.copy(), edge_tmp)
        heads = r.heads_into(folded_edge, STREAM_PERCOLATION, np.empty_like(edge), edge_tmp)
        want = r.uniforms(edge, STREAM_PERCOLATION)
        assert to_uniforms(head_bits(heads)).tobytes() == want.tobytes()


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
    # `below` keeps exactly the positions whose uniform has bits < k, and
    # leaves its digests as they were.
    d = np.random.default_rng(k % 2**32).integers(0, 2**64, 5000, dtype=np.uint64)
    kept = d.copy()
    rng = SeededRandomness(k)
    want = np.flatnonzero(rng.words(d, STREAM_CENTERS) >> np.uint64(11) < np.uint64(k))
    assert rng.below(d, STREAM_CENTERS, k).tolist() == want.tolist()
    assert (d == kept).all()
    # u <= t keeps the digest whose uniform is t, u < t does not.
    t = float(rng.uniforms(d[17], STREAM_CENTERS))
    assert 17 in rng.below(d, STREAM_CENTERS, bits_at_most(t))
    assert 17 not in rng.below(d, STREAM_CENTERS, bits_below(t))


def test_only_randomness_reaches_into_the_hash_rounds():
    # The folds, heads and mixing rounds are the randomness module's own:
    # every other module draws through `uniforms`, `below` or
    # `threshold_pairs`.
    internals = {
        "heads_into", "fold_into", "head_limit", "head_bits", "combine_into", "premix", "_mix_into"
    }
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
    assert bits_at_most(low) == bits_below(low) + 1
    assert bits_at_most(2.0**-53) == 2 and bits_at_most(0.0) == 1
    assert bits_at_most(1.0) == bits_at_most(1e300) == 2**53
    assert bits_at_most(-1e-300) == bits_at_most(float("nan")) == 0


def test_seed_digest_distinct():
    keys = {seed_digest(5, i) for i in range(100)}
    assert len(keys) == 100


# Tiled threshold sampler ------------------------------------------------------

THRESHOLD_RNGS = [SeededRandomness(seed_digest(5, s)) for s in range(3)]


def _threshold_reference(lo, hi, rngs, tag, k) -> list:
    """Sorted rows (seed, i, j, bits) of every pair (i, j) of lo x hi whose
    uniform u = bits * 2**-53 has bits < k: every pair's uniform
    materialised at once."""
    i, j = np.indices((len(lo), len(hi))).reshape(2, -1)
    rows = []
    for s, rng in enumerate(rngs):
        u = rng.uniforms(combine_digests(lo[i], hi[j]), tag)
        bits = (u * 2.0**53).astype(np.uint64)  # exact: u = bits * 2**-53
        hit = bits < np.uint64(k)
        rows += zip([s] * int(hit.sum()), i[hit].tolist(), j[hit].tolist(), bits[hit].tolist())
    return sorted(rows)


def _drawn(lo, hi, rngs, tag, k, cap=10**9) -> list:
    rows = []
    for seed, i, j, bits in threshold_pairs(lo, hi, rngs, tag, k, cap, "test pairs"):
        assert len(seed) == len(i) == len(j) == len(bits) > 0
        rows += zip(seed.tolist(), i.tolist(), j.tolist(), bits.tolist())
    return sorted(rows)


def _digests(count, salt) -> np.ndarray:
    return np.array([digest_str(f"t{salt}:{i}") for i in range(count)], dtype=np.uint64)


THRESHOLDS = {
    "below-0.3": bits_below(0.3),
    "at-most-0.05": bits_at_most(0.05),
    "below-saturated": bits_below(1.0 - 2.0**-40),  # head_limit is 2**64 - 1
    "all": 1 << 53,
    "none": 0,
}


@pytest.mark.parametrize("k", list(THRESHOLDS.values()), ids=list(THRESHOLDS))
@pytest.mark.parametrize(
    "rows, cols, tile",
    [(0, 5, 16), (5, 0, 16), (0, 0, 16), (1, 40, 16), (7, 9, 16), (30, 30, 16), (30, 30, 1 << 15)],
)
def test_threshold_pairs_on_a_rectangle_match_the_materialised_uniforms(
    rows, cols, tile, k, count_tiles
):
    tiles = count_tiles(tile)
    lo, hi = _digests(rows, "lo"), _digests(cols, "hi")
    got = _drawn(lo, hi, THRESHOLD_RNGS, STREAM_CENTERS, k)
    assert got == _threshold_reference(lo, hi, THRESHOLD_RNGS, STREAM_CENTERS, k)
    if k == 1 << 53:
        assert len(got) == len(THRESHOLD_RNGS) * rows * cols
    if k and rows * cols > tile:
        assert len(tiles) > 1


def test_threshold_pairs_keeps_a_uniform_equal_to_its_bound():
    # u <= t as bits < bits_at_most(t): with t one pair's uniform, that pair
    # is drawn, and with bits_below(t) it is not.
    lo, hi = _digests(6, "eq-lo"), _digests(9, "eq-hi")
    rng = THRESHOLD_RNGS[0]
    t = float(rng.uniforms(combine_digests(lo[4], hi[7]), STREAM_MARKS))
    at_most = _drawn(lo, hi, [rng], STREAM_MARKS, bits_at_most(t))
    below = _drawn(lo, hi, [rng], STREAM_MARKS, bits_below(t))
    assert (0, 4, 7) in [row[:3] for row in at_most]
    assert (0, 4, 7) not in [row[:3] for row in below]
    assert len(at_most) == len(below) + 1


def test_threshold_pairs_counts_each_seed_against_the_cap():
    # Every pair passes, so each seed passes 8 * 9 = 72 pairs; the cap
    # bounds each seed, not the seeds together.
    lo, hi = _digests(8, "cap-lo"), _digests(9, "cap-hi")
    assert len(_drawn(lo, hi, THRESHOLD_RNGS, STREAM_CENTERS, 1 << 53, cap=72)) == 3 * 72
    with pytest.raises(ResourceCapError, match="test pairs exceeded the enumeration cap of 71"):
        _drawn(lo, hi, THRESHOLD_RNGS, STREAM_CENTERS, 1 << 53, cap=71)


@pytest.mark.parametrize("stop", ["exhausted", "closed-early"])
def test_no_tile_buffer_outlives_its_draw(stop):
    # Every pair passes, so the draw yields a batch after each tile.  Its four
    # tile buffers (3 * 8 + 1 bytes a pair, about 800 KB) live while it runs
    # and are freed with it, whether it runs out or is closed mid-draw.
    import tracemalloc

    lo = _digests(300, "buffers")  # 90,000 pairs: three tiles
    buffers = 25 * randomness._TILE
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        draw = threshold_pairs(lo, lo, THRESHOLD_RNGS, STREAM_PERCOLATION, 1 << 53, 10**9, "test pairs")
        batch = next(draw)
        assert tracemalloc.get_traced_memory()[0] - before > buffers
        if stop == "exhausted":
            assert len(list(draw)) > 0
        else:
            draw.close()
        del batch
        assert tracemalloc.get_traced_memory()[0] - before < buffers // 8
    finally:
        tracemalloc.stop()
    assert not hasattr(randomness, "_buffers")
