import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import cli, groups
from horolab.errors import InputError, ResourceCapError
from horolab.groups import (
    GroupSpec,
    ball,
    enumerate_ball,
    generator_bound,
    growth_series,
    make_oracle,
)

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)
Z2 = GroupSpec("integer_lattice", dim=2)
C2C3 = GroupSpec(
    "free_product", factors=(GroupSpec("cyclic", order=2), GroupSpec("cyclic", order=3))
)
F2xZ = GroupSpec("direct_product", factors=(F2, Z1))

ALL_SPECS = [F2, Z1, Z2, C2C3, F2xZ, GroupSpec("cyclic", order=6)]


@pytest.mark.parametrize(
    "spec, amenable",
    [
        (F2, False),
        (GroupSpec("free", rank=1), True),
        (Z1, True),
        (Z2, True),
        (GroupSpec("cyclic", order=6), True),
        (C2C3, False),
        (GroupSpec("free_product", factors=(GroupSpec("cyclic", order=2),) * 2), True),
        (GroupSpec("free_product", factors=(GroupSpec("cyclic", order=2),) * 3), False),
        (F2xZ, False),
        (GroupSpec("direct_product", factors=(Z1, GroupSpec("cyclic", order=3))), True),
    ],
)
def test_amenable_reads_the_spec(spec, amenable):
    assert spec.amenable() is amenable


def test_canon_free_reduction():
    o = make_oracle(F2)
    assert o.canon(["a", "A"]) == o.identity
    assert o.canon(["a", "b", "B", "a"]) == o.canon(["a", "a"])


def test_canon_lattice_commutes():
    o = make_oracle(Z2)
    assert o.canon(["x", "y", "X"]) == o.canon(["y"])


def test_canon_unknown_symbol():
    o = make_oracle(F2)
    with pytest.raises(InputError):
        o.canon(["a", "q"])


def words(spec, max_len=8):
    labels = [lab for lab, _ in make_oracle(spec).gen_pairs()]
    return st.lists(st.sampled_from(labels), max_size=max_len)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.data())
def test_canon_inverse_gives_identity(spec, data):
    o = make_oracle(spec)
    w = data.draw(words(spec))
    el = o.canon(w)
    assert o.multiply(el, o.inverse(el)) == o.identity


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.data())
def test_multiplication_associative(spec, data):
    o = make_oracle(spec)
    a = o.canon(data.draw(words(spec)))
    b = o.canon(data.draw(words(spec)))
    c = o.canon(data.draw(words(spec)))
    assert o.multiply(o.multiply(a, b), c) == o.multiply(a, o.multiply(b, c))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(ALL_SPECS), st.data())
def test_length_is_word_metric(spec, data):
    # length(el) equals the BFS distance from the identity
    o = make_oracle(spec)
    el = o.canon(data.draw(words(spec, max_len=5)))
    n = o.length(el)
    dist = dict(ball(o, n))
    assert dist[el] == n


def test_ball_free_group_counts():
    o = make_oracle(F2)
    assert len(ball(o, 0)) == 1
    assert len(ball(o, 1)) == 5
    assert len(ball(o, 3)) == 53


def test_ball_deterministic_order():
    o = make_oracle(F2)
    b1 = ball(o, 3)
    b2 = ball(o, 3)
    assert b1 == b2
    dists = [d for _, d in b1]
    assert dists == sorted(dists)


def test_ball_cap():
    o = make_oracle(F2)
    with pytest.raises(ResourceCapError):
        ball(o, 6, cap=100)


@pytest.fixture
def fresh_memo(monkeypatch):
    """An empty ball memo for one test; the process's memo is restored."""
    memo = {}
    monkeypatch.setattr(groups, "_BALLS", memo)
    return memo


MEMO_SPECS = [F2, GroupSpec("free", rank=3), GroupSpec("cyclic", order=5), Z2, C2C3, F2xZ]


@pytest.mark.parametrize("radii", [(1, 4, 2), (4, 1, 3)], ids=["small-first", "large-first"])
def test_memo_ball_equals_a_cold_bfs(fresh_memo, radii):
    # All specs share the memo, so a key that confused two groups shows too.
    for r in radii:
        for spec in MEMO_SPECS:
            o = make_oracle(spec)
            assert list(ball(o, r)) == enumerate_ball(o, r), (spec, r)


def test_memo_keeps_the_largest_ball(fresh_memo):
    o = make_oracle(F2)
    ball(o, 4)
    ball(o, 2)
    assert fresh_memo[F2].radius == 4
    ball(o, 5)
    assert fresh_memo[F2].radius == 5


def test_cap_raises_after_a_larger_ball_is_kept(fresh_memo):
    o = make_oracle(F2)
    assert len(ball(o, 5)) == 485
    with pytest.raises(ResourceCapError):
        ball(o, 3, cap=52)  # |B_3| = 53
    assert len(ball(o, 3, cap=53)) == 53


def test_a_capped_enumeration_keeps_nothing(fresh_memo):
    o = make_oracle(F2)
    with pytest.raises(ResourceCapError):
        ball(o, 6, cap=100)
    assert F2 not in fresh_memo
    ball(o, 2)
    with pytest.raises(ResourceCapError):
        ball(o, 6, cap=100)
    assert fresh_memo[F2].radius == 2
    assert list(ball(o, 3)) == enumerate_ball(o, 3)


def test_the_cap_is_checked_before_a_ball_is_built(fresh_memo):
    # |B_10| of F2 is 118,097: the exact sphere counts refuse it before any
    # array or element exists.
    o = make_oracle(F2)
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError, match="ball enumeration"):
            ball(o, 10, cap=100_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000
    assert F2 not in fresh_memo


def test_a_returned_ball_is_the_callers_own(fresh_memo):
    # A returned ball is shared with the memo, so no caller can change it:
    # its arrays are read-only and its elements a tuple.
    o = make_oracle(F2)
    for r in (3, 3, 2):  # a miss, a full-size hit and a prefix hit
        got = ball(o, r)
        for array in (got.dist, got.parent, got.gen, got.step):
            with pytest.raises(ValueError):
                array[0] = 7
        with pytest.raises(TypeError):
            got.elements[0] = ("junk",)
    assert list(ball(o, 3)) == enumerate_ball(o, 3)
    assert list(ball(o, 2)) == enumerate_ball(o, 2)


def test_growth_series_f2_closed_form():
    g = growth_series(F2, 6, method="bfs")
    assert g.volumes == [2 * 3**n - 1 for n in range(7)]
    assert g.spheres == [1, 4, 12, 36, 108, 324, 972]
    g.check_invariants()


def test_growth_series_lattice():
    g = growth_series(Z1, 3, method="bfs")
    assert g.volumes == [1, 3, 5, 7]


@pytest.mark.parametrize("spec", ALL_SPECS)
def test_series_counts_match_bfs(spec):
    bfs = growth_series(spec, 6, method="bfs")
    assert make_oracle(spec).sphere_sizes(6) == bfs.spheres


def test_eps_nonamen_positive_for_free():
    g = growth_series(F2, 8)
    assert g.eps_nonamen > 0
    assert float(g.eps_nonamen) == pytest.approx(8748 / 13121)


def test_eps_nonamen_decays_for_lattice():
    # positive at any finite horizon (2/(2n+1) at the last radius), but
    # decaying, unlike the free-group case which is bounded below
    g = growth_series(Z1, 8)
    assert g.eps_nonamen == Fraction(2, 17)
    g16 = growth_series(Z1, 16)
    assert g16.eps_nonamen < g.eps_nonamen


def test_generator_growth_bound():
    g = growth_series(F2, 8)
    M = generator_bound(make_oracle(F2))
    assert M == 5
    for n in range(8):
        assert g.volumes[n + 1] <= M * g.volumes[n]


def test_element_order_total_and_deterministic():
    o = make_oracle(F2)
    els = [el for el, _ in ball(o, 3)]
    keys = [o.sort_key(el) for el in els]
    assert len(set(keys)) == len(keys)
    assert sorted(els, key=o.sort_key) == sorted(reversed(els), key=o.sort_key)


def test_spec_json_roundtrip():
    spec = GroupSpec.from_dict(json.loads(json.dumps(C2C3.to_dict())))
    assert spec == C2C3
    with pytest.raises(InputError):
        GroupSpec.from_dict({"rank": 2})
    with pytest.raises(InputError):
        GroupSpec.from_dict({"kind": "nonsense"})


def test_ball_csv_dump(tmp_path):
    overrides = {"group": F2.to_dict(), "growth": {"horizon": 2, "ball_dump_radius": 1}}
    assert cli.main(["growth", "--out", str(tmp_path)], config_overrides=overrides) == 0
    lines = (tmp_path / "ball_G.csv").read_text().strip().splitlines()
    assert lines[0] == "canonical_word,distance"
    assert len(lines) == 6
    assert lines[1] == "e,0"


def test_exact_rates():
    assert make_oracle(F2).exact_growth_rate() == 3
    assert make_oracle(GroupSpec("free", rank=3)).exact_growth_rate() == 5
    assert make_oracle(Z2).exact_growth_rate() == 1
    assert make_oracle(C2C3).exact_growth_rate() is None


def test_growth_series_reads_zero_below_radius_0_and_refuses_past_its_horizon():
    g = growth_series(F2, 3)
    assert (g.volume(-1), g.sphere(-1)) == (0, 0)
    assert (g.volume(3), g.sphere(3)) == (g.volumes[3], g.spheres[3])
    for read in (g.volume, g.sphere):
        with pytest.raises(InputError, match=r"^growth horizon too short: need radius 4, have 3$"):
            read(4)


C3 = GroupSpec("cyclic", order=3)
SPHERE_SPECS = {
    "F2": F2,
    "F3": GroupSpec("free", rank=3),
    "F1": GroupSpec("free", rank=1),  # one choice of each next letter
    "Z": Z1,
    "Z2": Z2,
    "Z3": GroupSpec("integer_lattice", dim=3),
    "Z/2": GroupSpec("cyclic", order=2),  # one element at t = q/2
    "Z/6": GroupSpec("cyclic", order=6),
    "Z/7": GroupSpec("cyclic", order=7),
    "Z/2*Z/3": C2C3,
    "Z*Z/2*Z/3": GroupSpec("free_product", factors=(Z1, GroupSpec("cyclic", order=2), C3)),
    "F2xZ": F2xZ,
    "Z/3xZ/6xF2": GroupSpec("direct_product", factors=(C3, GroupSpec("cyclic", order=6), F2)),
    "(ZxZ/2)*Z/3": GroupSpec(
        "free_product",
        factors=(GroupSpec("direct_product", factors=(Z1, GroupSpec("cyclic", order=2))), C3),
    ),
    "(Z/2*Z/3)xZ": GroupSpec("direct_product", factors=(C2C3, Z1)),
}


@pytest.mark.parametrize("spec", SPHERE_SPECS.values(), ids=list(SPHERE_SPECS))
def test_sphere_element_ranks_the_bfs_sphere(spec):
    # For t <= 6, rank r of S_t is the r-th element of the BFS sphere: a
    # bijection of range(|S_t|) onto it, in `ball`'s order.
    oracle = make_oracle(spec)
    sizes = oracle.sphere_sizes(6)
    pairs = ball(oracle, 6, 10**6)
    for t in range(7):
        sphere = [el for el, d in pairs if d == t]
        assert [oracle.sphere_element(t, r) for r in range(sizes[t])] == sphere


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_sphere_columns_spell_each_sphere_element(rank):
    # Every rank of S_0 .. S_5 unranked in one call, words of unequal
    # lengths side by side: column i spells sphere_element(t_i, rank_i) as
    # `gen_pairs` columns, then reads -1 past the word's end.
    oracle = make_oracle(GroupSpec("free", rank=rank))
    gens = [g for _, g in oracle.gen_pairs()]
    t, r = zip(*((t, r) for t, size in enumerate(oracle.sphere_sizes(5)) for r in range(size)))
    cols = oracle.sphere_columns(t, r)
    assert cols.shape == (5, len(t))
    for i, (ti, ri) in enumerate(zip(t, r)):
        word = oracle.sphere_element(ti, ri)
        assert cols[:, i].tolist() == [gens.index((x,)) for x in word] + [-1] * (5 - ti)
