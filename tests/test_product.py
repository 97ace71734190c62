import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import groups, product
from horolab.errors import InputError, InvariantViolation, ResourceCapError
from horolab.groups import GroupSpec, ball, growth_series, make_oracle
from horolab.product import (
    FactorBall,
    ProductMetric,
    ProductSpace,
    as_slope,
    ball_slice_volume,
    perfect_diamond,
    ragged,
)

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)


@pytest.fixture(scope="module")
def m_f2():
    return ProductMetric(make_oracle(F2), make_oracle(F2), 1)


@pytest.fixture(scope="module")
def g_f2():
    return growth_series(F2, 8)


def test_rho_examples(m_f2):
    o = m_f2.first
    x = (o.canon(["a"]), o.identity)
    assert m_f2.rho(x, x) == 0
    y = (o.identity, o.canon(["b"]))
    assert m_f2.rho((o.identity, o.identity), (o.canon(["a"]), o.canon(["b"]))) == 2
    m2 = ProductMetric(make_oracle(F2), make_oracle(F2), 2)
    a3 = o.canon(["a", "a", "a"])
    b4 = o.canon(["b", "a", "b", "a"])
    assert m2.rho((o.identity, o.identity), (a3, b4)) == 5


def test_rho_left_invariance(m_f2):
    o1, o2 = m_f2.first, m_f2.second
    pts = [el for el, _ in ball(o1, 2)]
    g = (o1.canon(["a", "b"]), o2.canon(["B"]))
    for x1 in pts[:5]:
        for y1 in pts[5:10]:
            x = (x1, o2.identity)
            y = (y1, o2.canon(["a"]))
            gx = m_f2.multiply(g, x)
            gy = m_f2.multiply(g, y)
            assert m_f2.rho(gx, gy) == m_f2.rho(x, y)


def test_perfect_diamond_counts(m_f2):
    assert len(perfect_diamond(m_f2, m_f2.origin, 0)) == 1
    assert len(perfect_diamond(m_f2, m_f2.origin, 2)) == 49


def test_perfect_diamond_lattice_cross():
    mz = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    assert len(perfect_diamond(mz, mz.origin, 1)) == 5


def test_slice_identity(m_f2, g_f2):
    for n in range(5):
        sl = ball_slice_volume(m_f2, g_f2, g_f2, n)
        assert sl == len(perfect_diamond(m_f2, m_f2.origin, n))
    assert ball_slice_volume(m_f2, g_f2, g_f2, 0) == 1


def test_slice_identity_lattice():
    mz = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    gz = growth_series(Z1, 8)
    assert ball_slice_volume(mz, gz, gz, 2) == 13
    for n in range(5):
        assert ball_slice_volume(mz, gz, gz, n) == len(
            perfect_diamond(mz, mz.origin, n)
        )


def test_slice_identity_rational_slope():
    m = ProductMetric(make_oracle(F2), make_oracle(Z1), Fraction(2))
    g1 = growth_series(F2, 8)
    g2 = growth_series(Z1, 16)
    for n in range(4):
        assert ball_slice_volume(m, g1, g2, n) == len(
            perfect_diamond(m, m.origin, n)
        )


def test_slice_horizon_error(m_f2):
    short = growth_series(F2, 2)
    with pytest.raises(InputError):
        ball_slice_volume(m_f2, short, short, 4)


def test_monotone_nesting(m_f2):
    inner = {p for p, _ in perfect_diamond(m_f2, m_f2.origin, 2)}
    outer = {p for p, _ in perfect_diamond(m_f2, m_f2.origin, 3)}
    assert inner <= outer


def check_triangle_inequality(metric: ProductMetric, points, samples=200, seed=7):
    """Spot-check rho_c axioms on sampled triples; raises on violation."""
    rng = random.Random(seed)
    pts = list(points)
    for _ in range(samples):
        x, y, z = (rng.choice(pts) for _ in range(3))
        rxy, ryz, rxz = metric.rho(x, y), metric.rho(y, z), metric.rho(x, z)
        if metric.rho(x, x) != 0 or rxy != metric.rho(y, x):
            raise InvariantViolation("rho_c symmetry/identity failed")
        if rxz > rxy + ryz:
            raise InvariantViolation("rho_c triangle inequality failed")


def test_triangle_spot_check(m_f2):
    o1, o2 = m_f2.first, m_f2.second
    pts = [
        (a, b)
        for a, _ in ball(o1, 2)
        for b, _ in ball(o2, 1)
    ]
    check_triangle_inequality(m_f2, pts, samples=150)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_rho_symmetry_random_words(data):
    m = ProductMetric(make_oracle(F2), make_oracle(F2), Fraction(3, 2))
    o = m.first
    labels = [lab for lab, _ in o.gen_pairs()]
    w = st.lists(st.sampled_from(labels), max_size=6)
    x = (o.canon(data.draw(w)), o.canon(data.draw(w)))
    y = (o.canon(data.draw(w)), o.canon(data.draw(w)))
    assert m.rho(x, y) == m.rho(y, x)
    assert (m.rho(x, y) == 0) == (x == y)


def _cyclic(q):
    return GroupSpec("cyclic", order=q)


def _product(kind, *factors):
    return GroupSpec(kind, factors=factors)


# Every family, nested products included: free groups, lattices, cyclic
# groups, four free products and three direct products.
BALL_SPECS = {
    "F1": GroupSpec("free", rank=1),
    "F2": F2,
    "F3": GroupSpec("free", rank=3),
    "Z": Z1,
    "Z2": GroupSpec("integer_lattice", dim=2),
    "Z3": GroupSpec("integer_lattice", dim=3),
    **{f"Z/{q}": _cyclic(q) for q in (2, 3, 4, 6, 7, 8)},
    "Z/2*Z/3": _product("free_product", _cyclic(2), _cyclic(3)),
    "Z/2*Z/2": _product("free_product", _cyclic(2), _cyclic(2)),
    "Z*Z/2*Z/3": _product("free_product", Z1, _cyclic(2), _cyclic(3)),
    "(ZxZ/2)*Z/3": _product(
        "free_product", _product("direct_product", Z1, _cyclic(2)), _cyclic(3)
    ),
    "F2xZ": _product("direct_product", F2, Z1),
    "Z/3xZ/6xF2": _product("direct_product", _cyclic(3), _cyclic(6), F2),
    "(Z/2*Z/3)xZ": _product(
        "direct_product", _product("free_product", _cyclic(2), _cyclic(3)), Z1
    ),
}


def _quotient_loop(oracle, elements, rows, cols) -> np.ndarray:
    """The Python double loop `FactorBall.quotient_table` once was: the
    index of elements[i] * elements[c]^-1 among `elements`, -1 outside."""
    index = {el: i for i, el in enumerate(elements)}
    inv = [oracle.inverse(elements[c]) for c in cols]
    table = [[index.get(oracle.multiply(y, v), -1) for v in inv] for y in elements[:rows]]
    return np.array(table, dtype=np.int64).reshape(rows, len(cols))


@pytest.mark.parametrize("cold", [True, False], ids=["cold", "prefix"])
@pytest.mark.parametrize("spec", BALL_SPECS.values(), ids=list(BALL_SPECS))
def test_factor_ball_arrays_match_the_reference(monkeypatch, spec, cold):
    # The ball's arrays against the plain BFS and `Oracle.multiply`, built
    # cold and as the prefix of a larger kept ball.
    monkeypatch.setattr(groups, "_BALLS", {})
    o = make_oracle(spec)
    radius = 5 if sum(o.sphere_sizes(5)) <= 3000 else 4
    if not cold:
        ball(o, radius + 1)
    fb = FactorBall(o, radius)
    ref = groups.enumerate_ball(o, radius)
    els = [el for el, _ in ref]
    assert list(fb.tree) == ref
    assert fb.dist.tolist() == [d for _, d in ref]
    gens = [g for _, g in o.gen_pairs()]
    assert fb.parent[0] == 0 and fb.gen[0] == -1
    for i in range(1, len(els)):
        assert fb.dist[fb.parent[i]] == fb.dist[i] - 1
        assert o.multiply(els[fb.parent[i]], gens[fb.gen[i]]) == els[i]
    index = {el: i for i, el in enumerate(els)}
    want = [[index.get(o.multiply(el, g), -1) for g in gens] for el in els]
    assert fb.step.tolist() == want
    assert fb.words == [o.word_str(el) for el in els]
    # Walks are exact where |y| + |c| <= radius, and everywhere in a free group.
    for r in range(radius + 1):
        rows, cols = fb.volume(r), np.arange(fb.volume(radius - r))
        assert (fb.quotient_table(rows, cols) == _quotient_loop(o, els, rows, cols)).all()
    if spec.kind == "free":
        every = np.arange(len(els))
        assert (fb.quotient_table(len(els), every) == _quotient_loop(o, els, len(els), every)).all()


def test_factor_ball_prefix_structure():
    fb = FactorBall(make_oracle(F2), 3)
    assert fb.volume(0) == 1
    assert fb.volume(2) == 17
    assert all(fb.dist[i] <= fb.dist[i + 1] for i in range(len(fb) - 1))
    # the first v_r entries are the radius-r ball
    assert {fb.elements[i] for i in range(17)} == {el for el, _ in ball(fb.oracle, 2)}


def test_quotient_table_stays_inside_its_own_ball(monkeypatch):
    # With the memo holding a larger ball, a quotient outside radius 2 is
    # still -1, not an index into the larger ball.
    monkeypatch.setattr(groups, "_BALLS", {})
    o = make_oracle(F2)
    ball(o, 5)
    fb = FactorBall(o, 2)
    table = fb.quotient_table(len(fb), np.arange(len(fb)))
    index = {el: i for i, (el, _) in enumerate(groups.enumerate_ball(o, 2))}
    expected = [
        [index.get(o.multiply(y, o.inverse(v)), -1) for v in fb.elements] for y in fb.elements
    ]
    assert table.tolist() == expected
    assert (table == -1).any()
    # The columns of a sphere S_t inside the ball, as the window pair lists
    # take them, are the slice from volume(t - 1) to volume(t) of the table
    # over the whole ball.
    for t in range(fb.radius + 1):
        s_t = slice(fb.volume(t - 1), fb.volume(t))
        assert (fb.quotient_table(len(fb), np.arange(len(fb))[s_t]) == table[:, s_t]).all()


def test_quotient_table_takes_one_column_per_element_given():
    # Any elements, by ball index, one column each in the order given, for
    # the first rows of the ball: the covering map's offset prefix is such
    # a call.
    fb = FactorBall(make_oracle(F2), 3)
    table = fb.quotient_table(len(fb), np.arange(len(fb)))
    assert (fb.quotient_table(len(fb), [7, 2]) == table[:, [7, 2]]).all()
    assert (fb.quotient_table(5, np.arange(9)) == table[:5, :9]).all()
    assert fb.quotient_table(len(fb), []).shape == (len(fb), 0)


def test_product_space_window(m_f2):
    sp = ProductSpace(m_f2, 3)
    assert len(sp) == len(perfect_diamond(m_f2, m_f2.origin, 3))
    ids = np.flatnonzero(sp.mask_within(2))
    assert len(ids) == 49
    i, j = sp.ball1.index[m_f2.first.canon(["a"])], sp.ball2.index[m_f2.second.identity]
    pid = int(sp.lookup(i, j))
    assert pid >= 0
    assert sp.element(pid) == (m_f2.first.canon(["a"]), m_f2.second.identity)
    assert sp.word_str(pid) == "a|e"


@pytest.mark.parametrize(
    "first, second, c",
    [(F2, F2, 1), (GroupSpec("integer_lattice", dim=2), F2, "1/2")],
    ids=["f2xf2", "z2xf2-half"],
)
def test_product_space_keys_index_the_universe(first, second, c):
    sp = ProductSpace(ProductMetric(make_oracle(first), make_oracle(second), c), 3)
    assert (np.diff(sp.keys) > 0).all()
    assert (sp.lookup(sp.pts1, sp.pts2) == np.arange(len(sp))).all()
    # Outside either factor ball, -1 (a missing factor index) in either
    # index or both, and inside both balls but beyond rho_c.
    n1, n2 = len(sp.ball1), len(sp.ball2)
    i = np.array([n1, 0, -1, 0, -1, n1 - 1])
    j = np.array([0, n2, 0, -1, -1, n2 - 1])
    assert (sp.lookup(i, j) == -1).all()
    assert sp.lookup(0, 0) == 0


def test_product_space_requires_rational():
    # Floats are refused where the slope is read, before any window is built.
    with pytest.raises(InputError):
        as_slope(1.37)
    with pytest.raises(InputError):
        ProductMetric(make_oracle(F2), make_oracle(F2), 1.37)
    with pytest.raises(InputError):
        as_slope("1/0")
    assert as_slope("137/100") == Fraction(137, 100)


def test_distance_matrix():
    fb = FactorBall(make_oracle(F2), 2)
    D = fb.distance_matrix()
    o = fb.oracle
    for i in range(0, len(fb), 3):
        for j in range(0, len(fb), 5):
            assert D[i, j] == o.distance(fb.elements[i], fb.elements[j])


FREE_PRODUCT = GroupSpec(
    "free_product", factors=(GroupSpec("cyclic", order=2), GroupSpec("cyclic", order=3))
)
DISTANCE_FAMILIES = {
    "f2": (F2, 4),
    "f3": (GroupSpec("free", rank=3), 3),
    "z": (Z1, 6),
    "z2": (GroupSpec("integer_lattice", dim=2), 4),
    "z3": (GroupSpec("integer_lattice", dim=3), 3),
    "cyclic": (GroupSpec("cyclic", order=7), 3),
    "f2xz": (GroupSpec("direct_product", factors=(F2, Z1)), 3),
    "z2*z3": (FREE_PRODUCT, 5),
    "f1-long-words": (GroupSpec("free", rank=1), 40),
}


@pytest.mark.parametrize("spec, radius", DISTANCE_FAMILIES.values(), ids=list(DISTANCE_FAMILIES))
@pytest.mark.parametrize("prefix", [False, True], ids=["ball", "prefix"])
def test_closed_form_distance_matrix_matches_the_oracle_loop(spec, radius, prefix):
    # Every pair, so x = y on the diagonal and, in a direct product, the
    # pairs that share one coordinate (a part's x = y) are all compared.
    fb = FactorBall(make_oracle(spec), radius)
    o, els = fb.oracle, fb.elements
    count = fb.volume(radius - 1) + 1 if prefix else len(fb)
    reference = np.array([[o.distance(x, y) for y in els[:count]] for x in els[:count]])
    grid = np.arange(count)
    D = fb.distances(grid[:, None], grid)
    assert D.shape == reference.shape == (count, count)
    assert (D == reference).all()
    # Random index pairs as two flat arrays, the form `prob` passes.
    rng = np.random.default_rng(radius)
    i, j = rng.integers(0, count, 400), rng.integers(0, count, 400)
    assert (fb.distances(i, j) == reference[i, j]).all()
    assert D.dtype == fb.distances(i, j).dtype == np.int32


def test_cyclic_distances_of_an_order_past_int32():
    q = 2**40
    dist = make_oracle(GroupSpec("cyclic", order=q)).distances([0, 1, q - 1, q // 2])
    i, j = np.divmod(np.arange(16), 4)
    assert dist(i, j).reshape(4, 4).tolist() == [
        [0, 1, 1, q // 2],
        [1, 0, 2, q // 2 - 1],
        [1, 2, 0, q // 2 - 1],
        [q // 2, q // 2 - 1, q // 2 - 1, 0],
    ]


@st.composite
def reduced_word_lists(draw):
    """(rank, words): reduced words of rank 1 to 3 and 0 to 40 letters, cut
    from a few stems so that they share long prefixes, with repeats, in any
    order, and not closed under prefixes."""
    rank = draw(st.integers(1, 3))
    letters = [x for g in range(1, rank + 1) for x in (g, -g)]
    stems = []
    for steps in draw(st.lists(st.lists(st.integers(0, 5), max_size=40), min_size=1, max_size=4)):
        word = []
        for s in steps:
            allowed = [x for x in letters if not word or x != -word[-1]]
            word.append(allowed[s % len(allowed)])
        stems.append(tuple(word))
    cuts = st.tuples(st.sampled_from(stems), st.integers(0, 40))
    return rank, [stem[:n] for stem, n in draw(st.lists(cuts, min_size=1, max_size=12))]


@settings(max_examples=100, deadline=None)
@given(reduced_word_lists())
def test_free_distances_match_the_oracle_loop(case):
    rank, words = case
    o = make_oracle(GroupSpec("free", rank=rank))
    dist = o.distances(words)
    reference = np.array([[o.distance(x, y) for y in words] for x in words])
    # Flat index pairs, the form `prob` passes, in a shuffled order.
    order = np.random.default_rng(len(words)).permutation(len(words) ** 2)
    i, j = np.divmod(order, len(words))
    assert dist(i, j).tolist() == reference[i, j].tolist()
    # A column against a row, the form `row_masses` passes.
    grid = np.arange(len(words))
    assert dist(grid[:, None], grid).tolist() == reference.tolist()


def test_distance_matrix_counts_its_entries_against_the_cap():
    fb = FactorBall(make_oracle(F2), 3, cap=1000)  # 161 elements
    assert fb.distance_matrix(31).shape == (31, 31)  # 961 entries
    with pytest.raises(ResourceCapError, match="distance table"):
        fb.distance_matrix(32)
    with pytest.raises(ResourceCapError, match="distance table"):
        fb.distance_matrix()


def test_only_the_free_product_table_counts_against_the_cap():
    # Closed forms hold O(m) data and take any cap; the free product's one
    # table of m^2 entries is refused above it, before it is built.
    for spec, radius in (DISTANCE_FAMILIES["f2"], DISTANCE_FAMILIES["f2xz"]):
        fb = FactorBall(make_oracle(spec), radius)
        fb.oracle.distances(fb.elements, cap=1)
    fb = FactorBall(make_oracle(FREE_PRODUCT), 5)
    m = len(fb)
    fb.oracle.distances(fb.elements, cap=m * m)
    with pytest.raises(ResourceCapError, match="distance table"):
        fb.oracle.distances(fb.elements, cap=m * m - 1)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 4), max_size=8), st.sampled_from([np.int32, np.int64]))
def test_ragged_lists_every_rank_of_every_row(counts, dtype):
    owner, rank = ragged(np.array(counts, dtype=np.int64), dtype)
    pairs = [(i, r) for i, c in enumerate(counts) for r in range(c)]
    assert owner.dtype == rank.dtype == dtype
    assert list(zip(owner.tolist(), rank.tolist())) == pairs


C4 = GroupSpec("cyclic", order=4)  # radius 4: its spheres 3 and 4 are empty


@pytest.mark.parametrize(
    "first, r1, second, r2, reach",
    [
        (F2, 3, F2, 2, [5, 0, 2, 1]),  # reach 5 runs past the second ball
        (F2, 3, F2, 3, [1, 3]),  # first-factor distances 2, 3 take no slice
        (C4, 4, F2, 2, [0, 2, 1, 2, 0]),
        (F2, 2, C4, 4, [4, 3, 1]),
        (Z1, 3, C4, 4, []),
    ],
    ids=["f2-past-radius", "f2-short", "c4-first", "c4-second", "empty"],
)
def test_slices_match_a_brute_filter(first, r1, second, r2, reach):
    b1, b2 = FactorBall(make_oracle(first), r1), FactorBall(make_oracle(second), r2)
    i, j = b1.slices(b2, reach, 10_000, "slices")
    brute = [
        (a, b)
        for a in range(len(b1))
        for b in range(len(b2))
        if b1.dist[a] < len(reach) and b2.dist[b] <= reach[b1.dist[a]]
    ]
    assert list(zip(i.tolist(), j.tolist())) == brute


def test_slices_count_the_cap_before_anything_is_built(monkeypatch):
    m = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    size = len(ProductSpace(m, 3))  # its factor balls hold 161 elements each

    def never(*args, **kwargs):
        raise AssertionError("a slice union was built")

    monkeypatch.setattr(product, "ragged", never)
    b1 = FactorBall(m.first, 3)
    with pytest.raises(ResourceCapError, match="diamond offsets"):
        b1.slices(b1, [3, 2, 1, 0], size - 1, "diamond offsets")
    with pytest.raises(ResourceCapError, match="product window enumeration"):
        ProductSpace(m, 3, cap=size - 1)


@pytest.mark.parametrize("c", [1, "3/2"])
def test_product_space_lists_the_perfect_diamond_in_its_order(c):
    m = ProductMetric(make_oracle(F2), make_oracle(F2), c)
    sp = ProductSpace(m, 3)
    reference = perfect_diamond(m, m.origin, 3)
    assert [sp.element(pid) for pid in range(len(sp))] == [y for y, _ in reference]
    p = m.c.numerator
    assert [Fraction(int(r), p) for r in sp.rho_num] == [rho for _, rho in reference]
