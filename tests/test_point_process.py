import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import point_process
from horolab.diamonds import diamond_volume, in_diamond
from horolab.errors import InvariantViolation
from horolab.groups import GroupSpec, ball, growth_series, make_oracle
from horolab.point_process import (
    DiamondProcess,
    ProcessContext,
    corner_event_probability,
    eventually_decreasing_split,
    factor_digests,
    hit_probability,
    incidence_stats,
    point_digests,
    sample_diamond_process,
)
from horolab.product import ProductMetric, ProductSpace
from horolab.randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    SeededRandomness,
    combine_digests,
    digest_str,
    seed_digest,
)
from horolab.schedule import build_schedule, linear_schedule, schedule_for

F2 = GroupSpec("free", rank=2)
F3 = GroupSpec("free", rank=3)
F2xZ = GroupSpec("direct_product", factors=(F2, GroupSpec("integer_lattice", dim=1)))


@pytest.fixture(scope="module")
def sched():
    g = growth_series(F2, 14)
    return build_schedule(g, g, 1, 12)


def _context(metric, schedule, n, window_radius) -> ProcessContext:
    return ProcessContext(ProductSpace(metric, window_radius), schedule, n)


@pytest.fixture(scope="module")
def ctx(sched):
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return _context(metric, sched, 2, 3)


def test_determinism(ctx):
    a = sample_diamond_process(ctx, seed_digest(11, 0))
    b = sample_diamond_process(ctx, seed_digest(11, 0))
    assert (a.chosen == b.chosen).all()
    assert (a.marks == b.marks).all()
    c = sample_diamond_process(ctx, seed_digest(11, 1))
    assert len(a.chosen) != len(c.chosen) or not (a.chosen == c.chosen).all()


def test_center_draw_keeps_a_uniform_equal_to_its_bound(ctx, monkeypatch):
    # u <= 1/v exactly: with 1/v equal to a center's uniform u0 (so that
    # 1/v * 2**53 is an integer), that center is drawn.
    key = seed_digest(12, 0)
    u = SeededRandomness(key).uniforms(ctx.center_digests, STREAM_CENTERS)
    row = next(i for i in np.argsort(u)[200:] if 1.0 / (1.0 / u[i]) == u[i])
    monkeypatch.setattr(ctx, "volume", 1.0 / u[row])
    proc = sample_diamond_process(ctx, key)
    assert row in proc.chosen.tolist()
    assert proc.chosen.tolist() == np.flatnonzero(u <= u[row]).tolist()
    monkeypatch.setattr(ctx, "volume", 1.0 / np.nextafter(u[row], 0))
    assert row not in sample_diamond_process(ctx, key).chosen.tolist()


def test_forced_bernoulli_one(ctx):
    # The process with every covering center drawn (Bernoulli parameter 1).
    cov = ctx.covering
    rows = np.arange(len(cov))
    p = DiamondProcess(ctx, seed_digest(5, 0), 1.0, rows, np.full(len(rows), 0.5))
    inc = incidence_stats(p)
    # every window point is covered by exactly v'' centers
    assert (inc.counts == ctx.volume).all()
    assert inc.exact_mean == ctx.volume
    assert inc.empirical_mean == pytest.approx(ctx.volume)
    assert inc.max_count == ctx.volume


def _reference_ball(ctx) -> ProductSpace:
    """The rho_c ball of radius wr + max_d (d + f(r_n - d)/c): the window
    radius plus the largest rho_c distance from a diamond's center to one of
    its members, so it holds every center whose diamond meets the window."""
    reach = ctx.schedule.diamond_reach(ctx.n)
    extent = max(ctx.metric.rho_of_distances(d, r) for d, r in enumerate(reach))
    return ProductSpace(ctx.metric, ctx.window.radius + extent)


@functools.cache
def _reference(ctx) -> tuple:
    """(ball, ids): the reference ball and the W+ id of each of its points,
    found by their elements; -1 where W+ does not hold the point."""
    ref = _reference_ball(ctx)
    b1, b2 = ctx.space.ball1, ctx.space.ball2
    i = np.array([b1.index.get(el, -1) for el in ref.ball1.elements])
    j = np.array([b2.index.get(el, -1) for el in ref.ball2.elements])
    return ref, ctx.space.lookup(i[ref.pts1], j[ref.pts2])


def _covers(ctx, center_id: int, wid: int) -> bool:
    """Whether the CSR covering map lists window point `wid` as a member
    of the diamond centered at W+ point `center_id` (-1: not in W+)."""
    return center_id >= 0 and wid in ctx.covering.members_of(center_id).tolist()


def _family_ctx(spec1, spec2, c, n) -> ProcessContext:
    """spec1 x spec2 at window radius 2, on the schedule `horolab` builds."""
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), c)
    return _context(metric, schedule_for(spec1, spec2, c, 12), n, 2)


@pytest.fixture(scope="module")
def f2f3_ctx():
    """F2 x F3 at c = 2/3 and n = 2: 23,063 of the 60,863 points of the
    reference ball cover the 23-point window."""
    return _family_ctx(F2, F3, "2/3", 2)


@pytest.fixture(scope="module")
def f2zf2_ctx():
    """(F2 x Z) x F2 at c = 1 and n = 2: 10,815 of 20,429 points cover."""
    return _family_ctx(F2xZ, F2, 1, 2)


@pytest.mark.parametrize(
    "which", ["ctx", "f2_n3_ctx", "z2_ctx", "z2f2_ctx", "f2f3_ctx", "f2zf2_ctx"]
)
def test_covering_map_is_exact(request, which):
    ctx = request.getfixturevalue(which)
    cov = ctx.covering
    assert cov.starts[0] == 0 and cov.starts[-1] == len(cov.members)
    assert (np.diff(cov.starts) > 0).all() and (np.diff(ctx.space.keys) > 0).all()
    counts = np.bincount(cov.members, minlength=len(ctx.window))
    # every window point is covered by exactly v'' centers, and nothing else is
    assert len(counts) == len(ctx.window)
    assert (counts == ctx.volume).all()
    assert counts.sum() == ctx.volume * len(ctx.window)
    # Every listed pair is a true membership, so with the counts above each
    # window point lists exactly its v'' covering centers: W+ is exactly
    # the points whose diamond meets the window, one row each.
    space = ctx.space
    assert len(cov) == len(space) and ctx.window_ids.min() >= 0
    for row in range(len(cov)):
        m = cov.members_of(row)
        assert (np.diff(m) > 0).all()
        center = space.element(row)
        for wid in m.tolist():
            assert in_diamond(ctx.metric, ctx.schedule, ctx.n, center, ctx.window.element(wid))
    # W+ lies in the reference ball, and its factor balls, of radii |y| + |u|
    # over window points y and diamond members u, are tight.
    ref, ids = _reference(ctx)
    assert sorted(ids[ids >= 0].tolist()) == list(range(len(space)))
    reach = ctx.schedule.diamond_reach(ctx.n)
    assert space.ball1.radius == ctx.window.ball1.radius + len(reach) - 1
    assert space.ball2.radius == ctx.window.ball2.radius + reach[0]
    assert space.ball1.dist[space.pts1].max() == space.ball1.radius
    assert space.ball2.dist[space.pts2].max() == space.ball2.radius


@pytest.mark.parametrize(
    "which, covering, points",
    [
        ("f2_n3_ctx", 2917, 3241),
        ("z2_ctx", 113, 113),
        ("z2f2_ctx", 221, 221),
        ("f2f3_n1", 83, 113),
        ("f2zf2_n1", 299, 335),
    ],
)
def test_covering_map_is_the_in_diamond_enumeration(request, which, covering, points):
    # Every (point of the reference ball, window point) pair: W+ is exactly
    # the points whose diamond meets the window, and each lists exactly the
    # window points its diamond holds.  At n = 1 the two unequal families
    # keep the pairs few; on F2 x F2 at n = 2 the property test below samples
    # the 703,297 pairs.
    if which == "f2f3_n1":
        ctx = _family_ctx(F2, F3, "2/3", 1)
    elif which == "f2zf2_n1":
        ctx = _family_ctx(F2xZ, F2, 1, 1)
    else:
        ctx = request.getfixturevalue(which)
    ref, ids = _reference(ctx)
    assert (len(ctx.space), len(ref)) == (covering, points)
    window = [ctx.window.element(wid) for wid in range(len(ctx.window))]
    for pid in range(len(ref)):
        center = ref.element(pid)
        for wid, y in enumerate(window):
            want = in_diamond(ctx.metric, ctx.schedule, ctx.n, center, y)
            assert _covers(ctx, int(ids[pid]), wid) == want


def test_a_first_factor_ball_one_radius_short_loses_a_covering_center(sched, monkeypatch):
    # The first ball a ProcessContext builds is W+'s first factor.
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    window = ProductSpace(metric, 3)
    built = []

    def first_short(oracle, radius, cap):
        built.append(radius)
        return ball(oracle, radius - (len(built) == 1), cap)

    monkeypatch.setattr(point_process, "ball", first_short)
    with pytest.raises(InvariantViolation, match="a covering center left its factor ball"):
        ProcessContext(window, sched, 2)
    assert built[0] == 3 + sched.r[2]


@settings(max_examples=300, deadline=None)
@given(center=st.integers(0, 10**9), point=st.integers(0, 10**9))
def test_covering_map_agrees_with_in_diamond_on_f2xf2(ctx, center, point):
    ref, ids = _reference(ctx)
    pid = center % len(ref)
    wid = point % len(ctx.window)
    want = in_diamond(ctx.metric, ctx.schedule, ctx.n, ref.element(pid), ctx.window.element(wid))
    assert _covers(ctx, int(ids[pid]), wid) == want


@pytest.mark.parametrize("which", ["ctx", "z2f2_ctx", "f2_n3_ctx", "f2f3_ctx"])
def test_the_benchmark_counters_read_what_their_names_say(request, which):
    # The benchmark counts covering centers as len(ctx.covering), W+ as
    # len(ctx.space) and sampled diamonds through `DiamondProcess.diamonds`;
    # a change of meaning would pass its smoke test and silently skew its
    # metrics.
    c = request.getfixturevalue(which)
    cov = c.covering
    # W+ is exactly the covering centers, whatever the diamond's shape, and
    # every window point covers itself.
    assert len(cov) == len(cov.starts) - 1 == len(c.space)
    assert c.window_ids.min() >= 0
    for s in range(5):
        proc = sample_diamond_process(c, seed_digest(3, s))
        diamonds = proc.diamonds
        assert proc.diamonds is diamonds  # built once, however often read
        assert len(diamonds) == len(proc.chosen) > 0
        for d, row, mark in zip(diamonds, proc.chosen, proc.marks):
            assert d.member_ids.tolist() == cov.members_of(row).tolist()
            assert (d.center_pid, d.mark) == (row, mark)
        # every sampled diamond meets the window
        assert sum(1 for d in diamonds if len(d.member_ids)) == len(diamonds)


def _full_universe_draw(ctx, seed):
    """Reference sampler: one center uniform per point of the reference
    ball, restricted afterwards to the centers whose diamond meets the
    window, which W+ holds; returns their reference ids, W+ ids and
    marks."""
    ref, ids = _reference(ctx)
    rng = SeededRandomness(seed)
    digests = point_digests(ref)
    u1 = rng.uniforms(digests, STREAM_CENTERS)
    drawn = np.flatnonzero(u1 <= 1.0 / ctx.volume)
    marks = rng.uniforms(digests[drawn], STREAM_MARKS)
    keep = ids[drawn] >= 0
    return drawn[keep], ids[drawn[keep]], marks[keep]


@pytest.fixture(scope="module")
def z2_ctx():
    z = GroupSpec("integer_lattice", dim=1)
    g = growth_series(z, 14)
    metric = ProductMetric(make_oracle(z), make_oracle(z), 1)
    return _context(metric, linear_schedule(1, 12, growth=g, growth2=g), 3, 4)


@pytest.fixture(scope="module")
def z2f2_ctx():
    z2 = GroupSpec("integer_lattice", dim=2)
    metric = ProductMetric(make_oracle(z2), make_oracle(F2), "1/2")
    sched = linear_schedule(
        "1/2", 12, growth=growth_series(z2, 14), growth2=growth_series(F2, 14)
    )
    return _context(metric, sched, 2, 3)


@pytest.fixture(scope="module")
def f2_n3_ctx(sched):
    """F2 x F2 at n = 3 and wr 2: the diamond's slice radii are 2, 2, 0, 0,
    and 324 of the 3,241 points of the reference ball cover no window
    point."""
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return _context(metric, sched, 3, 2)


@pytest.mark.parametrize("which", ["f2", "z2", "f2-n3", "f2f3"])
def test_covering_draw_matches_the_full_universe_draw(ctx, z2_ctx, f2_n3_ctx, f2f3_ctx, which):
    c = {"f2": ctx, "z2": z2_ctx, "f2-n3": f2_n3_ctx, "f2f3": f2f3_ctx}[which]
    cov = c.covering
    ref, ids = _reference(c)
    # The reference ball is sized to the diamond's farthest point.  Every
    # point of it covers W for the first two diamonds; for the others,
    # reference point k is not W+ point k, so the draw must map them.
    assert len(cov) == len(c.space) == int((ids >= 0).sum())
    if which == "f2-n3":
        assert (len(cov), len(ref)) == (2917, 3241)
    elif which == "f2f3":
        assert (len(cov), len(ref)) == (23063, 60863)
    else:
        assert ids.tolist() == list(range(len(ref)))
    for s in range(20):
        proc = sample_diamond_process(c, seed_digest(31, s))
        drawn, rows, marks = _full_universe_draw(c, seed_digest(31, s))
        assert proc.chosen.tolist() == rows.tolist()
        assert proc.marks.tolist() == marks.tolist()
        assert [c.space.element(r) for r in proc.chosen.tolist()] == [
            ref.element(p) for p in drawn.tolist()
        ]
        members, counts = cov.gather(proc.chosen)
        assert members.tolist() == [
            wid for row in proc.chosen.tolist() for wid in cov.members_of(row).tolist()
        ]
        assert (counts > 0).all()


def test_empirical_center_density(ctx):
    # Bernoulli marginal at a fixed point over many seeds: 3 SE band
    seeds = 300
    pid = int(ctx.window_ids[0])
    hits = 0
    for s in range(seeds):
        proc = sample_diamond_process(ctx, seed_digest(99, s))
        hits += int(pid in set(proc.chosen.tolist()))
    p = 1.0 / ctx.volume
    se = math.sqrt(p * (1 - p) / seeds)
    assert abs(hits / seeds - p) <= 3 * se


def test_incidence_binomial_moments(ctx):
    # counts at the origin across seeds follow Binomial(v'', 1/v'')
    seeds = 300
    i = ctx.space.ball1.index[ctx.metric.first.identity]
    j = ctx.space.ball2.index[ctx.metric.second.identity]
    origin = int(ctx.space.lookup(i, j))
    at = int(ctx.window.lookup(i, j))
    assert ctx.window_ids[at] == origin
    counts = []
    for s in range(seeds):
        proc = sample_diamond_process(ctx, seed_digest(7, s))
        counts.append(int(incidence_stats(proc).counts[at]))
    counts = np.asarray(counts, dtype=np.float64)
    v = ctx.volume
    mean, var = 1.0, (1.0 - 1.0 / v)
    se_mean = math.sqrt(var / seeds)
    assert abs(counts.mean() - mean) <= 3 * se_mean
    # SE of the sample variance from the binomial's central moments
    p = 1.0 / v
    mu4 = v * p * (1 - p) * (1 + (3 * v - 6) * p * (1 - p))
    se_var = math.sqrt(max(mu4 - var**2, 0.0) / seeds)
    assert abs(counts.var(ddof=1) - var) <= 3 * se_var + 1e-9


def test_translation_band(ctx):
    # translation surrogate: re-keyed fields give statistics in the same band
    means_a, means_b = [], []
    for s in range(60):
        pa = sample_diamond_process(ctx, seed_digest(1, s))
        pb = sample_diamond_process(ctx, seed_digest(2, s))
        means_a.append(incidence_stats(pa).empirical_mean)
        means_b.append(incidence_stats(pb).empirical_mean)
    a, b = np.asarray(means_a), np.asarray(means_b)
    se = math.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
    assert abs(a.mean() - b.mean()) <= 3 * se


def test_corner_event_exact_and_empirical(sched):
    rows = corner_event_probability(sched, [1, 2, 3], 1, seeds=400, master_seed=13)
    for r in rows:
        se = math.sqrt(r.exact_probability * (1 - r.exact_probability) / 400)
        assert abs(r.empirical_probability - r.exact_probability) <= 3 * se + 1e-9


def _corner_hits_reference(sched, n, T, seeds, master_seed) -> float:
    """The share of seeds under which some center of A_{n,T} has u <= 1/v,
    with A_{n,T} materialised: the ball pairs (i, j) with i < v1(r_n + T - 1)
    and j < v2(T - 1), or i < v1(T - 1) and j < v2(r'_n + T - 1)."""
    radius = max(sched.r[n], sched.r_prime[n]) + T
    b1 = ball(make_oracle(sched.growth.spec), radius)
    b2 = ball(make_oracle(sched.growth2.spec), radius)
    clauses = [
        np.indices((b1.volume(sched.r[n] + T - 1), b2.volume(T - 1))).reshape(2, -1),
        np.indices((b1.volume(T - 1), b2.volume(sched.r_prime[n] + T - 1))).reshape(2, -1),
    ]
    i, j = np.unique(np.concatenate(clauses, axis=1), axis=1)  # the union
    digests = combine_digests(factor_digests(b1, "G")[i], factor_digests(b2, "G2")[j])
    v = diamond_volume(sched, n)
    hits = 0
    for s in range(seeds):
        u = SeededRandomness(seed_digest(master_seed, s)).uniforms(digests, STREAM_CENTERS)
        hits += bool((u <= 1.0 / v).any())
    return hits / seeds


@pytest.mark.parametrize("tile", [1, 10, point_process._TILE])
@pytest.mark.parametrize("T", [1, 2])
def test_corner_event_empirical_matches_the_materialised_reference(sched, T, tile, monkeypatch):
    # Blocks of one pair; of ten pairs, over which a rectangle splits into
    # many row blocks and a longer row into column blocks; and of the
    # default size.
    monkeypatch.setattr(point_process, "_TILE", tile)
    rows = corner_event_probability(sched, range(1, 7), T, seeds=50, master_seed=17)
    got = [r.empirical_probability for r in rows]
    assert got == [_corner_hits_reference(sched, n, T, 50, 17) for n in range(1, 7)]
    assert any(0 < p < 1 for p in got)


def test_a_corner_seed_stops_drawing_at_its_first_hit(sched, monkeypatch):
    # Over row blocks of ten pairs, `below` is called under a seed until its
    # first hit at that n and never after it; a seed without a hit draws
    # every block.
    monkeypatch.setattr(point_process, "_TILE", 10)
    below, calls = SeededRandomness.below, []

    def counted(self, digests, tag, k):
        found = below(self, digests, tag, k)
        calls.append((self.master_seed, len(found) > 0))
        return found

    monkeypatch.setattr(SeededRandomness, "below", counted)
    stopped_early = 0
    for n in range(1, 7):
        calls.clear()
        (row,) = corner_event_probability(sched, [n], 1, seeds=50, master_seed=17)
        drawn = {}
        for seed, found in calls:
            drawn.setdefault(seed, []).append(found)
        blocks = max(map(len, drawn.values()))
        assert sum(found[-1] for found in drawn.values()) / 50 == row.empirical_probability
        for found in drawn.values():
            assert not any(found[:-1])
            assert found[-1] or len(found) == blocks
            stopped_early += found[-1] and len(found) < blocks
    assert stopped_early > 0


def test_a_long_corner_row_is_drawn_in_column_blocks(sched, monkeypatch):
    # At T = 1 the second clause is one row of v2(r'_n) - 1 centers, 13,120
    # at n = 8.  Cut into column blocks of 1,024 pairs, it draws as the
    # materialised reference does, and a call peaks at a few blocks' digests
    # (8 B a center), not at the whole row's 13 blocks, held about three
    # times over.  The reference's larger balls are kept first, so the
    # measured call builds no ball prefix.
    import tracemalloc

    tile = 1024
    monkeypatch.setattr(point_process, "_TILE", tile)
    want = _corner_hits_reference(sched, 8, 1, 20, 5)
    (row,) = corner_event_probability(sched, [8], 1, seeds=20, master_seed=5)
    assert row.empirical_probability == want
    assert 0 < want < 1
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        corner_event_probability(sched, [8], 1, seeds=20, master_seed=5)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak < 8 * 8 * tile


def test_a_corner_draw_holds_no_corner_set(sched):
    # The n = 9, T = 2 corner set has 787,285 centers in 24 row blocks.  A
    # first call builds and keeps the factor balls and their digests; a
    # second one then holds nothing once it returns, and at its peak less
    # than a quarter of the set's digests (8 B a center).
    import tracemalloc

    corner_event_probability(sched, [9], 2, seeds=5, master_seed=3)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        (row,) = corner_event_probability(sched, [9], 2, seeds=5, master_seed=3)
        held, peak = (size - before for size in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert row.corner_count == 787_285
    assert held < 4096
    assert peak < 8 * row.corner_count // 4


def test_corner_event_t0_is_zero(sched):
    rows = corner_event_probability(sched, [2, 3], 0, seeds=10, master_seed=3)
    for r in rows:
        assert r.corner_count == 0
        assert r.exact_probability == 0.0
        assert r.empirical_probability == 0.0


def test_synthetic_full_corner_probability():
    # |A| = v'' gives 1 - (1 - 1/v)^v ~ 1 - 1/e for large v
    v = 5000
    exact = -math.expm1(v * math.log1p(-1.0 / v))
    assert abs(exact - (1 - math.exp(-1))) < 0.01


def test_eventually_decreasing_split():
    osc = [1.0, 0.9, 0.5, 0.55, 0.3, 0.35, 0.2, 0.22]
    split = eventually_decreasing_split(osc)
    assert split["eventually_decreasing"]
    assert not split["interleaved_monotone"]
    flat = [1.0, 1.0, 1.0, 1.0]
    assert not eventually_decreasing_split(flat)["eventually_decreasing"]


def test_hit_probability(sched):
    r0 = hit_probability(sched, 5, 0)
    assert r0.hitting_count == r0.volume
    assert r0.ratio == 1
    r1 = hit_probability(sched, 5, 1)
    assert r1.ratio >= r1.lower_bound
    r2 = hit_probability(sched, 5, 2)
    assert r2.ratio >= r1.ratio  # monotone in T


@pytest.mark.parametrize("radii", [(2, 4, 3), (4, 2, 3)], ids=["small-first", "large-first"])
def test_factor_digests_prefixes_equal_a_fresh_computation(monkeypatch, radii):
    monkeypatch.setattr(point_process, "_FACTOR_DIGESTS", {})
    for r in radii:
        for spec in (F2, GroupSpec("free", rank=3), GroupSpec("integer_lattice", dim=2)):
            fb = ball(make_oracle(spec), r)
            for tag in ("G", "G2"):
                fresh = [digest_str(f"{tag}:{w}") for w in fb.words]
                got = factor_digests(fb, tag)
                assert got.tolist() == fresh, (spec, r, tag)
                # Read-only, and no caller can make it writable: no caller
                # can change the next call's digests.
                with pytest.raises(ValueError):
                    got[0] = 0
                with pytest.raises(ValueError):
                    got.flags.writeable = True
