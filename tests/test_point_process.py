import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import point_process
from horolab.diamonds import diamond_volume, in_diamond
from horolab.groups import GroupSpec, growth_series, make_oracle
from horolab.point_process import (
    DiamondProcess,
    ProcessContext,
    corner_event_probability,
    eventually_decreasing_split,
    factor_digests,
    hit_probability,
    incidence_stats,
    sample_diamond_process,
)
from horolab.product import FactorBall, ProductMetric
from horolab.randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    SeededRandomness,
    combine_digests,
    digest_str,
    seed_digest,
)
from horolab.schedule import build_schedule, linear_schedule

F2 = GroupSpec("free", rank=2)


@pytest.fixture(scope="module")
def sched():
    g = growth_series(F2, 14)
    return build_schedule(g, g, 1, 12)


@pytest.fixture(scope="module")
def ctx(sched):
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return ProcessContext(metric, sched, 2, 3)


def test_determinism(ctx):
    a = sample_diamond_process(ctx, seed_digest(11, 0))
    b = sample_diamond_process(ctx, seed_digest(11, 0))
    assert (a.center_pids == b.center_pids).all()
    assert (a.marks == b.marks).all()
    c = sample_diamond_process(ctx, seed_digest(11, 1))
    assert len(a.center_pids) != len(c.center_pids) or not (
        a.center_pids == c.center_pids
    ).all()


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
    p = DiamondProcess(ctx, seed_digest(5, 0), 1.0, rows, cov.centers, np.full(len(rows), 0.5))
    inc = incidence_stats(p)
    # every window point is covered by exactly v'' centers
    assert (inc.counts == ctx.volume).all()
    assert inc.exact_mean == ctx.volume
    assert inc.empirical_mean == pytest.approx(ctx.volume)
    assert inc.max_count == ctx.volume


def _covers(cov, center_pid: int, pid: int) -> bool:
    """Whether the CSR covering map lists `pid` as a member of the diamond
    centered at `center_pid`."""
    row = int(np.searchsorted(cov.centers, center_pid))
    return (
        row < len(cov)
        and cov.centers[row] == center_pid
        and pid in cov.members_of(row).tolist()
    )


def test_covering_map_is_exact(ctx):
    cov = ctx.covering
    assert cov.starts[0] == 0 and cov.starts[-1] == len(cov.members)
    assert (np.diff(cov.starts) > 0).all() and (np.diff(cov.centers) > 0).all()
    counts = np.bincount(cov.members, minlength=len(ctx.space))
    # every window point is covered by exactly v'' centers, and nothing else is
    assert (counts[ctx.window_ids] == ctx.volume).all()
    assert counts.sum() == ctx.volume * len(ctx.window_ids)
    # Every listed pair is a true membership, so with the counts above each
    # window point lists exactly its v'' covering centers.
    space = ctx.space
    for row, pid in enumerate(cov.centers.tolist()):
        m = cov.members_of(row)
        assert (np.diff(m) > 0).all()
        center = space.element(pid)
        for wid in m.tolist():
            assert in_diamond(ctx.metric, ctx.schedule, ctx.n, center, space.element(wid))


def test_covering_map_is_the_in_diamond_enumeration(z2f2_ctx):
    # Every (center of W+, window point) pair, Z^2 x F2 at c = 1/2.
    ctx, space = z2f2_ctx, z2f2_ctx.space
    for pid in range(len(space)):
        center = space.element(pid)
        for wid in ctx.window_ids.tolist():
            want = in_diamond(ctx.metric, ctx.schedule, ctx.n, center, space.element(wid))
            assert _covers(ctx.covering, pid, wid) == want


@settings(max_examples=300, deadline=None)
@given(center=st.integers(0, 10**9), point=st.integers(0, 10**9))
def test_covering_map_agrees_with_in_diamond_on_f2xf2(ctx, center, point):
    space = ctx.space
    pid = center % len(space)
    wid = int(ctx.window_ids[point % len(ctx.window_ids)])
    want = in_diamond(ctx.metric, ctx.schedule, ctx.n, space.element(pid), space.element(wid))
    assert _covers(ctx.covering, pid, wid) == want


def test_the_benchmark_counters_read_what_their_names_say(ctx, z2f2_ctx):
    # The benchmark counts covering centers as len(ctx.covering) and
    # sampled diamonds through `DiamondProcess.diamonds`; a change of
    # meaning would pass its smoke test and silently skew its metrics.
    for c in (ctx, z2f2_ctx):
        cov = c.covering
        assert len(cov) == len(cov.centers) == len(cov.starts) - 1
        # W+ is sized to the diamond's farthest point; for these two
        # diamonds every point of it covers W, which need not hold in general.
        assert len(cov) == len(c.space)
        for s in range(5):
            proc = sample_diamond_process(c, seed_digest(3, s))
            diamonds = proc.diamonds
            assert proc.diamonds is diamonds  # built once, however often read
            assert len(diamonds) == len(proc.center_pids) > 0
            for d, row, pid, mark in zip(diamonds, proc.chosen, proc.center_pids, proc.marks):
                assert d.member_ids.tolist() == cov.members_of(row).tolist()
                assert (d.center_pid, d.mark) == (pid, mark)
            # every sampled diamond meets the window
            assert sum(1 for d in diamonds if len(d.member_ids)) == len(diamonds)


def _full_universe_draw(ctx, seed):
    """Reference sampler: one center uniform per point of W+, restricted
    afterwards to the centers whose diamond meets the window."""
    rng = SeededRandomness(seed)
    u1 = rng.uniforms(ctx.point_digests, STREAM_CENTERS)
    drawn = np.flatnonzero(u1 <= 1.0 / ctx.volume)
    marks = rng.uniforms(ctx.point_digests[drawn], STREAM_MARKS)
    covering = set(ctx.covering.centers.tolist())
    keep = [k for k, pid in enumerate(drawn.tolist()) if pid in covering]
    return drawn[keep], marks[keep]


@pytest.fixture(scope="module")
def z2_ctx():
    z = GroupSpec("integer_lattice", dim=1)
    g = growth_series(z, 14)
    metric = ProductMetric(make_oracle(z), make_oracle(z), 1)
    return ProcessContext(metric, linear_schedule(1, 12, growth=g, growth2=g), 3, 4)


@pytest.fixture(scope="module")
def z2f2_ctx():
    z2 = GroupSpec("integer_lattice", dim=2)
    metric = ProductMetric(make_oracle(z2), make_oracle(F2), "1/2")
    sched = linear_schedule(
        "1/2", 12, growth=growth_series(z2, 14), growth2=growth_series(F2, 14)
    )
    return ProcessContext(metric, sched, 2, 3)


@pytest.fixture(scope="module")
def f2_n3_ctx(sched):
    """F2 x F2 at n = 3 and wr 2: the diamond's slice radii are 2, 2, 0, 0,
    and 324 of the 3,241 points of W+ cover no window point."""
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return ProcessContext(metric, sched, 3, 2)


@pytest.mark.parametrize("which", ["f2", "z2", "f2-n3"])
def test_covering_draw_matches_the_full_universe_draw(ctx, z2_ctx, f2_n3_ctx, which):
    c = {"f2": ctx, "z2": z2_ctx, "f2-n3": f2_n3_ctx}[which]
    cov = c.covering
    # W+ is sized to the diamond's farthest point.  Every point of it covers
    # W for the first two diamonds; for the third, covering row k is not
    # point k, so the draw must map rows to centers.
    if which == "f2-n3":
        assert (len(cov), len(c.space)) == (2917, 3241)
    else:
        assert cov.centers.tolist() == list(range(len(c.space)))
    for s in range(20):
        proc = sample_diamond_process(c, seed_digest(31, s))
        pids, marks = _full_universe_draw(c, seed_digest(31, s))
        assert proc.center_pids.tolist() == pids.tolist()
        assert proc.marks.tolist() == marks.tolist()
        assert (cov.centers[proc.chosen] == proc.center_pids).all()
        members, counts = cov.gather(proc.chosen)
        assert members.tolist() == [
            wid for row in proc.chosen.tolist() for wid in cov.members_of(row).tolist()
        ]
        assert (counts > 0).all()


@pytest.mark.parametrize("which", ["ctx", "z2_ctx", "z2f2_ctx"])
def test_center_window_is_tight(request, which):
    # The farthest covering center sits on the boundary of W+.
    c = request.getfixturevalue(which)
    space = c.space
    assert space.rho_num[c.covering.centers].max() == space.metric.radius_num(space.radius)


def test_empirical_center_density(ctx):
    # Bernoulli marginal at a fixed point over many seeds: 3 SE band
    seeds = 300
    pid = int(ctx.window_ids[0])
    hits = 0
    for s in range(seeds):
        proc = sample_diamond_process(ctx, seed_digest(99, s))
        hits += int(pid in set(proc.center_pids.tolist()))
    p = 1.0 / ctx.volume
    se = math.sqrt(p * (1 - p) / seeds)
    assert abs(hits / seeds - p) <= 3 * se


def test_incidence_binomial_moments(ctx):
    # counts at the origin across seeds follow Binomial(v'', 1/v'')
    seeds = 300
    i = ctx.space.ball1.index[ctx.metric.first.identity]
    j = ctx.space.ball2.index[ctx.metric.second.identity]
    origin = int(ctx.space.lookup(i, j))
    at = int(np.searchsorted(ctx.window_ids, origin))
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
    b1 = FactorBall(make_oracle(sched.growth.spec), radius)
    b2 = FactorBall(make_oracle(sched.growth2.spec), radius)
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


@pytest.mark.parametrize("T", [1, 2])
def test_corner_event_empirical_matches_the_materialised_reference(sched, T):
    rows = corner_event_probability(sched, range(1, 7), T, seeds=50, master_seed=17)
    got = [r.empirical_probability for r in rows]
    assert got == [_corner_hits_reference(sched, n, T, 50, 17) for n in range(1, 7)]
    assert any(0 < p < 1 for p in got)


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
            fb = FactorBall(make_oracle(spec), r)
            for tag in ("G", "G2"):
                fresh = [digest_str(f"{tag}:{w}") for w in fb.words()]
                got = factor_digests(fb, tag)
                assert got.tolist() == fresh, (spec, r, tag)
                # Read-only, and no caller can make it writable: no caller
                # can change the next call's digests.
                with pytest.raises(ValueError):
                    got[0] = 0
                with pytest.raises(ValueError):
                    got.flags.writeable = True
