import functools
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import graphing, randomness
from horolab.graphing import (
    GraphingContext,
    _component_roots,
    _pi5_connected,
    assign_phi,
    build_forest_and_pi45,
    build_marked_window,
    build_percolation,
    build_pi1,
    coset_line_baseline,
    cost_report,
    largest_component_fraction,
    lift_open_pairs,
    pi3_edges,
    run_seed,
    surviving_index,
)
from horolab.diamonds import in_diamond
from horolab.errors import InvariantViolation, ResourceCapError
from horolab.groups import GroupSpec, growth_series, make_oracle
from horolab.point_process import sample_diamond_process
from horolab.product import ProductMetric, ProductSpace
from horolab.randomness import (
    STREAM_PERCOLATION,
    SeededRandomness,
    combine_unordered,
    seed_digest,
)
from horolab.schedule import build_schedule, linear_schedule

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)
Z2 = GroupSpec("integer_lattice", dim=2)


@pytest.fixture(scope="module")
def f2_ctx():
    g = growth_series(F2, 14)
    sched = build_schedule(g, g, 1, 12)
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return GraphingContext(metric, sched, 2, 4, 2)


@pytest.fixture(scope="module")
def z_ctx():
    g = growth_series(Z1, 40)
    sched = linear_schedule(1, 30, growth=g, growth2=g)
    metric = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    return GraphingContext(metric, sched, 12, 6, 2)


@pytest.fixture(scope="module")
def z2f2_ctx():
    metric = ProductMetric(make_oracle(Z2), make_oracle(F2), "1/2")
    sched = linear_schedule(
        "1/2", 12, growth=growth_series(Z2, 14), growth2=growth_series(F2, 14)
    )
    return GraphingContext(metric, sched, 2, 5, 2)


# Percolation kernel ---------------------------------------------------------


def _kernel_ids(ctx, pids) -> np.ndarray:
    """The kernel's window ids of the W+ point ids `pids`, sorted: W+ point
    window_ids[k] is kernel id k."""
    return np.searchsorted(ctx.pctx.window_ids, np.sort(np.asarray(pids, dtype=np.int64)))


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_kernel_window_lists_the_window_points_of_w_plus_in_order(perc_ctx):
    pctx = perc_ctx.pctx
    assert np.array_equal(perc_ctx.kernel.space.keys, pctx.space.keys[pctx.window_ids])


def test_kernel_total_mass_and_truncation(f2_ctx):
    k = f2_ctx.kernel
    enumerated = sum(Fraction(1, 2 ** (j + 1)) for j in range(len(k.nums)))
    assert enumerated + k.truncation_mass == 1
    assert all(p > 0 for _, _, p in k.annuli)


def test_kernel_counts_match_sphere_sums(f2_ctx):
    g = growth_series(F2, 10)
    for num, count, _ in f2_ctx.kernel.annuli[:6]:
        # c = 1: annulus at integer radius `num` has count sum s_t s'_{num-t}
        expected = sum(g.spheres[t] * g.spheres[num - t] for t in range(num + 1))
        assert count == expected


def test_kernel_reads_spheres_past_the_schedule_horizon(f2_ctx):
    # The schedule's growth series stop at radius 6; the wr-4 kernel reads
    # spheres out to the window's diameter, 8.
    g = growth_series(F2, 6)
    ctx = GraphingContext(f2_ctx.metric, linear_schedule(1, 6, growth=g, growth2=g), 2, 4, 2)
    assert ctx.kernel.annuli == f2_ctx.kernel.annuli
    assert ctx.kernel.truncation_mass == f2_ctx.kernel.truncation_mass


def test_kernel_invariance(f2_ctx):
    # p depends only on the rho distance, hence invariant and symmetric
    kernel, space = f2_ctx.kernel, f2_ctx.pctx.space
    assert kernel.lut[0] == 0.0
    pids = f2_ctx.pctx.window_ids[::7]
    ids = _kernel_ids(f2_ctx, pids)
    p = kernel.prob(ids[:, None], ids[None, :])
    assert (p == p.T).all() and (np.diag(p) == 0.0).all()
    # c = 1, so a pair's rho numerator is its rho distance
    rho = [[f2_ctx.metric.rho(space.element(a), space.element(b)) for b in pids] for a in pids]
    assert (kernel.lut[np.asarray(rho, dtype=np.int64)] == p).all()


# Pi1 descent forest ---------------------------------------------------------


def _seed_window(ctx, key):
    proc = sample_diamond_process(ctx.pctx, key)
    return build_marked_window(ctx, proc)


def _copies_at(mw) -> dict:
    """Covered point -> its vertices, in rising diamond index."""
    return {
        pid: mw.copies[mw.starts[i] : mw.starts[i + 1]].tolist()
        for i, pid in enumerate(mw.bases.tolist())
    }


def test_pi1_interior_out_degree(f2_ctx):
    for s in range(5):
        mw = _seed_window(f2_ctx, seed_digest(21, s))
        pi1 = build_pi1(mw)
        assert pi1.interior_violations == 0
        assert pi1.parallel_violations == 0
        interior = np.flatnonzero(mw.v_interior)
        assert ((pi1.target[interior] >= 0)).all()


def test_pi1_edges_horizontal_and_in_diamond(f2_ctx):
    mw = _seed_window(f2_ctx, seed_digest(22, 0))
    pi1 = build_pi1(mw)
    space = f2_ctx.pctx.space
    for vi, tv in enumerate(pi1.target.tolist()):
        if tv < 0:
            continue
        assert mw.v_k[vi] == mw.v_k[tv]  # same diamond, same mark
        assert space.pts2[mw.v_pid[vi]] == space.pts2[mw.v_pid[tv]]  # horizontal
        center, point = space.element(int(mw.centers[mw.v_k[vi]])), space.element(int(mw.v_pid[tv]))
        assert in_diamond(f2_ctx.metric, f2_ctx.schedule, f2_ctx.n, center, point)


def test_pi1_lattice_rays(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(23, 1))
    pi1 = build_pi1(mw)
    assert pi1.interior_violations == 0
    # every interior vertex descends one first-coordinate step
    interior = np.flatnonzero(mw.v_interior)
    space = z_ctx.pctx.space
    for vi in interior.tolist():
        tv = int(pi1.target[vi])
        a = space.element(int(mw.v_pid[vi]))
        b = space.element(int(mw.v_pid[tv]))
        assert abs(a[0][0] - b[0][0]) == 1 and a[1] == b[1]


def test_pi1_lattice_tau_takes_the_descending_neighbour_nearest_the_center(z2f2_ctx):
    # c1 = (-2, -2), y1 = (-2, 0): (-3, 0) and (-2, -1) both descend the
    # horofunction of the ray through c1, and only (-2, -1) nears c1.
    ball1 = z2f2_ctx.pctx.space.ball1
    [tfi] = z2f2_ctx.tau(np.array([ball1.index[(-2, -2)]]), np.array([ball1.index[(-2, 0)]]))
    assert ball1.elements[tfi] == (-2, -1)


def test_pi1_has_no_interior_violations_on_a_lattice_first_factor(z2f2_ctx):
    pi1s = [build_pi1(_seed_window(z2f2_ctx, seed_digest(27, s))) for s in range(12)]
    assert sum(p.interior_violations for p in pi1s) == 0
    assert sum(p.parallel_violations for p in pi1s) == 0


def _pi1_counts_reference(mw, target) -> tuple:
    """(stalled, interior, parallel) violation counts of `target`, by loop."""
    space = mw.ctx.pctx.space
    stalled = interior = parallel = 0
    by_group = {}
    for vi, tv in enumerate(target.tolist()):
        if tv < 0:
            stalled += 1
            interior += bool(mw.v_interior[vi])
            continue
        key = (int(mw.v_k[vi]), int(space.pts1[mw.v_pid[vi]]))
        by_group.setdefault(key, set()).add(int(space.pts1[mw.v_pid[tv]]))
        parallel += int(space.pts2[mw.v_pid[tv]]) != int(space.pts2[mw.v_pid[vi]])
    return stalled, interior, parallel + sum(len(t) > 1 for t in by_group.values())


def test_pi1_counts_match_the_loop_on_a_broken_lookup(f2_ctx, monkeypatch):
    # Scramble some targets, as a wrong vertex lookup would; every count
    # must still be what the per-vertex loop finds in the targets given.
    lookup = graphing.MarkedWindow.vertex_of

    def scrambled(mw, pids, ks):
        got = lookup(mw, pids, ks)
        got[::7] = np.roll(got[::7], 1)
        got[3::11] = -1
        return got

    monkeypatch.setattr(graphing.MarkedWindow, "vertex_of", scrambled)
    for s in range(3):
        mw = _seed_window(f2_ctx, seed_digest(25, s))
        pi1 = build_pi1(mw)
        counts = (pi1.stalled, pi1.interior_violations, pi1.parallel_violations)
        assert counts == _pi1_counts_reference(mw, pi1.target)
        assert min(counts) > 0


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_pi1_targets_match_a_per_vertex_tau_loop(perc_ctx, monkeypatch):
    # The reference descends the memoised Horofunction of each center
    # (`_descend`), also on the free f2_ctx, whose `tau` is the closed form;
    # z_ctx and z2f2_ctx have a lattice first factor.
    ctx, space = perc_ctx, perc_ctx.pctx.space
    tau = graphing.GraphingContext.tau
    calls = []

    def counted_tau(self, center_fi, y_fi):
        calls.append(list(zip(center_fi.tolist(), y_fi.tolist())))
        return tau(self, center_fi, y_fi)

    monkeypatch.setattr(graphing.GraphingContext, "tau", counted_tau)
    descend = functools.lru_cache(maxsize=None)(ctx._descend)
    for s in range(3):
        mw = _seed_window(ctx, seed_digest(26, s))
        calls.clear()
        target = build_pi1(mw).target.tolist()
        vertex = {(int(pid), int(k)): vi for vi, (pid, k) in enumerate(zip(mw.v_pid, mw.v_k))}
        pairs, want = set(), []
        for vi in range(mw.n_vertices):
            pid, k = int(mw.v_pid[vi]), int(mw.v_k[vi])
            pair = (int(space.pts1[mw.centers[k]]), int(space.pts1[pid]))
            pairs.add(pair)
            tfi = descend(*pair)
            el2 = space.element(pid)[1]
            tpid = _pid(space, space.ball1.elements[tfi], el2) if tfi >= 0 else -1
            want.append(vertex.get((tpid, k), -1))
        assert target == want
        # one call per seed, over the distinct (center, y) pairs
        assert len(calls) == 1 and sorted(calls[0]) == sorted(pairs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=50))
def test_tau_on_arrays_is_the_horofunction_descent(f2_ctx, pairs):
    # The closed form over index arrays against the per-pair definition,
    # at every radius of the first ball (targets past it are -1).
    size = len(f2_ctx.pctx.space.ball1)
    c = np.array([a % size for a, _ in pairs], dtype=np.int64)
    y = np.array([b % size for _, b in pairs], dtype=np.int64)
    want = [f2_ctx._descend(a, b) for a, b in zip(c.tolist(), y.tolist())]
    assert f2_ctx.tau(c, y).tolist() == want


def test_overlapping_diamonds_have_distinct_vertices(f2_ctx):
    mw = _seed_window(f2_ctx, seed_digest(24, 2))
    by_pid = _copies_at(mw)
    multi = [pid for pid, copies in by_pid.items() if len(copies) >= 2]
    if not multi:
        pytest.skip("no overlaps in this sample")
    pi1 = build_pi1(mw)
    pid = multi[0]
    copies = by_pid[pid]
    ks = {int(mw.v_k[vi]) for vi in copies}
    assert len(ks) == len(copies)
    marks = {mw.marks[int(mw.v_k[vi])] for vi in copies}
    assert len(marks) == len(copies)
    targets = {int(pi1.target[vi]) for vi in copies if pi1.target[vi] >= 0}
    assert len(targets) == len([vi for vi in copies if pi1.target[vi] >= 0])


# Percolation stage ----------------------------------------------------------


def _rho_nums(space, a, b) -> np.ndarray:
    """The rho_c numerators d p + d' q of the point pairs (a, b) of
    `space`, from each factor ball's `distances`."""
    c = space.metric.c
    return (
        space.ball1.distances(space.pts1[a], space.pts1[b]) * c.numerator
        + space.ball2.distances(space.pts2[a], space.pts2[b]) * c.denominator
    )


def _materialised_percolation(kernel, base_ids, rng, eps_list):
    """Reference for `build_percolation` and `open_pairs` on `kernel`,
    over the kernel's window ids `base_ids`: every unordered pair
    materialised at once, with its rho numerator from the factor balls'
    per-pair distances."""
    S = np.asarray(sorted(int(p) for p in base_ids), dtype=np.int64)
    out = {float(e): [] for e in eps_list}
    if len(S) < 2 or not eps_list:
        return out
    ia, ib = np.triu_indices(len(S), 1)
    base_prob = kernel.lut[_rho_nums(kernel.space, S[ia], S[ib])]
    pd = kernel.digests
    u = rng.uniforms(combine_unordered(pd[S[ia]], pd[S[ib]]), STREAM_PERCOLATION)
    emax = max(eps_list)
    cand = np.flatnonzero(u < emax * base_prob)
    for e in eps_list:
        sel = cand[u[cand] < float(e) * base_prob[cand]]
        out[float(e)] = [(int(S[ia[s]]), int(S[ib[s]])) for s in sel.tolist()]
    return out


PERC_EPS = [0.0, 0.05, 0.3, 1.0]


def _rows(pairs) -> list:
    """The rows of an (m, 2) int64 edge array as tuples."""
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    return [tuple(row) for row in pairs.tolist()]


def _assert_matches_reference(ctx, bases, key, eps_list=PERC_EPS):
    got = build_percolation(ctx, bases, SeededRandomness(key), eps_list)
    got = {e: _rows(pairs) for e, pairs in got.items()}
    want = _materialised_percolation(
        ctx.kernel, _kernel_ids(ctx, bases), SeededRandomness(key), eps_list
    )
    wid = ctx.pctx.window_ids.tolist()
    assert got == {e: [(wid[a], wid[b]) for a, b in pairs] for e, pairs in want.items()}
    return got


@pytest.fixture
def perc_ctx(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_percolation_matches_the_materialised_reference(perc_ctx):
    opened = 0
    for s in range(20):
        key = seed_digest(60, s)
        bases = _seed_window(perc_ctx, key).bases.tolist()
        opened += len(_assert_matches_reference(perc_ctx, bases, key)[0.3])
    assert opened > 0


def _count_tiles(monkeypatch, tile) -> list:
    """Set the tile size of `randomness.threshold_pairs`, which owns the
    tile loop, to `tile`; the returned list grows by one per hashed tile."""
    monkeypatch.setattr(randomness, "_TILE", tile)
    tiles = []
    combine = randomness.combine_into
    monkeypatch.setattr(randomness, "combine_into", lambda *a: tiles.append(1) or combine(*a))
    return tiles


@pytest.mark.parametrize("tile", [3, 7, 200])
@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z2f2_ctx"], indirect=True)
def test_percolation_tiles_that_split_rows(perc_ctx, tile, monkeypatch):
    tiles = _count_tiles(monkeypatch, tile)
    for s in range(3):
        key = seed_digest(61, s)
        bases = _seed_window(perc_ctx, key).bases.tolist()[:60]
        before = len(tiles)
        _assert_matches_reference(perc_ctx, bases, key)
        assert len(tiles) - before > 1


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_percolation_clamps_at_certain_opening(perc_ctx, monkeypatch):
    # p = 1 everywhere: eps >= 1 opens every pair (4096 * 2**53 would not fit
    # a uint64 without the 2**53 clamp), eps = 0 none
    monkeypatch.setattr(perc_ctx.kernel, "lut", np.ones_like(perc_ctx.kernel.lut))
    key = seed_digest(62, 0)
    bases = _seed_window(perc_ctx, key).bases.tolist()
    got = _assert_matches_reference(perc_ctx, bases, key, [0.0, 1.0, 4096.0])
    every = [(a, b) for i, a in enumerate(bases) for b in bases[i + 1 :]]
    assert got[0.0] == [] and got[1.0] == got[4096.0] == every


@pytest.mark.parametrize("count", [0, 1, 2])
@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_percolation_of_few_bases(perc_ctx, count, monkeypatch):
    monkeypatch.setattr(perc_ctx.kernel, "lut", np.ones_like(perc_ctx.kernel.lut))
    bases = perc_ctx.pctx.window_ids[:count].tolist()
    got = _assert_matches_reference(perc_ctx, bases, seed_digest(63, 0))
    assert len(got[1.0]) == count * (count - 1) // 2


def test_percolation_pairs_count_against_the_cap(f2_ctx, monkeypatch):
    monkeypatch.setattr(f2_ctx.kernel, "lut", np.ones_like(f2_ctx.kernel.lut))
    key = seed_digest(64, 0)
    bases = _seed_window(f2_ctx, key).bases.tolist()
    pairs = len(bases) * (len(bases) - 1) // 2
    # At lut = 1 every pair is in the top tier, and a fresh kernel's window
    # neighbour lists hold more entries than these bases have pairs; they
    # count against the cap only when built, so build them at the default.
    build_percolation(f2_ctx, bases, SeededRandomness(key), [1.0])
    monkeypatch.setattr(f2_ctx.kernel, "cap", pairs)
    assert len(build_percolation(f2_ctx, bases, SeededRandomness(key), [1.0])[1.0]) == pairs
    monkeypatch.setattr(f2_ctx.kernel, "cap", pairs - 1)
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        build_percolation(f2_ctx, bases, SeededRandomness(key), [1.0])


def _assert_seeds_match_reference(kernel, base_ids, keys, emax) -> list:
    """One multi-seed `open_pairs` call over the kernel's window ids
    `base_ids` against the materialised reference of each seed: the same
    pairs in the same order, with their p and u.  Returns the call's rows."""
    S = np.sort(np.asarray(base_ids, dtype=np.int64))
    got = kernel.open_pairs(S, [SeededRandomness(key) for key in keys], emax)
    assert len(got) == len(keys)
    pd = kernel.digests
    for key, (a, b, u, p) in zip(keys, got):
        rng = SeededRandomness(key)
        want = _materialised_percolation(kernel, S, rng, [emax])
        assert list(zip(a.tolist(), b.tolist())) == want[float(emax)]
        assert u.tobytes() == rng.uniforms(combine_unordered(pd[a], pd[b]), STREAM_PERCOLATION).tobytes()
        assert p.tobytes() == kernel.prob(a, b).tobytes()
    return got


def _seeds_match_reference(ctx, bases, keys, emax) -> int:
    """`_assert_seeds_match_reference` on a graphing context's kernel; the
    number of open pairs over all seeds."""
    got = _assert_seeds_match_reference(ctx.kernel, _kernel_ids(ctx, bases), keys, emax)
    return sum(len(a) for a, _, _, _ in got)


MULTI_SEED_KEYS = [seed_digest(66, s) for s in range(4)]


@pytest.mark.parametrize("tile", [3, 7, 200, randomness._TILE])
@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_multi_seed_open_pairs_match_the_reference_per_seed(perc_ctx, tile, monkeypatch):
    tiles = _count_tiles(monkeypatch, tile)
    bases = _seed_window(perc_ctx, MULTI_SEED_KEYS[0]).bases.tolist()
    if tile < 200:
        bases = bases[:60]
    assert _seeds_match_reference(perc_ctx, bases, MULTI_SEED_KEYS, 0.0) == 0
    assert _seeds_match_reference(perc_ctx, bases, MULTI_SEED_KEYS, 0.3) > 0
    if tile < randomness._TILE:
        assert len(tiles) > 1


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_multi_seed_open_pairs_at_certain_and_saturated_bounds(perc_ctx, monkeypatch):
    kernel = perc_ctx.kernel
    bases = _seed_window(perc_ctx, MULTI_SEED_KEYS[0]).bases.tolist()[:80]
    pairs = len(bases) * (len(bases) - 1) // 2
    saved = kernel.lut
    # emax * max(lut) >= 1: every pair opens.
    monkeypatch.setattr(kernel, "lut", np.ones_like(saved))
    for emax in (1.0, 4096.0):
        opened = _seeds_match_reference(perc_ctx, bases, MULTI_SEED_KEYS, emax)
        assert opened == len(MULTI_SEED_KEYS) * pairs
    # emax * p2 = 1 - 2**-40 for the second heaviest weight p2, and every
    # pair at the heaviest opens: k = 2**53 - 2**13, so (k - 1) >> 22 + 1
    # is 2**31 and the tile tier's head bound saturates; the float test
    # still decides.
    top = 1.0 - 2.0**-40
    assert randomness.head_limit(randomness.bits_below(top)) == np.uint64(2**64 - 1)
    monkeypatch.setattr(kernel, "lut", saved / saved[saved < saved.max()].max() * top)
    opened = _seeds_match_reference(perc_ctx, bases, MULTI_SEED_KEYS, 1.0)
    assert 0 < opened < len(MULTI_SEED_KEYS) * pairs


def test_multi_seed_cap_counts_prefilter_passes_per_seed(f2_ctx, monkeypatch):
    kernel = f2_ctx.kernel
    monkeypatch.setattr(kernel, "lut", np.ones_like(kernel.lut))
    S = _kernel_ids(f2_ctx, _seed_window(f2_ctx, MULTI_SEED_KEYS[0]).bases)
    pairs = len(S) * (len(S) - 1) // 2
    rngs = [SeededRandomness(key) for key in MULTI_SEED_KEYS]
    # Build the window neighbour lists at the default cap first: at lut = 1
    # they hold more entries than S has pairs, and are counted only when built.
    kernel.open_pairs(S, rngs[:1], 1.0)
    monkeypatch.setattr(kernel, "cap", pairs)  # every seed passes `pairs`; together 4x
    assert [len(a) for a, _, _, _ in kernel.open_pairs(S, rngs, 1.0)] == [pairs] * len(rngs)
    monkeypatch.setattr(kernel, "cap", pairs - 1)
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        kernel.open_pairs(S, rngs, 1.0)


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z2f2_ctx"], indirect=True)
def test_open_pairs_flushes_held_heads_mid_call(perc_ctx, monkeypatch):
    # emax * p2 = 1 - 2**-40 saturates the head bound, so every position of
    # a tile is held: the held heads pass `_TILE` long before the last
    # tile, and each batch is finished and refined on its own.
    kernel = perc_ctx.kernel
    saved = kernel.lut
    monkeypatch.setattr(kernel, "lut", saved / saved[saved < saved.max()].max() * (1.0 - 2.0**-40))
    monkeypatch.setattr(randomness, "_TILE", 1024)
    batches = []
    finish = randomness._passes

    def spy(held, *args):
        batches.append(sum(len(pos) for *_, pos, _ in held))
        return finish(held, *args)

    monkeypatch.setattr(randomness, "_passes", spy)
    bases = _seed_window(perc_ctx, MULTI_SEED_KEYS[0]).bases.tolist()[:80]
    pairs = len(bases) * (len(bases) - 1) // 2
    assert 0 < _seeds_match_reference(perc_ctx, bases, MULTI_SEED_KEYS, 1.0) < 4 * pairs
    # At least two batches flushed at `_TILE` held heads; only the last,
    # finished at the end, may hold fewer.
    assert sum(b >= 1024 for b in batches) >= 2 and min(batches[:-1]) >= 1024


def test_open_pairs_checks_the_cap_after_each_tile(f2_ctx, monkeypatch):
    # Every position of a tile is held (as above), so the first tile's
    # heads already bound more passes than the cap: that batch is counted
    # exactly then, and the call raises before the second tile is hashed.
    # The first tile holds 51 rows of 79 pairs, about 2,700 of them
    # passes, but fewer than `_TILE` heads for the one seed; the 80 bases
    # list at most 640 pairs at the heaviest weight.
    kernel = f2_ctx.kernel
    saved = kernel.lut
    monkeypatch.setattr(kernel, "lut", saved / saved[saved < saved.max()].max() * (1.0 - 2.0**-40))
    tiles = _count_tiles(monkeypatch, 4096)
    S = _kernel_ids(f2_ctx, _seed_window(f2_ctx, MULTI_SEED_KEYS[0]).bases)[:80]
    rngs = [SeededRandomness(MULTI_SEED_KEYS[0])]
    assert len(list(randomness._tiles(0, len(S), True))) == 2
    monkeypatch.setattr(kernel, "cap", 1000)
    with pytest.raises(ResourceCapError, match="percolation pairs exceeded"):
        kernel.open_pairs(S, rngs, 1.0)
    assert len(tiles) == 1


def _fresh_window_kernel():
    """A bare-window F2 x F2 kernel at radius 3, c = 1, whose neighbour
    lists are not built yet."""
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    return graphing.PercolationKernel(metric, 3)


WINDOW_METRICS = {
    "F2xF2-1": (F2, F2, 1),
    "F2xF2-3/2": (F2, F2, "3/2"),
    "Z2xF2-1/2": (Z2, F2, "1/2"),
}


@pytest.mark.parametrize("wr", [3, 4])
@pytest.mark.parametrize("specs", WINDOW_METRICS.values(), ids=list(WINDOW_METRICS))
def test_window_neighbour_lists_match_the_distance_tables(specs, wr):
    first, second, c = specs
    metric = ProductMetric(make_oracle(first), make_oracle(second), c)
    kernel = graphing.PercolationKernel(metric, wr)
    space = kernel.space
    D1 = space.ball1.distances(space.pts1[:, None], space.pts1)
    D2 = space.ball2.distances(space.pts2[:, None], space.pts2)
    # Small distances from the factor spheres; one past the first ball's
    # radius is read off the per-pair distances.
    for t, t2 in [(0, 1), (1, 0), (1, 1), (0, 2), (2, 1), (space.ball1.radius + 1, 0)]:
        ptr, nbr = kernel._neighbours(t, t2)
        rows, cols = np.nonzero((D1 == t) & (D2 == t2))
        assert ptr.tolist() == np.searchsorted(rows, np.arange(len(space) + 1)).tolist()
        assert nbr.tolist() == cols.tolist()


Z2_STAR_Z3 = GroupSpec(
    "free_product", factors=(GroupSpec("cyclic", order=2), GroupSpec("cyclic", order=3))
)
KERNEL_METRICS = {"F2xF2": (F2, F2, 1), "Z2xF2": (Z2, F2, "1/2"), "Z2*Z3xF2": (Z2_STAR_Z3, F2, 1)}


@pytest.mark.parametrize("specs", KERNEL_METRICS.values(), ids=list(KERNEL_METRICS))
def test_kernel_weighs_pairs_sharing_one_factor_coordinate(specs):
    # A shared coordinate is a factor pair x = y, at distance 0; a negative
    # distance there would shift rho and read another class of lut.
    first, second, c = specs
    metric = ProductMetric(make_oracle(first), make_oracle(second), c)
    kernel = graphing.PercolationKernel(metric, 3)
    space = kernel.space
    a, b = np.nonzero((space.pts1[:, None] == space.pts1) ^ (space.pts2[:, None] == space.pts2))
    a, b = np.concatenate([a, np.arange(len(space))]), np.concatenate([b, np.arange(len(space))])
    e1, e2 = space.ball1.elements, space.ball2.elements
    want = [
        metric.rho_num(
            metric.first.distance(e1[space.pts1[x]], e1[space.pts1[y]]),
            metric.second.distance(e2[space.pts2[x]], e2[space.pts2[y]]),
        )
        for x, y in zip(a.tolist(), b.tolist())
    ]
    assert _rho_nums(space, a, b).tolist() == want
    assert kernel.prob(a, b).tolist() == kernel.lut[want].tolist()
    assert min(want[: -len(space)]) > 0


def test_an_f2_kernel_at_wr_6_builds_no_square_table():
    # The F2 ball of radius 6 has 1,457 elements, so the two int32 tables the
    # kernel once built (rho1 and rho2) held 2 * 1457**2 * 4 B, about 17 MB,
    # and a cap below 1457**2 refused them.  Built, with its distance data
    # and neighbour lists in use, the kernel peaked at 3.4-3.7 MB traced.
    import tracemalloc

    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    tracemalloc.start()
    try:
        kernel = graphing.PercolationKernel(metric, 6, cap=1457**2 - 1)
        kernel.row_masses(np.arange(3))
        kernel.open_pairs(np.arange(0, len(kernel.space), 7), [SeededRandomness(1)], 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kernel.space.ball1) == len(kernel.space.ball2) == 1457
    assert peak < 8 * 2**20


def test_window_neighbour_lists_count_against_the_cap(monkeypatch):
    kernel = _fresh_window_kernel()
    ids = np.arange(len(kernel.space))
    monkeypatch.setattr(kernel, "cap", 100)
    with pytest.raises(ResourceCapError, match=r"\(window neighbour lists\)"):
        kernel.open_pairs(ids, [SeededRandomness(1)], 0.05)
    assert kernel._neighbour_lists == {}


def test_top_tier_listing_counts_against_the_cap(monkeypatch):
    kernel = _fresh_window_kernel()
    ids = np.arange(len(kernel.space))
    kernel.open_pairs(ids, [SeededRandomness(1)], 0.05)  # builds the neighbour lists
    # Over the whole window, a decomposition lists every neighbour.
    listed = max(int(ptr[-1]) for ptr, _ in kernel._neighbour_lists.values())
    monkeypatch.setattr(kernel, "cap", listed - 1)
    with pytest.raises(ResourceCapError, match=r"\(top-tier listing\)"):
        kernel.open_pairs(ids, [SeededRandomness(1)], 0.05)
    monkeypatch.setattr(kernel, "cap", listed)
    kernel._top_pairs(ids, kernel.lut.max())


F3 = GroupSpec("free", rank=3)


@pytest.fixture(scope="module", params=["F3xZ-2/3", "F2xF2-3/2"])
def window_kernel(request):
    """The baseline's kernel on a radius-3 window, built as in
    `test_pi2_and_the_baseline_are_one_percolation`.

    - F3 x Z at c = 2/3: the heaviest numerator is 3, a step of Z, and not
      the least rho numerator 2, a step of F3.
    - F2 x F2 at c = 3/2: the heaviest class is a second-factor step.
    """
    first, second, c = {
        "F3xZ-2/3": (F3, Z1, "2/3"),
        "F2xF2-3/2": (F2, F2, "3/2"),
    }[request.param]
    metric = ProductMetric(make_oracle(first), make_oracle(second), c)
    return graphing.PercolationKernel(metric, 3)


TIER_KEYS = [seed_digest(67, s) for s in range(8)]


def _top_tier_opens(kernel, emax=1.0) -> dict:
    """The window's open pairs over `TIER_KEYS` against the reference; the
    number of open pairs at weight p1 whose u is at least emax * p2, by rho
    numerator.  Those pairs fail the tile tier's prefilter, so only the top
    tier opens them."""
    p1 = kernel.lut.max()
    p2 = kernel.lut[kernel.lut < p1].max()
    ids = np.arange(len(kernel.space))
    got = _assert_seeds_match_reference(kernel, ids, TIER_KEYS, emax)
    space, out = kernel.space, {}
    for a, b, u, p in got:
        sel = (p == p1) & (u >= emax * p2)
        for n in _rho_nums(space, a, b)[sel].tolist():
            out[n] = out.get(n, 0) + 1
    return out


def test_window_tiers_match_the_reference(window_kernel):
    kernel = window_kernel
    # The heaviest class is one step of the second factor, rho numerator q.
    [heaviest] = np.flatnonzero(kernel.lut == kernel.lut.max()).tolist()
    assert heaviest == kernel.space.metric.c.denominator
    assert list(_top_tier_opens(kernel)) == [heaviest]


def test_window_tiers_with_two_classes_tied_at_the_top(window_kernel, monkeypatch):
    # The two heaviest numerators share the top weight: both are listed.
    kernel = window_kernel
    first, second = np.argsort(-kernel.lut, kind="stable")[:2].tolist()
    lut = kernel.lut.copy()
    lut[second] = lut[first]
    monkeypatch.setattr(kernel, "lut", lut)
    assert sorted(_top_tier_opens(kernel)) == sorted([first, second])


def test_percolation_eps_zero_empty(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(30, 0))
    rng = SeededRandomness(seed_digest(30, 0))
    opens = build_percolation(z_ctx, mw.bases.tolist(), rng, [0.0])
    assert _rows(opens[0.0]) == []


def _pid(space, el1, el2) -> int:
    """Point id of the element pair (el1, el2) of `space`."""
    return int(space.lookup(space.ball1.index[el1], space.ball2.index[el2]))


def test_percolation_marginal_frequency(z_ctx):
    # fixed pair open frequency ~ eps * p over many seeds (3 SE band)
    space = z_ctx.pctx.space
    a = _pid(space, (0,), (0,))
    b = _pid(space, (1,), (0,))
    eps = 0.5
    base = float(z_ctx.kernel.lut[z_ctx.metric.rho_num(1, 0)])
    seeds = 400
    hits = 0
    for s in range(seeds):
        rng = SeededRandomness(seed_digest(77, s))
        opens = build_percolation(z_ctx, [a, b], rng, [eps])
        hits += len(opens[eps])
    p = eps * base
    se = math.sqrt(p * (1 - p) / seeds)
    assert abs(hits / seeds - p) <= 3 * se + 1e-9


def test_percolation_forced_pair_always_open(z_ctx):
    space = z_ctx.pctx.space
    a = _pid(space, (0,), (0,))
    b = _pid(space, (1,), (0,))
    saved = z_ctx.kernel.lut.copy()
    z_ctx.kernel.lut[:] = 1.0
    try:
        for s in range(10):
            rng = SeededRandomness(seed_digest(78, s))
            opens = build_percolation(z_ctx, [a, b], rng, [1.0])
            assert _rows(opens[1.0]) == [(min(a, b), max(a, b))]
    finally:
        z_ctx.kernel.lut[:] = saved


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z2f2_ctx"], indirect=True)
def test_pi2_and_the_baseline_are_one_percolation(perc_ctx):
    # The baseline's kernel, over every window point, opens the same element
    # pairs among a seed's bases as Pi2 does: one percolation, two point sets.
    ctx, space = perc_ctx, perc_ctx.pctx.space
    kernel = graphing.PercolationKernel(ctx.metric, ctx.window_radius)
    window = kernel.space
    opened = 0
    for s in range(10):
        key = seed_digest(65, s)
        bases = _seed_window(ctx, key).bases.tolist()
        pi2 = build_percolation(ctx, bases, SeededRandomness(key), [0.3])[0.3]
        got = {frozenset((space.element(a), space.element(b))) for a, b in pi2}
        [(a, b, _, _)] = kernel.open_pairs(np.arange(len(window)), [SeededRandomness(key)], 0.3)
        on_bases = {space.element(pid) for pid in bases}
        want = {
            pair
            for pair in (frozenset((window.element(x), window.element(y))) for x, y in zip(a, b))
            if pair <= on_bases
        }
        assert got == want
        opened += len(got)
    assert opened > 0


def test_percolation_monotone_in_eps(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(31, 0))
    rng = SeededRandomness(seed_digest(31, 0))
    opens = build_percolation(z_ctx, mw.bases.tolist(), rng, [0.05, 0.1, 0.3])
    assert set(_rows(opens[0.05])) <= set(_rows(opens[0.1])) <= set(_rows(opens[0.3]))


def test_lifting_to_marked_copies(f2_ctx):
    mw = _seed_window(f2_ctx, seed_digest(32, 1))
    pids = mw.bases.tolist()
    copies = _copies_at(mw)
    multi = [pid for pid in pids if len(copies[pid]) >= 2]
    assert len(multi) >= 3
    pairs = [(pids[0], pids[1]), (multi[0], multi[-1]), tuple(sorted((multi[1], pids[2])))]
    lifted = lift_open_pairs(mw, np.asarray(pairs, dtype=np.int64))
    # pair by pair, the copies of the first point outer
    want = [
        (min(va, vb), max(va, vb)) for pa, pb in pairs for va in copies[pa] for vb in copies[pb]
    ]
    assert _rows(lifted) == want


# Overlap breaking -----------------------------------------------------------


def test_surviving_index_rule():
    assert surviving_index(1, 0.0) == 1
    assert surviving_index(1, 0.99) == 1
    # two copies, w = 0.9: the larger-sorted copy survives (ceil(2*0.9) = 2)
    assert surviving_index(2, 0.9) == 2
    assert surviving_index(2, 0.4) == 1
    assert surviving_index(3, 0.0) == 1
    assert surviving_index(3, 1.0) == 3


def test_mark_collision_rejects_seed(f2_ctx):
    from horolab.errors import MarkCollisionError
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(35, 0))
    multi = [pid for pid, copies in _copies_at(mw).items() if len(copies) >= 2]
    if not multi:
        pytest.skip("no overlaps in this sample")
    copies = _copies_at(mw)[multi[0]]
    k1, k2 = int(mw.v_k[copies[0]]), int(mw.v_k[copies[1]])
    mw.marks[k2] = mw.marks[k1]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, SeededRandomness(seed_digest(35, 0)))


def _overlap_window(ctx):
    """The first seed window (master seed 35) with a multiply covered point."""
    for s in range(20):
        mw = _seed_window(ctx, seed_digest(35, s))
        if any(len(copies) >= 2 for copies in _copies_at(mw).values()):
            return mw, seed_digest(35, s)
    pytest.fail("no overlapping diamonds in 20 seeds")


def test_break_overlaps_matches_scalar_labels(f2_ctx):
    from horolab.graphing import break_overlaps
    from horolab.randomness import STREAM_OVERLAP

    for s in range(3):
        key = seed_digest(36, s)
        mw = _seed_window(f2_ctx, key)
        rng = SeededRandomness(key)
        expected = np.zeros(mw.n_vertices, dtype=bool)
        pd = f2_ctx.pctx.point_digests
        for pid, copies in _copies_at(mw).items():
            ranked = sorted(copies, key=lambda vi: (mw.marks[int(mw.v_k[vi])], vi))
            w = rng.uniform(int(pd[pid]), STREAM_OVERLAP)
            expected[ranked[surviving_index(len(ranked), w) - 1]] = True
        np.testing.assert_array_equal(break_overlaps(mw, rng), expected)


def test_forced_mark_tie_at_last_overlap_raises(f2_ctx):
    from horolab.errors import MarkCollisionError
    from horolab.graphing import break_overlaps

    mw, key = _overlap_window(f2_ctx)
    last = [copies for copies in _copies_at(mw).values() if len(copies) >= 2][-1]
    mw.marks[int(mw.v_k[last[1]])] = mw.marks[int(mw.v_k[last[0]])]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, SeededRandomness(key))


def test_mark_tie_rejects_the_seed_in_a_sweep(f2_ctx, monkeypatch):
    from horolab import graphing, randomness

    def tied_window(ctx, process):
        mw = build_marked_window(ctx, process)
        for copies in _copies_at(mw).values():
            if len(copies) >= 2:
                mw.marks[int(mw.v_k[copies[1]])] = mw.marks[int(mw.v_k[copies[0]])]
        return mw

    monkeypatch.setattr(graphing, "build_marked_window", tied_window)
    rep = cost_report(f2_ctx, 3, [0.05], 0.05, 35)
    overlapping = [r for r in rep.runs if r.rejected]
    assert overlapping and rep.rejected_seeds == len(overlapping)


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "error",
    [InvariantViolation("no geodesic step"), ResourceCapError("ball enumeration", 50)],
    ids=lambda e: type(e).__name__,
)
def test_worker_failure_names_its_seed(f2_ctx, monkeypatch, threads, error):
    from horolab import graphing, randomness
    from horolab.graphing import SeedStats

    def failing_run_seed(ctx, key, eps_list, primary_eps, seed_index=0, collect=None):
        if seed_index == 3:
            raise error
        return SeedStats(seed=seed_index)

    monkeypatch.setattr(graphing, "run_seed", failing_run_seed)
    with pytest.raises(type(error), match=r"^seed 3: ") as info:
        cost_report(f2_ctx, 5, [0.05], 0.05, 1, threads=threads)
    assert str(error) in str(info.value)


@pytest.mark.parametrize("threads", [1, 2])
def test_cost_report_keeps_the_stages_of_seed_0(f2_ctx, threads):
    rep = cost_report(f2_ctx, 3, [0.05, 0.1], 0.05, 8, threads=threads)
    direct = {}
    run_seed(f2_ctx, seed_digest(8, 0), [0.05, 0.1], 0.05, collect=direct)
    stages = rep.seed0_stages
    assert direct and stages.keys() == direct.keys()
    for name in direct:
        if name == "marked_window":
            assert stages[name].v_pid.tolist() == direct[name].v_pid.tolist()
            assert stages[name].v_k.tolist() == direct[name].v_k.tolist()
        else:
            assert stages[name].dtype == direct[name].dtype, name
            assert stages[name].tolist() == direct[name].tolist(), name


def test_s0_projects_bijectively(f2_ctx):
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(33, 0))
    rng = SeededRandomness(seed_digest(33, 0))
    keep = break_overlaps(mw, rng)
    kept_pids = [int(mw.v_pid[vi]) for vi in np.flatnonzero(keep)]
    assert len(kept_pids) == len(set(kept_pids)) == len(mw.bases)


# phi / psi / Pi4 / Pi5 ------------------------------------------------------


def _fake_mw(n, pids):
    return SimpleNamespace(n_vertices=n, v_pid=np.asarray(pids, dtype=np.int64))


def _edges(pairs):
    return np.asarray(pairs, dtype=np.int64).reshape(-1, 2)


def test_phi_prefers_smaller_w1_on_ties():
    # path graph 0-1-2; sources 0 and 2 equidistant from 1
    dist, phi = assign_phi(3, _edges([(0, 1), (1, 2)]), np.array([0, 2]), np.array([0.9, 0.5, 0.1]))
    assert dist.tolist() == [0, 1, 0]
    assert phi.tolist() == [0, 2, 2]  # w1[2] = 0.1 < w1[0] = 0.9


def test_pi45_all_sources_identity():
    # S'_0 = S': phi is the identity, F empty, Pi4 = Pi3 between distinct
    edges = [(0, 1), (1, 2), (2, 3)]
    mw = _fake_mw(4, [10, 11, 12, 13])
    out = build_forest_and_pi45(mw, _edges(edges), np.ones(4, bool), np.array([0.1, 0.2, 0.3, 0.4]))
    assert _rows(out["f_edges"]) == []
    assert _rows(out["pi4"]) == edges
    assert _rows(out["pi5"]) == [(10, 11), (11, 12), (12, 13)]


def test_pi45_single_source_component():
    mw = _fake_mw(3, [10, 11, 12])
    out = build_forest_and_pi45(
        mw, _edges([(0, 1), (1, 2)]), np.array([False, True, False]), np.full(3, 0.5)
    )
    assert _rows(out["pi4"]) == []
    assert _rows(out["pi5"]) == []
    assert sorted(_rows(out["f_edges"])) == [(0, 1), (2, 1)]


def test_pi45_flagged_component():
    # component {3,4} has no source: flagged, excluded
    mw = _fake_mw(5, [10, 11, 12, 13, 14])
    s0 = np.array([True, False, True, False, False])
    out = build_forest_and_pi45(mw, _edges([(0, 1), (3, 4)]), s0, np.full(5, 0.1))
    assert set(np.flatnonzero(out["dist"] < 0).tolist()) == {3, 4}
    assert _rows(out["f_edges"]) == [(1, 0)]


def test_pi5_connected_joins_the_sources_of_each_component():
    # Pi3 components {0, 1, 2} (sources 0 and 2) and {3} (source 3)
    edges = _edges([(0, 1), (1, 2)])
    mw = _fake_mw(4, [10, 11, 12, 13])
    s0 = np.array([True, False, True, True])
    out = build_forest_and_pi45(mw, edges, s0, np.array([0.1, 0.2, 0.3, 0.4]))
    assert _rows(out["pi4"]) == [(0, 2)]
    roots = _component_roots(4, edges)
    assert _pi5_connected(roots, out)
    assert not _pi5_connected(roots, {**out, "pi4": _edges([])})


def test_forest_accounting_matches_deleted_points(f2_ctx):
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(34, 0))
    pi1 = build_pi1(mw)
    rng = SeededRandomness(seed_digest(34, 0))
    edges = pi3_edges(pi1, _edges([]))
    keep = break_overlaps(mw, rng)
    w1 = rng.uniforms(f2_ctx.pctx.point_digests[mw.v_pid], "w1:percolation")
    out = build_forest_and_pi45(mw, edges, keep, w1)
    flagged = set(np.flatnonzero(out["dist"] < 0).tolist())
    deleted_covered = [
        v for v in range(mw.n_vertices) if not keep[v] and v not in flagged
    ]
    # sum d+ = sum d- = number of deleted (covered) marked points
    assert len(out["f_edges"]) == len(deleted_covered)


def test_a_phi_without_a_geodesic_step_raises(monkeypatch):
    # path 0-1-2 with source 0; phi sends 2 to a vertex its neighbour does
    # not reach, so 2 has no step toward its target
    def broken_phi(n, edges, sources, w1):
        return np.array([0, 1, 2]), np.array([0, 0, 2])

    monkeypatch.setattr(graphing, "assign_phi", broken_phi)
    mw = _fake_mw(3, [10, 11, 12])
    with pytest.raises(InvariantViolation, match="no geodesic step toward the phi target"):
        build_forest_and_pi45(
            mw, _edges([(0, 1), (1, 2)]), np.array([True, False, False]), np.full(3, 0.5)
        )


def _adjacency_reference(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _phi_reference(n: int, adj, sources, w1) -> tuple:
    """Reference for `assign_phi`, over adjacency lists: (dist, best) with
    best[v] = (w1, source), None where unreached."""
    dist = [-1] * n
    best = [None] * n
    layer = sorted(sources)
    for v in layer:
        dist[v] = 0
        best[v] = (w1[v], v)
    d = 0
    while layer:
        nxt = []
        for v in layer:
            for u in adj[v]:
                if dist[u] == -1:
                    dist[u] = d + 1
                    nxt.append(u)
        for u in nxt:
            best[u] = min(best[x] for x in adj[u] if dist[x] == d)
        layer = sorted(nxt)
        d += 1
    return dist, best


def _forest_and_pi45_reference(mw, edges, s0_mask, w1) -> dict:
    """Reference for `build_forest_and_pi45`, vertex by vertex and edge by
    edge over lists of pairs."""
    n = mw.n_vertices
    adj = _adjacency_reference(n, edges)
    dist, best = _phi_reference(n, adj, [v for v in range(n) if s0_mask[v]], w1)
    f_edges = []
    for v in range(n):
        if dist[v] <= 0:
            continue
        eligible = [u for u in adj[v] if dist[u] == dist[v] - 1 and best[u] == best[v]]
        if not eligible:
            raise InvariantViolation("no geodesic step toward the phi target")
        f_edges.append((v, min(eligible, key=lambda u: (w1[u], u))))
    pi4 = set()
    for a, b in edges:
        if dist[a] == -1 or dist[b] == -1:
            continue
        sa, sb = best[a][1], best[b][1]
        if sa != sb:
            pi4.add((min(sa, sb), max(sa, sb)))
    pi5 = set()
    for sa, sb in pi4:
        pa, pb = int(mw.v_pid[sa]), int(mw.v_pid[sb])
        if pa != pb:
            pi5.add((min(pa, pb), max(pa, pb)))
    phi = [-1 if b is None else b[1] for b in best]
    return {"dist": dist, "phi": phi, "f_edges": f_edges, "pi4": sorted(pi4), "pi5": sorted(pi5)}


@st.composite
def _phi_inputs(draw):
    """A Pi3-shaped graph (edges (a, b), a < b, sorted and unique) on up to
    30 vertices that are copies of up to 10 points; copies of one point
    share its w1 label, and few vertices are sources, so some components
    have none."""
    n = draw(st.integers(1, 30))
    points = draw(st.integers(1, 10))
    v_pid = draw(st.lists(st.integers(0, points - 1), min_size=n, max_size=n))
    label = st.one_of(st.sampled_from([0.25, 0.5]), st.floats(0, 1, exclude_max=True))
    labels = draw(st.lists(label, min_size=points, max_size=points))
    vertex = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(vertex, vertex), min_size=n, max_size=3 * n))
    edges = sorted({(min(a, b), max(a, b)) for a, b in pairs if a != b})
    s0 = draw(st.lists(st.sampled_from([False, False, False, True]), min_size=n, max_size=n))
    return v_pid, [labels[p] for p in v_pid], edges, s0


@settings(max_examples=200, deadline=None)
@given(_phi_inputs())
def test_array_phi_and_pi45_match_the_list_reference(inputs):
    v_pid, w1, edges, s0 = inputs
    mw = _fake_mw(len(v_pid), v_pid)
    want = _forest_and_pi45_reference(mw, edges, s0, w1)
    w1, s0 = np.asarray(w1), np.asarray(s0)
    dist, phi = assign_phi(len(v_pid), _edges(edges), np.flatnonzero(s0), w1)
    assert (dist.tolist(), phi.tolist()) == (want["dist"], want["phi"])
    got = build_forest_and_pi45(mw, _edges(edges), s0, w1)
    assert got["dist"].tolist() == want["dist"]
    for name in ("f_edges", "pi4", "pi5"):
        assert _rows(got[name]) == want[name], name


# Full pipeline and reports --------------------------------------------------


def test_mass_transport_deficit_bounded(z_ctx):
    # |sum interior in-deg - sum interior out-deg| is a boundary effect:
    # bounded by the band outside the interior plus the interior shell
    for s in range(4):
        mw = _seed_window(z_ctx, seed_digest(50, s))
        if mw.n_vertices == 0:
            continue
        pi1 = build_pi1(mw)
        interior = np.flatnonzero(mw.v_interior)
        out_deg = (pi1.target >= 0).astype(int)
        in_deg = np.zeros(mw.n_vertices, dtype=int)
        np.add.at(in_deg, pi1.target[pi1.target >= 0], 1)
        deficit = abs(int(in_deg[interior].sum()) - int(out_deg[interior].sum()))
        band = mw.n_vertices - len(interior)
        den = z_ctx.metric.c.numerator
        shell = int(
            (z_ctx.pctx.space.rho_num[mw.v_pid[interior]] > (z_ctx.interior_radius - 1) * den).sum()
        )
        assert deficit <= band + shell


def test_run_seed_stats_zxz(z_ctx):
    st = run_seed(z_ctx, seed_digest(40, 0), [0.05, 0.2], 0.05)
    assert st.pi1_interior_violations == 0
    assert st.parallel_violations == 0
    assert st.monotone_ok
    assert st.pi5_connected_ok
    if st.pi5_checked:
        assert st.pi5_ok
    assert st.half_deg_pi1 == pytest.approx(1.0)
    assert st.half_deg_pi3 >= 1.0


def test_excluded_fraction_counts_the_diamonds_that_meet_the_window(f2_ctx):
    rep = cost_report(f2_ctx, 6, [0.05], 0.05, 17)
    runs = [r for r in rep.runs if not r.rejected]
    diamonds = sum(r.diamonds for r in runs)
    assert diamonds > 0
    assert rep.excluded_diamond_fraction == sum(r.excluded for r in runs) / diamonds
    for s in range(6):
        proc = sample_diamond_process(f2_ctx.pctx, seed_digest(17, s))
        assert all(len(d.member_ids) for d in proc.diamonds)


def test_cost_report_zxz(z_ctx):
    rep = cost_report(z_ctx, 20, [0.05, 0.2], 0.05, 314)
    assert rep.pi1_interior_violations == 0
    assert rep.pi5_violations == 0
    assert rep.monotone_violations == 0
    fr = [rep.largest_fraction_by_eps[e] for e in sorted(rep.largest_fraction_by_eps)]
    assert fr[0] <= fr[1] + 1e-12
    st = {s["stage"]: s for s in rep.stages}
    assert st["pi1"]["half_degree_mean"] == pytest.approx(1.0)
    assert 1.0 <= st["pi3"]["half_degree_mean"] <= 1.0 + 0.05


def test_cost_report_threads_deterministic(z_ctx):
    a = cost_report(z_ctx, 6, [0.05], 0.05, 11, threads=1)
    b = cost_report(z_ctx, 6, [0.05], 0.05, 11, threads=2)
    np.testing.assert_array_equal(
        [r.half_deg_pi3 for r in a.runs], [r.half_deg_pi3 for r in b.runs]
    )
    np.testing.assert_array_equal(
        [r.lambda_hat for r in a.runs], [r.lambda_hat for r in b.runs]
    )


def test_run_seed_collect_stages(z_ctx):
    collect = {}
    run_seed(z_ctx, seed_digest(41, 0), [0.05], 0.05, collect=collect)
    assert {"pi1", "pi3", "pi4", "pi5", "f_edges"} <= set(collect)
    assert len(collect["pi3"]) >= len(collect["pi1"])


class UnionFind:
    """Reference labeller: union by least root, path compression."""

    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)


@st.composite
def _graphs(draw):
    """Up to 40 vertices and up to 80 edges, some of them repeated."""
    n = draw(st.integers(0, 40))
    vertex = st.integers(0, max(n - 1, 0))
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=70)) if n else []
    repeats = draw(st.lists(st.sampled_from(edges), max_size=10)) if edges else []
    return n, edges + repeats


@settings(max_examples=200, deadline=None)
@given(_graphs())
def test_component_roots_are_the_least_vertex_of_each_component(graph):
    n, edges = graph
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    got = _component_roots(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
    assert got.tolist() == [uf.find(v) for v in range(n)]


def test_vertex_of_inverts_the_vertex_table(f2_ctx):
    mw, _ = _overlap_window(f2_ctx)
    vi = np.arange(mw.n_vertices)
    assert (mw.vertex_of(mw.v_pid, mw.v_k) == vi).all()
    assert (mw.vertex_of(np.full(mw.n_vertices, -1), mw.v_k) == -1).all()
    # a pid of the window that diamond k does not cover maps to -1
    cov = f2_ctx.pctx.covering
    for k, center in enumerate(mw.centers[:20].tolist()):
        members = cov.members_of(int(np.searchsorted(cov.centers, center)))
        outside = np.setdiff1d(mw.bases, members)[:5]
        assert (mw.vertex_of(outside, np.full(len(outside), k)) == -1).all()
        inside = mw.vertex_of(members, np.full(len(members), k))
        assert (mw.v_pid[inside] == members).all() and (mw.v_k[inside] == k).all()


LADDER_EPS = [0.0, 0.01, 0.05, 0.3, 1.0]


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_ladder_labels_each_eps_as_its_own_pi3(perc_ctx):
    # Every epsilon's labels and largest fraction are those of its own Pi3
    # edge array, in rising epsilon, and no fraction drops; some positive
    # epsilon opens nothing, and some lifted pair joins two Pi1 trees.
    empty = joined = 0
    for s in range(12):
        key = seed_digest(68, s)
        mw = _seed_window(perc_ctx, key)
        if mw.n_vertices == 0:
            continue
        pi1 = build_pi1(mw)
        forest = _component_roots(mw.n_vertices, graphing.pi1_edges(pi1))
        opens = build_percolation(perc_ctx, mw.bases, SeededRandomness(key), LADDER_EPS)
        lifts = {e: lift_open_pairs(mw, pairs) for e, pairs in opens.items()}
        roots, fractions, drops = graphing._ladder(forest, lifts)
        assert list(roots) == list(fractions) == sorted(opens)
        assert drops == 0
        for e, pairs in opens.items():
            want = _component_roots(mw.n_vertices, pi3_edges(pi1, lifts[e]))
            assert roots[e].tolist() == want.tolist()
            assert fractions[e] == largest_component_fraction(want)
            ends = forest[lifts[e]]
            empty += e > 0 and len(pairs) == 0
            joined += bool((ends[:, 0] != ends[:, 1]).any())
    assert empty > 0 and joined > 0


@pytest.mark.parametrize(
    "keys",
    [
        np.zeros(0, dtype=np.int64),
        np.array([7], dtype=np.int64),
        np.full(9, 5, dtype=np.int64),
        np.array([2**40 + 3, 2**32, 5, 2**32, 2**62, 5, 2**32 - 1], dtype=np.int64),
        np.array([[3, 1], [3, 2**33]], dtype=np.int64),
        np.random.default_rng(5).integers(0, 50, 300).astype(np.int64) << 33,
    ],
    ids=["empty", "one", "all-equal", "past-2**32", "2d", "many-duplicates"],
)
def test_distinct_is_np_unique(keys):
    got, want = graphing._distinct(keys), np.unique(keys)
    assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_largest_component_fraction():
    assert largest_component_fraction(_component_roots(4, [(0, 1), (2, 3)])) == 0.5
    assert largest_component_fraction(_component_roots(3, [(0, 1), (1, 2)])) == 1.0
    assert largest_component_fraction([0, 0, 2, 3]) == 0.5
    assert largest_component_fraction(_component_roots(0, [])) == 0.0
    assert largest_component_fraction([]) == 0.0


# Baseline -------------------------------------------------------------------


def test_baseline_eps_zero_lines():
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    rep = coset_line_baseline(metric, 3, 1, [0.0], 3, 5)
    assert rep.line_partition_ok
    row = rep.rows[0]
    assert row.half_degree_mean == pytest.approx(1.0)
    assert row.expected_half_degree == 1.0


def test_baseline_monotone_and_expected_half():
    metric = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    rep = coset_line_baseline(metric, 5, 2, [0.0, 0.1, 0.3], 30, 17)
    assert rep.monotone_violations == 0
    fr = [r.largest_fraction_mean for r in rep.rows]
    assert fr[0] <= fr[1] <= fr[2]
    for r in rep.rows:
        se = max(r.half_degree_se, 1e-6)
        assert abs(r.half_degree_mean - r.expected_half_degree) <= 4 * se


@pytest.mark.parametrize("specs", [(F2, F2, 1), (Z2, F2, "1/2")], ids=["f2xf2", "z2xf2"])
def test_baseline_row_masses_match_add_at(specs):
    first, second, c = specs
    metric = ProductMetric(make_oracle(first), make_oracle(second), c)
    kernel = graphing.PercolationKernel(metric, 3)
    n = len(kernel.space)
    ia, ib = np.triu_indices(n, 1)
    p = kernel.lut[_rho_nums(kernel.space, ia, ib)]
    want = np.zeros(n, dtype=np.float64)
    np.add.at(want, ia, p)
    np.add.at(want, ib, p)
    rows = np.arange(n)
    assert kernel.row_masses(rows).tobytes() == want.tobytes()
    for step in (1, 5):
        got = np.concatenate([kernel.row_masses(rows[r : r + step]) for r in range(0, n, step)])
        assert got.tobytes() == want.tobytes()


def test_baseline_pairs_count_against_the_cap(monkeypatch):
    class CertainKernel(graphing.PercolationKernel):
        def __init__(self, *args):
            super().__init__(*args)
            self.lut[:] = 1.0

    monkeypatch.setattr(graphing, "PercolationKernel", CertainKernel)
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    window = len(ProductSpace(metric, 3))  # 217 points, 23,436 pairs
    rep = coset_line_baseline(metric, 3, 1, [0.0, 1.0], 1, 5, cap=window**2)
    assert rep.rows[1].largest_fraction_mean == 1.0
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        coset_line_baseline(metric, 3, 1, [0.0, 1.0], 1, 5, cap=5000)


def test_baseline_peak_memory_stays_small():
    # wr 5 has 3,241 window points and 5.25M pairs; materialising them all
    # peaked at about 400 MB traced.  All 20 seeds share one pass over the
    # tiles, and each tile keeps only its open pairs: holding every seed's
    # ~65,600 prefilter passes to the end would add about 21 MB.
    import tracemalloc

    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    tracemalloc.start()
    try:
        coset_line_baseline(metric, 5, 2, [0.0, 0.05, 0.2], 20, 20260810)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_both_sweeps_count_the_seeds_whose_fraction_drops(f2_ctx, monkeypatch):
    # Every fraction read falls below the one before, so each seed's ladder
    # of three epsilons drops twice, and each seed counts once.
    falling = itertools.count()
    monkeypatch.setattr(graphing, "largest_component_fraction", lambda roots: -next(falling))
    rep = cost_report(f2_ctx, 4, [0.01, 0.05, 0.2], 0.05, 35)
    assert all(r.vertices and not r.rejected for r in rep.runs)
    assert rep.monotone_violations == 4
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    assert coset_line_baseline(metric, 3, 1, [0.0, 0.05, 0.2], 4, 5).monotone_violations == 4


def test_baseline_takes_a_repeated_eps_once():
    # Each seed enters a repeated epsilon's row once, so its standard
    # errors are those of the seeds.
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    once = coset_line_baseline(metric, 4, 2, [0.0, 0.05], 8, 20260810)
    assert coset_line_baseline(metric, 4, 2, [0.0, 0.05, 0.05], 8, 20260810) == once
    assert once.rows[1].half_degree_se > 0


def test_baseline_needs_infinite_order_generator():
    from horolab.errors import InputError

    spec = GroupSpec("cyclic", order=4)
    metric = ProductMetric(make_oracle(spec), make_oracle(spec), 1)
    with pytest.raises(InputError):
        coset_line_baseline(metric, 2, 1, [0.0], 2, 1)
