import ast
import dataclasses
import functools
import itertools
import math
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horolab import graphing
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
    run_seeds,
    surviving_index,
)
from horolab.diamonds import in_diamond
from horolab.errors import InputError, InvariantViolation, ResourceCapError
from horolab.groups import GroupSpec, ball, growth_series, make_oracle
from horolab.horoboundary import HorofunctionSteps
from horolab.point_process import ProcessContext, point_digests, sample_diamond_process
from horolab.product import ProductMetric, ProductSpace
from horolab.randomness import (
    STREAM_OVERLAP,
    STREAM_PERCOLATION,
    SeededRandomness,
    combine_digests,
    seed_digest,
    to_uniforms,
)
from horolab.schedule import build_schedule, linear_schedule, schedule_for

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
def f2f3_ctx():
    """F2 x F3 at c = 2/3: an unequal pair, wr 3 and margin 1."""
    metric = ProductMetric(make_oracle(F2), make_oracle(GroupSpec("free", rank=3)), "2/3")
    return GraphingContext(metric, schedule_for(F2, metric.second.spec, "2/3", 12), 2, 3, 1)


@pytest.fixture(scope="module")
def z2f2_ctx():
    metric = ProductMetric(make_oracle(Z2), make_oracle(F2), "1/2")
    sched = linear_schedule(
        "1/2", 12, growth=growth_series(Z2, 14), growth2=growth_series(F2, 14)
    )
    return GraphingContext(metric, sched, 2, 5, 2)


# Percolation kernel ---------------------------------------------------------


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_window_points_have_the_kernel_window_ids(perc_ctx):
    # The process context is built on the kernel's window W: window point k
    # is W+ point window_ids[k], and the covering map lists W ids.
    pctx = perc_ctx.pctx
    assert pctx.window is perc_ctx.kernel.space
    assert np.array_equal(pctx.space.keys[pctx.window_ids], pctx.window.keys)
    members = pctx.covering.members
    assert members.min() == 0 and members.max() == len(pctx.window) - 1


def test_kernel_total_mass_and_truncation(f2_ctx):
    k = f2_ctx.kernel
    enumerated = sum(Fraction(1, 2 ** (j + 1)) for j in range(len(k.nums)))
    assert enumerated + k.truncation_mass == 1
    assert all(k.lut[num] > 0 for num in k.nums)


def test_kernel_counts_match_sphere_sums(f2_ctx):
    g = growth_series(F2, 10)
    kernel = f2_ctx.kernel
    for num in kernel.nums[:6]:
        # c = 1: annulus at integer radius `num` has count sum s_t s'_{num-t}
        expected = sum(g.spheres[t] * g.spheres[num - t] for t in range(num + 1))
        assert kernel.counts[num] == expected


def test_kernel_reads_spheres_past_the_schedule_horizon(f2_ctx):
    # The schedule's growth series stop at radius 6; the wr-4 kernel reads
    # spheres out to the window's diameter, 8.
    g = growth_series(F2, 6)
    ctx = GraphingContext(f2_ctx.metric, linear_schedule(1, 6, growth=g, growth2=g), 2, 4, 2)
    k, want = ctx.kernel, f2_ctx.kernel
    assert k.nums == want.nums and k.counts == want.counts
    assert k.lut[k.nums].tolist() == want.lut[want.nums].tolist()
    assert k.truncation_mass == want.truncation_mass


def test_kernel_invariance(f2_ctx):
    # p depends only on the rho distance, hence invariant and symmetric
    kernel, space = f2_ctx.kernel, f2_ctx.kernel.space
    assert kernel.lut[0] == 0.0
    ids = np.arange(0, len(space), 7)
    p = kernel.prob(ids[:, None], ids[None, :])
    assert (p == p.T).all() and (np.diag(p) == 0.0).all()
    # c = 1, so a pair's rho numerator is its rho distance
    rho = [[f2_ctx.metric.rho(space.element(a), space.element(b)) for b in ids] for a in ids]
    assert (kernel.lut[np.asarray(rho, dtype=np.int64)] == p).all()


# Pi1 descent forest ---------------------------------------------------------


def _seed_window(ctx, key):
    proc = sample_diamond_process(ctx.pctx, key)
    return build_marked_window(ctx, [proc])


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
    space, window = f2_ctx.pctx.space, f2_ctx.kernel.space
    for vi, tv in enumerate(pi1.target.tolist()):
        if tv < 0:
            continue
        assert mw.v_k[vi] == mw.v_k[tv]  # same diamond, same mark
        assert window.pts2[mw.v_pid[vi]] == window.pts2[mw.v_pid[tv]]  # horizontal
        center, point = space.element(int(mw.centers[mw.v_k[vi]])), window.element(int(mw.v_pid[tv]))
        assert in_diamond(f2_ctx.metric, f2_ctx.schedule, f2_ctx.n, center, point)


def test_pi1_lattice_rays(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(23, 1))
    pi1 = build_pi1(mw)
    assert pi1.interior_violations == 0
    # every interior vertex descends one first-coordinate step
    interior = np.flatnonzero(mw.v_interior)
    space = z_ctx.kernel.space
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
    space = mw.ctx.kernel.space
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
    # (`HorofunctionSteps`), also on the free f2_ctx, whose `tau` is the
    # closed form; z_ctx and z2f2_ctx have a lattice first factor.
    ctx, space, window = perc_ctx, perc_ctx.pctx.space, perc_ctx.kernel.space
    steps = HorofunctionSteps(space.ball1)
    tau = graphing.GraphingContext.tau
    calls = []

    def counted_tau(self, center_fi, y_fi):
        calls.append(list(zip(center_fi.tolist(), y_fi.tolist())))
        return tau(self, center_fi, y_fi)

    monkeypatch.setattr(graphing.GraphingContext, "tau", counted_tau)
    descend = functools.lru_cache(maxsize=None)(lambda c, y: int(steps(np.array([c]), np.array([y]))[0]))
    for s in range(3):
        mw = _seed_window(ctx, seed_digest(26, s))
        calls.clear()
        target = build_pi1(mw).target.tolist()
        vertex = {(int(pid), int(k)): vi for vi, (pid, k) in enumerate(zip(mw.v_pid, mw.v_k))}
        pairs, want = set(), []
        for vi in range(mw.n_vertices):
            pid, k = int(mw.v_pid[vi]), int(mw.v_k[vi])
            pair = (int(space.pts1[mw.centers[k]]), int(window.pts1[pid]))
            pairs.add(pair)
            tfi = descend(*pair)
            el1 = space.ball1.elements[tfi] if tfi >= 0 else None
            el2 = window.element(pid)[1]
            tpid = _pid(window, el1, el2) if el1 in window.ball1.index else -1
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
    want = HorofunctionSteps(f2_ctx.pctx.space.ball1)(c, y)
    assert f2_ctx.tau(c, y).tolist() == want.tolist()


def test_graphing_leaves_the_descent_rule_to_horoboundary():
    # Pi1's descent step has one owner, `horoboundary.ray_steps`: graphing
    # names none of the rays, horofunctions or spellings it is made of.
    path = Path(graphing.__file__)
    offenders = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name.rsplit(".", 1)[-1] for alias in node.names]
        else:
            names = [getattr(node, "id", None) or getattr(node, "attr", None)]
        for name in {"GeodesicRay", "Horofunction", "spell"}.intersection(names):
            offenders.append(f"graphing.py:{node.lineno} names {name}")
    assert offenders == []


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
    `space`, from each factor ball's `Oracle.distances`."""
    c = space.metric.c
    d1, d2 = (fb.oracle.distances(fb.elements) for fb in (space.ball1, space.ball2))
    return d1(space.pts1[a], space.pts1[b]) * c.numerator + d2(space.pts2[a], space.pts2[b]) * c.denominator


@functools.lru_cache(maxsize=None)
def _sphere(oracle, t) -> list:
    """The sphere of radius t of `oracle`, in `groups.ball`'s BFS order."""
    return [el for el, d in ball(oracle, t) if d == t]


def _per_rank_reference(kernel, ids, rng, emax) -> tuple:
    """Reference for one seed of `open_pairs`, from its definition: for
    each x of the window ids `ids` and each class j, walk the open ranks of
    sphere_j gap by gap, unrank each through `groups.ball`'s BFS spheres
    (steps (t, t2) by rising t, the S_t rank major), and keep the pair when
    y is in `ids` and digest(x) < digest(y).  Returns the sorted rows
    (a, b, u, p) and the open ranks, as (x, t, t2, s1's rank, s2's rank)."""
    space, metric = kernel.space, kernel.space.metric
    first, second = metric.first, metric.second
    cp, cq = metric.c.numerator, metric.c.denominator
    top = metric.radius_num(2 * space.radius)
    classes = {}
    for t in range(top // cp + 1):
        for t2 in range((top - t * cp) // cq + 1):
            size = len(_sphere(first, t)) * len(_sphere(second, t2))
            if (t or t2) and size:
                classes.setdefault(metric.rho_num(t, t2), []).append((t, t2, size))
    member = {int(i) for i in ids}
    digests = [int(d) for d in kernel.digests]
    rows, opened = [], []
    for x in sorted(member):
        x1, x2 = space.element(x)
        for j, num in enumerate(sorted(classes)):
            p = float(kernel.lut[num])
            q = min(1.0, float(emax) * p)
            if q <= 0.0:
                continue
            key = combine_digests(digests[x], j)
            rank, gap = -1, 0
            while True:
                w = float(rng.uniforms(combine_digests(key, 2 * gap), STREAM_PERCOLATION))
                rank += 1 + (0 if q == 1.0 else int(np.floor(np.log1p(-w) / np.log1p(-q))))
                r = rank
                for t, t2, size in classes[num]:
                    if r < size:
                        break
                    r -= size
                else:
                    break
                s1, s2 = divmod(r, len(_sphere(second, t2)))
                opened.append((x, t, t2, s1, s2))
                y1 = space.ball1.index.get(first.multiply(x1, _sphere(first, t)[s1]), -1)
                y2 = space.ball2.index.get(second.multiply(x2, _sphere(second, t2)[s2]), -1)
                y = int(space.lookup(y1, y2))
                if y in member and digests[x] < digests[y]:
                    v = float(rng.uniforms(combine_digests(key, 2 * gap + 1), STREAM_PERCOLATION))
                    rows.append((min(x, y), max(x, y), v * q, p))
                gap += 1
    return sorted(rows), opened


def _reference_at(kernel, ids, rng, eps_list) -> dict:
    """epsilon -> the reference's pairs (a, b) with u < epsilon * p."""
    rows, _ = _per_rank_reference(kernel, ids, rng, max(eps_list))
    return {float(e): [(a, b) for a, b, u, p in rows if u < float(e) * p] for e in eps_list}


PERC_EPS = [0.0, 0.05, 0.3, 1.0]


def _rows(pairs) -> list:
    """The rows of an (m, 2) int64 edge array as tuples."""
    assert pairs.dtype == np.int64 and pairs.ndim == 2 and pairs.shape[1] == 2
    return [tuple(row) for row in pairs.tolist()]


def _assert_matches_reference(ctx, bases, key, eps_list=PERC_EPS):
    got = build_percolation(ctx, bases, SeededRandomness(key), eps_list)
    got = {e: _rows(pairs) for e, pairs in got.items()}
    assert got == _reference_at(ctx.kernel, bases, SeededRandomness(key), eps_list)
    return got


@pytest.fixture
def perc_ctx(request):
    return request.getfixturevalue(request.param)


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_percolation_matches_the_per_rank_reference(perc_ctx):
    opened = 0
    for s in range(20):
        key = seed_digest(60, s)
        bases = _seed_window(perc_ctx, key).bases.tolist()
        opened += len(_assert_matches_reference(perc_ctx, bases, key)[0.3])
    assert opened > 0


Z2_STAR_Z3 = GroupSpec(
    "free_product", factors=(GroupSpec("cyclic", order=2), GroupSpec("cyclic", order=3))
)
SMALL_METRICS = {
    "F2xF2": (F2, F2, 1),
    "ZxZ": (Z1, Z1, 1),
    "Z2xF2": (Z2, F2, "1/2"),
    "Z2*Z3xF2": (Z2_STAR_Z3, F2, 1),
}
SMALL = [(name, wr) for wr in (2, 3) for name in SMALL_METRICS]


@functools.lru_cache(maxsize=None)
def _small_kernel(name, wr):
    first, second, c = SMALL_METRICS[name]
    return graphing.PercolationKernel(ProductMetric(make_oracle(first), make_oracle(second), c), wr)


@pytest.fixture(params=SMALL, ids=[f"{name}-{wr}" for name, wr in SMALL])
def small_kernel(request):
    """The kernel of a wr-2 or wr-3 window of a small family."""
    return _small_kernel(*request.param)


@pytest.fixture(params=list(SMALL_METRICS))
def certain_kernel(request, monkeypatch):
    """The wr-2 kernel of a small family with p = 1 at every class: there
    q = 1 enumerates every rank of every sphere, all of them bounded."""
    kernel = _small_kernel(request.param, 2)
    monkeypatch.setattr(kernel, "lut", np.ones_like(kernel.lut))
    return kernel


def _assert_seeds_match_reference(kernel, base_ids, keys, emax) -> list:
    """One multi-seed `open_pairs` call over the kernel's window ids
    `base_ids` against the per-rank reference of each seed: the same rows
    (a, b, u, p), in the same order.  Returns the call's rows."""
    S = np.sort(np.asarray(base_ids, dtype=np.int64))
    got = kernel.open_pairs([S] * len(keys), [SeededRandomness(key) for key in keys], emax)
    assert len(got) == len(keys)
    for key, (a, b, u, p) in zip(keys, got):
        assert a.dtype == b.dtype == np.int64 and u.dtype == p.dtype == np.float64
        want, _ = _per_rank_reference(kernel, S, SeededRandomness(key), emax)
        assert list(zip(a.tolist(), b.tolist(), u.tolist(), p.tolist())) == want
        assert (u < emax * p).all() and len(set(zip(a.tolist(), b.tolist()))) == len(a)
    return got


MULTI_SEED_KEYS = [seed_digest(66, s) for s in range(4)]


def test_one_seed_of_a_small_window_matches_the_per_rank_reference(small_kernel):
    ids = np.arange(len(small_kernel.space))
    [(a, _, _, _)] = _assert_seeds_match_reference(small_kernel, ids, MULTI_SEED_KEYS[:1], 1.0)
    assert len(a) > 0


def test_many_seeds_of_a_small_window_match_the_per_rank_reference(small_kernel):
    ids = np.arange(0, len(small_kernel.space), 2)
    closed = _assert_seeds_match_reference(small_kernel, ids, MULTI_SEED_KEYS, 0.0)
    assert sum(len(a) for a, _, _, _ in closed) == 0
    opened = _assert_seeds_match_reference(small_kernel, ids, MULTI_SEED_KEYS, 1.0)
    assert sum(len(a) for a, _, _, _ in opened) > 0


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "z2f2_ctx"], indirect=True)
def test_multi_seed_open_pairs_match_the_reference_per_seed(perc_ctx):
    bases = _seed_window(perc_ctx, MULTI_SEED_KEYS[0]).bases.tolist()
    got = _assert_seeds_match_reference(perc_ctx.kernel, bases, MULTI_SEED_KEYS, 0.0)
    assert sum(len(a) for a, _, _, _ in got) == 0
    got = _assert_seeds_match_reference(perc_ctx.kernel, bases, MULTI_SEED_KEYS, 0.3)
    assert sum(len(a) for a, _, _, _ in got) > 0


def test_percolation_clamps_at_certain_opening(certain_kernel):
    # p = 1 everywhere: eps >= 1 opens every pair (4096 * p, clamped to q
    # = 1, as at eps 1), eps = 0 none.
    kernel = certain_kernel
    ids = np.arange(0, len(kernel.space), 3)
    [opened] = kernel.open_pairs([ids], [SeededRandomness(seed_digest(62, 0))], 4096.0)
    [again] = _assert_seeds_match_reference(kernel, ids, [seed_digest(62, 0)], 1.0)
    assert all(x.tobytes() == y.tobytes() for x, y in zip(opened, again))
    got = {e: _rows(pairs) for e, pairs in graphing._open_at(opened, [0.0, 1.0, 4096.0]).items()}
    every = [(a, b) for a in ids.tolist() for b in ids.tolist() if a < b]
    assert got[0.0] == [] and got[1.0] == got[4096.0] == every


def test_a_pair_opens_only_strictly_below_its_threshold(monkeypatch):
    # At p = 1 every rank opens and u is the pair's own uniform v.  The
    # epsilon equal to u keeps the pair closed, u < eps failing exactly,
    # and one float step above u opens it.
    kernel = _small_kernel("ZxZ", 2)
    monkeypatch.setattr(kernel, "lut", np.ones_like(kernel.lut))
    [opened] = kernel.open_pairs([np.array([0, 1])], [SeededRandomness(seed_digest(66, 0))], 1.0)
    [u] = opened[2].tolist()
    got = graphing._open_at(opened, [u, np.nextafter(u, 1.0)])
    assert _rows(got[u]) == [] and _rows(got[np.nextafter(u, 1.0)]) == [(0, 1)]


@pytest.mark.parametrize("count", [0, 1, 2, 3])
def test_percolation_of_few_bases(certain_kernel, count):
    ids = np.arange(count)
    [(a, _, _, _)] = _assert_seeds_match_reference(certain_kernel, ids, [seed_digest(63, 0)], 1.0)
    assert len(a) == count * (count - 1) // 2


def _open_ranks(kernel, ids, keys, emax) -> list:
    """Each seed's number of open ranks, by the reference."""
    return [len(_per_rank_reference(kernel, ids, SeededRandomness(key), emax)[1]) for key in keys]


def test_the_cap_fires_one_below_a_seeds_open_ranks(small_kernel, monkeypatch):
    # The cap bounds each seed's open ranks, not the seeds' together nor the
    # pairs kept: at the largest seed's count every seed passes, one below
    # it the call raises.  Each seed on the whole window draws alone; each
    # on a third of it shares its passes through the held buffers.
    ids = np.arange(len(small_kernel.space))
    rngs = [SeededRandomness(key) for key in MULTI_SEED_KEYS]
    for share in (1, 3):
        own = [ids[ids % share == s % share] for s in range(len(rngs))]
        ranks = [_open_ranks(small_kernel, o, [key], 1.0)[0] for o, key in zip(own, MULTI_SEED_KEYS)]
        monkeypatch.setattr(small_kernel, "cap", max(ranks))
        kept = sum(len(a) for a, _, _, _ in small_kernel.open_pairs(own, rngs, 1.0))
        assert kept < sum(ranks) and sum(ranks) > max(ranks)
        monkeypatch.setattr(small_kernel, "cap", max(ranks) - 1)
        with pytest.raises(ResourceCapError, match="percolation pairs exceeded the enumeration cap"):
            small_kernel.open_pairs(own, rngs, 1.0)


@pytest.mark.parametrize("tile", [1, 10])
def test_blocks_of_points_change_neither_the_pairs_nor_the_cap(small_kernel, monkeypatch, tile):
    # The (point, class) cells are drawn in blocks of about `_TILE` cells,
    # each draw keyed by its own cell, and a seed's open ranks are counted
    # across blocks: blocks of one or a few points give the same rows, and
    # the cap still fires one below the largest seed's open ranks.
    ids = np.arange(len(small_kernel.space))
    rngs = [SeededRandomness(key) for key in MULTI_SEED_KEYS]
    whole = small_kernel.open_pairs([ids] * len(rngs), rngs, 1.0)
    monkeypatch.setattr(graphing, "_TILE", tile)
    got = _assert_seeds_match_reference(small_kernel, ids, MULTI_SEED_KEYS, 1.0)
    assert all(x.tobytes() == y.tobytes() for g, w in zip(got, whole) for x, y in zip(g, w))
    ranks = _open_ranks(small_kernel, ids, MULTI_SEED_KEYS, 1.0)
    monkeypatch.setattr(small_kernel, "cap", max(ranks) - 1)
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        small_kernel.open_pairs([ids] * len(rngs), rngs, 1.0)


@pytest.mark.parametrize("tile", [1, 10, graphing._TILE])
@pytest.mark.parametrize("emax", [0.3, 1.0])
def test_a_seeds_rows_do_not_depend_on_the_seeds_drawn_with_it(small_kernel, monkeypatch, emax, tile):
    # A block's seeds are drawn one after another and their open ranks
    # unranked together, in batches of about `_TILE`: each seed's rows are
    # the same bytes drawn alone, among the other seeds, or in reverse order.
    ids = np.arange(len(small_kernel.space))
    rngs = [SeededRandomness(key) for key in MULTI_SEED_KEYS]
    monkeypatch.setattr(graphing, "_TILE", tile)
    together = small_kernel.open_pairs([ids] * len(rngs), rngs, emax)
    backwards = small_kernel.open_pairs([ids] * len(rngs), rngs[::-1], emax)[::-1]
    for rng, *rows in zip(rngs, together, backwards):
        [alone] = small_kernel.open_pairs([ids], [rng], emax)
        assert all(x.tobytes() == y.tobytes() for got in rows for x, y in zip(got, alone))
    assert sum(len(a) for a, _, _, _ in together) > 0


def test_each_distinct_factor_step_is_multiplied_once(monkeypatch):
    # The 4 seeds' open ranks are unranked in one batch: the Z^2 factor
    # multiplies each distinct (factor index, t, rank) once, though the
    # seeds' open ranks repeat them, and the free factor, whose products
    # are walks along its step table, never calls `multiply`.
    kernel = _small_kernel("Z2xF2", 3)
    space, ids, emax = kernel.space, np.arange(len(kernel.space)), 8.0
    opened = [
        rank
        for key in MULTI_SEED_KEYS
        for rank in _per_rank_reference(kernel, ids, SeededRandomness(key), emax)[1]
    ]
    want = len({(int(space.pts1[x]), t, s1) for x, t, _, s1, _ in opened})
    calls = []
    for f, fb in enumerate((space.ball1, space.ball2)):
        multiply = fb.oracle.multiply
        monkeypatch.setattr(fb.oracle, "multiply", lambda a, b, f=f, m=multiply: calls.append(f) or m(a, b))
    kernel.open_pairs([ids] * len(MULTI_SEED_KEYS), [SeededRandomness(key) for key in MULTI_SEED_KEYS], emax)
    assert [calls.count(0), calls.count(1)] == [want, 0]
    assert want < len(opened)


def test_certain_ranks_count_against_the_cap_before_any_draw(certain_kernel, monkeypatch):
    # At q = 1 a seed's open ranks are every rank of every sphere: counted
    # from the sphere sizes, before any word is hashed (gap 0 hashes its
    # words in place, the later rounds draw uniforms) or rank unranked.
    kernel = certain_kernel
    ids = np.arange(5)
    [ranks] = _open_ranks(kernel, ids, MULTI_SEED_KEYS[:1], 1.0)
    assert ranks == len(ids) * sum(kernel.counts.values())
    rng = SeededRandomness(MULTI_SEED_KEYS[0])
    monkeypatch.setattr(kernel, "cap", ranks)
    kernel.open_pairs([ids], [rng], 1.0)
    monkeypatch.setattr(kernel, "cap", ranks - 1)

    def never(*args):
        raise AssertionError("drew or unranked past the cap")

    monkeypatch.setattr(rng, "words", never)
    monkeypatch.setattr(rng, "uniforms", never)
    monkeypatch.setattr(kernel, "_unrank", never)
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        kernel.open_pairs([ids], [rng], 1.0)


def test_open_pairs_checks_the_cap_after_each_round(monkeypatch):
    # At q = 0.9 nearly every (x, j) opens a rank in the first round, more
    # than the cap: the call raises before the second round is drawn.  Every
    # round hashes its words through `words`, gap 0 in place and the later
    # rounds inside `uniforms`.
    kernel = _small_kernel("F2xF2", 3)
    monkeypatch.setattr(kernel, "lut", np.full_like(kernel.lut, 0.9))
    ids = np.arange(len(kernel.space))
    rng = SeededRandomness(MULTI_SEED_KEYS[0])
    calls, draw = [], rng.words
    monkeypatch.setattr(rng, "words", lambda *a, **k: calls.append(1) or draw(*a, **k))
    monkeypatch.setattr(kernel, "cap", len(ids) * len(kernel.nums) // 2)
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        kernel.open_pairs([ids], [rng], 1.0)
    assert len(calls) == 1


FACTOR_CASES = {
    "F2xF2-3": (F2, F2, 3),
    "Z2xZ2-4": (Z2, Z2, 4),
    "Z2*Z3xZ2*Z3-3": (Z2_STAR_Z3, Z2_STAR_Z3, 3),
}


def _translations(metric) -> list:
    """Two translations g of the product: a generator of each factor, and
    a word of length 2 in the first factor; rho(e, g) = 2 for both at c = 1."""
    (_, s1), *gens1 = metric.first.gen_pairs()
    [(_, s2), *_] = metric.second.gen_pairs()
    word = next(metric.first.multiply(s1, t) for _, t in gens1 if metric.first.length(metric.first.multiply(s1, t)) == 2)
    return [(s1, s2), (word, metric.second.identity)]


def _translate(small, big, g) -> np.ndarray:
    """The id in `big`'s window of g^-1 x for each point x of `small`'s."""
    s, b = small.space, big.space
    index = []
    for ball, into, pts, gi in ((s.ball1, b.ball1, s.pts1, g[0]), (s.ball2, b.ball2, s.pts2, g[1])):
        inv = ball.oracle.inverse(gi)
        index.append(np.array([into.index[ball.oracle.multiply(inv, x)] for x in ball.elements])[pts])
    ids = b.lookup(*index)
    assert (ids >= 0).all()
    return ids


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_the_percolation_is_a_factor_of_the_digest_field(case, monkeypatch):
    # A factor map commutes with translation.  On B(wr) under the shifted
    # field x -> digest(g^-1 x), the open pairs, their u and p are those on
    # g^-1 B(wr), which B(wr + 2) holds, under the plain field, mapped back
    # by x -> g^-1 x.  Four seeds draw in one call, each on half of the
    # points (so several share a pass through the held buffers); the
    # overlap and w1 labels of a batch read the same field.
    first, second, wr = FACTOR_CASES[case]
    metric = ProductMetric(make_oracle(first), make_oracle(second), 1)
    small, big = graphing.PercolationKernel(metric, wr), graphing.PercolationKernel(metric, wr + 2)
    rngs = [SeededRandomness(seed_digest(46, s)) for s in range(4)]
    ids = np.arange(len(small.space))
    own = [ids[ids % 2 == s % 2] for s in range(4)]
    opened = 0
    for g in _translations(metric):
        at = _translate(small, big, g)
        monkeypatch.setattr(small, "digests", big.digests[at])
        got = small.open_pairs(own, rngs, 4.0)
        want = big.open_pairs([at[o] for o in own], rngs, 4.0)
        for (a, b, u, p), (a2, b2, u2, p2) in zip(got, want):
            lo, hi = np.minimum(at[a], at[b]), np.maximum(at[a], at[b])
            order = np.lexsort((hi, lo))
            assert (lo[order].tolist(), hi[order].tolist()) == (a2.tolist(), b2.tolist())
            assert u[order].tobytes() == u2.tobytes() and p[order].tobytes() == p2.tobytes()
            opened += len(a)
        seed = ids % 4
        for tag in (STREAM_OVERLAP, STREAM_PERCOLATION):
            labels = graphing._uniforms_by_seed(rngs, small.digests[ids], seed, tag)
            assert labels.tobytes() == graphing._uniforms_by_seed(rngs, big.digests[at], seed, tag).tobytes()
    assert opened > 0


@pytest.mark.parametrize("case", list(FACTOR_CASES))
def test_the_center_draw_is_a_factor_of_the_digest_field(case, monkeypatch):
    # The same translation on the center stage: on B(wr) under the shifted
    # field, each window point's covering centers, the centers drawn and
    # their marks are those of g^-1 B(wr), which B(wr + 2) holds, under the
    # plain field, mapped by x -> g^-1 x.  W+ of B(wr + 2) holds every
    # center covering g^-1 B(wr).
    first, second, wr = FACTOR_CASES[case]
    metric = ProductMetric(make_oracle(first), make_oracle(second), 1)
    sched = schedule_for(first, second, 1, 12)
    small, big = (ProcessContext(ProductSpace(metric, r), sched, 2) for r in (wr, wr + 2))

    def covered(ctx, window_ids, center_ids):
        """(window id << 32) | W+ id of each covering pair, mapped, sorted."""
        cov = ctx.covering
        rows = np.repeat(np.arange(len(cov)), np.diff(cov.starts))
        return np.sort((window_ids[cov.members].astype(np.int64) << 32) | center_ids[rows])

    drawn = 0
    for g in _translations(metric):
        at = _translate(small, big, g)
        at_window = _translate(SimpleNamespace(space=small.window), SimpleNamespace(space=big.window), g)
        on_big = np.full(len(big.window), -1)
        on_big[at_window] = at_window
        want = covered(big, on_big, np.arange(len(big.space)))
        assert covered(small, at_window, at).tolist() == want[want >= 0].tolist()
        monkeypatch.setattr(small, "center_digests", big.center_digests[at])
        for s in range(3):
            got, full = sample_diamond_process(small, seed_digest(47, s)), sample_diamond_process(big, seed_digest(47, s))
            order = np.argsort(at[got.chosen])
            inside = np.isin(full.chosen, at)
            assert at[got.chosen][order].tolist() == full.chosen[inside].tolist()
            assert got.marks[order].tobytes() == full.marks[inside].tobytes()
            drawn += len(got.chosen)
    assert drawn > 0


def test_q_just_below_one_matches_the_reference(monkeypatch):
    # emax * p = 1 - 2**-40 at every class: log(1 - q) is about -27.7, so
    # almost every gap is 0, but a rare one skips ranks.
    kernel = _small_kernel("F2xF2", 2)
    monkeypatch.setattr(kernel, "lut", np.full_like(kernel.lut, 1.0 - 2.0**-40))
    ids = np.arange(0, len(kernel.space), 4)
    [(a, _, _, _)] = _assert_seeds_match_reference(kernel, ids, MULTI_SEED_KEYS[:1], 1.0)
    assert 0 < len(a) <= len(ids) * (len(ids) - 1) // 2


# emax on the kernel's own lut, then every class's p forced to 1e-15 (hardly
# a rank opens) and to 1 - 2^-40 (hardly a rank is skipped).
REACH_CASES = {
    "emax-0.2": (None, 0.2),
    "emax-1": (None, 1.0),
    "emax-64": (None, 64.0),
    "lut-1e-15": (1e-15, 1.0),
    "lut-1-2^-40": (1.0 - 2.0**-40, 1.0),
}


def _reach_kernel(monkeypatch, wr, lut):
    kernel = _small_kernel("F2xF2", wr)
    if lut is not None:
        monkeypatch.setattr(kernel, "lut", np.full_like(kernel.lut, lut))
    return kernel


@pytest.mark.parametrize("lut, emax", REACH_CASES.values(), ids=list(REACH_CASES))
@pytest.mark.parametrize("wr", [3, 4])
def test_gap0_reach_bounds_every_uniform_that_opens_a_rank(monkeypatch, wr, lut, emax):
    # At gap 0 a cell opens a rank when floor(log1p(-w) / log(1 - q)) is
    # below its sphere's size, which holds for w = b 2^-53 up to some
    # largest b (bisected per class): that w lies below the class's reach,
    # and within a hair of it, so the reach test drops the cells it can.
    kernel = _reach_kernel(monkeypatch, wr, lut)
    q = np.minimum(1.0, emax * kernel.lut[kernel.nums])
    with np.errstate(divide="ignore"):
        log_q = np.log1p(-q)
    sizes = np.array([kernel.counts[num] for num in kernel.nums], dtype=np.int64)
    reach = graphing._gap0_reach(sizes, log_q)

    def opens(b):
        return -1.0 + 1.0 + np.floor(np.log1p(-(b * 2.0**-53)) / log_q) < sizes

    lo, hi = np.zeros(len(sizes), dtype=np.int64), np.full(len(sizes), 2**53, dtype=np.int64)
    assert opens(lo).all()
    while (hi - lo > 1).any():
        mid = (lo + hi) // 2
        below = opens(mid)
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    last = lo * 2.0**-53
    assert (last < reach).all()
    assert (reach <= np.minimum(1.0, last * (1.0 + 1e-8) + 2.0**-48)).all()
    assert (reach[q == 1.0] == 1.0).all() and (reach < 1.0).any() == (lut != 1.0 - 2.0**-40)


@pytest.mark.parametrize(
    "reach",
    [1.0, 2.0**-50, 2.0**-50 + 2.0**-80, 0.375, 1.0 - 2.0**-53, 0.1],
    ids=["one", "2^-50", "just-above-2^-50", "integer-3/8", "integer-below-one", "0.1"],
)
def test_gap0_bound_is_the_float_reach_test(reach):
    # Gap 0 tests the 53-bit integer b of each word against K = ceil(reach *
    # 2^53) in place of its uniform w = b 2^-53 against reach: the two agree
    # at b = K - 1, K and K + 1, also where reach * 2^53 is an integer and w
    # = reach must fail.
    [K] = graphing._gap0_bound(np.array([reach])).tolist()
    bits = np.array([K - 1, K, K + 1], dtype=np.uint64)
    assert (bits < np.uint64(K)).tolist() == (to_uniforms(bits) < reach).tolist() == [True, False, False]


DRAWN_REACH_CASES = {name: case for name, case in REACH_CASES.items() if name != "lut-1-2^-40"}


@pytest.mark.parametrize("lut, emax", DRAWN_REACH_CASES.values(), ids=list(DRAWN_REACH_CASES))
@pytest.mark.parametrize("wr", [3, 4])
def test_gap0_reach_changes_no_row(monkeypatch, wr, lut, emax):
    # The reach test only skips the exact test on cells that cannot open:
    # with every reach 1, so that each cell takes the exact test, the rows
    # are the same bytes.  (At p = 1 - 2^-40 every reach is already 1, and
    # a window's every rank opens, one round a rank: that case is left to
    # the bound test above.)
    kernel = _reach_kernel(monkeypatch, wr, lut)
    ids = np.arange(len(kernel.space))

    def draw():
        rngs = [SeededRandomness(key) for key in MULTI_SEED_KEYS]
        return kernel.open_pairs([ids] * len(rngs), rngs, emax)

    got = draw()
    monkeypatch.setattr(graphing, "_gap0_reach", lambda sizes, log_q: np.ones(len(sizes)))
    assert all(x.tobytes() == y.tobytes() for g, w in zip(got, draw()) for x, y in zip(g, w))
    assert (sum(len(a) for a, _, _, _ in got) > 0) == (lut != 1e-15)


CALIBRATION = {"F2xF2": (F2, F2, 1), "Z2xF2-1/2": (Z2, F2, "1/2")}


@pytest.mark.parametrize("specs", CALIBRATION.values(), ids=list(CALIBRATION))
def test_open_pairs_per_weight_class_match_their_expectation(specs):
    # The law, not a bit pattern: over 100 seeds at emax 1 on a wr-4 window,
    # weight class j opens about N_j * emax * p_j pairs a seed, N_j the
    # window's pairs at its rho numerator, counted over every pair (373,680
    # for F2 x F2).  Pairs open independently, so each class with an
    # expectation of at least 5, and the pooled count, is within 4 se.
    metric = ProductMetric(*(make_oracle(spec) for spec in specs[:2]), specs[2])
    kernel = graphing.PercolationKernel(metric, 4)
    n = len(kernel.space)
    ia, ib = np.triu_indices(n, 1)
    classes = np.bincount(_rho_nums(kernel.space, ia, ib), minlength=len(kernel.lut))
    seeds, emax = 100, 1.0
    rngs = [SeededRandomness(seed_digest(70, s)) for s in range(seeds)]
    opened = np.zeros(len(kernel.lut))
    for a, b, _, _ in kernel.open_pairs([np.arange(n)] * seeds, rngs, emax):
        opened += np.bincount(_rho_nums(kernel.space, a, b), minlength=len(kernel.lut))
    q = emax * kernel.lut
    mean, var = seeds * classes * q, seeds * classes * q * (1 - q)
    gated = mean >= 5
    assert gated.sum() >= 4
    assert (np.abs(opened - mean)[gated] <= 4 * np.sqrt(var[gated])).all()
    assert abs(opened.sum() - mean.sum()) <= 4 * np.sqrt(var.sum())


# The F2 x F2 and Z2 x F2 windows, and each factor family at its radius as
# the first factor of a window whose second is Z at radius 1 (c = 1/wr).
WINDOWS = {
    f"{name}-{wr}": (first, second, c, wr)
    for name, (first, second, c) in {
        "F2xF2-1": (F2, F2, 1),
        "F2xF2-3/2": (F2, F2, "3/2"),
        "Z2xF2-1/2": (Z2, F2, "1/2"),
    }.items()
    for wr in (3, 4)
}
WINDOWS.update(
    (f"{name}xZ-1/{wr}", (first, Z1, Fraction(1, wr), wr))
    for name, first, wr in [
        ("F2", F2, 4),
        ("Z2", Z2, 4),
        ("Z7", GroupSpec("cyclic", order=7), 3),
        ("F2xZ", GroupSpec("direct_product", factors=(F2, Z1)), 3),
        ("Z2*Z3", Z2_STAR_Z3, 5),
    ]
)


@pytest.mark.parametrize("first, second, c, wr", WINDOWS.values(), ids=list(WINDOWS))
def test_each_sphere_unranks_onto_its_class_in_the_window(first, second, c, wr):
    # For a few points x, the ranks of each class's sphere (up to 4,000
    # ranks) unrank to distinct points, and those inside the window are
    # exactly the window points in that class from x, by the distance
    # tables.  From the origin they are the sphere's (s1, s2) in rank order:
    # steps by rising t, then the BFS order of S_t, then of S_t2.
    metric = ProductMetric(make_oracle(first), make_oracle(second), c)
    kernel = graphing.PercolationKernel(metric, wr)
    space = kernel.space
    n = len(space)
    window = {space.element(pid) for pid in range(n)}
    for x in (0, n // 2, n - 1):
        rho = _rho_nums(space, np.full(n, x), np.arange(n))
        for j, num in enumerate(kernel.nums):
            size = kernel.counts[num]
            if size > 4000:
                continue
            y = kernel._unrank(np.full(size, x), np.full(size, j), np.arange(size))
            y = y[y >= 0]
            assert len(set(y.tolist())) == len(y)
            assert sorted(y.tolist()) == np.flatnonzero(rho == num).tolist()
            if x == 0:
                want = [
                    (s1, s2)
                    for t, t2 in kernel.steps[num]
                    for s1 in _sphere(metric.first, t)
                    for s2 in _sphere(metric.second, t2)
                ]
                got = [space.element(pid) for pid in y.tolist()]
                assert got == [el for el in want if el in window]


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
    # and rank tables in use, the kernel peaks at a few MB traced.
    import tracemalloc

    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    tracemalloc.start()
    try:
        kernel = graphing.PercolationKernel(metric, 6, cap=1457**2 - 1)
        kernel.row_masses(np.arange(3))
        kernel.open_pairs([np.arange(0, len(kernel.space), 7)], [SeededRandomness(1)], 0.05)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(kernel.space.ball1) == len(kernel.space.ball2) == 1457
    assert peak < 8 * 2**20


def test_the_kernels_free_product_distance_table_counts_against_its_cap():
    # The Z/2*Z/3 x Z window at wr 3 has 40 points over a first factor ball
    # of m = 14 elements, whose one distance table of m^2 entries is the
    # kernel's own, built on first use: at a cap of m^2 - 1 every other cap
    # site fits and the first `row_masses` refuses the table; at m^2 it runs.
    metric = ProductMetric(make_oracle(Z2_STAR_Z3), make_oracle(Z1), 1)
    m = len(graphing.PercolationKernel(metric, 3).space.ball1)
    assert m == 14
    kernel = graphing.PercolationKernel(metric, 3, cap=m * m - 1)
    with pytest.raises(ResourceCapError, match="distance table"):
        kernel.row_masses(np.arange(2))
    assert len(graphing.PercolationKernel(metric, 3, cap=m * m).row_masses(np.arange(2))) == 2


F3 = GroupSpec("free", rank=3)


@pytest.fixture(scope="module", params=["F3xZ-2/3", "F2xF2-3/2"])
def window_kernel(request):
    """The baseline's kernel on a radius-3 window of unequal factors,
    built as in `test_pi2_and_the_baseline_are_one_percolation`.

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


WINDOW_KEYS = [seed_digest(67, s) for s in range(4)]


def test_a_whole_window_of_unequal_factors_matches_the_reference(window_kernel):
    ids = np.arange(len(window_kernel.space))
    got = _assert_seeds_match_reference(window_kernel, ids, WINDOW_KEYS, 1.0)
    # The heaviest class, one step of the second factor, opens pairs.
    heaviest = window_kernel.space.metric.c.denominator
    assert heaviest == np.argmax(window_kernel.lut)
    rho = [_rho_nums(window_kernel.space, a, b) for a, b, _, _ in got]
    assert (np.concatenate(rho) == heaviest).any()


def test_the_weights_are_read_at_each_call(window_kernel, monkeypatch):
    # Two classes tied at the top weight, read from `lut` when the call is
    # made (the rank tables, built at the first call, hold no weight).
    kernel = window_kernel
    first, second = np.argsort(-kernel.lut, kind="stable")[:2].tolist()
    lut = kernel.lut.copy()
    lut[second] = lut[first]
    monkeypatch.setattr(kernel, "lut", lut)
    ids = np.arange(len(kernel.space))
    got = _assert_seeds_match_reference(kernel, ids, WINDOW_KEYS[:2], 1.0)
    assert {float(p) for _, _, _, ps in got for p in ps} >= {lut[first]}


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
    space = z_ctx.kernel.space
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
    space = z_ctx.kernel.space
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
    ctx, space = perc_ctx, perc_ctx.kernel.space
    kernel = graphing.PercolationKernel(ctx.metric, ctx.window_radius)
    window = kernel.space
    opened = 0
    for s in range(10):
        key = seed_digest(65, s)
        bases = _seed_window(ctx, key).bases.tolist()
        pi2 = build_percolation(ctx, bases, SeededRandomness(key), [0.3])[0.3]
        got = {frozenset((space.element(a), space.element(b))) for a, b in pi2}
        [(a, b, _, _)] = kernel.open_pairs([np.arange(len(window))], [SeededRandomness(key)], 0.3)
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
    lifted, pair = lift_open_pairs(mw, np.asarray(pairs, dtype=np.int64))
    # pair by pair, the copies of the first point outer
    want = [
        (min(va, vb), max(va, vb)) for pa, pb in pairs for va in copies[pa] for vb in copies[pb]
    ]
    assert _rows(lifted) == want
    assert pair.tolist() == [i for i, (pa, pb) in enumerate(pairs) for _ in copies[pa] for _ in copies[pb]]


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
        break_overlaps(mw, [SeededRandomness(seed_digest(35, 0))])


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
        pd = point_digests(f2_ctx.kernel.space)
        for pid, copies in _copies_at(mw).items():
            ranked = sorted(copies, key=lambda vi: (mw.marks[int(mw.v_k[vi])], vi))
            w = rng.uniform(int(pd[pid]), STREAM_OVERLAP)
            expected[ranked[surviving_index(len(ranked), w) - 1]] = True
        np.testing.assert_array_equal(break_overlaps(mw, [rng]), expected)


def test_forced_mark_tie_at_last_overlap_raises(f2_ctx):
    from horolab.errors import MarkCollisionError
    from horolab.graphing import break_overlaps

    mw, key = _overlap_window(f2_ctx)
    last = [copies for copies in _copies_at(mw).values() if len(copies) >= 2][-1]
    mw.marks[int(mw.v_k[last[1]])] = mw.marks[int(mw.v_k[last[0]])]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, [SeededRandomness(key)])


def test_lex_keys_order_rows_as_lexsort():
    # Rows (major, float, minor) drawn from a few values each, so that every
    # column ties: a key is less than another exactly when its row is, and
    # equal exactly when the rows are, so numpy's default argsort on the
    # keys of distinct rows is the lexsort's order.  A major column that
    # spans 0 to 2^62 takes the dense re-ranking that keeps the packing
    # inside int64: 2^62 times any span of 2 or more wraps there.
    gen = np.random.default_rng(46)
    high = [0, 1, 2**62, 2**62 + 1]
    for trial in range(40):
        n = int(gen.integers(0, 60))
        floats = gen.choice([0.0, 2.0**-53, 0.25, 0.5, 0.75], n)
        minor = gen.integers(0, 5, n)
        major = gen.choice(high, n) if trial % 4 == 3 else gen.integers(0, 4, n)
        for cols in ((major, floats, minor), (None, floats, minor)):
            key = graphing._lex_keys(*cols, 5)
            rows = list(zip(*(c.tolist() for c in cols if c is not None)))
            for i, j in itertools.product(range(n), repeat=2):
                assert (key[i] < key[j], key[i] == key[j]) == (rows[i] < rows[j], rows[i] == rows[j])
            distinct = np.unique(np.stack([np.zeros(n) if c is None else c for c in cols]), axis=1, return_index=True)[1]
            want = np.lexsort(tuple(c[distinct] for c in cols[::-1] if c is not None))
            assert np.argsort(key[distinct]).tolist() == want.tolist()
    for span in (2, 4):  # (float, minor) pairs after the re-rank
        major, minor = np.repeat(np.array([2**62, 0]), 2), np.arange(4) % span
        key = graphing._lex_keys(major, np.full(4, 0.5), minor, 5)
        assert np.argsort(key).tolist() == [2, 3, 0, 1] and len(set(key.tolist())) == 4


def _break_overlaps_reference(mw, rngs) -> np.ndarray:
    """Every covered point's copies by (mark, vertex), one lexsort over the
    vertices, and its label drawn under its own seed's entry of `rngs`."""
    digests = mw.ctx.kernel.digests[mw.bases & 0xFFFFFFFF]
    cut = mw.base_starts
    labels = np.concatenate([r.uniforms(digests[lo:hi], STREAM_OVERLAP) for r, lo, hi in zip(rngs, cut, cut[1:])])
    marks = mw.marks[mw.v_k]
    ranked = np.lexsort((np.arange(mw.n_vertices), marks, mw.v_key))
    keep = np.zeros(mw.n_vertices, dtype=bool)
    keep[ranked[mw.starts[:-1] + surviving_index(np.diff(mw.starts), labels) - 1]] = True
    return keep


def test_break_overlaps_of_a_batch_with_tied_marks_matches_the_lexsort(f2_ctx):
    # Three seeds' windows in one batch: each diamond of seed 1 takes the
    # mark of a diamond of seed 0, and in seed 2 diamonds that share no
    # point tie too.  No point sees a tie, so nothing raises, and the kept
    # copies are the lexsort's; lone copies are always kept.
    from horolab.graphing import break_overlaps

    keys = [seed_digest(36, s) for s in range(3)]
    mw = build_marked_window(f2_ctx, [sample_diamond_process(f2_ctx.pctx, key) for key in keys])
    seed_of = (mw.v_key >> 32)[np.searchsorted(mw.v_k, np.arange(len(mw.marks)))]  # of each diamond
    k0, k1, k2 = (np.flatnonzero(seed_of == s) for s in range(3))
    m = min(len(k0), len(k1))
    mw.marks[k1[:m]] = mw.marks[k0[:m]]
    points, tied = {int(k): set(mw.v_pid[mw.v_k == k].tolist()) for k in k2}, set()
    for a, b in itertools.combinations(k2.tolist(), 2):
        if not points[a] & points[b] and not tied & {a, b}:
            mw.marks[b] = mw.marks[a]
            tied |= {a, b}
    assert m > 0 and tied and (np.diff(mw.starts) > 1).any()
    rngs = [SeededRandomness(key) for key in keys]
    keep = break_overlaps(mw, rngs)
    assert keep.tolist() == _break_overlaps_reference(mw, rngs).tolist()
    assert keep[mw.copies[mw.starts[:-1][np.diff(mw.starts) == 1]]].all()


def test_a_mark_tie_at_a_point_of_one_seed_of_a_batch_raises(f2_ctx):
    from horolab.errors import MarkCollisionError
    from horolab.graphing import break_overlaps

    keys = [seed_digest(35, s) for s in range(4)]
    mw = build_marked_window(f2_ctx, [sample_diamond_process(f2_ctx.pctx, key) for key in keys])
    rngs = [SeededRandomness(key) for key in keys]
    break_overlaps(mw, rngs)
    [multi, *_] = np.flatnonzero((np.diff(mw.starts) > 1) & (mw.bases >> 32 == 2))
    a, b = mw.copies[mw.starts[multi] : mw.starts[multi] + 2]
    mw.marks[mw.v_k[b]] = mw.marks[mw.v_k[a]]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, rngs)


def test_mark_tie_rejects_the_seed_in_a_sweep(f2_ctx, monkeypatch):
    from horolab import graphing, randomness

    def tied_window(ctx, processes):
        mw = build_marked_window(ctx, processes)
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
    # The error is injected at the batch entry: a batch holding seed 3
    # fails, and is run again seed by seed, which names the seed.
    from horolab import graphing
    from horolab.graphing import SeedStats

    batches = []

    def failing_batch(ctx, keys, eps_list, primary_eps, seed_indices, collect=None):
        batches.append(list(seed_indices))
        if 3 in seed_indices:
            raise error
        return [SeedStats(seed=s) for s in seed_indices]

    monkeypatch.setattr(graphing, "_run_batch", failing_batch)
    with pytest.raises(type(error), match=r"^seed 3: ") as info:
        cost_report(f2_ctx, 5, [0.05], 0.05, 1, threads=threads)
    assert str(error) in str(info.value)
    if threads == 1:
        assert batches == [[1, 2, 3, 4], [1], [2], [3]]


def test_a_slope_whose_numerators_pass_int32_is_an_input_error():
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), "2147483648/2147483647")
    with pytest.raises(InputError, match="pass int32"):
        graphing.PercolationKernel(metric, 1)


def test_a_sweep_builds_no_rho_numerators_for_w_plus():
    # A context of its own: other tests may read the shared contexts' W+.
    g = growth_series(F2, 14)
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    ctx = GraphingContext(metric, build_schedule(g, g, 1, 12), 2, 4, 2)
    cost_report(ctx, 2, [0.05], 0.05, 5)
    assert "rho_num" not in ctx.pctx.space.__dict__
    assert "rho_num" in ctx.kernel.space.__dict__  # the interior mask reads it


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
    keep = break_overlaps(mw, [rng])
    kept_pids = [int(mw.v_pid[vi]) for vi in np.flatnonzero(keep)]
    assert len(kept_pids) == len(set(kept_pids)) == len(mw.bases)


# phi / psi / Pi4 / Pi5 ------------------------------------------------------


def _fake_mw(n, pids):
    """The fields of a one-seed window that the phi and Pi4/Pi5 stages read."""
    pids = np.asarray(pids, dtype=np.int64)
    return SimpleNamespace(n_vertices=n, v_pid=pids, v_key=pids, bases=np.unique(pids))


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
    assert _pi5_connected(roots, out, [0, 4]).tolist() == [True]
    assert _pi5_connected(roots, {**out, "pi4": _edges([])}, [0, 4]).tolist() == [False]
    # Two seeds' segments: {0, 1, 2} stays joined, {3} alone is connected.
    assert _pi5_connected(roots, {**out, "pi4": _edges([])}, [0, 3, 4]).tolist() == [False, True]


def test_forest_accounting_matches_deleted_points(f2_ctx):
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(34, 0))
    pi1 = build_pi1(mw)
    rng = SeededRandomness(seed_digest(34, 0))
    edges = pi3_edges(pi1, _edges([]))
    keep = break_overlaps(mw, [rng])
    w1 = rng.uniforms(point_digests(f2_ctx.kernel.space)[mw.v_pid], "w1:percolation")
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
            (z_ctx.kernel.space.rho_num[mw.v_pid[interior]] > (z_ctx.interior_radius - 1) * den).sum()
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


def _stats(runs) -> list:
    """Every field of each SeedStats, NaN read as a string so that it equals
    itself, the largest fractions as sorted items."""
    return [
        [
            sorted(value.items()) if isinstance(value, dict) else "nan" if value != value else value
            for value in (getattr(st, f.name) for f in dataclasses.fields(st))
        ]
        for st in runs
    ]


def test_cost_report_threads_deterministic(z_ctx):
    a = cost_report(z_ctx, 6, [0.05], 0.05, 11, threads=1)
    b = cost_report(z_ctx, 6, [0.05], 0.05, 11, threads=2)
    assert _stats(a.runs) == _stats(b.runs)
    assert any(r.pi5_checked for r in a.runs) and any(r.pi5_se != r.pi5_se for r in a.runs)


BATCH_KEYS = [seed_digest(90, s) for s in range(6)]


@pytest.mark.parametrize("perc_ctx", ["f2_ctx", "z_ctx", "f2f3_ctx"], indirect=True)
def test_a_seeds_stats_do_not_depend_on_its_batch(perc_ctx, monkeypatch):
    # Each seed's stages run over the disjoint union of its batch's marked
    # windows, and its statistics are read from its own slices: alone, in
    # batches of 3, in one batch and in reverse order, every field is the
    # same.  z_ctx has a lattice first factor, so Pi1 reads the memoised
    # tau of each (center, y).  The batches call `_run_batch` itself, which
    # has no seed-by-seed fallback, so a batch that fails fails the test.
    ctx, eps = perc_ctx, [0.01, 0.05, 0.2]

    def batch(order):
        return graphing._run_batch(ctx, [BATCH_KEYS[s] for s in order], eps, 0.05, list(order))

    alone = [run_seed(ctx, key, eps, 0.05, seed_index=s) for s, key in enumerate(BATCH_KEYS)]
    assert sum(r.vertices for r in alone) > 0 and not any(r.rejected for r in alone)
    assert _stats(batch([0, 1, 2]) + batch([3, 4, 5])) == _stats(alone)
    assert _stats(batch(range(6))) == _stats(alone)
    assert _stats(batch(range(5, -1, -1))[::-1]) == _stats(alone)
    # The sweep sizes its batches from `_TILE`: one seed, three, and all
    # but seed 0, which runs alone.  A batch run again seed by seed would
    # add one-seed calls.
    run, calls = graphing._run_batch, []
    monkeypatch.setattr(graphing, "_run_batch", lambda c, k, *a: calls.append(len(k)) or run(c, k, *a))
    for size in (1, 3, 5):
        monkeypatch.setattr(graphing, "_TILE", 2 * size * math.ceil(ctx.vertices_per_seed))
        calls.clear()
        assert _stats(cost_report(ctx, 6, eps, 0.05, 90).runs) == _stats(alone)
        assert calls == [size] * (5 // size) + [5 % size] * (5 % size > 0) + [1]


def _seed_means_reference(mw, pi1, edges, s0_mask, dist, pi5, i) -> dict:
    """Seed i's degree and Pi5 statistics, as means over its own vertices."""
    n, lo, hi = mw.n_vertices, mw.seed_starts[i], mw.seed_starts[i + 1]
    deg = np.bincount(edges.ravel(), minlength=n)
    out_deg = (pi1.target >= 0).astype(np.int64)
    in_deg = np.bincount(pi1.target[pi1.target >= 0], minlength=n)
    perc_deg = deg - out_deg - in_deg
    interior = lo + np.flatnonzero(mw.v_interior[lo:hi])
    ok = interior[dist[interior] >= 0]
    s0 = ok[s0_mask[ok]]
    out = {"interior": len(interior), "n_sprime_interior": len(ok), "n_s0_interior": len(s0)}
    if len(interior):
        out.update(
            half_deg_pi1=float(out_deg[interior].mean()),
            perc_deg_interior_mean=float(perc_deg[interior].mean()),
            half_deg_pi3=float((out_deg[interior] + perc_deg[interior] / 2.0).mean()),
            half_deg_pi3_raw=float(deg[interior].mean() / 2.0),
            mean_deg_pi3_palm=float((2 * out_deg[interior] + perc_deg[interior]).mean()),
            boundary_deficit=float(abs(int(in_deg[interior].sum()) - int(out_deg[interior].sum())))
            / len(interior),
        )
    if len(s0):
        lam = len(s0) / len(ok)
        ends = np.sort(pi5.ravel())
        bases = np.unique(mw.v_key[s0])
        lhs, se_lhs = graphing._mean_se(np.searchsorted(ends, bases, side="right") - np.searchsorted(ends, bases))
        palm, se_palm = graphing._mean_se((2 * out_deg + perc_deg)[ok])
        rhs, se = palm / lam - 2.0 / lam + 2.0, se_lhs + se_palm / lam
        out.update(lambda_hat=lam, pi5_lhs=lhs, pi5_rhs=rhs, pi5_se=se, pi5_checked=True)
        out.update(pi5_ok=lhs <= rhs + 3.0 * se + 1e-9)
    return out


def test_the_per_seed_means_are_each_seeds_own(f2_ctx, monkeypatch):
    # The batch sums each seed's statistics by bincount.  In a batch where
    # seed 0 has unreached interior vertices, seed 1 no interior vertex and
    # seed 2 no S0 vertex in its interior, every mean is the one taken over
    # the seed's own vertices, bit for bit, and seeds 1 and 2 keep their
    # NaN defaults.
    keys, seen = [seed_digest(36, s) for s in range(4)], {}

    def window(ctx, processes):
        mw = seen["mw"] = build_marked_window(ctx, processes)
        mw.v_interior[mw.seed_starts[1] : mw.seed_starts[2]] = False
        return mw

    def overlaps(mw, rngs):
        keep = seen["s0"] = break_overlaps(mw, rngs)
        keep[mw.seed_starts[2] : mw.seed_starts[3]] &= ~mw.v_interior[mw.seed_starts[2] : mw.seed_starts[3]]
        return keep

    def forest(mw, edges, s0_mask, w1):
        # Every other interior vertex of seed 0 away from S0 is read as
        # unreached, so that its reached interior differs from its interior.
        out = build_forest_and_pi45(mw, edges, s0_mask, w1)
        inner = np.flatnonzero(mw.v_interior[: mw.seed_starts[1]] & (out["dist"][: mw.seed_starts[1]] > 0))
        out["dist"][inner[::2]] = -1
        seen.update(edges=edges, dist=out["dist"], pi5=out["pi5"])
        return out

    def pi1(mw):
        seen["pi1"] = build_pi1(mw)
        return seen["pi1"]

    break_overlaps = graphing.break_overlaps
    monkeypatch.setattr(graphing, "build_marked_window", window)
    monkeypatch.setattr(graphing, "build_pi1", pi1)
    monkeypatch.setattr(graphing, "break_overlaps", overlaps)
    monkeypatch.setattr(graphing, "build_forest_and_pi45", forest)
    runs = graphing._run_batch(f2_ctx, keys, [1.0], 1.0, [0, 1, 2, 3])  # many Pi2 degrees
    got = [seen[k] for k in ("mw", "pi1", "edges", "s0", "dist", "pi5")]
    stats = [_seed_means_reference(*got, i) for i in range(4)]
    assert stats[1]["interior"] == 0 and stats[2]["interior"] > 0 == stats[2]["n_s0_interior"]
    assert stats[0]["n_s0_interior"] and stats[3]["n_s0_interior"]
    assert 0 < stats[0]["n_sprime_interior"] < stats[0]["interior"]
    for run, want in zip(runs, stats):
        for name, value in want.items():
            assert np.float64(getattr(run, name)).tobytes() == np.float64(value).tobytes(), name
    assert math.isnan(runs[1].half_deg_pi1) and math.isnan(runs[1].lambda_hat)
    assert math.isnan(runs[2].lambda_hat) and not runs[2].pi5_checked


def test_a_seed_without_vertices_in_a_batch(f2_ctx, monkeypatch):
    # A seed whose process draws no center has empty slices: it reports its
    # counts and defaults, as alone, and the other seeds are unchanged.
    def sample(pctx, key):
        process = sample_diamond_process(pctx, key)
        if key == BATCH_KEYS[1]:
            process.chosen, process.marks = process.chosen[:0], process.marks[:0]
        return process

    alone = [run_seed(f2_ctx, key, [0.05], 0.05, seed_index=s) for s, key in enumerate(BATCH_KEYS[:3])]
    monkeypatch.setattr(graphing, "sample_diamond_process", sample)
    runs = graphing._run_batch(f2_ctx, BATCH_KEYS[:3], [0.05], 0.05, [0, 1, 2])
    assert _stats(runs) == _stats([alone[0], graphing.SeedStats(seed=1), alone[2]])
    assert _stats(runs[1:2]) == _stats([run_seed(f2_ctx, BATCH_KEYS[1], [0.05], 0.05, seed_index=1)])


def test_a_mark_collision_rejects_only_its_seed(f2_ctx, monkeypatch):
    # Two copies of one point of seed 2 drew the same mark: the batch is run
    # again seed by seed, and only seed 2 is rejected.
    keys = [seed_digest(35, s) for s in range(4)]
    alone = [run_seed(f2_ctx, key, [0.05], 0.05, seed_index=s) for s, key in enumerate(keys)]

    def tied_window(ctx, processes):
        mw = build_marked_window(ctx, processes)
        for i, process in enumerate(processes):
            if process.seed == keys[2]:
                [multi, *_] = np.flatnonzero((np.diff(mw.starts) > 1) & (mw.bases >> 32 == i))
                a, b = mw.copies[mw.starts[multi] : mw.starts[multi] + 2]
                mw.marks[mw.v_k[b]] = mw.marks[mw.v_k[a]]
        return mw

    monkeypatch.setattr(graphing, "build_marked_window", tied_window)
    runs = run_seeds(f2_ctx, keys, [0.05], 0.05, [0, 1, 2, 3])
    assert [r.rejected for r in runs] == [False, False, True, False]
    assert _stats(runs[:2] + runs[3:]) == _stats(alone[:2] + alone[3:])


def test_a_percolation_cap_hit_names_its_seed_in_a_batch(f2_ctx, monkeypatch):
    # The cap counts each seed's open ranks: set just below the most a seed
    # of the batch opens, only that seed exceeds it, and the error names it.
    keys, emax = [seed_digest(36, s) for s in range(4)], 1.0
    kernel = f2_ctx.kernel
    ranks = [
        _open_ranks(kernel, np.sort(_seed_window(f2_ctx, key).bases), [key], emax)[0] for key in keys
    ]
    k = int(np.argmax(ranks))
    assert sorted(ranks)[-2] < ranks[k]
    monkeypatch.setattr(kernel, "cap", ranks[k] - 1)
    with pytest.raises(ResourceCapError, match=rf"^seed {20 + k}: percolation pairs exceeded"):
        run_seeds(f2_ctx, keys, [0.05, emax], 0.05, [20, 21, 22, 23])


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
        members = cov.members_of(center)  # a center's W+ id is its row
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
        lifts = {e: lift_open_pairs(mw, pairs)[0] for e, pairs in opens.items()}
        roots, fractions, drops = graphing._ladder(forest, lifts, [0, mw.n_vertices])
        assert list(roots) == list(fractions) == sorted(opens)
        assert drops.tolist() == [0]
        for e, pairs in opens.items():
            want = _component_roots(mw.n_vertices, pi3_edges(pi1, lifts[e]))
            assert roots[e].tolist() == want.tolist()
            assert fractions[e].tolist() == [np.bincount(want).max() / mw.n_vertices]
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
    assert largest_component_fraction(_component_roots(4, [(0, 1), (2, 3)]), [0, 4]).tolist() == [0.5]
    assert largest_component_fraction(_component_roots(3, [(0, 1), (1, 2)]), [0, 3]).tolist() == [1.0]
    assert largest_component_fraction([0, 0, 2, 3], [0, 4]).tolist() == [0.5]
    assert largest_component_fraction(_component_roots(0, []), [0, 0]).tolist() == [0.0]
    assert largest_component_fraction([], [0, 0]).tolist() == [0.0]
    # Segments, one per seed: their labels lie in them, and one may be empty.
    roots = [0, 0, 0, 3, 4, 4, 4, 4]
    assert largest_component_fraction(roots, [0, 3, 3, 8]).tolist() == [1.0, 0.0, 0.8]


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


def _baseline_by_seed(metric, wr, margin, eps_list, seeds, master_seed) -> tuple:
    """(rows, monotone violations) of `coset_line_baseline` seed by seed:
    each seed's open pairs measured on the epsilon ladder over the coset
    lines of its own window, one seed at a time; rows maps each epsilon to
    the (mean, se) of the largest fractions and of the half-degrees."""
    kernel = graphing.PercolationKernel(metric, wr)
    space, n = kernel.space, len(kernel.space)
    int_ids = np.flatnonzero(space.mask_within(wr - margin))
    tgt = space.lookup(space.ball1.step[:, 0][space.pts1], space.pts2)
    src = np.flatnonzero(tgt >= 0)
    lines = np.stack([np.minimum(src, tgt[src]), np.maximum(src, tgt[src])], axis=1)
    line_deg = np.bincount(lines.ravel(), minlength=n)
    roots = _component_roots(n, lines)
    rows = {float(e): {"largest": [], "half": []} for e in eps_list}
    violations = 0
    rngs = [SeededRandomness(seed_digest(master_seed, s)) for s in range(seeds)]
    for opened in kernel.open_pairs([np.arange(n)] * seeds, rngs, max(eps_list)):
        pairs = graphing._open_at(opened, eps_list)
        _, fractions, drops = graphing._ladder(roots, pairs, [0, n])
        violations += int(drops[0] > 0)
        for e, frac in fractions.items():
            perc_deg = np.bincount(pairs[e].ravel(), minlength=n)
            rows[e]["largest"].append(float(frac[0]))
            rows[e]["half"].append(float((line_deg[int_ids] + perc_deg[int_ids]).mean() / 2.0))
    return {e: (*graphing._mean_se(r["largest"]), *graphing._mean_se(r["half"])) for e, r in rows.items()}, violations


@pytest.mark.parametrize(
    "specs, wr, margin",
    [((F2, F2), 3, 1), ((F2, F2), 4, 2), ((Z1, Z1), 5, 2)],
    ids=["F2xF2-3", "F2xF2-4", "ZxZ-5"],
)
def test_baseline_rows_are_those_of_its_seeds_one_by_one(specs, wr, margin):
    # The baseline runs one ladder over the disjoint union of its seeds'
    # windows; every row and the violation count are, to the bit, those of
    # each seed measured alone.
    metric = ProductMetric(*(make_oracle(spec) for spec in specs), 1)
    eps_list = [0.0, 0.05, 0.2, 1.0, 0.2]
    rep = coset_line_baseline(metric, wr, margin, eps_list, 6, 31)
    want, violations = _baseline_by_seed(metric, wr, margin, eps_list, 6, 31)
    got = {
        r.eps: (r.largest_fraction_mean, r.largest_fraction_se, r.half_degree_mean, r.half_degree_se)
        for r in rep.rows
    }
    assert got == want and rep.monotone_violations == violations
    assert len({v[0] for v in got.values()}) > 1 and len(rep.rows) == 4


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
    # At p = 1 the seed opens every rank of every sphere of its 49 points.
    kernel = CertainKernel(metric, 2)
    ranks = len(kernel.space) * sum(kernel.counts.values())
    rep = coset_line_baseline(metric, 2, 1, [0.0, 1.0], 1, 5, cap=ranks)
    assert rep.rows[1].largest_fraction_mean == 1.0
    with pytest.raises(ResourceCapError, match="percolation pairs"):
        coset_line_baseline(metric, 2, 1, [0.0, 1.0], 1, 5, cap=ranks - 1)


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
    # of three epsilons drops twice, and each seed counts once; one read
    # gives every seed of a batch its fraction.
    falling = itertools.count()

    def fraction(roots, starts):
        return np.full(len(starts) - 1, -next(falling), dtype=np.float64)

    monkeypatch.setattr(graphing, "largest_component_fraction", fraction)
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
