import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

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
from horolab.errors import InvariantViolation, ResourceCapError
from horolab.groups import GroupSpec, growth_series, make_oracle
from horolab.point_process import sample_diamond_process
from horolab.product import ProductMetric
from horolab.randomness import SeededRandomness, seed_digest
from horolab.schedule import build_schedule, linear_schedule

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)


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


# Percolation kernel ---------------------------------------------------------


def test_kernel_total_mass_and_truncation(f2_ctx):
    k = f2_ctx.kernel
    assert k.total_mass == 1
    enumerated = sum(Fraction(1, 2 ** (j + 1)) for j in range(len(k.nums)))
    assert enumerated + k.truncation_mass == 1
    assert all(p > 0 for _, _, p in k.annuli)


def test_kernel_counts_match_sphere_sums(f2_ctx):
    g = growth_series(F2, 10)
    for num, count, _ in f2_ctx.kernel.annuli[:6]:
        # c = 1: annulus at integer radius `num` has count sum s_t s'_{num-t}
        expected = sum(g.spheres[t] * g.spheres[num - t] for t in range(num + 1))
        assert count == expected


def test_kernel_invariance(f2_ctx):
    # p depends only on the rho distance, hence invariant and symmetric
    lut = f2_ctx.kernel.lut
    assert lut[0] == 0.0
    nums = np.array([1, 2, 1, 3])
    assert (f2_ctx.kernel.prob_nums(nums) == lut[nums]).all()


# Pi1 descent forest ---------------------------------------------------------


def _seed_window(ctx, key):
    proc = sample_diamond_process(ctx.pctx, key)
    return build_marked_window(ctx, proc)


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
        assert int(mw.v_pid[tv]) in mw.member_sets[int(mw.v_k[vi])]


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


def test_overlapping_diamonds_have_distinct_vertices(f2_ctx):
    mw = _seed_window(f2_ctx, seed_digest(24, 2))
    by_pid = mw.copies_at
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


def test_percolation_eps_zero_empty(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(30, 0))
    rng = SeededRandomness(seed_digest(30, 0))
    opens = build_percolation(z_ctx, sorted(mw.copies_at), rng, [0.0])
    assert opens[0.0] == []


def test_percolation_marginal_frequency(z_ctx):
    # fixed pair open frequency ~ eps * p over many seeds (3 SE band)
    space = z_ctx.pctx.space
    a = space.lookup_elements((0,), (0,))
    b = space.lookup_elements((1,), (0,))
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
    a = space.lookup_elements((0,), (0,))
    b = space.lookup_elements((1,), (0,))
    saved = z_ctx.kernel.lut.copy()
    z_ctx.kernel.lut[:] = 1.0
    try:
        for s in range(10):
            rng = SeededRandomness(seed_digest(78, s))
            opens = build_percolation(z_ctx, [a, b], rng, [1.0])
            assert opens[1.0] == [(min(a, b), max(a, b))]
    finally:
        z_ctx.kernel.lut[:] = saved


def test_percolation_monotone_in_eps(z_ctx):
    mw = _seed_window(z_ctx, seed_digest(31, 0))
    rng = SeededRandomness(seed_digest(31, 0))
    opens = build_percolation(z_ctx, sorted(mw.copies_at), rng, [0.05, 0.1, 0.3])
    assert set(opens[0.05]) <= set(opens[0.1]) <= set(opens[0.3])


def test_lifting_to_marked_copies(f2_ctx):
    mw = _seed_window(f2_ctx, seed_digest(32, 1))
    pids = sorted(mw.copies_at)
    pa, pb = pids[0], pids[1]
    lifted = lift_open_pairs(mw, [(pa, pb)])
    assert len(lifted) == len(mw.copies_at[pa]) * len(mw.copies_at[pb])


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
    multi = [pid for pid, copies in mw.copies_at.items() if len(copies) >= 2]
    if not multi:
        pytest.skip("no overlaps in this sample")
    copies = mw.copies_at[multi[0]]
    k1, k2 = int(mw.v_k[copies[0]]), int(mw.v_k[copies[1]])
    mw.marks[k2] = mw.marks[k1]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, SeededRandomness(seed_digest(35, 0)))


def _overlap_window(ctx):
    """The first seed window (master seed 35) with a multiply covered point."""
    for s in range(20):
        mw = _seed_window(ctx, seed_digest(35, s))
        if any(len(copies) >= 2 for copies in mw.copies_at.values()):
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
        for pid, copies in mw.copies_at.items():
            ranked = sorted(copies, key=lambda vi: (mw.marks[int(mw.v_k[vi])], vi))
            w = rng.uniform(int(pd[pid]), STREAM_OVERLAP)
            expected[ranked[surviving_index(len(ranked), w) - 1]] = True
        np.testing.assert_array_equal(break_overlaps(mw, rng), expected)


def test_forced_mark_tie_at_last_overlap_raises(f2_ctx):
    from horolab.errors import MarkCollisionError
    from horolab.graphing import break_overlaps

    mw, key = _overlap_window(f2_ctx)
    last = [copies for copies in mw.copies_at.values() if len(copies) >= 2][-1]
    mw.marks[int(mw.v_k[last[1]])] = mw.marks[int(mw.v_k[last[0]])]
    with pytest.raises(MarkCollisionError):
        break_overlaps(mw, SeededRandomness(key))


def test_mark_tie_rejects_the_seed_in_a_sweep(f2_ctx, monkeypatch):
    from horolab import graphing

    def tied_window(ctx, process):
        mw = build_marked_window(ctx, process)
        for copies in mw.copies_at.values():
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
    from horolab import graphing
    from horolab.graphing import SeedStats

    def failing_run_seed(ctx, key, eps_list, primary_eps, seed_index=0, collect=None):
        if seed_index == 3:
            raise error
        return SeedStats(seed_index=seed_index)

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
        elif name == "s0_mask":
            assert stages[name].tolist() == direct[name].tolist()
        else:
            assert stages[name] == direct[name], name


def test_s0_projects_bijectively(f2_ctx):
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(33, 0))
    rng = SeededRandomness(seed_digest(33, 0))
    keep = break_overlaps(mw, rng)
    kept_pids = [int(mw.v_pid[vi]) for vi in np.flatnonzero(keep)]
    assert len(kept_pids) == len(set(kept_pids)) == len(mw.copies_at)


# phi / psi / Pi4 / Pi5 ------------------------------------------------------


def _fake_mw(n, pids):
    return SimpleNamespace(n_vertices=n, v_pid=np.asarray(pids, dtype=np.int64))


def test_phi_prefers_smaller_w1_on_ties():
    # path graph 0-1-2; sources 0 and 2 equidistant from 1
    adj_edges = [(0, 1), (1, 2)]
    dist, best = assign_phi(3, _adj(3, adj_edges), [0, 2], [0.9, 0.5, 0.1])
    assert dist == [0, 1, 0]
    assert best[1] == (0.1, 2)


def _adj(n, edges):
    out = [[] for _ in range(n)]
    for a, b in edges:
        out[a].append(b)
        out[b].append(a)
    return out


def test_pi45_all_sources_identity():
    # S'_0 = S': phi is the identity, F empty, Pi4 = Pi3 between distinct
    edges = [(0, 1), (1, 2), (2, 3)]
    mw = _fake_mw(4, [10, 11, 12, 13])
    out = build_forest_and_pi45(mw, edges, [True] * 4, [0.1, 0.2, 0.3, 0.4])
    assert out["f_edges"] == []
    assert out["pi4"] == edges
    assert out["pi5"] == [(10, 11), (11, 12), (12, 13)]


def test_pi45_single_source_component():
    edges = [(0, 1), (1, 2)]
    mw = _fake_mw(3, [10, 11, 12])
    out = build_forest_and_pi45(mw, edges, [False, True, False], [0.5, 0.5, 0.5])
    assert out["pi4"] == []
    assert out["pi5"] == []
    assert sorted(out["f_edges"]) == [(0, 1), (2, 1)]


def test_pi45_flagged_component():
    # component {3,4} has no source: flagged, excluded
    edges = [(0, 1), (3, 4)]
    mw = _fake_mw(5, [10, 11, 12, 13, 14])
    out = build_forest_and_pi45(mw, edges, [True, False, True, False, False], [0.1] * 5)
    assert set(out["flagged_vertices"]) == {3, 4}
    assert out["f_edges"] == [(1, 0)]


def test_pi5_connected_joins_the_sources_of_each_component():
    # Pi3 components {0, 1, 2} (sources 0 and 2) and {3} (source 3)
    edges = [(0, 1), (1, 2)]
    mw = _fake_mw(4, [10, 11, 12, 13])
    out = build_forest_and_pi45(mw, edges, [True, False, True, True], [0.1, 0.2, 0.3, 0.4])
    assert out["pi4"] == [(0, 2)]
    roots = _component_roots(4, edges)
    assert _pi5_connected(roots, out)
    assert not _pi5_connected(roots, {**out, "pi4": []})


def test_forest_accounting_matches_deleted_points(f2_ctx):
    from horolab.graphing import break_overlaps

    mw = _seed_window(f2_ctx, seed_digest(34, 0))
    pi1 = build_pi1(mw)
    rng = SeededRandomness(seed_digest(34, 0))
    edges, _, _ = pi3_edges(mw, pi1, [])
    keep = break_overlaps(mw, rng)
    w1 = rng.uniforms(f2_ctx.pctx.point_digests[mw.v_pid], "w1:percolation")
    out = build_forest_and_pi45(mw, edges, keep, w1.tolist())
    flagged = set(out["flagged_vertices"])
    deleted_covered = [
        v for v in range(mw.n_vertices) if not keep[v] and v not in flagged
    ]
    # sum d+ = sum d- = number of deleted (covered) marked points
    assert len(out["f_edges"]) == len(deleted_covered)


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


def test_largest_component_fraction():
    assert largest_component_fraction(_component_roots(4, [(0, 1), (2, 3)])) == 0.5
    assert largest_component_fraction(_component_roots(3, [(0, 1), (1, 2)])) == 1.0
    assert largest_component_fraction([0, 0, 2, 3]) == 0.5
    assert largest_component_fraction(_component_roots(0, [])) == 0.0
    assert largest_component_fraction([]) == 0.0


# Baseline -------------------------------------------------------------------


def test_baseline_eps_zero_lines():
    g = growth_series(F2, 10)
    metric = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
    rep = coset_line_baseline(metric, g, g, 3, 1, [0.0], 3, 5)
    assert rep.line_partition_ok
    row = rep.rows[0]
    assert row["half_degree_mean"] == pytest.approx(1.0)
    assert row["expected_half_degree"] == 1.0


def test_baseline_monotone_and_expected_half():
    g = growth_series(Z1, 20)
    metric = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    rep = coset_line_baseline(metric, g, g, 5, 2, [0.0, 0.1, 0.3], 30, 17)
    assert rep.monotone_violations == 0
    fr = [r["largest_fraction_mean"] for r in rep.rows]
    assert fr[0] <= fr[1] <= fr[2]
    for r in rep.rows:
        se = max(r["half_degree_se"], 1e-6)
        assert abs(r["half_degree_mean"] - r["expected_half_degree"]) <= 4 * se


def test_baseline_needs_infinite_order_generator():
    from horolab.errors import InputError

    spec = GroupSpec("cyclic", order=4)
    g = growth_series(spec, 4)
    metric = ProductMetric(make_oracle(spec), make_oracle(spec), 1)
    with pytest.raises(InputError):
        coset_line_baseline(metric, g, g, 2, 1, [0.0], 2, 1)
