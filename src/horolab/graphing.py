"""Window graphing pipeline: descent forest, percolation, induced stages.

Per seed: sample a diamond process, keep the diamonds whose descent forest
is well defined across the window (center far enough in the first factor),
build the horizontal descent forest, add an invariant pair percolation,
break overlaps to a transversal, collapse to the induced graphings, and
estimate Palm degrees and the cost bound on the margin-trimmed interior.

Degree estimators use the mass-transport form: the Palm expectation of the
full degree equals out-degree plus half the percolation degree for the
forest-plus-percolation union, which is insensitive to boundary flux; the
raw in/out imbalance is reported separately as the boundary deficit.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import HorolabError, InputError, InvariantViolation, MarkCollisionError
from .groups import DEFAULT_ENUM_CAP, GrowthSeries
from .horoboundary import GeodesicRay, Horofunction, ProductHorofunction, spell
from .product import ProductMetric, ProductSpace
from .point_process import ProcessContext, factor_digests, sample_diamond_process
from .randomness import (
    STREAM_OVERLAP,
    STREAM_PERCOLATION,
    SeededRandomness,
    combine_digests,
    combine_unordered,
    seed_digest,
)
from .schedule import SlopeSchedule


class PercolationKernel:
    """Invariant pair weights p(x,y) = 2^-(j+1) / |sphere_j|.

    sphere_j is the j-th nonempty positive rho_c sphere of G'' in
    increasing radius order, with counts taken from the factor growth
    series, so the total mass over the whole group is exactly 1; the mass
    not reachable inside a window of the given radius is the truncation
    mass 2^-(#enumerated spheres) and is reported, never redistributed.
    """

    def __init__(
        self,
        metric: ProductMetric,
        growth: GrowthSeries,
        growth2: GrowthSeries,
        max_radius,
    ):
        p, q = metric.c.numerator, metric.c.denominator
        max_num = metric.radius_num(max_radius)
        counts = {}
        for t in range(max_num // p + 1):
            for t2 in range((max_num - t * p) // q + 1):
                num = t * p + t2 * q
                if num == 0:
                    continue
                cnt = growth.sphere(t) * growth2.sphere(t2)
                if cnt:
                    counts[num] = counts.get(num, 0) + cnt
        self.metric = metric
        self.nums = sorted(counts)
        self.lut = np.zeros(max_num + 1, dtype=np.float64)
        self.annuli = []
        for j, num in enumerate(self.nums):
            prob = 0.5 ** (j + 1) / counts[num]
            self.lut[num] = prob
            self.annuli.append((num, counts[num], prob))
        self.truncation_mass = Fraction(1, 2 ** len(self.nums))
        self.total_mass = Fraction(1)  # sum over all spheres, closed form

    def prob_nums(self, rho_nums: np.ndarray) -> np.ndarray:
        return self.lut[rho_nums]


class GraphingContext:
    """Window geometry, kernel and descent cache shared across seeds."""

    def __init__(
        self,
        metric: ProductMetric,
        schedule: SlopeSchedule,
        n: int,
        window_radius: int,
        margin: int,
        cap: int = DEFAULT_ENUM_CAP,
    ):
        if margin < 1 or margin >= window_radius:
            raise InputError("margin must satisfy 1 <= margin < window radius")
        if schedule.growth is None or schedule.growth2 is None:
            raise InputError("graphing needs a schedule with growth series attached")
        self.metric = metric
        self.schedule = schedule
        self.n = n
        self.window_radius = window_radius
        self.margin = margin
        self.interior_radius = window_radius - margin
        self.pctx = ProcessContext(metric, schedule, n, window_radius, cap)
        space = self.pctx.space
        self.interior_mask = space.mask_within(self.interior_radius)
        self.kernel = PercolationKernel(
            metric, schedule.growth, schedule.growth2, 2 * window_radius
        )
        self.D1 = space.ball1.distance_matrix(space.ball1.volume(window_radius))
        self.D2 = space.ball2.distance_matrix(space.ball2.volume(self._second_radius()))
        self._tau_cache = {}
        self._ray_cache = {}

    def _second_radius(self) -> int:
        c, wr = self.metric.c, self.window_radius
        return (c.numerator * wr) // c.denominator

    def first_dist_of_center(self, pid: int) -> int:
        space = self.pctx.space
        return int(space.ball1.dist[int(space.pts1[pid])])

    def keeps_center(self, pid: int) -> bool:
        """Descent-safety rule: the center's first coordinate must sit
        beyond the interior window, else descent can pass the center and
        leave the diamond at interior points."""
        return self.first_dist_of_center(pid) > self.interior_radius

    def tau(self, center_fi: int, y_fi: int):
        """First-coordinate descent target toward the center's direction."""
        key = (center_fi, y_fi)
        hit = self._tau_cache.get(key)
        if hit is not None:
            return hit
        ball1 = self.pctx.space.ball1
        h = self._ray_cache.get(center_fi)
        if h is None:
            ray = GeodesicRay.through(self.metric.first, ball1.elements[center_fi])
            h = Horofunction(self.metric.first, ray, probe_radius=ball1.radius + 2)
            self._ray_cache[center_fi] = h
        target = h.descend(ball1.elements[y_fi])
        tfi = ball1.index.get(target, -1)
        self._tau_cache[key] = tfi
        return tfi


@dataclass
class MarkedWindow:
    """Per-seed vertex set S' (marked points of the kept diamonds)."""

    ctx: GraphingContext
    diamonds: list  # kept PointedDiamond records
    excluded_diamonds: int
    v_pid: np.ndarray
    v_k: np.ndarray
    v_interior: np.ndarray
    member_sets: list
    copies_at: dict
    marks: list

    @property
    def n_vertices(self) -> int:
        return len(self.v_pid)


def build_marked_window(ctx: GraphingContext, process) -> MarkedWindow:
    kept = []
    excluded = 0
    for d in process.diamonds:
        if not len(d.member_ids):
            continue
        if ctx.keeps_center(d.center_pid):
            kept.append(d)
        else:
            excluded += 1
    v_pid, v_k = [], []
    member_sets = []
    copies_at = {}
    for k, d in enumerate(kept):
        member_sets.append(set(d.member_ids.tolist()))
        for pid in d.member_ids.tolist():
            copies_at.setdefault(pid, []).append(len(v_pid))
            v_pid.append(pid)
            v_k.append(k)
    v_pid = np.asarray(v_pid, dtype=np.int64)
    v_k = np.asarray(v_k, dtype=np.int32)
    v_interior = (
        ctx.interior_mask[v_pid] if len(v_pid) else np.zeros(0, dtype=bool)
    )
    return MarkedWindow(
        ctx=ctx,
        diamonds=kept,
        excluded_diamonds=excluded,
        v_pid=v_pid,
        v_k=v_k,
        v_interior=v_interior,
        member_sets=member_sets,
        copies_at=copies_at,
        marks=[d.mark for d in kept],
    )


@dataclass
class Pi1Forest:
    """Horizontal descent forest: one out-edge per non-stalled vertex."""

    target: np.ndarray  # vertex index of the out-edge target, -1 when stalled
    stalled: int
    interior_violations: int
    parallel_violations: int


def build_pi1(mw: MarkedWindow) -> Pi1Forest:
    ctx = mw.ctx
    space = ctx.pctx.space
    n = mw.n_vertices
    target = np.full(n, -1, dtype=np.int64)
    vert_index = {}
    for vi in range(n):
        vert_index[(int(mw.v_pid[vi]), int(mw.v_k[vi]))] = vi
    stalled = 0
    interior_violations = 0
    window_num = ctx.metric.radius_num(ctx.window_radius)
    by_group = {}
    for vi in range(n):
        pid = int(mw.v_pid[vi])
        k = int(mw.v_k[vi])
        cfi = int(space.pts1[mw.diamonds[k].center_pid])
        yfi = int(space.pts1[pid])
        tfi = ctx.tau(cfi, yfi)
        tv = -1
        if tfi >= 0:
            tpid = space.lookup(tfi, int(space.pts2[pid]))
            if (
                tpid is not None
                and space.rho_num[tpid] <= window_num
                and tpid in mw.member_sets[k]
            ):
                tv = vert_index[(tpid, k)]
        target[vi] = tv
        if tv < 0:
            stalled += 1
            if mw.v_interior[vi]:
                interior_violations += 1
        by_group.setdefault((k, yfi), []).append(vi)
    parallel_violations = 0
    for (_, _), group in by_group.items():
        # Same first coordinate within one diamond: out-edges must be
        # parallel (same target first coordinate, second unchanged).
        tfis = set()
        for vi in group:
            tv = int(target[vi])
            if tv >= 0:
                tfis.add(int(space.pts1[mw.v_pid[tv]]))
                if int(space.pts2[mw.v_pid[tv]]) != int(space.pts2[mw.v_pid[vi]]):
                    parallel_violations += 1
        if len(tfis) > 1:
            parallel_violations += 1
    return Pi1Forest(
        target=target,
        stalled=stalled,
        interior_violations=interior_violations,
        parallel_violations=parallel_violations,
    )


def build_percolation(ctx: GraphingContext, base_pids, rng: SeededRandomness, eps_list):
    """Open base-point pairs per epsilon; one uniform per unordered pair.

    The same uniforms serve every epsilon, so openness is monotone in
    epsilon by construction.
    """
    S = np.asarray(sorted(int(p) for p in base_pids), dtype=np.int64)
    out = {float(e): [] for e in eps_list}
    if len(S) < 2 or not eps_list:
        return out
    space = ctx.pctx.space
    c = ctx.metric.c
    ia, ib = np.triu_indices(len(S), 1)
    f1 = space.pts1[S]
    f2 = space.pts2[S]
    rho_nums = (
        ctx.D1[f1[ia], f1[ib]].astype(np.int64) * c.numerator
        + ctx.D2[f2[ia], f2[ib]].astype(np.int64) * c.denominator
    )
    base_prob = ctx.kernel.prob_nums(rho_nums)
    pd = ctx.pctx.point_digests
    u = rng.uniforms(combine_unordered(pd[S[ia]], pd[S[ib]]), STREAM_PERCOLATION)
    emax = max(eps_list)
    cand = np.flatnonzero(u < emax * base_prob)
    for e in eps_list:
        sel = cand[u[cand] < float(e) * base_prob[cand]]
        out[float(e)] = [(int(S[ia[s]]), int(S[ib[s]])) for s in sel.tolist()]
    return out


def lift_open_pairs(mw: MarkedWindow, open_pairs) -> list:
    """pi^{-1}: every open base pair lifts to all marked copy pairs."""
    edges = []
    for pa, pb in open_pairs:
        for va in mw.copies_at.get(pa, ()):
            for vb in mw.copies_at.get(pb, ()):
                edges.append((min(va, vb), max(va, vb)))
    return edges


def pi3_edges(mw: MarkedWindow, pi1: Pi1Forest, open_pairs) -> tuple:
    """Deduplicated undirected edge set of Pi3 = Pi1 union lifted Pi2.

    Returns (edge list, pi1-edge count, lifted-percolation edge count),
    where a doubly-realised pair counts once and as a forest edge.
    """
    seen = set()
    for vi, tv in enumerate(pi1.target.tolist()):
        if tv >= 0:
            seen.add((min(vi, tv), max(vi, tv)))
    n_pi1 = len(seen)
    for e in lift_open_pairs(mw, open_pairs):
        seen.add(e)
    edges = sorted(seen)
    return edges, n_pi1, len(edges) - n_pi1


def surviving_index(k: int, w: float) -> int:
    """1-based index of the surviving copy among k mark-sorted copies:
    clamp(ceil(k w), 1, k)."""
    return min(max(math.ceil(k * w), 1), k)


def break_overlaps(mw: MarkedWindow, rng: SeededRandomness) -> np.ndarray:
    """Keep one marked copy per covered point, selected by the point's
    overlap label among the copies sorted by mark."""
    ctx = mw.ctx
    keep = np.zeros(mw.n_vertices, dtype=bool)
    pids = np.fromiter(mw.copies_at, dtype=np.int64, count=len(mw.copies_at))
    labels = rng.uniforms(ctx.pctx.point_digests[pids], STREAM_OVERLAP).tolist()
    for copies, w in zip(mw.copies_at.values(), labels):
        ranked = sorted(copies, key=lambda vi: (mw.marks[int(mw.v_k[vi])], vi))
        k = len(ranked)
        if k > 1:
            marks = [mw.marks[int(mw.v_k[vi])] for vi in ranked]
            if len(set(marks)) != k:
                raise MarkCollisionError(
                    "overlapping diamonds drew identical marks; reject this seed"
                )
        keep[ranked[surviving_index(k, w) - 1]] = True
    return keep


def _adjacency(n: int, edges) -> list:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def assign_phi(n: int, adj, sources, w1) -> tuple:
    """Closest S'_0 vertex in Pi3 graph distance, ties by the w1 label
    (then vertex index).  Returns (dist, best) with best[v] = (w1, source).
    Unreached vertices keep dist -1 (their component has no source)."""
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


def build_forest_and_pi45(mw: MarkedWindow, edges, s0_mask, w1) -> dict:
    """F (geodesic-step forest to the transversal), Pi4 on S'_0, Pi5 on S."""
    n = mw.n_vertices
    adj = _adjacency(n, edges)
    sources = [v for v in range(n) if s0_mask[v]]
    dist, best = assign_phi(n, adj, sources, w1)
    flagged = [v for v in range(n) if dist[v] == -1]
    f_edges = []
    for v in range(n):
        if dist[v] <= 0:
            continue
        eligible = [
            u for u in adj[v] if dist[u] == dist[v] - 1 and best[u] == best[v]
        ]
        if not eligible:
            raise InvariantViolation("no geodesic step toward the phi target")
        psi = min(eligible, key=lambda u: (w1[u], u))
        f_edges.append((v, psi))
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
    return {
        "dist": dist,
        "best": best,
        "flagged_vertices": flagged,
        "f_edges": f_edges,
        "pi4": sorted(pi4),
        "pi5": sorted(pi5),
    }


class UnionFind:
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


def _component_roots(n: int, edges) -> list:
    """Union-find root of every vertex of the graph on range(n)."""
    uf = UnionFind(n)
    for a, b in edges:
        uf.union(a, b)
    return [uf.find(v) for v in range(n)]


def largest_component_fraction(roots) -> float:
    """Share of the vertices in the largest component, given the root
    label of every vertex."""
    if not roots:
        return 0.0
    return max(Counter(roots).values()) / len(roots)


@dataclass
class SeedStats:
    seed_index: int
    rejected: bool = False  # mark collision: float-tie guard fired
    n_diamonds: int = 0
    excluded_diamonds: int = 0
    n_vertices: int = 0
    n_interior: int = 0
    n_bases: int = 0
    pi1_interior_violations: int = 0
    parallel_violations: int = 0
    stalled: int = 0
    half_deg_pi1: float = float("nan")
    half_deg_pi3: float = float("nan")
    half_deg_pi3_raw: float = float("nan")
    mean_deg_pi3_palm: float = float("nan")
    perc_deg_interior_mean: float = 0.0
    boundary_deficit: float = 0.0
    lambda_hat: float = float("nan")
    pi5_lhs: float = float("nan")
    pi5_rhs: float = float("nan")
    pi5_se: float = float("nan")
    pi5_checked: bool = False
    pi5_ok: bool = True
    pi5_connected_ok: bool = True
    flagged_components: int = 0
    largest_fraction: dict = field(default_factory=dict)
    monotone_ok: bool = True
    n_s0_interior: int = 0
    n_sprime_interior: int = 0


def run_seed(
    ctx: GraphingContext,
    seed_key: int,
    eps_list,
    primary_eps,
    seed_index=0,
    collect: dict = None,
):
    """One full pipeline pass; returns window-scale statistics.

    When `collect` is a dict it receives the marked window and the edge
    lists of every stage (for dumps and debugging)."""
    rng = SeededRandomness(seed_key)
    process = sample_diamond_process(ctx.pctx, seed_key)
    mw = build_marked_window(ctx, process)
    st = SeedStats(seed_index=seed_index)
    st.n_diamonds = len(process.diamonds)
    st.excluded_diamonds = mw.excluded_diamonds
    st.n_vertices = mw.n_vertices
    if mw.n_vertices == 0:
        return st
    pi1 = build_pi1(mw)
    st.stalled = pi1.stalled
    st.pi1_interior_violations = pi1.interior_violations
    st.parallel_violations = pi1.parallel_violations
    interior = np.flatnonzero(mw.v_interior)
    st.n_interior = len(interior)
    base_pids = sorted(mw.copies_at)
    st.n_bases = len(base_pids)
    opens = build_percolation(ctx, base_pids, rng, sorted(set(list(eps_list) + [primary_eps])))
    # Monotone-merging check over the shared uniforms.
    prev = -1.0
    for e in sorted(opens):
        edges_e, _, _ = pi3_edges(mw, pi1, opens[e])
        roots_e = _component_roots(mw.n_vertices, edges_e)
        if e == float(primary_eps):
            edges, roots = edges_e, roots_e
        frac = largest_component_fraction(roots_e)
        st.largest_fraction[e] = frac
        if frac < prev - 1e-12:
            st.monotone_ok = False
        prev = frac
    deg = np.zeros(mw.n_vertices, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    out_deg = (pi1.target >= 0).astype(np.int64)
    in_deg = np.zeros(mw.n_vertices, dtype=np.int64)
    np.add.at(in_deg, pi1.target[pi1.target >= 0], 1)
    perc_deg = deg - out_deg - in_deg
    if len(interior):
        st.half_deg_pi1 = float(out_deg[interior].mean())
        st.perc_deg_interior_mean = float(perc_deg[interior].mean())
        st.half_deg_pi3 = float(
            (out_deg[interior] + perc_deg[interior] / 2.0).mean()
        )
        st.half_deg_pi3_raw = float(deg[interior].mean() / 2.0)
        st.mean_deg_pi3_palm = float((2 * out_deg[interior] + perc_deg[interior]).mean())
        st.boundary_deficit = float(
            abs(int(in_deg[interior].sum()) - int(out_deg[interior].sum()))
        ) / len(interior)
    s0_mask = break_overlaps(mw, rng)
    pd = ctx.pctx.point_digests
    w1 = rng.uniforms(pd[mw.v_pid], STREAM_PERCOLATION)
    stages = build_forest_and_pi45(mw, edges, s0_mask, w1.tolist())
    if collect is not None:
        pi1_edges = [
            (vi, int(t)) for vi, t in enumerate(pi1.target.tolist()) if t >= 0
        ]
        collect.update(
            marked_window=mw,
            pi1=pi1_edges,
            pi2_lifted=lift_open_pairs(mw, opens[float(primary_eps)]),
            pi3=edges,
            f_edges=stages["f_edges"],
            pi4=stages["pi4"],
            pi5=stages["pi5"],
            s0_mask=s0_mask,
        )
    flagged = set(stages["flagged_vertices"])
    st.flagged_components = len({roots[v] for v in flagged})
    ok_interior = [v for v in interior.tolist() if v not in flagged]
    s0_interior = [v for v in ok_interior if s0_mask[v]]
    st.n_sprime_interior = len(ok_interior)
    st.n_s0_interior = len(s0_interior)
    if ok_interior and s0_interior:
        lam = len(s0_interior) / len(ok_interior)
        st.lambda_hat = lam
        pi5_deg = {}
        for pa, pb in stages["pi5"]:
            pi5_deg[pa] = pi5_deg.get(pa, 0) + 1
            pi5_deg[pb] = pi5_deg.get(pb, 0) + 1
        interior_bases = sorted({int(mw.v_pid[v]) for v in s0_interior})
        lhs_vals = np.asarray(
            [pi5_deg.get(p, 0) for p in interior_bases], dtype=np.float64
        )
        palm_vals = (2 * out_deg + perc_deg)[np.asarray(ok_interior, dtype=np.int64)]
        st.pi5_lhs = float(lhs_vals.mean())
        st.pi5_rhs = float(palm_vals.mean()) / lam - 2.0 / lam + 2.0
        se_lhs = float(lhs_vals.std(ddof=1) / math.sqrt(len(lhs_vals))) if len(lhs_vals) > 1 else 0.0
        se_palm = (
            float(palm_vals.std(ddof=1) / math.sqrt(len(palm_vals)))
            if len(palm_vals) > 1
            else 0.0
        )
        st.pi5_se = se_lhs + se_palm / lam
        st.pi5_checked = True
        st.pi5_ok = st.pi5_lhs <= st.pi5_rhs + 3.0 * st.pi5_se + 1e-9
    st.pi5_connected_ok = _pi5_connected(roots, stages)
    return st


def _pi5_connected(roots, stages) -> bool:
    """Pi5 restricted to each covered Pi3 component must be connected;
    `roots` labels the Pi3 components.  Sources (dist 0) are never
    flagged, so every source lies in a covered component."""
    uf = UnionFind(len(roots))
    for sa, sb in stages["pi4"]:
        if roots[sa] == roots[sb]:
            uf.union(sa, sb)
    first = {}  # Pi3 component -> Pi4 root of its first source
    for v, d in enumerate(stages["dist"]):
        if d == 0 and first.setdefault(roots[v], uf.find(v)) != uf.find(v):
            return False
    return True


@dataclass
class CostReport:
    seeds: int
    eps: float
    stages: list  # dicts: stage, half_degree_mean, half_degree_se, ...
    lambda_hat_mean: float
    pi5_bound_lhs: float
    pi5_bound_rhs: float
    pi5_violations: int
    boundary_deficit: float
    truncation_mass: float
    excluded_diamond_fraction: float
    pi1_interior_violations: int
    parallel_violations: int
    monotone_violations: int
    largest_fraction_by_eps: dict
    runs: list
    rejected_seeds: int = 0
    seed0_stages: dict = field(default_factory=dict)  # run_seed's `collect` for seed 0

    def to_json_dict(self) -> dict:
        out = {
            "seeds": self.seeds,
            "eps": self.eps,
            "stages": self.stages,
            "lambda_hat": self.lambda_hat_mean,
            "pi5_bound_lhs": self.pi5_bound_lhs,
            "pi5_bound_rhs": self.pi5_bound_rhs,
            "pi5_violations": self.pi5_violations,
            "boundary_deficit": self.boundary_deficit,
            "kernel_truncation_mass": self.truncation_mass,
            "excluded_diamond_fraction": self.excluded_diamond_fraction,
            "pi1_interior_violations": self.pi1_interior_violations,
            "parallel_violations": self.parallel_violations,
            "monotone_violations": self.monotone_violations,
            "rejected_seeds": self.rejected_seeds,
            "largest_fraction_by_eps": {
                str(k): v for k, v in sorted(self.largest_fraction_by_eps.items())
            },
        }
        return out


def _mean_se(values) -> tuple:
    arr = np.asarray([v for v in values if not math.isnan(v)], dtype=np.float64)
    if len(arr) == 0:
        return float("nan"), float("nan")
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), se


_WORKER = {}


def _seed_job(args, collect=None):
    key, eps_list, primary_eps, seed_index = args
    try:
        return run_seed(
            _WORKER["ctx"], key, eps_list, primary_eps, seed_index=seed_index, collect=collect
        )
    except MarkCollisionError:
        return SeedStats(seed_index=seed_index, rejected=True)
    except HorolabError as exc:
        raise exc.at_seed(seed_index) from exc


def cost_report(
    ctx: GraphingContext,
    seeds: int,
    eps_list,
    primary_eps: float,
    master_seed: int,
    threads: int = 1,
) -> CostReport:
    keys = [(s, seed_digest(master_seed, s)) for s in range(seeds)]
    jobs = [(key, tuple(eps_list), primary_eps, s) for s, key in keys]
    seed0_stages = {}
    _WORKER["ctx"] = ctx  # inherited by fork, avoids pickling the context
    try:
        if threads > 1:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(threads) as pool:
                runs = pool.map(_seed_job, jobs[1:])
        else:
            runs = [_seed_job(job) for job in jobs[1:]]
        # Seed 0 runs in this process, so its stages need no pickling; it
        # runs after the pool, so forked workers do not inherit its memory.
        runs += [_seed_job(job, collect=seed0_stages) for job in jobs[:1]]
    finally:
        _WORKER.clear()
    runs.sort(key=lambda st: st.seed_index)
    rejected = sum(1 for r in runs if r.rejected)
    runs_ok = [r for r in runs if not r.rejected]
    h1_mean, h1_se = _mean_se([r.half_deg_pi1 for r in runs_ok])
    h3_mean, h3_se = _mean_se([r.half_deg_pi3 for r in runs_ok])
    h3r_mean, h3r_se = _mean_se([r.half_deg_pi3_raw for r in runs_ok])
    lam_mean, _ = _mean_se([r.lambda_hat for r in runs_ok])
    lhs_mean, _ = _mean_se([r.pi5_lhs for r in runs_ok if r.pi5_checked])
    rhs_mean, _ = _mean_se([r.pi5_rhs for r in runs_ok if r.pi5_checked])
    deficit_mean, _ = _mean_se([r.boundary_deficit for r in runs_ok])
    frac = {}
    for e in sorted({e for r in runs_ok for e in r.largest_fraction}):
        frac[e], _ = _mean_se(
            [r.largest_fraction.get(e, float("nan")) for r in runs_ok]
        )
    masked = [r for r in runs_ok if r.n_diamonds > 0]
    excl = (
        sum(r.excluded_diamonds for r in masked)
        / max(1, sum(r.n_diamonds for r in masked))
    )
    stages = [
        {
            "stage": "pi1",
            "half_degree_mean": h1_mean,
            "half_degree_se": h1_se,
        },
        {
            "stage": "pi3",
            "half_degree_mean": h3_mean,
            "half_degree_se": h3_se,
        },
        {
            "stage": "pi3_raw",
            "half_degree_mean": h3r_mean,
            "half_degree_se": h3r_se,
        },
    ]
    return CostReport(
        seeds=seeds,
        eps=float(primary_eps),
        stages=stages,
        lambda_hat_mean=lam_mean,
        pi5_bound_lhs=lhs_mean,
        pi5_bound_rhs=rhs_mean,
        pi5_violations=sum(1 for r in runs_ok if r.pi5_checked and not r.pi5_ok),
        boundary_deficit=deficit_mean,
        truncation_mass=float(ctx.kernel.truncation_mass),
        excluded_diamond_fraction=float(excl),
        pi1_interior_violations=sum(r.pi1_interior_violations for r in runs_ok),
        parallel_violations=sum(r.parallel_violations for r in runs_ok),
        monotone_violations=sum(1 for r in runs_ok if not r.monotone_ok),
        rejected_seeds=rejected,
        largest_fraction_by_eps=frac,
        runs=runs,
        seed0_stages=seed0_stages,
    )


# Touching paths ------------------------------------------------------------


@dataclass
class TouchingTrace:
    k: int
    k_prime: int
    bound: object
    rho_values: list
    xi1_values: list  # d_theta''_1 along xi^(1)
    xi2_values: list
    bound_ok: bool
    monotone1: bool
    monotone2: bool
    truncated: bool


def touching_paths(
    metric: ProductMetric,
    h1: ProductHorofunction,
    h2: ProductHorofunction,
    eta: list,
    k: int,
    eta_prime: list,
    k_prime: int,
) -> TouchingTrace:
    """Trace the two slope-c paths xi^(1), xi^(2) and verify the bound
    rho_c(xi1_j, xi2_j) <= k + (k'+1)/c plus both containment monotonies.

    eta walks the first factor from x_2 to x_1 (step k) and then descends
    h1's first component; eta_prime walks the second factor from x'_1 to
    x'_2 (step k') and then descends h2's second component.
    """
    c = metric.c
    for path, oracle in ((eta, metric.first), (eta_prime, metric.second)):
        for a, b in zip(path, path[1:]):
            if oracle.distance(a, b) != 1:
                raise InputError("touching path steps must be Cayley edges")
    bound = k + Fraction(k_prime + 1) / c
    j = 0
    rho_vals, v1, v2 = [], [], []
    truncated = False
    while True:
        i1 = j + k
        i2 = math.floor(c * j)
        i3 = j
        i4 = math.ceil(c * j + k_prime)
        if i1 >= len(eta) or i3 >= len(eta) or i2 >= len(eta_prime) or i4 >= len(
            eta_prime
        ):
            truncated = j == 0
            break
        xi1 = (eta[i1], eta_prime[i2])
        xi2 = (eta[i3], eta_prime[i4])
        rho_vals.append(metric.rho(xi1, xi2))
        v1.append(h1.value(xi1))
        v2.append(h2.value(xi2))
        j += 1
    bound_ok = all(r <= bound for r in rho_vals)
    monotone1 = all(b <= a for a, b in zip(v1, v1[1:]))
    monotone2 = all(b <= a for a, b in zip(v2, v2[1:]))
    return TouchingTrace(
        k=k,
        k_prime=k_prime,
        bound=bound,
        rho_values=rho_vals,
        xi1_values=v1,
        xi2_values=v2,
        bound_ok=bound_ok,
        monotone1=monotone1,
        monotone2=monotone2,
        truncated=truncated,
    )


def connect_then_descend(oracle, start, end, h, extra_steps: int) -> tuple:
    """Path start -> end along a geodesic word, then `extra_steps` descent
    steps of the factor horofunction h.  Returns (path, k)."""
    word = spell(oracle, oracle.multiply(oracle.inverse(start), end))
    gens = oracle.generator_map()
    path = [start]
    for lab in word:
        path.append(oracle.multiply(path[-1], gens[lab]))
    k = len(path) - 1
    for _ in range(extra_steps):
        path.append(h.descend(path[-1]))
    return path, k


# Coset-line baseline --------------------------------------------------------


@dataclass
class BaselineReport:
    seeds: int
    rows: list  # dicts per eps: largest_fraction_mean, half_degree_mean, ...
    line_partition_ok: bool
    monotone_violations: int
    expected_half_degree: dict
    truncation_mass: float


def coset_line_baseline(
    metric: ProductMetric,
    growth: GrowthSeries,
    growth2: GrowthSeries,
    window_radius: int,
    margin: int,
    eps_list,
    seeds: int,
    master_seed: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> BaselineReport:
    """Partition G'' into coset lines of the first factor's first generator,
    then merge with an invariant percolation; the exact stand-in for the
    path-partition baseline."""
    if margin < 1 or margin >= window_radius:
        raise InputError("margin must satisfy 1 <= margin < window radius")
    first = metric.first
    if first.spec.kind not in ("free", "integer_lattice"):
        raise InputError(
            "baseline needs an infinite-order designated generator "
            "(free or lattice first factor)"
        )
    space = ProductSpace(metric, window_radius, cap)
    kernel = PercolationKernel(metric, growth, growth2, 2 * window_radius)
    interior = space.mask_within(window_radius - margin)
    gen = first.generator_map()[first.gen_pairs()[0][0]]
    n = len(space)
    line_edges = []
    for pid in range(n):
        el = space.element(pid)
        tgt = space.lookup_elements(first.multiply(el[0], gen), el[1])
        if tgt is not None:
            line_edges.append((min(pid, tgt), max(pid, tgt)))
    line_deg = np.zeros(n, dtype=np.int64)
    for a, b in line_edges:
        line_deg[a] += 1
        line_deg[b] += 1
    int_ids = np.flatnonzero(interior)
    line_partition_ok = bool((line_deg[int_ids] == 2).all()) if len(int_ids) else True
    digests = combine_digests(
        factor_digests(space.ball1, "G")[space.pts1],
        factor_digests(space.ball2, "G2")[space.pts2],
    )
    c = metric.c
    ia, ib = np.triu_indices(n, 1)
    D1 = space.ball1.distance_matrix()
    D2 = space.ball2.distance_matrix()
    rho_nums = (
        D1[space.pts1[ia], space.pts1[ib]].astype(np.int64) * c.numerator
        + D2[space.pts2[ia], space.pts2[ib]].astype(np.int64) * c.denominator
    )
    base_prob = kernel.prob_nums(rho_nums)
    pair_digests = combine_unordered(digests[ia], digests[ib])
    mass_rows = np.zeros(n, dtype=np.float64)
    np.add.at(mass_rows, ia, base_prob)
    np.add.at(mass_rows, ib, base_prob)
    expected_half = {
        float(e): 1.0 + float(e) * float(mass_rows[int_ids].mean()) / 2.0
        for e in eps_list
    }
    rows = {float(e): {"largest": [], "half": []} for e in eps_list}
    monotone_violations = 0
    for s in range(seeds):
        rng = SeededRandomness(seed_digest(master_seed, s))
        u = rng.uniforms(pair_digests, STREAM_PERCOLATION)
        prev = -1.0
        for e in sorted(float(x) for x in eps_list):
            if e > 0:
                sel = np.flatnonzero(u < e * base_prob)
                open_edges = [(int(ia[i]), int(ib[i])) for i in sel.tolist()]
            else:
                open_edges = []
            frac = largest_component_fraction(_component_roots(n, line_edges + open_edges))
            perc_deg = np.zeros(n, dtype=np.int64)
            for a, b in open_edges:
                perc_deg[a] += 1
                perc_deg[b] += 1
            half = float((line_deg[int_ids] + perc_deg[int_ids]).mean() / 2.0)
            rows[e]["largest"].append(frac)
            rows[e]["half"].append(half)
            if frac < prev - 1e-12:
                monotone_violations += 1
            prev = frac
    out_rows = []
    for e in sorted(rows):
        largest_mean, largest_se = _mean_se(rows[e]["largest"])
        half_mean, half_se = _mean_se(rows[e]["half"])
        out_rows.append(
            {
                "eps": e,
                "largest_fraction_mean": largest_mean,
                "largest_fraction_se": largest_se,
                "half_degree_mean": half_mean,
                "half_degree_se": half_se,
                "expected_half_degree": expected_half[e],
            }
        )
    return BaselineReport(
        seeds=seeds,
        rows=out_rows,
        line_partition_ok=line_partition_ok,
        monotone_violations=monotone_violations,
        expected_half_degree=expected_half,
        truncation_mass=float(kernel.truncation_mass),
    )


def edges_to_csv(mw: MarkedWindow, labeled_edges, path):
    """Stage-tagged edge dump: vertices rendered as word|word#diamond."""
    space = mw.ctx.pctx.space

    def vname(vi):
        return f"{space.word_str(int(mw.v_pid[vi]))}#{int(mw.v_k[vi])}"

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["stage", "source", "target"])
        for stage, edges in labeled_edges:
            for a, b in edges:
                w.writerow([stage, vname(a), vname(b)])
