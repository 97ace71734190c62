"""Window graphing pipeline: descent forest, percolation, induced stages.

Per seed: sample a diamond process, keep the diamonds whose descent forest
is well defined across the window (center far enough in the first factor),
build the horizontal descent forest, add an invariant pair percolation,
break overlaps to a transversal, collapse to the induced graphings, and
estimate Palm degrees and the cost bound on the margin-trimmed interior.

The per-seed stages read one vertex table, `MarkedWindow`, gathered from
the covering map's member ranges of the kept diamonds: vertex vi is the
copy of point v_pid[vi] in kept diamond v_k[vi].  Its copy ranges per
point and its `vertex_of` lookup are the only maps between points and
vertices.  Every edge set, from the open Pi2 pairs to the seed-0 dumps, is
an (m, 2) int64 array, and `_component_roots` (the least vertex of each
component) is the one labeller, for Pi3, the Pi5 connectivity check and
the coset-line baseline.  Both sweeps measure connectivity with one
epsilon ladder (`_ladder`): a base partition, the Pi1 forest or the coset
lines, joined by each epsilon's open pairs, which `_open_at` splits off
the pairs open at the largest epsilon.  phi is a breadth-first search one
layer at a time over the Pi3 edge array; psi, Pi4 and Pi5 are array
reductions of it.
Pi1 takes its descent targets from one `GraphingContext.tau` call per
seed over the distinct (center, y) pairs, in closed form on index arrays
when the first factor is free.

`PercolationKernel` owns the pair law and draws the one percolation: the
Pi2 stage opens it among a seed's base points, and the coset-line baseline
among every point of the window.

Degree estimators use the mass-transport form: the Palm expectation of the
full degree equals out-degree plus half the percolation degree for the
forest-plus-percolation union, which is insensitive to boundary flux; the
raw in/out imbalance is reported separately as the boundary deficit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import HorolabError, InputError, InvariantViolation, MarkCollisionError
from .errors import ResourceCapError
from .groups import DEFAULT_ENUM_CAP, FreeOracle, growth_series
from .horoboundary import FreeRaySteps, GeodesicRay, Horofunction, ProductHorofunction, spell
from .product import ProductMetric, ProductSpace, ragged
from .point_process import ProcessContext, point_digests, sample_diamond_process
from .randomness import (
    STREAM_OVERLAP,
    STREAM_PERCOLATION,
    SeededRandomness,
    _TILE,
    bits_below,
    combine_unordered,
    seed_digest,
    threshold_pairs,
    to_uniforms,
)
from .schedule import SlopeSchedule


def _distinct(keys) -> np.ndarray:
    """The sorted distinct entries of the array `keys`, flattened: the
    values of `np.unique(keys)`, found by one sort and a neighbour test.

    numpy's plain `unique` hashes its keys; on the few thousand keys of a
    seed that costs many times the sort, and its first call imports
    `numpy.ma`.
    """
    keys = np.sort(keys, axis=None)
    if len(keys) < 2:
        return keys
    return keys[np.append(True, keys[1:] != keys[:-1])]


def _entries_at(table, value) -> tuple:
    """The entries of the square array `table` equal to `value`, by row, in
    CSR form (ptr, cols): row x holds them at columns cols[ptr[x]:ptr[x + 1]]."""
    rows, cols = np.nonzero(table == value)
    return np.searchsorted(rows, np.arange(len(table) + 1)), cols


class PercolationKernel:
    """Invariant pair weights p(x,y) = 2^-(j+1) / |sphere_j|, and the one
    percolation they draw on the points of the window.

    sphere_j is the j-th nonempty positive rho_c sphere of G'' in
    increasing radius order, with counts taken from each factor's own
    growth series, to 2 * window_radius and floor(c * 2 * window_radius),
    so the total mass over the whole group is exactly 1; the mass
    not reachable inside the window (largest radius 2 * window_radius, the
    window's diameter) is the truncation mass 2^-(#enumerated spheres) and
    is reported, never redistributed.

    This class alone holds the pair law and its point set, the window
    `space` = ProductSpace(metric, window_radius) with its point `digests`;
    every point id it takes or returns is a window id.  `prob` is
    lut[rho1[a1, b1] + rho2[a2, b2]] over window ids, and the Pi2 stage and
    the coset-line baseline are this one percolation restricted to two
    point sets.  rho1 and rho2 tabulate the rho_c numerators d*p and d'*q
    of the window's factor pairs.  The pairs the sampler lists at the
    heaviest weight and those passing its prefilter count against `cap`,
    seed by seed.
    """

    def __init__(self, metric: ProductMetric, window_radius: int, cap: int = DEFAULT_ENUM_CAP):
        p, q = metric.c.numerator, metric.c.denominator
        max_num = metric.radius_num(2 * window_radius)
        growth = growth_series(metric.first.spec, 2 * window_radius, cap=cap)
        # floor(c * 2 wr) is 0 when c < 1 / (2 wr); a growth series reaches radius 1 at least.
        growth2 = growth_series(metric.second.spec, max(1, max_num // q), cap=cap)
        counts = {}
        for t in range(max_num // p + 1):
            for t2 in range((max_num - t * p) // q + 1):
                num = t * p + t2 * q
                if num == 0:
                    continue
                cnt = growth.sphere(t) * growth2.sphere(t2)
                if cnt:
                    counts[num] = counts.get(num, 0) + cnt
        self.nums = sorted(counts)
        self.lut = np.zeros(max_num + 1, dtype=np.float64)
        self.annuli = []
        for j, num in enumerate(self.nums):
            prob = 0.5 ** (j + 1) / counts[num]
            self.lut[num] = prob
            self.annuli.append((num, counts[num], prob))
        self.truncation_mass = Fraction(1, 2 ** len(self.nums))
        self.space = space = ProductSpace(metric, window_radius, cap)
        self.digests = point_digests(space)
        self.cap = cap
        # Each numerator is at most max_num, so int32 holds them.
        self.rho1 = space.ball1.distance_matrix() * p
        self.rho2 = space.ball2.distance_matrix() * q
        self._neighbour_lists = {}

    def prob(self, a, b) -> np.ndarray:
        """p(a, b) for window ids a and b, elementwise."""
        s = self.space
        return self.lut[self.rho1[s.pts1[a], s.pts1[b]] + self.rho2[s.pts2[a], s.pts2[b]]]

    def open_pairs(self, ids, rngs, emax) -> list:
        """For each SeededRandomness of `rngs`, (a, b, u, p) for every pair
        a < b of the sorted window ids `ids` with u < emax * p, in
        `np.triu_indices(len(ids), 1)` order.

        A pair's probability is p = prob(a, b) and its uniform is u =
        rng.uniforms(combine_unordered(digests[a], digests[b]),
        STREAM_PERCOLATION), so the rows are exactly those of materialising
        every pair.  The pairs are drawn in two tiers, split at the
        heaviest weight p1 = max(lut) and the next one p2 (0 when there is
        none):

        - Top tier: the pairs at weight p1 are listed from the window's
          neighbour lists (`_top_pairs`), and each seed tests them exactly,
          u < emax * p1, through `uniforms`.
        - Tile tier: every other pair's emax * p is at most t = emax * p2,
          since float rounding is monotone.  With the points sorted by
          digest, `combine_unordered` is `combine_digests` of a pair's row
          and column, so `threshold_pairs` draws the triangle's pairs with
          u < t, exactly as bits < bits_below(t); it is skipped when that
          is 0.  The refinement keeps those with u < emax * p and p < p1
          (the top tier decided p1), reading p through `prob`.
        The listed pairs and the tile tier's passes count against `cap`,
        seed by seed: more than `cap` for one seed raise ResourceCapError.
        """
        digests = self.digests[ids]
        order = np.argsort(digests, kind="stable")
        ordered = digests[order]
        pids = ids[order]
        emax = float(emax)
        p1 = float(self.lut.max())
        p2 = float(self.lut[self.lut < p1].max(initial=0.0))
        none = np.zeros(0, dtype=np.int64)
        top_a = top_b = none
        if rngs and bits_below(emax * p1):
            top_a, top_b = self._top_pairs(ids, p1)
        if len(top_a) > self.cap:
            raise ResourceCapError("percolation pairs", self.cap)
        found = [(none, none, none, np.zeros(0), np.zeros(0))]
        if len(top_a):
            top = combine_unordered(self.digests[top_a], self.digests[top_b])
            for s, rng in enumerate(rngs):
                u = rng.uniforms(top, STREAM_PERCOLATION)
                keep = np.flatnonzero(u < emax * p1)
                seed = np.full(len(keep), s)
                found.append((seed, top_a[keep], top_b[keep], u[keep], np.full(len(keep), p1)))

        def refine(batch):
            seed, i, j, bits = batch
            a, b = pids[i], pids[j]
            p = self.prob(a, b)
            u = to_uniforms(bits)
            keep = np.flatnonzero((u < emax * p) & (p < p1))
            a, b = a[keep], b[keep]
            return seed[keep], np.minimum(a, b), np.maximum(a, b), u[keep], p[keep]

        # `map` drops each batch before the next tile is hashed.
        found += map(refine, threshold_pairs(
            ordered, ordered, rngs, STREAM_PERCOLATION, bits_below(emax * p2), self.cap,
            "percolation pairs", triangle=True, counted=len(top_a),
        ))
        seed, a, b, u, p = (np.concatenate(col) for col in zip(*found))
        keep = np.lexsort((b, a, seed))
        ends = np.searchsorted(seed[keep], np.arange(len(rngs) + 1))
        return [
            (a[run], b[run], u[run], p[run])
            for run in (keep[s:t] for s, t in zip(ends[:-1], ends[1:]))
        ]

    def _top_pairs(self, ids, p1: float) -> tuple:
        """The pairs a < b of the sorted window ids `ids` at weight p1, as
        two window id arrays in no set order.

        A pair weighs p1 when its rho numerator t p + t2 q has lut value
        p1, with t and t2 the pair's factor distances; the pairs of each
        such decomposition are read off its neighbour lists (`_neighbours`).
        A decomposition's neighbours of `ids`, before the pairs a < b
        within `ids` are kept, count against `cap`.
        """
        p, q = self.space.metric.c.numerator, self.space.metric.c.denominator
        inside = np.zeros(len(self.space), dtype=bool)
        inside[ids] = True
        none = np.zeros(0, dtype=np.int64)
        found_a, found_b = [none], [none]
        for num in np.flatnonzero(self.lut == p1).tolist():
            for t in range(num // p + 1):
                if (num - t * p) % q:
                    continue
                ptr, nbr = self._neighbours(t * p, num - t * p)
                start = ptr[ids]
                cnt = ptr[ids + 1] - start
                if int(cnt.sum()) > self.cap:
                    raise ResourceCapError("percolation pairs (top-tier listing)", self.cap)
                owner, rank = ragged(cnt)
                a, b = ids[owner], nbr[start[owner] + rank]
                keep = inside[b] & (b > a)
                found_a.append(a[keep])
                found_b.append(b[keep])
        return np.concatenate(found_a), np.concatenate(found_b)

    def _neighbours(self, num1: int, num2: int) -> tuple:
        """The window's neighbour lists at rho numerators num1 of the first
        factor and num2 of the second, in CSR form (ptr, nbr): the window
        points b with rho1 num1 and rho2 num2 from the point i are
        nbr[ptr[i]:ptr[i + 1]].  Built once per kernel.

        The candidates of a point are the products of its factor neighbour
        lists, the ball indices y with rho1[x, y] == num1 and rho2[x, y] ==
        num2, looked up by key; they are expanded a block of points at a
        time, at most about `_TILE` candidates per block.  Their total
        counts against `cap` before any block is expanded.
        """
        hit = self._neighbour_lists.get((num1, num2))
        if hit is not None:
            return hit
        space = self.space
        (ptr1, nbr1), (ptr2, nbr2) = _entries_at(self.rho1, num1), _entries_at(self.rho2, num2)
        f1, f2 = space.pts1, space.pts2
        start1, start2 = ptr1[f1], ptr2[f2]
        deg2 = ptr2[f2 + 1] - start2
        cnt = (ptr1[f1 + 1] - start1) * deg2
        ends = np.cumsum(cnt)
        if len(ends) and int(ends[-1]) > self.cap:
            raise ResourceCapError("percolation pairs (window neighbour lists)", self.cap)
        src, dst = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        r0 = 0
        while r0 < len(space):
            done = ends[r0 - 1] if r0 else 0
            r1 = max(r0 + 1, int(np.searchsorted(ends, done + _TILE, side="right")))
            r, off = ragged(cnt[r0:r1])
            r += r0
            y1 = nbr1[start1[r] + off // deg2[r]]
            y2 = nbr2[start2[r] + off % deg2[r]]
            b = space.lookup(y1, y2)
            keep = b >= 0
            src.append(r[keep])
            dst.append(b[keep])
            r0 = r1
        ptr = np.searchsorted(np.concatenate(src), np.arange(len(space) + 1))
        hit = self._neighbour_lists[num1, num2] = (ptr, np.concatenate(dst))
        return hit

    def row_masses(self, rows) -> np.ndarray:
        """Mass sum_{j != i} p(i, j) of each window point i in `rows`, over
        every window point.

        Each row is summed left to right over j = i+1, ..., n-1, then j = 0,
        ..., i-1: the order in which `np.add.at` over the `np.triu_indices`
        pairs adds up row i (as first, then as second index), since p is
        symmetric.  `np.cumsum` adds sequentially, so the sums match that
        order bit for bit; rows are taken in tiles of about `_TILE` pairs.
        """
        n = len(self.space)
        out = np.empty(len(rows), dtype=np.float64)
        ring = np.arange(1, n)
        step = max(1, _TILE // (n - 1))
        for r0 in range(0, len(rows), step):
            i = rows[r0 : r0 + step, None]
            out[r0 : r0 + step] = np.cumsum(self.prob(i, (i + ring) % n), axis=1)[:, -1]
        return out


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
        self.metric = metric
        self.schedule = schedule
        self.n = n
        self.window_radius = window_radius
        self.interior_radius = window_radius - margin
        self.pctx = ProcessContext(metric, schedule, n, window_radius, cap)
        self.interior_mask = self.pctx.space.mask_within(self.interior_radius)
        self.kernel = PercolationKernel(metric, window_radius, cap)
        free = isinstance(metric.first, FreeOracle)
        self._free_steps = FreeRaySteps(self.pctx.space.ball1) if free else None
        self._tau_cache = {}
        self._ray_cache = {}

    def keeps_center(self, pids) -> np.ndarray:
        """Descent-safety rule, elementwise over center point ids: the
        center's first coordinate must sit beyond the interior window, else
        descent can pass the center and leave the diamond at interior
        points."""
        space = self.pctx.space
        return space.ball1.dist[space.pts1[pids]] > self.interior_radius

    def tau(self, center_fi, y_fi) -> np.ndarray:
        """First-coordinate descent targets toward the centers' directions:
        for each pair i, the neighbour of y_fi[i] one step down the
        horofunction of the ray `GeodesicRay.through(center)`, center being
        center_fi[i], as a first-ball index (-1 outside the ball).

        On a free first factor this is the closed form of `FreeRaySteps`
        over the whole arrays.  Other factors descend a memoised
        `Horofunction` per center, taking among the descending neighbours
        the one nearest the center, then the ElementOrder-least: on a
        lattice two neighbours can descend, and the farther one can leave
        the diamond.  Their targets are memoised per (center, y)."""
        if self._free_steps is not None:
            return self._free_steps(center_fi, y_fi)
        out = np.empty(len(center_fi), dtype=np.int64)
        for i, key in enumerate(zip(center_fi.tolist(), y_fi.tolist())):
            hit = self._tau_cache.get(key)
            if hit is None:
                hit = self._tau_cache[key] = self._descend(*key)
            out[i] = hit
        return out

    def _descend(self, center_fi: int, y_fi: int) -> int:
        ball1, first = self.pctx.space.ball1, self.metric.first
        h = self._ray_cache.get(center_fi)
        if h is None:
            ray = GeodesicRay.through(first, ball1.elements[center_fi])
            h = Horofunction(first, ray, probe_radius=ball1.radius + 2)
            self._ray_cache[center_fi] = h
        c1 = ball1.elements[center_fi]
        target = h.descend(
            ball1.elements[y_fi], key=lambda nb: (first.distance(nb, c1), first.sort_key(nb))
        )
        return ball1.index.get(target, -1)


@dataclass
class MarkedWindow:
    """Per-seed vertex table of S' (marked points of the kept diamonds).

    Vertex vi is the copy of point v_pid[vi] in kept diamond v_k[vi].
    Vertices are listed diamond by diamond, each diamond's members in
    covering-map order (rising point id).  That order is output: phi and
    psi break ties by vertex index, and edges_seed0.csv lists rows in
    vertex order.

    `copies` lists the vertex ids stably sorted by point, so the copies of
    bases[i] (the covered points, sorted) are copies[starts[i]:starts[i+1]],
    in rising diamond index.
    """

    ctx: GraphingContext
    centers: np.ndarray  # center point id of each kept diamond
    excluded_diamonds: int
    v_pid: np.ndarray
    v_k: np.ndarray
    v_interior: np.ndarray
    marks: np.ndarray  # float64 mark of each kept diamond
    bases: np.ndarray
    copies: np.ndarray
    starts: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.v_pid)

    def vertex_of(self, pids, ks) -> np.ndarray:
        """Vertex of the copy of point pids[i] in kept diamond ks[i], -1
        where there is none (pid -1, or pid not a member of diamond k)."""
        # Within one point the diamond index rises, so these are sorted.
        keys = (self.v_pid[self.copies] << 32) | self.v_k[self.copies]
        want = (np.asarray(pids, dtype=np.int64) << 32) | ks
        pos = np.searchsorted(keys, want)
        return np.where(np.append(keys, -1)[pos] == want, np.append(self.copies, -1)[pos], -1)


def build_marked_window(ctx: GraphingContext, process) -> MarkedWindow:
    """The vertex table of the kept diamonds: their member ranges of the
    covering map, gathered in sampling order."""
    keep = ctx.keeps_center(process.center_pids)
    v_pid, sizes = ctx.pctx.covering.gather(process.chosen[keep])
    v_k = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    copies = np.argsort(v_pid, kind="stable")
    bases, starts = np.unique(v_pid[copies], return_index=True)
    return MarkedWindow(
        ctx=ctx,
        centers=process.center_pids[keep],
        excluded_diamonds=len(keep) - len(sizes),
        v_pid=v_pid,
        v_k=v_k,
        v_interior=ctx.interior_mask[v_pid],
        marks=process.marks[keep],
        bases=bases,
        copies=copies,
        starts=np.append(starts, len(v_pid)),
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
    y_fi = space.pts1[mw.v_pid]
    # One tau call per seed, over the distinct (center, y) first-index pairs.
    pairs, inverse = np.unique(
        (space.pts1[mw.centers][mw.v_k].astype(np.int64) << 32) | y_fi, return_inverse=True
    )
    tfi = ctx.tau(pairs >> 32, pairs & 0xFFFFFFFF)[inverse]
    tpids = space.lookup(tfi, space.pts2[mw.v_pid])
    # (tpid, k) is a vertex exactly when tpid is a member of diamond k.
    target = mw.vertex_of(tpids, mw.v_k)
    stalled = target < 0
    # Same first coordinate within one diamond: out-edges must be parallel
    # (second coordinate unchanged, one target first coordinate per group).
    src = np.flatnonzero(~stalled)
    tgt_pid, src_pid = mw.v_pid[target[src]], mw.v_pid[src]
    _, group = np.unique((mw.v_k[src].astype(np.int64) << 32) | y_fi[src], return_inverse=True)
    moves = _distinct((group << 32) | space.pts1[tgt_pid])
    return Pi1Forest(
        target=target,
        stalled=int(stalled.sum()),
        interior_violations=int((stalled & mw.v_interior).sum()),
        parallel_violations=int((space.pts2[tgt_pid] != space.pts2[src_pid]).sum())
        + int((np.bincount(moves >> 32) > 1).sum()),
    )


def build_percolation(ctx: GraphingContext, base_pids, rng: SeededRandomness, eps_list):
    """Open base-point pairs per epsilon, as (m, 2) arrays of point ids
    (a, b), a < b, sorted; one uniform per unordered pair.

    The same uniforms serve every epsilon, so openness is monotone in
    epsilon by construction.  The kernel's `open_pairs` finds the pairs
    open at the largest epsilon without materialising the closed ones;
    each epsilon then keeps those with u < epsilon * p, the same float test
    as over all pairs, in the same order.  The kernel's window id of the
    W+ point window_ids[k] is k.
    """
    if not eps_list:
        return {}
    wid = ctx.pctx.window_ids
    S = np.searchsorted(wid, np.sort(np.asarray(base_pids, dtype=np.int64)))
    [(a, b, u, p)] = ctx.kernel.open_pairs(S, [rng], max(eps_list))
    return _open_at((wid[a], wid[b], u, p), eps_list)


def _open_at(opened, eps_list) -> dict:
    """epsilon -> the pairs of `opened` = (a, b, u, p) with u < epsilon * p,
    as an (m, 2) array of rows (a, b) in the order of `opened`, for each
    epsilon of `eps_list` in its order; a repeated epsilon is one key."""
    a, b, u, p = opened
    out = {}
    for e in map(float, eps_list):
        sel = u < e * p
        out[e] = np.stack([a[sel], b[sel]], axis=1)
    return out


def lift_open_pairs(mw: MarkedWindow, open_pairs) -> np.ndarray:
    """pi^{-1}: every open pair of bases, an (m, 2) array of point ids,
    lifts to all marked copy pairs.

    Returns the (lower, higher) vertex rows, pair by pair, and within a
    pair the copies of its first point outer, those of its second inner.
    """
    at = np.searchsorted(mw.bases, open_pairs)
    first = mw.starts[at]
    count = mw.starts[at + 1] - first
    lifts = count[:, 0] * count[:, 1]
    pair, rank = ragged(lifts)
    va = mw.copies[first[pair, 0] + rank // count[pair, 1]]
    vb = mw.copies[first[pair, 1] + rank % count[pair, 1]]
    return np.stack([np.minimum(va, vb), np.maximum(va, vb)], axis=1)


def pi1_edges(pi1: Pi1Forest) -> np.ndarray:
    """Pi1 out-edges (v, target), in rising v."""
    src = np.flatnonzero(pi1.target >= 0)
    return np.stack([src, pi1.target[src]], axis=1)


def pi3_edges(pi1: Pi1Forest, lifted) -> np.ndarray:
    """Undirected edges of Pi3 = Pi1 union lifted Pi2, an (m, 2) array of
    rows (a, b), a < b, sorted and without duplicates; `lifted` holds the
    lifted Pi2 rows (`lift_open_pairs`).  The few lifted keys are merged
    into the forest's sorted keys."""
    src = np.flatnonzero(pi1.target >= 0)
    tgt = pi1.target[src]
    forest = _distinct((np.minimum(src, tgt) << 32) | np.maximum(src, tgt))
    lifted = _distinct((lifted[:, 0] << 32) | lifted[:, 1])
    at = np.searchsorted(forest, lifted)
    new = np.append(forest, -1)[at] != lifted
    return _unpack(np.insert(forest, at[new], lifted[new]))


def _unpack(keys) -> np.ndarray:
    """Rows (a, b) of the keys (a << 32) | b, with 0 <= b < 2^32."""
    return np.stack([keys >> 32, keys & 0xFFFFFFFF], axis=1)


def surviving_index(k, w):
    """1-based index of the surviving copy among k mark-sorted copies:
    clamp(ceil(k w), 1, k), elementwise."""
    return np.clip(np.ceil(k * w), 1, k).astype(np.int64)


def break_overlaps(mw: MarkedWindow, rng: SeededRandomness) -> np.ndarray:
    """Keep one marked copy per covered point, selected by the point's
    overlap label among the copies sorted by mark (then vertex)."""
    labels = rng.uniforms(mw.ctx.pctx.point_digests[mw.bases], STREAM_OVERLAP)
    marks = mw.marks[mw.v_k]
    ranked = np.lexsort((np.arange(mw.n_vertices), marks, mw.v_pid))
    same_point = np.diff(mw.v_pid[ranked]) == 0
    if (same_point & (np.diff(marks[ranked]) == 0)).any():
        raise MarkCollisionError("overlapping diamonds drew identical marks; reject this seed")
    keep = np.zeros(mw.n_vertices, dtype=bool)
    keep[ranked[mw.starts[:-1] + surviving_index(np.diff(mw.starts), labels) - 1]] = True
    return keep


def assign_phi(n: int, edges, sources, w1) -> tuple:
    """Closest S'_0 vertex in Pi3 graph distance, ties by the w1 label
    (then vertex index), by a breadth-first search one layer at a time
    over the (m, 2) edge array.  Returns (dist, phi): the distance to and
    the chosen source of every vertex, both -1 where a vertex is unreached
    (its component has no source)."""
    tail, head = np.concatenate([edges, edges[:, ::-1]]).T  # each edge both ways
    # Sources ranked by (w1, vertex); a newly reached vertex takes the
    # least rank among its neighbours one layer nearer.
    ranked = sources[np.lexsort((sources, w1[sources]))]
    rank = np.full(n, len(ranked))
    rank[ranked] = np.arange(len(ranked))
    dist = np.full(n, -1)
    dist[sources] = 0
    d = 0
    while True:
        step = (dist[tail] == d) & (dist[head] == -1)
        if not step.any():
            return dist, np.append(ranked, -1)[rank]
        np.minimum.at(rank, head[step], rank[tail[step]])
        dist[head[step]] = d + 1
        d += 1


def _distinct_pairs(pairs) -> np.ndarray:
    """Rows (min, max) of the (m, 2) array `pairs` whose ends differ,
    sorted and without duplicates."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    differ = lo != hi
    return _unpack(_distinct((lo[differ] << 32) | hi[differ]))


def build_forest_and_pi45(mw: MarkedWindow, edges, s0_mask, w1) -> dict:
    """F (geodesic-step forest to the transversal), Pi4 on S'_0, Pi5 on S,
    as (m, 2) arrays.  F holds one edge (v, psi(v)) per vertex at positive
    distance, in rising v; Pi4 and Pi5 rows are (min, max), sorted."""
    dist, phi = assign_phi(mw.n_vertices, edges, np.flatnonzero(s0_mask), w1)
    v, u = np.concatenate([edges, edges[:, ::-1]]).T
    # psi(v): the least (w1, vertex) neighbour one step nearer phi(v).
    step = (dist[v] > 0) & (dist[u] == dist[v] - 1) & (phi[u] == phi[v])
    v, u = v[step], u[step]
    order = np.lexsort((u, w1[u], v))
    v, first = np.unique(v[order], return_index=True)
    if len(v) < int((dist > 0).sum()):
        raise InvariantViolation("no geodesic step toward the phi target")
    # The ends of an edge share a component, so an unreached edge maps to
    # (-1, -1) and drops out with the other loops.
    pi4 = _distinct_pairs(phi[edges])
    return {
        "dist": dist,
        "f_edges": np.stack([v, u[order][first]], axis=1),
        "pi4": pi4,
        "pi5": _distinct_pairs(mw.v_pid[pi4]),
    }


def _component_roots(n: int, edges) -> np.ndarray:
    """Least vertex of the component of every vertex of the graph on
    range(n), given an (m, 2) array of edges."""
    a, b = np.asarray(edges, dtype=np.int64).reshape(-1, 2).T
    roots = np.arange(n)
    while True:
        # Every label is a root here: hook the larger root of each edge
        # under the smaller, then follow pointers until they stop changing.
        ra, rb = roots[a], roots[b]
        if (ra == rb).all():
            return roots
        np.minimum.at(roots, np.maximum(ra, rb), np.minimum(ra, rb))
        while (roots[roots] != roots).any():
            roots = roots[roots]


def _ladder(base_roots, pairs_by_eps) -> tuple:
    """The epsilon ladder over one base partition, whose labels `base_roots`
    give each vertex the least vertex of its component; `pairs_by_eps` maps
    each epsilon to its open pairs, an (m, 2) array of vertices.

    Returns (roots, fractions, drops): for each epsilon in rising order,
    the least vertex of every vertex's component once that epsilon's pairs
    join the base partition, and its `largest_component_fraction`; and the
    number of times the fraction falls from one epsilon to the next.  Each
    epsilon joins the base labels of its pairs' ends, so the least label
    among the base components one component joins is its least vertex; an
    epsilon that opens no pair keeps the base labels.
    """
    n = len(base_roots)
    roots, fractions = {}, {}
    for e in sorted(pairs_by_eps):
        pairs = pairs_by_eps[e]
        roots[e] = _component_roots(n, base_roots[pairs])[base_roots] if len(pairs) else base_roots
        fractions[e] = largest_component_fraction(roots[e])
    steps = list(fractions.values())
    drops = sum(b < a - 1e-12 for a, b in zip(steps, steps[1:]))
    return roots, fractions, drops


def largest_component_fraction(roots) -> float:
    """Share of the vertices in the largest component, given the root
    label of every vertex."""
    if len(roots) == 0:
        return 0.0
    return int(np.bincount(roots).max()) / len(roots)


@dataclass
class SeedStats:
    """One seed's statistics.  The fields are the columns of runs.csv, in
    file order, but for `largest_fraction`, which holds one value per
    epsilon."""

    seed: int
    diamonds: int = 0
    excluded: int = 0
    vertices: int = 0
    interior: int = 0
    half_deg_pi1: float = float("nan")
    half_deg_pi3: float = float("nan")
    half_deg_pi3_raw: float = float("nan")
    lambda_hat: float = float("nan")
    pi5_lhs: float = float("nan")
    pi5_rhs: float = float("nan")
    pi5_ok: bool = True
    boundary_deficit: float = 0.0
    stalled: int = 0
    flagged_components: int = 0
    perc_deg_interior_mean: float = 0.0
    mean_deg_pi3_palm: float = float("nan")
    pi5_se: float = float("nan")
    pi5_connected_ok: bool = True
    n_bases: int = 0
    n_sprime_interior: int = 0
    n_s0_interior: int = 0
    rejected: bool = False  # mark collision: float-tie guard fired
    pi1_interior_violations: int = 0
    parallel_violations: int = 0
    pi5_checked: bool = False
    monotone_ok: bool = True
    largest_fraction: dict = field(default_factory=dict)


def run_seed(
    ctx: GraphingContext,
    seed_key: int,
    eps_list,
    primary_eps,
    seed_index=0,
    collect: dict = None,
):
    """One full pipeline pass; returns window-scale statistics.

    Each epsilon's open pairs are lifted to vertex pairs once
    (`lift_open_pairs`), for `pi3_edges`, the ladder and `collect`.  The
    epsilon ladder (`_ladder`) labels each epsilon's Pi3 components over
    the Pi1 forest's labels, and gives the largest fractions and whether
    one falls as epsilon grows (`monotone_ok`).  The flagged components
    and `_pi5_connected` read only the primary epsilon's partition, never
    the edges, so the Pi3 edge array is built once, at the primary
    epsilon, for the degrees and the later stages.

    When `collect` is a dict it receives the marked window and the (m, 2)
    edge array of every stage (for dumps and debugging)."""
    rng = SeededRandomness(seed_key)
    process = sample_diamond_process(ctx.pctx, seed_key)
    mw = build_marked_window(ctx, process)
    st = SeedStats(seed=seed_index)
    st.diamonds = len(process.center_pids)
    st.excluded = mw.excluded_diamonds
    st.vertices = mw.n_vertices
    if mw.n_vertices == 0:
        return st
    pi1 = build_pi1(mw)
    st.stalled = pi1.stalled
    st.pi1_interior_violations = pi1.interior_violations
    st.parallel_violations = pi1.parallel_violations
    interior = np.flatnonzero(mw.v_interior)
    st.interior = len(interior)
    st.n_bases = len(mw.bases)
    opens = build_percolation(ctx, mw.bases, rng, sorted(set(list(eps_list) + [primary_eps])))
    lifts = {e: lift_open_pairs(mw, pairs) for e, pairs in opens.items()}
    edges = pi3_edges(pi1, lifts[float(primary_eps)])
    n = mw.n_vertices
    ladder, st.largest_fraction, drops = _ladder(_component_roots(n, pi1_edges(pi1)), lifts)
    st.monotone_ok = not drops
    roots = ladder[float(primary_eps)]
    deg = np.bincount(edges.ravel(), minlength=n)
    out_deg = (pi1.target >= 0).astype(np.int64)
    in_deg = np.bincount(pi1.target[pi1.target >= 0], minlength=n)
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
    stages = build_forest_and_pi45(mw, edges, s0_mask, w1)
    if collect is not None:
        collect.update(
            marked_window=mw,
            pi1=pi1_edges(pi1),
            pi2_lifted=lifts[float(primary_eps)],
            pi3=edges,
            f_edges=stages["f_edges"],
            pi4=stages["pi4"],
            pi5=stages["pi5"],
            s0_mask=s0_mask,
        )
    unreached = stages["dist"] < 0
    st.flagged_components = len(_distinct(roots[unreached]))
    ok_interior = interior[~unreached[interior]]
    s0_interior = ok_interior[s0_mask[ok_interior]]
    st.n_sprime_interior = len(ok_interior)
    st.n_s0_interior = len(s0_interior)
    if len(s0_interior):
        lam = len(s0_interior) / len(ok_interior)
        st.lambda_hat = lam
        pi5_ends = np.sort(stages["pi5"].ravel())
        interior_bases = _distinct(mw.v_pid[s0_interior])
        lhs, se_lhs = _mean_se(
            np.searchsorted(pi5_ends, interior_bases, side="right")
            - np.searchsorted(pi5_ends, interior_bases)
        )
        palm, se_palm = _mean_se((2 * out_deg + perc_deg)[ok_interior])
        st.pi5_lhs = lhs
        st.pi5_rhs = palm / lam - 2.0 / lam + 2.0
        st.pi5_se = se_lhs + se_palm / lam
        st.pi5_checked = True
        st.pi5_ok = st.pi5_lhs <= st.pi5_rhs + 3.0 * st.pi5_se + 1e-9
    st.pi5_connected_ok = _pi5_connected(roots, stages)
    return st


def _pi5_connected(roots, stages) -> bool:
    """Pi5 restricted to each covered Pi3 component must be connected;
    `roots` labels the Pi3 components.  Sources (dist 0) are never
    flagged, so every source lies in a covered component.  The Pi4 edges
    inside one Pi3 component label finer components, so the sources meet
    as many of those as of the Pi3 ones exactly when each Pi3 component's
    sources are joined."""
    pi4 = stages["pi4"]
    pi4_roots = _component_roots(len(roots), pi4[roots[pi4[:, 0]] == roots[pi4[:, 1]]])
    sources = np.flatnonzero(stages["dist"] == 0)
    return len(_distinct(pi4_roots[sources])) == len(_distinct(roots[sources]))


@dataclass
class CostReport:
    """The sweep's report.  Every field but `runs` and `seed0_stages` is a
    key of cost_report.json."""

    seeds: int
    eps: float
    stages: list  # dicts: stage, half_degree_mean, half_degree_se, ...
    lambda_hat: float  # mean over the seeds
    pi5_bound_lhs: float
    pi5_bound_rhs: float
    pi5_violations: int
    pi5_disconnected: int
    boundary_deficit: float
    kernel_truncation_mass: float
    excluded_diamond_fraction: float
    pi1_interior_violations: int
    parallel_violations: int
    monotone_violations: int
    largest_fraction_by_eps: dict
    runs: list
    rejected_seeds: int = 0
    seed0_stages: dict = field(default_factory=dict)  # run_seed's `collect` for seed 0

    def to_json_dict(self) -> dict:
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        del out["runs"], out["seed0_stages"]
        out["largest_fraction_by_eps"] = {
            str(k): v for k, v in self.largest_fraction_by_eps.items()
        }
        return out


def _mean_se(values) -> tuple:
    """Mean and standard error of the values that are not NaN; NaN and NaN
    when none is left, and a standard error of 0 for one value."""
    arr = np.asarray(values, dtype=np.float64)
    arr = arr[~np.isnan(arr)]
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
        return SeedStats(seed=seed_index, rejected=True)
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
    runs.sort(key=lambda st: st.seed)
    rejected = sum(1 for r in runs if r.rejected)
    runs_ok = [r for r in runs if not r.rejected]
    stages = []
    for stage in ("pi1", "pi3", "pi3_raw"):
        mean, se = _mean_se([getattr(r, "half_deg_" + stage) for r in runs_ok])
        stages.append({"stage": stage, "half_degree_mean": mean, "half_degree_se": se})
    lam_mean, _ = _mean_se([r.lambda_hat for r in runs_ok])
    lhs_mean, _ = _mean_se([r.pi5_lhs for r in runs_ok if r.pi5_checked])
    rhs_mean, _ = _mean_se([r.pi5_rhs for r in runs_ok if r.pi5_checked])
    deficit_mean, _ = _mean_se([r.boundary_deficit for r in runs_ok])
    frac = {}
    for e in sorted({e for r in runs_ok for e in r.largest_fraction}):
        frac[e], _ = _mean_se(
            [r.largest_fraction.get(e, float("nan")) for r in runs_ok]
        )
    excl = sum(r.excluded for r in runs_ok) / max(1, sum(r.diamonds for r in runs_ok))
    return CostReport(
        seeds=seeds,
        eps=float(primary_eps),
        stages=stages,
        lambda_hat=lam_mean,
        pi5_bound_lhs=lhs_mean,
        pi5_bound_rhs=rhs_mean,
        pi5_violations=sum(1 for r in runs_ok if r.pi5_checked and not r.pi5_ok),
        pi5_disconnected=sum(1 for r in runs_ok if not r.pi5_connected_ok),
        boundary_deficit=deficit_mean,
        kernel_truncation_mass=float(ctx.kernel.truncation_mass),
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
    while True:
        i1 = j + k
        i2 = math.floor(c * j)
        i3 = j
        i4 = math.ceil(c * j + k_prime)
        if i1 >= len(eta) or i3 >= len(eta) or i2 >= len(eta_prime) or i4 >= len(
            eta_prime
        ):
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
class BaselineRow:
    """One epsilon of the baseline; the fields are the columns of
    baseline.csv, in file order."""

    eps: float
    largest_fraction_mean: float
    largest_fraction_se: float
    half_degree_mean: float
    half_degree_se: float
    expected_half_degree: float


@dataclass
class BaselineReport:
    seeds: int
    rows: list  # BaselineRow per eps, in rising eps
    line_partition_ok: bool
    monotone_violations: int
    truncation_mass: float


def coset_line_baseline(
    metric: ProductMetric,
    window_radius: int,
    margin: int,
    eps_list,
    seeds: int,
    master_seed: int,
    cap: int = DEFAULT_ENUM_CAP,
) -> BaselineReport:
    """Partition G'' into coset lines of the first factor's first generator,
    then merge with an invariant percolation; the exact stand-in for the
    path-partition baseline.

    The percolation is the kernel's on the window: one `open_pairs` call
    draws the open pairs of every seed, and the expected half-degree sums the
    interior rows' `row_masses`, in their fixed order.  Each seed's pairs
    are split by epsilon (`_open_at`, so a repeated epsilon is one row)
    and measured on the epsilon ladder over the coset lines' labels
    (`_ladder`), as the graphing sweep's Pi3 is over the Pi1 forest's;
    `monotone_violations` counts the seeds whose largest fraction falls.
    """
    if margin < 1 or margin >= window_radius:
        raise InputError("margin must satisfy 1 <= margin < window radius")
    first = metric.first
    if first.spec.kind not in ("free", "integer_lattice"):
        raise InputError(
            "baseline needs an infinite-order designated generator "
            "(free or lattice first factor)"
        )
    kernel = PercolationKernel(metric, window_radius, cap)
    space = kernel.space
    interior = space.mask_within(window_radius - margin)
    gen = first.generator_map()[first.gen_pairs()[0][0]]
    n = len(space)
    ball1 = space.ball1
    # First-ball index of y * gen: the quotient y * (gen^-1)^-1.
    succ = ball1.quotient_table(len(ball1), ball1.volume(1))[:, ball1.index[first.inverse(gen)]]
    tgt = space.lookup(succ[space.pts1], space.pts2)
    src = np.flatnonzero(tgt >= 0)
    lo, hi = np.minimum(src, tgt[src]), np.maximum(src, tgt[src])
    line_deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    int_ids = np.flatnonzero(interior)
    line_partition_ok = bool((line_deg[int_ids] == 2).all()) if len(int_ids) else True
    lines = _component_roots(n, np.stack([lo, hi], axis=1))
    mass = kernel.row_masses(int_ids)
    expected_half = {float(e): 1.0 + float(e) * float(mass.mean()) / 2.0 for e in eps_list}
    rows = {e: {"largest": [], "half": []} for e in expected_half}
    monotone_violations = 0
    emax = max(eps_list, default=0.0)
    rngs = [SeededRandomness(seed_digest(master_seed, s)) for s in range(seeds)]
    for opened in kernel.open_pairs(np.arange(n), rngs, emax):
        pairs = _open_at(opened, eps_list)
        _, fractions, drops = _ladder(lines, pairs)
        monotone_violations += drops > 0
        for e, frac in fractions.items():
            perc_deg = np.bincount(pairs[e].ravel(), minlength=n)
            rows[e]["largest"].append(frac)
            rows[e]["half"].append(float((line_deg[int_ids] + perc_deg[int_ids]).mean() / 2.0))
    out_rows = [
        BaselineRow(e, *_mean_se(rows[e]["largest"]), *_mean_se(rows[e]["half"]), expected_half[e])
        for e in sorted(rows)
    ]
    return BaselineReport(
        seeds=seeds,
        rows=out_rows,
        line_partition_ok=line_partition_ok,
        monotone_violations=monotone_violations,
        truncation_mass=float(kernel.truncation_mass),
    )
