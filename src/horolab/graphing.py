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
the coset-line baseline.  phi is a breadth-first search one layer at a
time over the Pi3 edge array; psi, Pi4 and Pi5 are array reductions of it.
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

import csv
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import HorolabError, InputError, InvariantViolation, MarkCollisionError
from .errors import ResourceCapError
from .groups import DEFAULT_ENUM_CAP, FreeOracle, GrowthSeries
from .horoboundary import FreeRaySteps, GeodesicRay, Horofunction, ProductHorofunction, spell
from .product import ProductMetric, ProductSpace
from .point_process import ProcessContext, point_digests, sample_diamond_process
from .randomness import (
    STREAM_OVERLAP,
    STREAM_PERCOLATION,
    SeededRandomness,
    bits_below,
    combine_into,
    head_bits,
    head_limit,
    premix,
    seed_digest,
    to_uniforms,
)
from .schedule import SlopeSchedule


_TILE = 1 << 15  # pairs hashed per tile of `PercolationKernel.open_pairs`


def _pair_tiles(n: int):
    """Rectangles (i0, i1, j0, j1), rows i0 .. i1-1 by columns j0 .. j1-1,
    of at most `_TILE` pairs that together hold each pair i < j of
    range(n) once.

    The rows are cut into blocks i0 .. i1-1 whose rectangle with the
    columns i0+1 .. n-1 holds at most `_TILE` pairs; a row longer than
    `_TILE` is a block of its own, cut into rectangles of `_TILE` columns.
    A block's rectangle also holds its pairs with i >= j, which the
    caller drops.
    """
    i0 = 0
    while i0 < n - 1:
        i1 = min(n - 1, i0 + max(1, _TILE // (n - 1 - i0)))
        step = _TILE // (i1 - i0)
        for j0 in range(i0 + 1, n, step):
            yield i0, i1, j0, min(j0 + step, n)
        i0 = i1


class PercolationKernel:
    """Invariant pair weights p(x,y) = 2^-(j+1) / |sphere_j|, and the one
    percolation they draw on the points of a space.

    sphere_j is the j-th nonempty positive rho_c sphere of G'' in
    increasing radius order, with counts taken from the factor growth
    series, so the total mass over the whole group is exactly 1; the mass
    not reachable inside the window (largest radius 2 * window_radius, the
    window's diameter) is the truncation mass 2^-(#enumerated spheres) and
    is reported, never redistributed.

    This class alone holds the pair law: `prob` is
    lut[rho1[a1, b1] + rho2[a2, b2]] over point ids, and the Pi2 stage and
    the coset-line baseline are this one percolation restricted to two
    point sets.  rho1 and rho2 tabulate the rho_c numerators d*p and d'*q
    of the window's factor pairs.  Factor balls list their elements by
    distance, so the window's factor radii wr and floor(c wr) are the
    index prefixes ball1.volume(wr) and ball2.volume(p wr // q), whatever
    radius `space` reaches; every point id passed in must lie in the
    window.  Pairs passing the sampler's prefilter count against `cap`,
    seed by seed.
    """

    def __init__(
        self,
        space: ProductSpace,
        digests: np.ndarray,
        growth: GrowthSeries,
        growth2: GrowthSeries,
        window_radius: int,
        cap: int = DEFAULT_ENUM_CAP,
    ):
        metric = space.metric
        p, q = metric.c.numerator, metric.c.denominator
        max_num = metric.radius_num(2 * window_radius)
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
        self.space = space
        self.digests = digests
        self.cap = cap
        # Each numerator is at most max_num, so int32 holds them.
        self.rho1 = space.ball1.distance_matrix(space.ball1.volume(window_radius)) * p
        self.rho2 = space.ball2.distance_matrix(space.ball2.volume(p * window_radius // q)) * q

    def prob(self, a, b) -> np.ndarray:
        """p(a, b) for point ids a and b, elementwise."""
        s = self.space
        return self.lut[self.rho1[s.pts1[a], s.pts1[b]] + self.rho2[s.pts2[a], s.pts2[b]]]

    def open_pairs(self, ids, rngs, emax) -> list:
        """For each SeededRandomness of `rngs`, (a, b, u, p) for every pair
        a < b of the sorted point ids `ids` with u < emax * p, in
        `np.triu_indices(len(ids), 1)` order.

        A pair's probability is p = prob(a, b) and its uniform is u =
        rng.uniforms(combine_unordered(digests[a], digests[b]),
        STREAM_PERCOLATION), so the rows are exactly those of materialising
        every pair; only a small share of the pairs is materialised.

        - Digest order: with the points sorted by digest, the min and max of
          `combine_unordered` are a tile's row and column, so `premix` runs
          once per point.
        - One pass per tile: the pairs are hashed in rectangles of at most
          `_TILE` pairs (`_pair_tiles`).  A tile's seedless round
          (`combine_into`) runs once; then for each seed only its two
          seeded rounds run, up to the head d of each word (`heads_into`).
        - Prefilter: float rounding is monotone, so every pair's emax * p is
          at most t = emax * max(lut), and u < t holds exactly when the 53
          bits b of u = b * 2**-53 satisfy b < k = bits_below(t).  Only the
          heads below `head_limit(k)` get their bits (`head_bits`), and only
          those with b < k and i < j pass; a tile's pairs on or below the
          diagonal are dropped here, before they count against `cap`.
        - Refinement: the passes of every seed get p, u = b * 2**-53 and
          the exact float test u < emax * p together (`_opened`), as soon
          as `_TILE` of them are held, so only the open pairs accumulate.
        More than `cap` pairs passing the prefilter for one seed raise
        ResourceCapError.
        """
        digests = self.digests[ids]
        order = np.argsort(digests, kind="stable")
        ordered = digests[order]
        mixed = premix(ordered)
        emax = float(emax)
        k = bits_below(emax * float(self.lut.max()))
        limit = head_limit(k) if k else None
        words = np.empty(_TILE, dtype=np.uint64)
        heads = np.empty(_TILE, dtype=np.uint64)
        tmp = np.empty(_TILE, dtype=np.uint64)
        below = np.empty(_TILE, dtype=bool)
        passed = np.zeros(len(rngs), dtype=np.int64)
        none = np.zeros(0, dtype=np.int64)
        held, found = [(none, none, none, none.astype(np.uint64))], []
        count = 0  # prefilter passes held
        for i0, i1, j0, j1 in _pair_tiles(len(ids)) if k and rngs else ():
            shape = (i1 - i0, j1 - j0)
            size = shape[0] * shape[1]
            pair = combine_into(
                mixed[i0:i1, None],
                ordered[None, j0:j1],
                words[:size].reshape(shape),
                tmp[:size].reshape(shape),
            ).reshape(-1)
            where, cands = [], []
            for rng in rngs:
                d = rng.heads_into(pair, STREAM_PERCOLATION, heads[:size], tmp[:size])
                if limit is None:
                    pos = np.arange(size)
                else:
                    pos = np.less(d, limit, out=below[:size]).nonzero()[0]
                where.append(pos)
                cands.append(d[pos])
            seed = np.repeat(np.arange(len(rngs)), [len(w) for w in where])
            bits = head_bits(np.concatenate(cands))
            i, j = np.divmod(np.concatenate(where), shape[1])
            i += i0
            j += j0
            hit = (bits < k) & (i < j)
            seed, i, j, bits = seed[hit], i[hit], j[hit], bits[hit]
            passed += np.bincount(seed, minlength=len(rngs))
            if passed.max() > self.cap:
                raise ResourceCapError("percolation pairs", self.cap)
            held.append((seed, i, j, bits))
            count += len(bits)
            if count >= _TILE:
                found.append(self._opened(held, ids, order, emax))
                held, count = held[:1], 0
        found.append(self._opened(held, ids, order, emax))
        seed, a, b, u, p = (np.concatenate(col) for col in zip(*found))
        keep = np.lexsort((b, a, seed))
        ends = np.searchsorted(seed[keep], np.arange(len(rngs) + 1))
        return [
            (a[run], b[run], u[run], p[run])
            for run in (keep[s:t] for s, t in zip(ends[:-1], ends[1:]))
        ]

    def _opened(self, held, ids, order, emax: float) -> tuple:
        """(seed, a, b, u, p) of the open pairs among the prefilter passes
        `held`, a list of (seed, i, j, bits) with i < j positions in digest
        `order` of `ids` and bits those of u = bits * 2**-53."""
        seed, i, j, bits = (np.concatenate(col) for col in zip(*held))
        oi, oj = order[i], order[j]
        a, b = ids[np.minimum(oi, oj)], ids[np.maximum(oi, oj)]
        p = self.prob(a, b)
        u = to_uniforms(bits)
        keep = np.flatnonzero(u < emax * p)
        return seed[keep], a[keep], b[keep], u[keep], p[keep]

    def row_masses(self, rows) -> np.ndarray:
        """Mass sum_{j != i} p(i, j) of each point i in `rows`, over every
        point of the space, which must then be the window itself.

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
        if schedule.growth is None or schedule.growth2 is None:
            raise InputError("graphing needs a schedule with growth series attached")
        self.metric = metric
        self.schedule = schedule
        self.n = n
        self.window_radius = window_radius
        self.margin = margin
        self.interior_radius = window_radius - margin
        self.pctx = ProcessContext(metric, schedule, n, window_radius, cap)
        self.interior_mask = self.pctx.space.mask_within(self.interior_radius)
        self.kernel = PercolationKernel(
            self.pctx.space,
            self.pctx.point_digests,
            schedule.growth,
            schedule.growth2,
            window_radius,
            cap,
        )
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

    @functools.cached_property
    def edge_keys(self) -> np.ndarray:
        """The out-edges as sorted distinct keys (min << 32) | max, built
        once per seed for every epsilon's Pi3."""
        src = np.flatnonzero(self.target >= 0)
        tgt = self.target[src]
        return np.unique((np.minimum(src, tgt) << 32) | np.maximum(src, tgt))


def build_pi1(mw: MarkedWindow) -> Pi1Forest:
    ctx = mw.ctx
    space = ctx.pctx.space
    y_fi = space.pts1[mw.v_pid]
    # One tau call per seed, over the distinct (center, y) first-index pairs.
    pairs, inverse = np.unique(
        (space.pts1[mw.centers][mw.v_k].astype(np.int64) << 32) | y_fi, return_inverse=True
    )
    tfi = ctx.tau(pairs >> 32, pairs & 0xFFFFFFFF)[inverse]
    # A target outside the first factor ball is -1, which packs to a
    # negative key and so misses like any point outside the universe.
    tpids = space.lookup_keys((tfi << 32) | space.pts2[mw.v_pid])
    # (tpid, k) is a vertex exactly when tpid is a member of diamond k.
    target = mw.vertex_of(tpids, mw.v_k)
    stalled = target < 0
    # Same first coordinate within one diamond: out-edges must be parallel
    # (second coordinate unchanged, one target first coordinate per group).
    src = np.flatnonzero(~stalled)
    tgt_pid, src_pid = mw.v_pid[target[src]], mw.v_pid[src]
    _, group = np.unique((mw.v_k[src].astype(np.int64) << 32) | y_fi[src], return_inverse=True)
    moves = np.unique((group << 32) | space.pts1[tgt_pid])
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
    as over all pairs, in the same order.
    """
    if not eps_list:
        return {}
    S = np.sort(np.asarray(base_pids, dtype=np.int64))
    [(a, b, u, p)] = ctx.kernel.open_pairs(S, [rng], max(eps_list))
    out = {}
    for e in eps_list:
        sel = u < float(e) * p
        out[float(e)] = np.stack([a[sel], b[sel]], axis=1)
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
    pair = np.repeat(np.arange(len(at)), lifts)
    rank = np.arange(len(pair)) - np.repeat(np.cumsum(lifts) - lifts, lifts)
    va = mw.copies[first[pair, 0] + rank // count[pair, 1]]
    vb = mw.copies[first[pair, 1] + rank % count[pair, 1]]
    return np.stack([np.minimum(va, vb), np.maximum(va, vb)], axis=1)


def pi1_edges(pi1: Pi1Forest) -> np.ndarray:
    """Pi1 out-edges (v, target), in rising v."""
    src = np.flatnonzero(pi1.target >= 0)
    return np.stack([src, pi1.target[src]], axis=1)


def pi3_edges(mw: MarkedWindow, pi1: Pi1Forest, open_pairs) -> np.ndarray:
    """Undirected edges of Pi3 = Pi1 union lifted Pi2, an (m, 2) array of
    rows (a, b), a < b, sorted and without duplicates.  The few lifted keys
    are merged into the forest's sorted keys."""
    forest = pi1.edge_keys
    lifted = lift_open_pairs(mw, open_pairs)
    lifted = np.unique((lifted[:, 0] << 32) | lifted[:, 1])
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
    return _unpack(np.unique((lo[differ] << 32) | hi[differ]))


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


def largest_component_fraction(roots) -> float:
    """Share of the vertices in the largest component, given the root
    label of every vertex."""
    if len(roots) == 0:
        return 0.0
    return int(np.bincount(roots).max()) / len(roots)


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

    When `collect` is a dict it receives the marked window and the (m, 2)
    edge array of every stage (for dumps and debugging)."""
    rng = SeededRandomness(seed_key)
    process = sample_diamond_process(ctx.pctx, seed_key)
    mw = build_marked_window(ctx, process)
    st = SeedStats(seed_index=seed_index)
    st.n_diamonds = len(process.center_pids)
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
    st.n_bases = len(mw.bases)
    opens = build_percolation(ctx, mw.bases, rng, sorted(set(list(eps_list) + [primary_eps])))
    # Monotone-merging check over the shared uniforms; each epsilon labels
    # its own edge set.
    prev = -1.0
    for e in sorted(opens):
        edges_e = pi3_edges(mw, pi1, opens[e])
        roots_e = _component_roots(mw.n_vertices, edges_e)
        if e == float(primary_eps):
            edges, roots = edges_e, roots_e
        frac = largest_component_fraction(roots_e)
        st.largest_fraction[e] = frac
        if frac < prev - 1e-12:
            st.monotone_ok = False
        prev = frac
    n = mw.n_vertices
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
            pi2_lifted=lift_open_pairs(mw, opens[float(primary_eps)]),
            pi3=edges,
            f_edges=stages["f_edges"],
            pi4=stages["pi4"],
            pi5=stages["pi5"],
            s0_mask=s0_mask,
        )
    unreached = stages["dist"] < 0
    st.flagged_components = len(np.unique(roots[unreached]))
    ok_interior = interior[~unreached[interior]]
    s0_interior = ok_interior[s0_mask[ok_interior]]
    st.n_sprime_interior = len(ok_interior)
    st.n_s0_interior = len(s0_interior)
    if len(s0_interior):
        lam = len(s0_interior) / len(ok_interior)
        st.lambda_hat = lam
        pi5_ends = np.sort(stages["pi5"].ravel())
        interior_bases = np.unique(mw.v_pid[s0_interior])
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
    return len(np.unique(pi4_roots[sources])) == len(np.unique(roots[sources]))


@dataclass
class CostReport:
    seeds: int
    eps: float
    stages: list  # dicts: stage, half_degree_mean, half_degree_se, ...
    lambda_hat_mean: float
    pi5_bound_lhs: float
    pi5_bound_rhs: float
    pi5_violations: int
    pi5_disconnected: int
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
            "pi5_disconnected": self.pi5_disconnected,
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
    excl = sum(r.excluded_diamonds for r in runs_ok) / max(
        1, sum(r.n_diamonds for r in runs_ok)
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
        pi5_disconnected=sum(1 for r in runs_ok if not r.pi5_connected_ok),
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
    path-partition baseline.

    The percolation is the kernel's on the window: one `open_pairs` call
    draws the open pairs of every seed, and the expected half-degree sums the
    interior rows' `row_masses`, in their fixed order.  The coset lines
    are labelled once; each epsilon then unions only its own open pairs
    over the line labels, so every epsilon's partition is the lines plus
    that epsilon's pairs, never the previous epsilon's.
    """
    if margin < 1 or margin >= window_radius:
        raise InputError("margin must satisfy 1 <= margin < window radius")
    first = metric.first
    if first.spec.kind not in ("free", "integer_lattice"):
        raise InputError(
            "baseline needs an infinite-order designated generator "
            "(free or lattice first factor)"
        )
    space = ProductSpace(metric, window_radius, cap)
    kernel = PercolationKernel(space, point_digests(space), growth, growth2, window_radius, cap)
    interior = space.mask_within(window_radius - margin)
    gen = first.generator_map()[first.gen_pairs()[0][0]]
    n = len(space)
    ball1 = space.ball1
    succ = np.fromiter(  # first-ball index of el * gen
        (ball1.index.get(first.multiply(el, gen), -1) for el in ball1.elements),
        dtype=np.int64,
        count=len(ball1),
    )
    # A successor outside the first factor ball is -1, which packs to a
    # negative key and so misses like any point outside the window.
    tgt = space.lookup_keys((succ[space.pts1] << 32) | space.pts2)
    src = np.flatnonzero(tgt >= 0)
    lo, hi = np.minimum(src, tgt[src]), np.maximum(src, tgt[src])
    line_deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    int_ids = np.flatnonzero(interior)
    line_partition_ok = bool((line_deg[int_ids] == 2).all()) if len(int_ids) else True
    # The line of each point, and the number of points on each line.
    _, line_of = np.unique(_component_roots(n, np.stack([lo, hi], axis=1)), return_inverse=True)
    line_size = np.bincount(line_of)
    ids = np.arange(n)
    mass = kernel.row_masses(int_ids)
    expected_half = {float(e): 1.0 + float(e) * float(mass.mean()) / 2.0 for e in eps_list}
    rows = {float(e): {"largest": [], "half": []} for e in eps_list}
    monotone_violations = 0
    emax = max(eps_list, default=0.0)
    rngs = [SeededRandomness(seed_digest(master_seed, s)) for s in range(seeds)]
    for a, b, u, p in kernel.open_pairs(ids, rngs, emax):
        la, lb = line_of[a], line_of[b]
        prev = -1.0
        for e in sorted(float(x) for x in eps_list):
            sel = u < e * p
            roots = _component_roots(len(line_size), np.stack([la[sel], lb[sel]], axis=1))
            frac = int(np.bincount(roots, weights=line_size).max()) / n
            perc_deg = np.bincount(a[sel], minlength=n) + np.bincount(b[sel], minlength=n)
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
            for a, b in edges.tolist():
                w.writerow([stage, vname(a), vname(b)])
