"""Window graphing pipeline: descent forest, percolation, induced stages.

Per seed: sample a diamond process, keep the diamonds whose descent forest
is well defined across the window (center far enough in the first factor),
build the horizontal descent forest, add an invariant pair percolation,
break overlaps to a transversal, collapse to the induced graphings, and
estimate Palm degrees and the cost bound on the margin-trimmed interior.

A sweep runs its seeds in batches (`run_seeds`): each seed is sampled on
its own, and every later stage runs once over the disjoint union of the
batch's marked windows, whose vertex ids are offset seed by seed.  No
stage joins two seeds and every draw is keyed by its own seed, so each
seed's statistics, read from its own slices, are those it has alone;
`run_seed` is the batch of one.  The batch's per-seed draws (overlap
labels, w1 and the percolation's rounds) hash in one call each, every
digest under its own seed (`SeededRandomness.words`), and its statistics
are per-seed integer sums (`np.bincount`).  Where a stage orders by a
float label (marks, w1), it sorts one int64 key of the label's dense rank
and an integer tie-breaker (`_lex_keys`), not a lexsort on floats.

The stages read one vertex table, `MarkedWindow`, gathered from the
covering map's member ranges of the kept diamonds: vertex vi is the copy
of point v_pid[vi] in kept diamond v_k[vi].  A covered point of a seed is
named by its key (seed << 32) | point, the point id when the window holds
one seed; its copy ranges and `vertex_of` are the only maps between points
and vertices.  Every point id of these stages is an id of the kernel's
window W; W+ ids, the covering rows, name only the diamond centers.  Every
edge set, from the open Pi2 pairs to the seed-0 dumps, is an (m, 2) int64
array, and `_component_roots` (the least vertex of each component, so
within one seed) is the one labeller, for Pi3, the Pi5 connectivity check
and the coset-line baseline.  Both sweeps measure connectivity with one
epsilon ladder (`_ladder`): a base partition, the Pi1 forest or the coset
lines, joined by each epsilon's open pairs, which `_open_at` splits off the
pairs open at the largest epsilon.  phi is a breadth-first search one
layer at a time over the Pi3 edges that can still reach a vertex; psi, Pi4
and Pi5 are array reductions of it.
Pi1 takes its descent targets from one `GraphingContext.tau` call per
batch over the distinct (center, y) pairs, in closed form on index arrays
when the first factor is free.

`PercolationKernel` owns the pair law and the window W, and draws the one
percolation: the Pi2 stage opens it among each seed's base points, and the
coset-line baseline among every point of the window.  Each point draws
the open ranks of its rho spheres by geometric gaps.

Degree estimators use the mass-transport form: the Palm expectation of the
full degree equals out-degree plus half the percolation degree for the
forest-plus-percolation union.  That form is insensitive to the forest's
in/out flux across the window's boundary, whose raw imbalance is reported
separately as the boundary deficit.  It does not restore the percolation
partners that the window cuts off: a pair with an endpoint outside the
window is never drawn, so an interior point's percolation degree covers
only the kernel mass inside the window (about 0.83 of it for F2 x F2 at
the default margin 2), and the estimate is truncated by that much.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field, fields
from fractions import Fraction

import numpy as np

from .errors import HorolabError, InputError, InvariantViolation, MarkCollisionError
from .errors import ResourceCapError
from .groups import DEFAULT_ENUM_CAP, FreeOracle, growth_series, ragged
from .horoboundary import FreeRaySteps, GeodesicRay, Horofunction, ProductHorofunction, spell
from .product import ProductMetric, ProductSpace
from .point_process import ProcessContext, point_digests, sample_diamond_process
from .randomness import (
    STREAM_OVERLAP,
    STREAM_PERCOLATION,
    SeededRandomness,
    _DROP11,
    _TILE,
    combine_digests,
    mixed_seeds,
    seed_digest,
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


def _dense(keys) -> tuple:
    """(ids, firsts): keys[i] is the ids[i]-th distinct entry of the array
    `keys`, keys[firsts[k]] the k-th; by argsort, for `_distinct`'s reason."""
    order = np.argsort(keys)
    new = np.ones(len(keys), dtype=bool)
    new[1:] = keys[order[1:]] != keys[order[:-1]]
    ids = np.empty(len(keys), dtype=np.int64)
    ids[order] = np.cumsum(new) - 1
    return ids, order[new]


def _lex_keys(major, floats, minor, size) -> np.ndarray:
    """One int64 key per row (major[i], floats[i], minor[i]), in the rows'
    lexicographic order, equal exactly when the rows are: the floats enter
    by their dense rank (`_dense`), `minor` holds non-negative ints below
    `size` (0 below 1 for none), and `major` non-negative ints, or is None
    for none.
    numpy's default argsort on distinct keys gives a lexsort's order, at a
    fraction of the cost of a stable sort on a float column.  Where the
    packing would pass int64, `major` and the (float, minor) pairs enter by
    their dense ranks too, both below the row count, whose square fits."""
    rank, firsts = _dense(floats)
    inner, span = rank * size + minor, len(firsts) * size
    if major is None:
        return inner
    if len(major) and int(major.max()) >= np.iinfo(np.int64).max // max(1, span):
        (inner, firsts), (major, _) = _dense(inner), _dense(major)
        span = len(firsts)
    return major * span + inner


def _gap0_bound(reach) -> np.ndarray:
    """K = ceil(reach * 2^53) per class, as uint64: a uniform w = b * 2^-53
    is below `reach` exactly when its 53-bit integer b < K, since reach *
    2^53 is exact and b an integer."""
    return np.ceil(reach * 2.0**53).astype(np.uint64)


def _gap0_reach(sizes, log_q) -> np.ndarray:
    """Each class's gap-0 reach: an upper bound on the uniforms w that open
    a rank at gap 0 of a sphere of `sizes` at log(1 - q) = `log_q`, where
    the test floor(log1p(-w) / log_q) < size is monotone in w and passes
    exactly below 1 - (1 - q)^size.  That bound is widened by a relative
    1e-9 and an absolute 2^-50 for the rounding of either side, and capped
    at 1, which it is at q = 1."""
    return np.minimum(1.0, -np.expm1(sizes * log_q) * (1.0 + 1e-9) + 2.0**-50)


def _groups(member, block, capacity):
    """The seeds in runs, as (seeds, rows), rows holding each seed's rows
    of `block`, the positions of its points there (`member` has one bool
    row per seed over the window): consecutive seeds while their rows
    number at most `capacity`, what the held buffers take in one pass; a
    seed with more rows runs alone."""
    seeds, rows = [], []
    for s, row in enumerate(member):
        own = np.flatnonzero(row[block])
        if seeds and sum(map(len, rows)) + len(own) > capacity:
            yield seeds, rows
            seeds, rows = [], []
        seeds.append(s)
        rows.append(own)
    if seeds:
        yield seeds, rows


class PercolationKernel:
    """Invariant pair weights p(x,y) = 2^-(j+1) / |sphere_j|, and the one
    percolation they draw on the points of the window.

    sphere_j is the j-th nonempty positive rho_c sphere of G'' in
    increasing radius order, with counts taken from each factor's own
    growth series, to 2 * window_radius and floor(c * 2 * window_radius),
    so the total mass over the whole group is exactly 1; the mass
    not reachable inside the window (largest radius 2 * window_radius, the
    window's diameter) is the truncation mass 2^-(#enumerated spheres) and
    is reported, never redistributed.  Sphere j is at rho numerator
    `nums[j]` and has `counts[nums[j]]` points; `steps[num]` lists by t the
    factor distances (t, t2) with rho_num(t, t2) = num and nonempty spheres.

    This class alone holds the pair law and its point set, the window
    `space` = ProductSpace(metric, window_radius) with its point `digests`;
    every point id it takes or returns is a window id, and the covering
    map, the vertex table and Pi2 share them.  `prob` is lut at
    `rho_num(d(a1, b1), d'(a2, b2))`, from the pair distances of each
    window factor ball (`_distances`).
    The Pi2 stage and the coset-line baseline are this one percolation
    restricted to two point sets: each point draws the open ranks of its
    spheres by geometric gaps (`open_pairs`).
    """

    def __init__(self, metric: ProductMetric, window_radius: int, cap: int = DEFAULT_ENUM_CAP):
        p, q = metric.c.numerator, metric.c.denominator
        max_num = metric.radius_num(2 * window_radius)
        if max_num >= 2**31:  # int32 factor distances make int32 numerators d p + d' q
            raise InputError(f"rho numerators up to {max_num} at c = {metric.c} pass int32")
        growth = growth_series(metric.first.spec, 2 * window_radius, cap=cap)
        # floor(c * 2 wr) is 0 when c < 1 / (2 wr); a growth series reaches radius 1 at least.
        growth2 = growth_series(metric.second.spec, max(1, max_num // q), cap=cap)
        self.counts, self.steps = counts, steps = {}, {}
        for t in range(max_num // p + 1):
            for t2 in range((max_num - t * p) // q + 1):
                num = metric.rho_num(t, t2)
                cnt = growth.sphere(t) * growth2.sphere(t2)
                if num and cnt:
                    counts[num] = counts.get(num, 0) + cnt
                    steps.setdefault(num, []).append((t, t2))
        self.nums = sorted(counts)
        self.lut = np.zeros(max_num + 1, dtype=np.float64)
        for j, num in enumerate(self.nums):
            self.lut[num] = 0.5 ** (j + 1) / counts[num]
        self.truncation_mass = Fraction(1, 2 ** len(self.nums))
        self.space = space = ProductSpace(metric, window_radius, cap)
        self.digests = point_digests(space)
        self.cap = cap
        self._growth = growth, growth2

    def prob(self, a, b) -> np.ndarray:
        """p(a, b) for window ids a and b, elementwise: lut at the rho_c
        numerator d p + d' q of their factor distances."""
        s, (dist1, dist2) = self.space, self._distances
        d1 = dist1(s.pts1[a], s.pts1[b])
        return self.lut[s.metric.rho_num(d1, dist2(s.pts2[a], s.pts2[b]))]

    @functools.cached_property
    def _distances(self) -> tuple:
        """d(elements[i], elements[j]) for index arrays i and j, elementwise,
        per window factor ball (`Oracle.distances` over it, built on first
        use); a free product's table counts against the kernel's cap."""
        s = self.space
        return tuple(b.oracle.distances(b.elements, self.cap) for b in (s.ball1, s.ball2))

    def open_pairs(self, ids, rngs, emax) -> list:
        """For each SeededRandomness of `rngs`, (a, b, u, p) for every open
        pair a < b of its window ids, sorted by a, then b: `ids` lists one
        array of window ids per seed.

        Each x of a seed's ids opens each element of its sphere_j with q_j =
        min(1, emax * p_j): the gaps between open ranks (`_unrank`'s order)
        are floor(log(1 - w) / log(1 - q_j)) (0 at q_j = 1), w the uniform
        of (digest(x), j, 2 i) for gap i, drawn in rounds over the (x, j)
        still inside their sphere.  The cells (x, j) of every seed's points
        are taken in blocks of about `_TILE`, whose gap-0 keys, which no seed
        enters, are hashed once.  A block's seeds run in runs whose rows fit
        the buffers held for the call (`_groups`), and a run draws its
        cells' gap-0 pass and each round in one call, every cell under its
        own seed (`SeededRandomness.words`'s per-element seeds).  The
        baseline's seeds all hold the whole window, so each runs alone in
        a full block and they share runs only in a last block of at most
        half a block's rows.
        At gap 0 the rank is the gap itself, and that test is monotone in w:
        a cell can open a rank only when w is below its class's reach, an
        upper bound on 1 - (1 - q_j)^|sphere_j| (`_gap0_reach`), so the
        exact test runs on those cells alone, most of a round's being
        closed.  Gap 0 allocates no array of a seed's cells: its rows of the
        block's gap-0 keys are gathered into a word buffer held for the call,
        hashed there in place (`SeededRandomness.words`), and their 53-bit
        integers b are tested against K = ceil(reach 2^53) per class into a
        held bool array, b < K being exactly w < reach (`_gap0_bound`);
        only the cells that pass are made floats.
        A rank unranks to y, kept when y is among the seed's ids and
        digest(x) < digest(y): so each unordered pair is decided once, at
        rate emax * p.  Its u is v * q_j < emax * p, v the uniform of
        (digest(x), j, 2 i + 1), so each epsilon keeps u < epsilon * p.
        Each seed's open ranks, over all blocks, count against `cap`
        (ResourceCapError) round by round, before any is unranked; those at
        q_j = 1, every rank of its points, before any draw.  A block's
        seeds' open ranks are unranked together (`_unrank`) at its end, or
        once `_TILE` are pending, and their v uniforms drawn in one call;
        the pairs are split back by seed at the end.
        """
        if not rngs:
            return []
        member = np.zeros((len(rngs), len(self.space)), dtype=bool)
        for row, own in zip(member, ids):
            row[own] = True
        largest, ids = max(map(len, ids)), np.flatnonzero(member.any(axis=0))
        p = self.lut[self.nums]
        q = np.minimum(1.0, float(emax) * p)
        with np.errstate(divide="ignore"):
            log_q = np.log1p(-q)  # -inf at q = 1, where every gap is 0
        sizes = np.array([self.counts[num] for num in self.nums], dtype=np.int64)
        if largest * int(sizes[q == 1.0].sum()) > self.cap:
            raise ResourceCapError("percolation pairs", self.cap)
        drawn = np.flatnonzero(q > 0.0)
        width, bound = len(drawn), _gap0_bound(_gap0_reach(sizes[drawn], log_q[drawn]))
        count, found, mixed, rng = np.zeros(len(rngs), dtype=np.int64), [], mixed_seeds(rngs), rngs[0]
        step = max(1, _TILE // max(1, width))
        rows = min(step, len(ids))  # the gap-0 buffers, held for the call, hold this many rows
        bits, tmp, near = (np.empty(rows * width, t) for t in (np.uint64, np.uint64, bool))
        for i0 in range(0, max(1, len(ids)), step):
            block = ids[i0 : i0 + step]
            keys = combine_digests(self.digests[block][:, None], drawn.astype(np.uint64))
            first, keys, pending = combine_digests(keys, 0), keys.ravel(), []
            for group, own in _groups(member, block, rows):
                own_rows = np.concatenate(own)
                seed = np.repeat(group, list(map(len, own)))  # of each row
                m = len(own_rows) * width
                z = np.take(first, own_rows, axis=0, out=bits[:m].reshape(len(own_rows), width))
                rng.words(z, STREAM_PERCOLATION, out=z, tmp=tmp[:m].reshape(z.shape), seeds=mixed[seed][:, None])
                np.right_shift(z, _DROP11, out=z)  # a uniform's 53 bits
                np.less(z, bound, out=near[:m].reshape(z.shape))
                cell = np.flatnonzero(near[:m])  # only these can open a rank
                w, (row, cls), pos = to_uniforms(bits[cell]), np.divmod(cell, width), -1.0
                seed, cell = seed[row], own_rows[row] * width + cls
                for gap in itertools.count():
                    if gap:
                        digests = combine_digests(keys[cell], 2 * gap)
                        w = rng.uniforms(digests, STREAM_PERCOLATION, seeds=mixed[seed])
                    j = drawn[cell % width]
                    pos = pos + 1.0 + np.floor(np.log1p(-w) / log_q[j])
                    inside = np.flatnonzero(pos < sizes[j])
                    if not len(inside):
                        break
                    seed, cell, pos = seed[inside], cell[inside], pos[inside]
                    count += np.bincount(seed, minlength=len(rngs))  # one open rank a cell
                    if count.max() > self.cap:
                        raise ResourceCapError("percolation pairs", self.cap)
                    pending.append((seed, gap, cell, pos.astype(np.int64)))
                lens = [len(row[2]) for row in pending]
                if group[-1] + 1 < len(rngs) and sum(lens) < _TILE:
                    continue
                gap = np.repeat(np.array([row[1] for row in pending], dtype=np.int64), lens)
                seed, cell, rank = (np.concatenate([ids[:0], *(row[k] for row in pending)]) for k in (0, 2, 3))
                x, j, pending = block[cell // width], drawn[cell % width], []
                y = self._unrank(x, j, rank)
                keep = np.flatnonzero(y >= 0)
                keep = keep[member[seed[keep], y[keep]] & (self.digests[x[keep]] < self.digests[y[keep]])]
                seed, cell, x, j, gap, y = seed[keep], cell[keep], x[keep], j[keep], gap[keep], y[keep]
                v = combine_digests(keys[cell], 2 * gap + 1)
                u = rng.uniforms(v, STREAM_PERCOLATION, seeds=mixed[seed]) * q[j]
                found.append((seed, np.minimum(x, y), np.maximum(x, y), u, p[j]))
        seed, a, b, u, pj = (np.concatenate([ids[:0], *col]) for col in zip(*found))
        order = np.argsort(a * len(self.space) + b)  # by (a, b), then stably by seed
        order = order[np.argsort(seed[order], kind="stable")]
        cut = np.searchsorted(seed[order], np.arange(len(rngs) + 1))
        a, b, u, pj = (col[order] for col in (a, b, u, pj))
        return [(a[lo:hi], b[lo:hi], u[lo:hi], pj[lo:hi]) for lo, hi in zip(cut, cut[1:])]

    @functools.cached_property
    def _ranks(self) -> tuple:
        """`_unrank`'s tables, built on first use: per step (t, t2) of each
        class, in `nums` then `steps` order, its first rank in one rank
        space over all classes and |S_t2|; each class's first rank; and per
        factor, each step's radius t and ball volume |B_t|."""
        g1, g2 = self._growth
        steps = [(j, t, t2) for j, num in enumerate(self.nums) for t, t2 in self.steps[num]]
        j, t1, t2 = (np.array(col, dtype=np.int64) for col in zip(*steps))
        s2 = np.array([g2.sphere(t) for t in t2.tolist()], dtype=np.int64)
        size = np.array([g1.sphere(t) for t in t1.tolist()], dtype=np.int64) * s2
        start = np.cumsum(size) - size
        volumes = [np.array(g.volumes, dtype=np.int64)[t] for g, t in ((g1, t1), (g2, t2))]
        return start, s2, start[np.searchsorted(j, np.arange(len(self.nums)))], (t1, t2), volumes

    def _unrank(self, x, j, rank) -> np.ndarray:
        """The window id (-1 outside the window) of y = (x1 s1, x2 s2) for
        each window id x and rank of its sphere_j.  The ranks of sphere_j
        run over its steps (t, t2) in `steps` order, each with s1's rank in
        S_t major and s2's in S_t2 minor (`Oracle.sphere_element`).  Each
        distinct (t, rank) is unranked and each distinct x_i s_i found once.

        On a free factor s_i is unranked to its letters as step columns
        (`FreeOracle.sphere_columns`) and x_i walks the ball's step table
        one letter a step, reading -1 for good once a step leaves the ball.
        That is exact: the letters of a reduced word trace a geodesic of the
        tree, along which the distance to the identity has no interior
        maximum, so the walk stays in the ball exactly when x_i s_i lies in
        it.  Other factors multiply by `Oracle.multiply` and look the
        product up in the ball's index."""
        start, s2, first, radii, volumes = self._ranks
        at = first[j] + rank
        step = np.searchsorted(start, at, side="right") - 1
        s, index, ranks = self.space, [], np.divmod(at - start[step], s2[step])
        for fb, i, t, v, r in zip((s.ball1, s.ball2), (s.pts1[x], s.pts2[x]), radii, volumes, ranks):
            e, firsts = _dense(v[step] - r)  # s's place in the ball B_t: |S_t| ranks below |B_t|
            t, r = t[step[firsts]], r[firsts]
            y, firsts = _dense(i.astype(np.int64) * len(t) + e)  # int32 i would wrap
            a, b = i[firsts].astype(np.int64), e[firsts]
            if isinstance(fb.oracle, FreeOracle):
                for col in fb.oracle.sphere_columns(t, r)[:, b]:
                    live = np.flatnonzero((a >= 0) & (col >= 0))
                    a[live] = fb.step[a[live], col[live]]
            else:
                sphere = list(map(fb.oracle.sphere_element, t.tolist(), r.tolist()))
                products = (
                    fb.index.get(fb.oracle.multiply(fb.elements[a], sphere[b]), -1)
                    for a, b in zip(a.tolist(), b.tolist())
                )
                a = np.fromiter(products, dtype=np.int64, count=len(a))
            index.append(a[y])
        return s.lookup(*index)

    def row_masses(self, rows) -> np.ndarray:
        """Mass sum_{j != i} p(i, j) of each window point i in `rows`, over
        every window point.

        Each row is summed left to right over j = i+1, ..., n-1, then j = 0,
        ..., i-1: the order in which `np.add.at` over the `np.triu_indices`
        pairs adds up row i (as first, then as second index), since p is
        symmetric.  `np.cumsum` adds sequentially, so the sums match that
        order bit for bit; rows are taken in tiles of about `_TILE` pairs.
        Each row's rho numerators are gathered from one row of factor
        distances per factor, from its point to every element of the ball.
        Those rows, of a ball's m elements, are multiplied by p and q before
        the gather, not through `rho_num` after it on n/m times longer rows.
        """
        s, (dist1, dist2) = self.space, self._distances
        n = len(s)
        out = np.empty(len(rows), dtype=np.float64)
        ring = np.arange(1, n)
        step = max(1, _TILE // (n - 1))
        p, q = s.metric.c.numerator, s.metric.c.denominator
        all1, all2 = np.arange(len(s.ball1)), np.arange(len(s.ball2))
        for r0 in range(0, len(rows), step):
            i = rows[r0 : r0 + step, None]
            j = (i + ring) % n
            k = np.arange(len(i))[:, None]
            row1 = dist1(s.pts1[i], all1) * p
            row2 = dist2(s.pts2[i], all2) * q
            mass = self.lut[row1[k, s.pts1[j]] + row2[k, s.pts2[j]]]
            out[r0 : r0 + step] = np.cumsum(mass, axis=1)[:, -1]
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
        self.kernel = PercolationKernel(metric, window_radius, cap)
        self.pctx = ProcessContext(self.kernel.space, schedule, n, cap)
        self.interior_mask = self.kernel.space.mask_within(self.interior_radius)
        free = isinstance(metric.first, FreeOracle)
        self._free_steps = FreeRaySteps(self.pctx.space.ball1) if free else None
        self._tau_cache = {}
        self._ray_cache = {}

    @functools.cached_property
    def vertices_per_seed(self) -> float:
        """A seed's expected number of marked vertices: the window members
        of every kept center, each center drawn at 1 / volume, counted over
        the covering rows in chunks of `_TILE`."""
        starts, members = self.pctx.covering.starts, 0
        for r0 in range(0, len(starts) - 1, _TILE):
            rows = np.arange(r0, min(r0 + _TILE, len(starts) - 1))
            members += int(np.diff(starts[r0 : rows[-1] + 2])[self.keeps_center(rows)].sum())
        return members / self.pctx.volume

    def keeps_center(self, pids) -> np.ndarray:
        """Descent-safety rule, elementwise over center W+ ids (covering
        rows): the center's first coordinate must sit beyond the interior
        window, else descent can pass the center and leave the diamond at
        interior points."""
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
    """Vertex table of S' (marked points of the kept diamonds) of one seed,
    or of a batch of seeds as the disjoint union of theirs.

    Vertex vi is the copy of point v_pid[vi] in kept diamond v_k[vi].
    Vertices are listed seed by seed, seed i's from seed_starts[i] to
    seed_starts[i + 1], and each seed's diamond by diamond, each diamond's
    members in covering-map order (rising point id).  That order is output:
    phi and psi break ties by vertex index, and edges_seed0.csv lists rows
    in vertex order.  The diamond index runs over the whole batch.

    A point covered in seed i is named by its key (i << 32) | pid, which is
    its id when the window holds one seed; `v_key` is each vertex's.  The
    `bases` are the covered keys, sorted, seed i's from base_starts[i] to
    base_starts[i + 1].  `copies` lists the vertex ids stably sorted by key,
    so the copies of bases[j] are copies[starts[j]:starts[j+1]], in rising
    diamond index.
    """

    ctx: GraphingContext
    centers: np.ndarray  # center W+ id (covering row) of each kept diamond
    excluded_diamonds: np.ndarray  # per seed
    v_pid: np.ndarray
    v_k: np.ndarray
    v_key: np.ndarray
    v_interior: np.ndarray
    marks: np.ndarray  # float64 mark of each kept diamond
    bases: np.ndarray
    copies: np.ndarray
    starts: np.ndarray
    seed_starts: np.ndarray
    base_starts: np.ndarray

    @property
    def n_vertices(self) -> int:
        return len(self.v_pid)

    def vertex_of(self, pids, ks) -> np.ndarray:
        """Vertex of the copy of point pids[i] in kept diamond ks[i], -1
        where there is none (pid -1, or pid not a member of diamond k)."""
        # Diamond by diamond, with rising point ids: these keys rise.
        keys = (self.v_k.astype(np.int64) << 32) | self.v_pid
        want = (np.asarray(ks, dtype=np.int64) << 32) | pids
        pos = np.searchsorted(keys, want)
        return np.where(np.append(keys, -1)[pos] == want, pos, -1)


def build_marked_window(ctx: GraphingContext, processes) -> MarkedWindow:
    """The vertex table of the kept diamonds of `processes`, one sampled
    process per seed: their member ranges of the covering map, gathered
    seed by seed in sampling order."""
    drawn = [len(process.chosen) for process in processes]
    chosen = np.concatenate([process.chosen for process in processes])
    keep = ctx.keeps_center(chosen)
    seed = np.repeat(np.arange(len(processes)), drawn)[keep]  # of each kept diamond
    v_pid, sizes = ctx.pctx.covering.gather(chosen[keep])
    v_k = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
    v_key = (seed[v_k] << 32) | v_pid
    copies = np.argsort(v_key, kind="stable")
    bases, starts = np.unique(v_key[copies], return_index=True)
    cut = np.arange(len(processes) + 1)
    return MarkedWindow(
        ctx=ctx,
        centers=chosen[keep],
        excluded_diamonds=np.array(drawn) - np.bincount(seed, minlength=len(processes)),
        v_pid=v_pid,
        v_k=v_k,
        v_key=v_key,
        v_interior=ctx.interior_mask[v_pid],
        marks=np.concatenate([process.marks for process in processes])[keep],
        bases=bases,
        copies=copies,
        starts=np.append(starts, len(v_pid)),
        seed_starts=np.searchsorted(v_key >> 32, cut),
        base_starts=np.searchsorted(bases >> 32, cut),
    )


@dataclass
class Pi1Forest:
    """Horizontal descent forest: one out-edge per non-stalled vertex.  The
    counts are per seed of the window."""

    target: np.ndarray  # vertex index of the out-edge target, -1 when stalled
    stalled: np.ndarray
    interior_violations: np.ndarray
    parallel_violations: np.ndarray


def build_pi1(mw: MarkedWindow) -> Pi1Forest:
    ctx = mw.ctx
    space = ctx.kernel.space
    y_fi = space.pts1[mw.v_pid]
    # One tau call per window, over the distinct (center, y) first-index
    # pairs; the centers' first coordinates are read from W+, the rest from W.
    c_fi = ctx.pctx.space.pts1[mw.centers]
    pairs, inverse = np.unique((c_fi[mw.v_k].astype(np.int64) << 32) | y_fi, return_inverse=True)
    tfi = ctx.tau(pairs >> 32, pairs & 0xFFFFFFFF)[inverse]
    tpids = space.lookup(tfi, space.pts2[mw.v_pid])
    # (tpid, k) is a vertex exactly when tpid is a member of diamond k.
    target = mw.vertex_of(tpids, mw.v_k)
    stalled = target < 0
    # Same first coordinate within one diamond: out-edges must be parallel
    # (second coordinate unchanged, one target first coordinate per group).
    src = np.flatnonzero(~stalled)
    tgt_pid, src_pid = mw.v_pid[target[src]], mw.v_pid[src]
    key = (mw.v_k[src].astype(np.int64) << 32) | y_fi[src]
    _, first, group = np.unique(key, return_index=True, return_inverse=True)
    moves = _distinct((group << 32) | space.pts1[tgt_pid])
    seed = mw.v_key >> 32
    split = seed[src[first]][np.bincount(moves >> 32, minlength=len(first)) > 1]
    moved = seed[src][space.pts2[tgt_pid] != space.pts2[src_pid]]
    per_seed = functools.partial(np.bincount, minlength=len(mw.seed_starts) - 1)
    return Pi1Forest(
        target=target,
        stalled=per_seed(seed[stalled]),
        interior_violations=per_seed(seed[stalled & mw.v_interior]),
        parallel_violations=per_seed(moved) + per_seed(split),
    )


def build_percolation(ctx: GraphingContext, base_pids, rng: SeededRandomness, eps_list):
    """Open base-point pairs of one seed per epsilon, as (m, 2) arrays of
    window ids (a, b), a < b, sorted; one uniform per unordered pair.

    The same uniforms serve every epsilon, so openness is monotone in
    epsilon by construction.  The kernel's `open_pairs` finds the pairs
    open at the largest epsilon without materialising the closed ones;
    each epsilon then keeps those with u < epsilon * p, the same float test
    as over all pairs, in the same order.
    """
    if not eps_list:
        return {}
    bases = np.sort(np.asarray(base_pids, dtype=np.int64))
    [opened] = ctx.kernel.open_pairs([bases], [rng], max(eps_list))
    return _open_at(opened, eps_list)


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


def lift_open_pairs(mw: MarkedWindow, open_pairs) -> tuple:
    """pi^{-1}: every open pair of covered points, an (m, 2) array of their
    keys (`MarkedWindow.bases`, the point ids for one seed), lifts to all
    marked copy pairs.

    Returns (rows, pair): the (lower, higher) vertex rows, pair by pair,
    and within a pair the copies of its first point outer, those of its
    second inner; and the row of `open_pairs` each row lifts.
    """
    at = np.searchsorted(mw.bases, open_pairs)
    first = mw.starts[at]
    count = mw.starts[at + 1] - first
    lifts = count[:, 0] * count[:, 1]
    pair, rank = ragged(lifts)
    va = mw.copies[first[pair, 0] + rank // count[pair, 1]]
    vb = mw.copies[first[pair, 1] + rank % count[pair, 1]]
    return np.stack([np.minimum(va, vb), np.maximum(va, vb)], axis=1), pair


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


def _uniforms_by_seed(rngs, digests, seed, tag) -> np.ndarray:
    """rngs[seed[i]].uniforms(digests[i], tag) for each i, in one call
    under per-element seeds."""
    return rngs[0].uniforms(digests, tag, seeds=mixed_seeds(rngs)[seed])


def break_overlaps(mw: MarkedWindow, rngs) -> np.ndarray:
    """Keep one marked copy per covered point of each seed, selected by the
    point's overlap label under that seed's entry of `rngs` among the
    copies sorted by mark.  A lone copy survives whatever its label
    (`surviving_index(1, w) == 1`), so only the points with two or more
    copies draw a label and are sorted; two of their copies with one mark
    raise MarkCollisionError."""
    count = np.diff(mw.starts)
    keep = np.zeros(mw.n_vertices, dtype=bool)
    keep[mw.copies[mw.starts[:-1][count == 1]]] = True
    multi = np.flatnonzero(count > 1)
    base, count = mw.bases[multi], count[multi]
    point, rank = ragged(count)
    copies = mw.copies[mw.starts[multi][point] + rank]
    key = _lex_keys(point, mw.marks[mw.v_k[copies]], 0, 1)
    ranked = np.argsort(key)
    if (np.diff(key[ranked]) == 0).any():
        raise MarkCollisionError("overlapping diamonds drew identical marks; reject this seed")
    labels = _uniforms_by_seed(rngs, mw.ctx.kernel.digests[base & 0xFFFFFFFF], base >> 32, STREAM_OVERLAP)
    keep[copies[ranked[np.cumsum(count) - count + surviving_index(count, labels) - 1]]] = True
    return keep


def assign_phi(n: int, edges, sources, w1) -> tuple:
    """Closest S'_0 vertex in Pi3 graph distance, ties by the w1 label
    (then vertex index), by a breadth-first search one layer at a time
    over the (m, 2) edge array, each layer walking only the edges whose
    head is still unreached.  Returns (dist, phi): the distance to and the
    chosen source of every vertex, both -1 where a vertex is unreached
    (its component has no source)."""
    tail, head = np.concatenate([edges, edges[:, ::-1]]).T  # each edge both ways
    # Sources ranked by (w1, vertex); a newly reached vertex takes the
    # least rank among its neighbours one layer nearer.
    ranked = sources[np.argsort(_lex_keys(None, w1[sources], sources, n))]
    rank = np.full(n, len(ranked))
    rank[ranked] = np.arange(len(ranked))
    dist = np.full(n, -1)
    dist[sources] = 0
    d = 0
    while True:
        live = dist[head] == -1
        tail, head = tail[live], head[live]
        step = dist[tail] == d
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
    distance, in rising v; Pi4 and Pi5 rows are (min, max), sorted.  Pi5
    joins the keys of covered points (`MarkedWindow.bases`), the point ids
    for one seed."""
    dist, phi = assign_phi(mw.n_vertices, edges, np.flatnonzero(s0_mask), w1)
    v, u = np.concatenate([edges, edges[:, ::-1]]).T
    # psi(v): the least (w1, vertex) neighbour one step nearer phi(v).
    step = (dist[v] > 0) & (dist[u] == dist[v] - 1) & (phi[u] == phi[v])
    v, u = v[step], u[step]
    order = np.argsort(_lex_keys(v, w1[u], u, mw.n_vertices))
    v, u = v[order], u[order]
    first = np.flatnonzero(np.diff(v, prepend=-1))
    v = v[first]
    if len(v) < int((dist > 0).sum()):
        raise InvariantViolation("no geodesic step toward the phi target")
    # The ends of an edge share a component, so an unreached edge maps to
    # (-1, -1) and drops out with the other loops.
    pi4 = _distinct_pairs(phi[edges])
    # Keys pass 2^32, so Pi5's rows are found on base indices, which keep their order.
    return {
        "dist": dist,
        "f_edges": np.stack([v, u[first]], axis=1),
        "pi4": pi4,
        "pi5": mw.bases[_distinct_pairs(np.searchsorted(mw.bases, mw.v_key[pi4]))],
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


def _distinct_per_seed(labels, starts) -> np.ndarray:
    """The number of distinct `labels` in each segment starts[i] ..
    starts[i + 1] - 1 of the vertex ids, where every label lies."""
    return np.diff(np.searchsorted(_distinct(labels), starts))


def _ladder(base_roots, pairs_by_eps, starts) -> tuple:
    """The epsilon ladder over one base partition, whose labels `base_roots`
    give each vertex the least vertex of its component; `pairs_by_eps` maps
    each epsilon to its open pairs, an (m, 2) array of vertices.  The
    vertices are segments starts[i] .. starts[i + 1] - 1, one per seed,
    that no component or pair crosses.

    Returns (roots, fractions, drops): for each epsilon in rising order,
    the least vertex of every vertex's component once that epsilon's pairs
    join the base partition, and each segment's
    `largest_component_fraction`; and per segment the number of times its
    fraction falls from one epsilon to the next.  Each epsilon joins the
    base labels of its pairs' ends, so the least label among the base
    components one component joins is its least vertex; an epsilon that
    opens no pair keeps the base labels.
    """
    n = len(base_roots)
    roots, fractions = {}, {}
    for e in sorted(pairs_by_eps):
        pairs = pairs_by_eps[e]
        roots[e] = _component_roots(n, base_roots[pairs])[base_roots] if len(pairs) else base_roots
        fractions[e] = largest_component_fraction(roots[e], starts)
    steps = list(fractions.values())
    drops = sum((b < a - 1e-12 for a, b in zip(steps, steps[1:])), np.zeros(len(starts) - 1, dtype=np.int64))
    return roots, fractions, drops


def largest_component_fraction(roots, starts) -> np.ndarray:
    """Share of the vertices in the largest component of each segment
    starts[i] .. starts[i + 1] - 1, given the root label of every vertex,
    which lies in its own segment; 0.0 for an empty segment."""
    counts, out = np.diff(starts), np.zeros(len(starts) - 1)
    full = counts > 0
    sizes = np.bincount(roots, minlength=len(roots))
    out[full] = np.maximum.reduceat(sizes, np.asarray(starts)[:-1][full]) / counts[full]
    return out


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
) -> SeedStats:
    """One full pipeline pass: `run_seeds` on the one seed `seed_key`."""
    [st] = run_seeds(ctx, [seed_key], eps_list, primary_eps, [seed_index], collect)
    return st


def run_seeds(ctx: GraphingContext, keys, eps_list, primary_eps, seed_indices, collect=None) -> list:
    """One `SeedStats` per seed key of `keys`, its `seed` the matching entry
    of `seed_indices`, with window-scale statistics (`_run_batch`).

    Each seed is what it would be alone: every draw is keyed by its own
    seed and no stage joins two seeds.  So a batch that fails is run again
    seed by seed, and a seed that fails alone is rejected
    (`SeedStats.rejected`) when overlapping diamonds drew identical marks,
    and raises any other HorolabError naming its seed (`at_seed`).
    """
    try:
        return _run_batch(ctx, keys, eps_list, primary_eps, seed_indices, collect)
    except HorolabError as exc:
        if len(keys) > 1:
            return [
                st
                for key, seed_index in zip(keys, seed_indices)
                for st in run_seeds(ctx, [key], eps_list, primary_eps, [seed_index])
            ]
        if isinstance(exc, MarkCollisionError):
            return [SeedStats(seed=seed_indices[0], rejected=True)]
        raise exc.at_seed(seed_indices[0]) from exc


def _run_batch(ctx: GraphingContext, keys, eps_list, primary_eps, seed_indices, collect=None) -> list:
    """The pipeline of `run_seeds`: each seed's diamond process is sampled
    on its own, and every later stage runs once over the disjoint union of
    the seeds' marked windows (`build_marked_window`); each seed's
    statistics are read from its own slices.

    The open pairs at the largest epsilon are lifted to vertex pairs once
    (`lift_open_pairs`), and each epsilon keeps the rows it opens, for
    `pi3_edges`, the ladder and `collect`.  The epsilon
    ladder (`_ladder`) labels each epsilon's Pi3 components over the Pi1
    forest's labels, and gives the largest fractions and whether one falls
    as epsilon grows (`monotone_ok`).  The flagged components and
    `_pi5_connected` read only the primary epsilon's partition, never the
    edges, so the Pi3 edge array is built once, at the primary epsilon,
    for the degrees and the later stages.

    When `collect` is a dict it receives the marked window and the (m, 2)
    edge array of every stage (for dumps and debugging)."""
    rngs = [SeededRandomness(key) for key in keys]
    processes = [sample_diamond_process(ctx.pctx, key) for key in keys]
    mw = build_marked_window(ctx, processes)
    runs = [
        SeedStats(seed=seed, diamonds=len(process.chosen), excluded=int(excluded), vertices=int(n))
        for seed, process, excluded, n in zip(
            seed_indices, processes, mw.excluded_diamonds, np.diff(mw.seed_starts)
        )
    ]
    if mw.n_vertices == 0:
        return runs
    n, starts = mw.n_vertices, mw.seed_starts
    pi1 = build_pi1(mw)
    eps = sorted(set(list(eps_list) + [primary_eps]))
    cut = mw.base_starts
    opened = ctx.kernel.open_pairs(
        [mw.bases[lo:hi] & 0xFFFFFFFF for lo, hi in zip(cut, cut[1:])], rngs, max(eps)
    )
    rows = [(a | (s << 32), b | (s << 32), u, p) for s, (a, b, u, p) in enumerate(opened)]
    a, b, u, p = map(np.concatenate, zip(*rows))  # the points as keys
    lifted, pair = lift_open_pairs(mw, np.stack([a, b], axis=1))
    lifts = _open_at((lifted[:, 0], lifted[:, 1], u[pair], p[pair]), eps)
    edges = pi3_edges(pi1, lifts[float(primary_eps)])
    ladder, fractions, drops = _ladder(_component_roots(n, pi1_edges(pi1)), lifts, starts)
    roots = ladder[float(primary_eps)]
    deg = np.bincount(edges.ravel(), minlength=n)
    out_deg = (pi1.target >= 0).astype(np.int64)
    in_deg = np.bincount(pi1.target[pi1.target >= 0], minlength=n)
    perc_deg = deg - out_deg - in_deg
    s0_mask = break_overlaps(mw, rngs)
    w1 = _uniforms_by_seed(rngs, ctx.kernel.digests[mw.v_pid], mw.v_key >> 32, STREAM_PERCOLATION)
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
    flagged = _distinct_per_seed(roots[unreached], starts)
    connected = _pi5_connected(roots, stages, starts)
    # Per seed, the integer sums behind each mean, over its interior (ok:
    # reached; s0: reached and kept), and the ranges of its S0 bases and
    # reached interior vertices, for the two standard errors.
    seed, per_seed = mw.v_key >> 32, functools.partial(np.bincount, minlength=len(runs))
    interior = np.flatnonzero(mw.v_interior)
    ok = interior[~unreached[interior]]
    s0 = ok[s0_mask[ok]]
    palm = 2 * out_deg + perc_deg
    n_interior, n_ok, n_s0 = (per_seed(seed[vs]) for vs in (interior, ok, s0))
    sums = [per_seed(seed[interior], x[interior]) for x in (out_deg, in_deg, perc_deg, palm, deg)]
    pi5_ends, s0_bases = np.sort(stages["pi5"].ravel()), _distinct(mw.v_key[s0])
    pi5_deg = np.searchsorted(pi5_ends, s0_bases, side="right") - np.searchsorted(pi5_ends, s0_bases)
    bounds = np.arange(len(runs) + 1)
    base_cut, ok_cut = np.searchsorted(s0_bases >> 32, bounds), np.searchsorted(seed[ok], bounds)
    for i, st in enumerate(runs):
        if starts[i] == starts[i + 1]:
            continue
        st.stalled = int(pi1.stalled[i])
        st.pi1_interior_violations = int(pi1.interior_violations[i])
        st.parallel_violations = int(pi1.parallel_violations[i])
        st.interior = k = int(n_interior[i])
        st.n_bases = int(cut[i + 1] - cut[i])
        st.largest_fraction = {e: float(f[i]) for e, f in fractions.items()}
        st.monotone_ok = not drops[i]
        if k:
            sum_out, sum_in, sum_perc, sum_palm, sum_deg = (float(x[i]) for x in sums)
            st.half_deg_pi1 = sum_out / k
            st.perc_deg_interior_mean = sum_perc / k
            st.half_deg_pi3 = sum_palm / 2.0 / k  # the mean of out + perc / 2, each a half-integer
            st.half_deg_pi3_raw = sum_deg / k / 2.0
            st.mean_deg_pi3_palm = sum_palm / k
            st.boundary_deficit = abs(sum_in - sum_out) / k
        st.flagged_components = int(flagged[i])
        st.n_sprime_interior, st.n_s0_interior = int(n_ok[i]), int(n_s0[i])
        if st.n_s0_interior:
            lam = st.lambda_hat = st.n_s0_interior / st.n_sprime_interior
            lhs, se_lhs = _mean_se(pi5_deg[base_cut[i] : base_cut[i + 1]])
            palm_mean, se_palm = _mean_se(palm[ok[ok_cut[i] : ok_cut[i + 1]]])
            st.pi5_lhs = lhs
            st.pi5_rhs = palm_mean / lam - 2.0 / lam + 2.0
            st.pi5_se = se_lhs + se_palm / lam
            st.pi5_checked = True
            st.pi5_ok = st.pi5_lhs <= st.pi5_rhs + 3.0 * st.pi5_se + 1e-9
        st.pi5_connected_ok = bool(connected[i])
    return runs


def _pi5_connected(roots, stages, starts) -> np.ndarray:
    """Whether Pi5 restricted to each covered Pi3 component is connected,
    per segment starts[i] .. starts[i + 1] - 1 of the vertices, one per
    seed; `roots` labels the Pi3 components.  Sources (dist 0) are never
    flagged, so every source lies in a covered component.  The Pi4 edges
    inside one Pi3 component label finer components, so the sources meet
    as many of those as of the Pi3 ones exactly when each Pi3 component's
    sources are joined."""
    pi4 = stages["pi4"]
    pi4_roots = _component_roots(len(roots), pi4[roots[pi4[:, 0]] == roots[pi4[:, 1]]])
    sources = np.flatnonzero(stages["dist"] == 0)
    return _distinct_per_seed(pi4_roots[sources], starts) == _distinct_per_seed(roots[sources], starts)


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


def _batch_job(args) -> list:
    keys, eps_list, primary_eps, seed_indices = args
    return run_seeds(_WORKER["ctx"], keys, eps_list, primary_eps, seed_indices)


def cost_report(
    ctx: GraphingContext,
    seeds: int,
    eps_list,
    primary_eps: float,
    master_seed: int,
    threads: int = 1,
) -> CostReport:
    """The sweep over `seeds` seeds.  Seeds 1 .. seeds - 1 run in batches
    (`run_seeds`) of about `_TILE // 2` expected vertices
    (`GraphingContext.vertices_per_seed`), `_TILE` read as the sweep runs,
    in this process or on a fork pool of `threads`; seed 0 runs alone
    (`run_seed`), after them, and keeps its stages."""
    keys = [seed_digest(master_seed, s) for s in range(seeds)]
    size = max(1, int(_TILE // 2 // max(1.0, ctx.vertices_per_seed)))
    jobs = [
        (keys[s : s + size], tuple(eps_list), primary_eps, list(range(s, min(s + size, seeds))))
        for s in range(1, seeds, size)
    ]
    seed0_stages = {}
    _WORKER["ctx"] = ctx  # inherited by fork, avoids pickling the context
    try:
        if threads > 1:
            import multiprocessing as mp

            with mp.get_context("fork").Pool(threads) as pool:
                batches = pool.map(_batch_job, jobs)
        else:
            batches = [_batch_job(job) for job in jobs]
        runs = [st for batch in batches for st in batch]
        # Seed 0 runs in this process, so its stages need no pickling; it
        # runs after the pool, so forked workers do not inherit its memory.
        if seeds:
            runs.append(run_seed(ctx, keys[0], eps_list, primary_eps, 0, collect=seed0_stages))
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

    @property
    def ok(self) -> bool:
        """The trace's verdict: the bound holds and both values descend."""
        return self.bound_ok and self.monotone1 and self.monotone2


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
    interior rows' `row_masses`, in their fixed order.  As in the graphing
    sweep's batches, seed s's copy of window point i is vertex s n + i of
    the disjoint union of the seeds' windows, one segment a seed: the
    seeds' pairs are split by epsilon once (`_open_at`, so a repeated
    epsilon is one row) and measured on one epsilon ladder over the coset
    lines' labels (`_ladder`), as Pi3 is over the Pi1 forest's.  Each
    seed's largest fraction is its segment's, its half-degree the mean
    over its interior rows, and `monotone_violations` counts the segments
    whose largest fraction falls.
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
    n = len(space)
    # First-ball index of y * gen, gen the first generator: its step column.
    succ = space.ball1.step[:, 0]
    tgt = space.lookup(succ[space.pts1], space.pts2)
    src = np.flatnonzero(tgt >= 0)
    lo, hi = np.minimum(src, tgt[src]), np.maximum(src, tgt[src])
    line_deg = np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)
    int_ids = np.flatnonzero(interior)
    line_partition_ok = bool((line_deg[int_ids] == 2).all()) if len(int_ids) else True
    lines = _component_roots(n, np.stack([lo, hi], axis=1))
    mass = kernel.row_masses(int_ids)
    expected_half = {float(e): 1.0 + float(e) * float(mass.mean()) / 2.0 for e in eps_list}
    emax = max(eps_list, default=0.0)
    rngs = [SeededRandomness(seed_digest(master_seed, s)) for s in range(seeds)]
    opened = kernel.open_pairs([np.arange(n)] * seeds, rngs, emax)
    # Point i of seed s is vertex s n + i of the seeds' disjoint union.
    starts = n * np.arange(seeds + 1)
    rows = [(a + lo, b + lo, u, p) for lo, (a, b, u, p) in zip(starts, opened)]
    union = [np.concatenate(col) for col in zip(*rows)] if seeds else [np.zeros(0, dtype=np.int64)] * 4
    pairs = _open_at(union, eps_list)
    _, fractions, drops = _ladder((lines + starts[:-1, None]).ravel(), pairs, starts)
    out_rows = []
    for e in sorted(pairs):
        deg = np.bincount(pairs[e].ravel(), minlength=seeds * n).reshape(seeds, n)[:, int_ids]
        half = (line_deg[int_ids] + deg).mean(axis=1) / 2.0
        out_rows.append(BaselineRow(e, *_mean_se(fractions[e]), *_mean_se(half), expected_half[e]))
    return BaselineReport(
        seeds=seeds,
        rows=out_rows,
        line_partition_ok=line_partition_ok,
        monotone_violations=int((drops > 0).sum()),
        truncation_mass=float(kernel.truncation_mass),
    )
