"""Bernoulli diamond processes on windows and their finite diagnostics.

Centers are sampled with probability 1/v''_n at every covering center: a
point whose diamond meets the observation window W.  The diamond's slice
at first distance d reaches f(r_n - d) in the second factor
(`SlopeSchedule.diamond_reach`); its members around the origin are that
slice union, built by `groups.Ball.slices`.  The centers covering a window
point y are y * u^-1 for the diamond's members u, so the center window W+
is exactly the covering centers, enumerated from the window and the
diamond: no other center is ever observed, so the window restriction is
exact.  A center is named by its W+ id, which is also its covering-map
row, a window point by its id in W.  Marks are replicated from the center
over all member points.  The covering map is kept as CSR arrays
(`CoveringMap`), and a sampled process is arrays over its rows: the
pipeline gathers member ranges and never builds a diamond object.
Incidence counts, corner-event probabilities and hit probabilities are the
desk-scale stand-ins for the tightness and limit criteria of the
construction.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diamonds import corner_count, diamond_volume
from .errors import InvariantViolation, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, Ball, ball, make_oracle, ragged
from .product import ProductSpace, slice_volume
from .randomness import (
    _TILE,
    STREAM_CENTERS,
    STREAM_MARKS,
    SeededRandomness,
    bits_at_most,
    combine_digests,
    digest_strs,
    seed_digest,
)
from .schedule import SlopeSchedule


# (group spec, tag) -> read-only digests of the largest factor ball seen so
# far in this process; a factor ball's elements are a prefix of any larger
# ball's, so its digests are a prefix of these.
_FACTOR_DIGESTS = {}


def factor_digests(ball: Ball, tag: str) -> np.ndarray:
    """Stable 64-bit digest per element, `digest_str(tag + ":" + word)` of
    its canonical word; a read-only array.  The words are the ball's own,
    built once and shared by every tag."""
    key = (ball.oracle.spec, tag)
    kept = _FACTOR_DIGESTS.get(key)
    if kept is None or len(kept) < len(ball):
        kept = _FACTOR_DIGESTS[key] = digest_strs(tag + ":", ball.words)
    return kept[: len(ball)]


def point_digests(space: ProductSpace) -> np.ndarray:
    """Stable 64-bit digest per point of `space`: the ordered-pair digest of
    its two coordinates' canonical words.  Every random label of a point is
    drawn from this digest."""
    return combine_digests(
        factor_digests(space.ball1, "G")[space.pts1],
        factor_digests(space.ball2, "G2")[space.pts2],
    )


@dataclass(frozen=True)
class CoveringMap:
    """The covering map in CSR form: the sorted window ids of the members
    of the center of W+ id i in `members[starts[i]:starts[i + 1]]`."""

    starts: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.starts) - 1

    def members_of(self, row: int) -> np.ndarray:
        return self.members[self.starts[row] : self.starts[row + 1]]

    def gather(self, rows) -> tuple:
        """(members, counts): the member ranges of the centers at `rows`,
        concatenated in that order, and the length of each."""
        lo = self.starts[rows]
        counts = self.starts[rows + 1] - lo
        owner, rank = ragged(counts)
        return self.members[lo[owner] + rank], counts


class ProcessContext:
    """Precomputed window geometry shared by every seed of a sweep.

    `window` is the observation window W, whose ids name window points.
    `space` is W+, the covering centers by packed key, over factor balls of
    radii |y| + |u| for window points y and diamond members u: W's radii
    plus r_n and f(r_n).  Its ids name diamond centers and are the rows of
    `covering`, the covering map as CSR arrays; `center_digests` are their
    digests.  `window_ids[k]` is the W+ id of window point k, which covers
    itself.  `offsets` are the members (u, w) of the diamond centered at
    the origin, as factor-ball index arrays by u, so that the centers
    covering y are exactly (y1 * u^-1, y2 * w^-1).
    """

    def __init__(
        self,
        window: ProductSpace,
        schedule: SlopeSchedule,
        n: int,
        cap: int = DEFAULT_ENUM_CAP,
    ):
        metric = self.metric = window.metric
        self.window = window
        self.schedule = schedule
        self.n = n
        reach = schedule.diamond_reach(n)
        # A covering center y * u^-1 lies within |y| + |u| in each factor.
        ball1 = ball(metric.first, window.ball1.radius + len(reach) - 1, cap)
        ball2 = ball(metric.second, window.ball2.radius + int(reach[0]), cap)
        self.offsets = ball1.slices(ball2, reach, cap, "diamond offsets")
        self.volume = diamond_volume(schedule, n)
        if self.volume != len(self.offsets[0]):
            raise InvariantViolation("diamond slice-sum volume disagrees with offset enumeration")
        keys, self.covering = self._covering_map(ball1, ball2, cap)
        self.space = ProductSpace.of_keys(metric, ball1, ball2, keys)
        self.window_ids = self.space.lookup(window.pts1, window.pts2)
        self.center_digests = point_digests(self.space)

    def _covering_map(self, ball1: Ball, ball2: Ball, cap: int) -> tuple:
        """(keys, covering): the rising packed key of every center whose
        diamond meets the window, and its members in the window.  The (window
        point, diamond offset) pairs count against `cap` before any is built."""
        window = self.window
        off1, off2 = self.offsets
        if len(window) * len(off1) > cap:
            raise ResourceCapError("covering map (window points x diamond offsets)", cap)
        w1, w2 = window.pts1, window.pts2
        q1 = ball1.quotient_table(w1.max() + 1, np.arange(off1.max() + 1))
        q2 = ball2.quotient_table(w2.max() + 1, np.arange(off2.max() + 1))
        keys = q1[w1][:, off1].ravel()  # packed in place: one gathered array at a time
        keys <<= 32
        keys |= q2[w2][:, off2].ravel()
        order = np.argsort(keys, kind="stable")  # members stay in window order
        keys = keys[order]
        if keys[0] < 0:  # a quotient outside its factor ball is -1: a negative key
            raise InvariantViolation("a covering center left its factor ball")
        starts = np.flatnonzero(np.diff(keys, prepend=-1, append=-1))
        # The pairs are listed by window point, len(off1) to a point.
        members = order // len(off1)
        return keys[starts[:-1]], CoveringMap(starts=starts, members=members)


@dataclass
class PointedDiamond:
    center_pid: int
    mark: float
    member_ids: np.ndarray


@dataclass
class DiamondProcess:
    """One sampled window restriction of the diamond point process: the
    center W+ id (its covering-map row) and mark of each sampled diamond."""

    ctx: ProcessContext
    seed: int
    param: float
    chosen: np.ndarray
    marks: np.ndarray

    @functools.cached_property
    def diamonds(self) -> list:
        """The sampled diamonds as PointedDiamond records, built on first
        access; the pipeline reads the arrays."""
        cov = self.ctx.covering
        return [
            PointedDiamond(row, mark, cov.members_of(row))
            for row, mark in zip(self.chosen.tolist(), self.marks.tolist())
        ]


def sample_diamond_process(ctx: ProcessContext, seed: int) -> DiamondProcess:
    """Deterministic Bernoulli(1/v''_n) sample of the pointed marked
    diamonds that meet the window, drawn over the covering centers.

    A center is chosen when its uniform u = rng.uniforms(digest,
    STREAM_CENTERS) satisfies u <= 1/v''_n, with u = b * 2**-53 for 53 bits
    b, that is when b < k = bits_at_most(1/v''_n), exactly, also where u
    equals the bound: `SeededRandomness.below` draws that test over
    `ctx.center_digests`.
    """
    rng = SeededRandomness(seed)
    param = 1.0 / ctx.volume
    chosen = rng.below(ctx.center_digests, STREAM_CENTERS, bits_at_most(param))
    return DiamondProcess(
        ctx=ctx,
        seed=seed,
        param=param,
        chosen=chosen,
        marks=rng.uniforms(ctx.center_digests[chosen], STREAM_MARKS),
    )


@dataclass
class IncidenceStats:
    """Per-window-point diamond counts versus the exact Binomial mean."""

    counts: np.ndarray
    exact_mean: float
    empirical_mean: float
    max_count: int


def incidence_stats(process: DiamondProcess) -> IncidenceStats:
    ctx = process.ctx
    members, _ = ctx.covering.gather(process.chosen)
    counts = np.bincount(members, minlength=len(ctx.window))
    # Every window point is covered by exactly v''_n potential centers.
    exact_mean = ctx.volume * process.param
    return IncidenceStats(
        counts=counts,
        exact_mean=float(exact_mean),
        empirical_mean=float(counts.mean()) if len(counts) else 0.0,
        max_count=int(counts.max()) if len(counts) else 0,
    )


@dataclass
class CornerEventRow:
    n: int
    T: int
    corner_count: int
    volume: int
    exact_probability: float
    empirical_probability: float
    # -log(1 - exact_probability): ordered as the probability, but never
    # rounded to a tie at 1, so the decay checks compare these.
    miss_exponent: float


def corner_event_probability(
    schedule: SlopeSchedule,
    n_range,
    T: int,
    seeds: int = 0,
    master_seed: int = 0,
    cap: int = DEFAULT_ENUM_CAP,
) -> list:
    """Exact and empirical P(centers hit the corner set A_{n,T}) per n.

    The exact value is the Bernoulli closed form 1 - (1 - 1/v'')^{|A|}.
    The empirical value is the share of `seeds` seeds under which some
    center of A_{n,T} is drawn: A_{n,T} is the union of two clause
    rectangles of factor-ball prefix ranges, cut into blocks of at most
    `_TILE` pairs: whole rows, or column blocks of a longer row.  Each
    block's center digests `combine_digests(d1[i], d2[j])` are made once
    and drawn by `SeededRandomness.below` on the center stream at u <=
    1/v'', exactly as the process sampler does, under each seed without a
    hit so far: a seed stops at its first hit, and no corner set is held.
    Over at least six breakpoints the exact sequence must be eventually
    decreasing along each breakpoint-parity class (the crossing rule
    alternates sides, so the interleaved sequence legitimately oscillates);
    shorter ranges skip the check.  Before anything is drawn, every corner
    set's closed-form size counts against `cap`.
    """
    growth, growth2 = schedule.growth, schedule.growth2
    rows = []
    n_range = list(n_range)
    counts = [(n, corner_count(schedule, n, T)) for n in n_range]
    need_emp = seeds > 0 and bool(n_range)
    if need_emp:
        for n, stats in counts:
            if stats.count > cap:
                raise ResourceCapError(f"corner set A_{{n,T}} at n = {n}, T = {T}", cap)
        r_max = max(schedule.r[n] for n in n_range)
        rp_max = max(schedule.r_prime[n] for n in n_range)
        b1 = ball(make_oracle(growth.spec), max(r_max + T - 1, T - 1, 0), cap)
        b2 = ball(make_oracle(growth2.spec), max(rp_max + T - 1, T - 1, 0), cap)
        d1 = factor_digests(b1, "G")
        d2 = factor_digests(b2, "G2")
        rngs = [SeededRandomness(seed_digest(master_seed, s)) for s in range(seeds)]
    for n, stats in counts:
        v = diamond_volume(schedule, n)
        # 1 - (1 - 1/v)^|A| in log space; the direct power saturates at 1.
        miss = -stats.count * math.log1p(-1.0 / v) if stats.count else 0.0
        exact = -math.expm1(-miss)
        emp = float("nan")
        if need_emp:
            r_n, rp_n = schedule.r[n], schedule.r_prime[n]
            a1, a2 = b1.volume(r_n + T - 1), b2.volume(T - 1)
            c1, c2 = b1.volume(T - 1), b2.volume(rp_n + T - 1)
            # The second clause's rectangle leaves out the overlap block
            # (i < v1(T-1), j < v2(T-1)), which the first one holds.
            clauses = [(d1[:a1], d2[:a2]), (d1[:c1], d2[a2:c2])]
            if sum(len(lo) * len(hi) for lo, hi in clauses) != stats.count:
                raise InvariantViolation(
                    "corner clause enumeration disagrees with the closed form"
                )
            k = bits_at_most(1.0 / v)
            hit = np.zeros(seeds, dtype=bool)
            for lo, hi in clauses:
                width = max(1, min(len(hi), _TILE))
                height = _TILE // width
                for i0 in range(0, len(lo), height):
                    for j0 in range(0, len(hi), width):
                        pairs = combine_digests(lo[i0 : i0 + height, None], hi[j0 : j0 + width]).ravel()
                        for s in np.flatnonzero(~hit):
                            hit[s] = len(rngs[s].below(pairs, STREAM_CENTERS, k)) > 0
            emp = int(hit.sum()) / seeds
        rows.append(
            CornerEventRow(
                n=n,
                T=T,
                corner_count=stats.count,
                volume=v,
                exact_probability=exact,
                empirical_probability=emp,
                miss_exponent=miss,
            )
        )
    if len(rows) >= 6 and T > 0:
        split = eventually_decreasing_split([r.miss_exponent for r in rows])
        if not split["eventually_decreasing"]:
            raise InvariantViolation(
                f"corner-event probabilities at T={T} are not eventually "
                "decreasing along either breakpoint parity"
            )
    return rows


# The least length of the strictly decreasing tail each parity class ends in.
MIN_DECREASING_TAIL = 2


def eventually_decreasing_split(values) -> dict:
    """Parity-split eventual-decrease diagnostics for a breakpoint table.

    The schedule's crossing rule alternates above/below balance at even and
    odd breakpoints, so corner ratios decay monotonically along each parity
    class while the interleaved sequence oscillates; each parity class must
    end in a strictly decreasing tail of at least MIN_DECREASING_TAIL entries.
    Returns the tail starts (positions within the given sequence) and the
    combined verdict.
    """
    values = list(values)

    def tail_start(seq):
        last_bad = 0
        for i in range(1, len(seq)):
            if seq[i] >= seq[i - 1]:
                last_bad = i
        return last_bad

    even, odd = values[::2], values[1::2]
    es, os_ = tail_start(even), tail_start(odd)
    even_ok = len(even) - es >= MIN_DECREASING_TAIL
    odd_ok = len(odd) - os_ >= MIN_DECREASING_TAIL
    return {
        "even_tail_start": 2 * es,
        "odd_tail_start": 2 * os_ + 1,
        "even_ok": even_ok,
        "odd_ok": odd_ok,
        "eventually_decreasing": even_ok and odd_ok,
        "interleaved_monotone": all(
            values[i] < values[i - 1] for i in range(1, len(values))
        ),
    }


@dataclass
class HitProbabilityRow:
    n: int
    T: int
    hitting_count: int
    volume: int
    ratio: Fraction
    lower_bound: Fraction


def hit_probability(schedule: SlopeSchedule, n: int, T: int) -> HitProbabilityRow:
    """|E'_{n,T}| / v''_n with the nonamenability lower bound (1-eps)^(-T).

    E'_{n,T} counts the diamonds of parameter n meeting the vertical slab
    {o} x B'_T; the count decomposes over the distance t between o and the
    first coordinate of the center.
    """
    growth, growth2 = schedule.growth, schedule.growth2
    total = slice_volume(growth, growth2, schedule.diamond_reach(n) + T)
    v = diamond_volume(schedule, n)
    eps = min(growth.eps_nonamen, growth2.eps_nonamen)
    bound = Fraction(1) / (1 - eps) ** T
    ratio = Fraction(total, v)
    if ratio < bound:
        raise InvariantViolation(
            f"hit-probability ratio {ratio} fell below (1-eps)^-{T}"
        )
    return HitProbabilityRow(
        n=n, T=T, hitting_count=total, volume=v, ratio=ratio, lower_bound=bound
    )
