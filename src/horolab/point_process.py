"""Bernoulli diamond processes on windows and their finite diagnostics.

Centers are sampled with probability 1/v''_n at every covering center: a
point of the enlarged center window W+ whose diamond meets the observation
window W.  W+ is the rho_c ball of radius wr + max_t ((r_n - t) + f(t)/c),
the window radius plus the diamond's exact rho-reach from its center (its
slice at first distance r_n - t reaches f(t) in the second factor), so it
holds every center whose diamond meets W.  A center that covers no point
of W is never observed, so the window restriction is exact.  Marks are
replicated from the center over all member points.  The covering map is
kept as CSR arrays (`CoveringMap`), and a sampled process is arrays over
its rows: the pipeline gathers member ranges and never builds a diamond
object.  Incidence counts, corner-event probabilities and hit
probabilities are the desk-scale stand-ins for the tightness and limit
criteria of the construction.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .diamonds import corner_count, diamond_volume
from .errors import InputError, InvariantViolation
from .groups import DEFAULT_ENUM_CAP, make_oracle
from .product import FactorBall, ProductMetric, ProductSpace
from .randomness import (
    STREAM_CENTERS,
    STREAM_MARKS,
    SeededRandomness,
    combine_digests,
    digest_str,
    seed_digest,
)
from .schedule import SlopeSchedule


def factor_digests(ball: FactorBall, tag: str) -> np.ndarray:
    """Stable 64-bit digest per element, keyed by the canonical word."""
    return np.fromiter(
        (digest_str(tag + ":" + w) for w in ball.words()),
        dtype=np.uint64,
        count=len(ball),
    )


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
    """The covering map in CSR form: the covering centers' point ids, in
    rising order, and the sorted member window ids of `centers[i]` in
    `members[starts[i]:starts[i + 1]]`."""

    centers: np.ndarray
    starts: np.ndarray
    members: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)

    def members_of(self, row: int) -> np.ndarray:
        return self.members[self.starts[row] : self.starts[row + 1]]

    def gather(self, rows) -> tuple:
        """(members, counts): the member ranges of the centers at `rows`,
        concatenated in that order, and the length of each."""
        lo = self.starts[rows]
        counts = self.starts[rows + 1] - lo
        offsets = np.cumsum(counts) - counts
        at = np.repeat(lo - offsets, counts) + np.arange(int(counts.sum()))
        return self.members[at], counts


class ProcessContext:
    """Precomputed window geometry shared by every seed of a sweep.

    `space` is W+, the rho_c ball of radius wr + max_t ((r_n - t) + f(t)/c):
    the window radius plus the largest rho_c distance from a diamond's
    center to one of its members.  `covering` is the covering map of the
    covering centers, as CSR arrays, and `center_digests` their digests.
    """

    def __init__(
        self,
        metric: ProductMetric,
        schedule: SlopeSchedule,
        n: int,
        window_radius: int,
        cap: int = DEFAULT_ENUM_CAP,
    ):
        if n >= len(schedule.r):
            raise InputError(f"schedule has no breakpoint index {n}")
        self.metric = metric
        self.schedule = schedule
        self.n = n
        self.r_n = schedule.r[n]
        self.window_radius = window_radius
        reach = max(
            (self.r_n - t) + Fraction(schedule.f_of(t)) / metric.c
            for t in range(self.r_n + 1)
        )
        self.space = ProductSpace(metric, window_radius + reach, cap)
        self.window_ids = self.space.ids_within(window_radius)
        self.point_digests = point_digests(self.space)
        self.offsets = self._diamond_offsets()
        self.volume = diamond_volume(schedule, n)
        if self.volume != len(self.offsets[0]):
            raise InvariantViolation(
                "diamond slice-sum volume disagrees with offset enumeration"
            )
        self.covering = self._covering_map()
        self.center_digests = self.point_digests[self.covering.centers]

    def _diamond_offsets(self):
        """Member offsets (u, w) of a diamond centered at the origin.

        Returned as two arrays of factor-ball indices, so that the centers
        covering y are exactly (y1 * u^-1, y2 * w^-1).
        """
        b1, b2 = self.space.ball1, self.space.ball2
        off1, off2 = [], []
        for t in range(self.r_n + 1):
            lo, hi = b1.volume(self.r_n - t - 1), b1.volume(self.r_n - t)
            cnt2 = b2.volume(self.schedule.f_of(t))
            off1.append(np.repeat(np.arange(lo, hi, dtype=np.int64), cnt2))
            off2.append(np.tile(np.arange(cnt2, dtype=np.int64), hi - lo))
        return np.concatenate(off1), np.concatenate(off2)

    def _covering_map(self) -> CoveringMap:
        """Every center whose diamond meets the window, with its members
        in the window: one (center, member) pair per window point and
        diamond offset, stably sorted by center."""
        space, wid = self.space, self.window_ids
        off1, off2 = self.offsets
        w1, w2 = space.pts1[wid], space.pts2[wid]
        q1 = space.ball1.quotient_table(int(w1.max()) + 1, int(off1.max()) + 1)
        q2 = space.ball2.quotient_table(int(w2.max()) + 1, int(off2.max()) + 1)
        # A factor quotient outside its ball is -1, which packs to a
        # negative key and so misses like any center outside W+.
        pids = space.lookup_keys((q1[w1][:, off1] << 32) | q2[w2][:, off2]).ravel()
        if (pids < 0).any():
            raise InvariantViolation(
                "center window W+ does not contain a covering center"
            )
        order = np.argsort(pids, kind="stable")  # members stay in wid order
        pids = pids[order]
        starts = np.flatnonzero(np.diff(pids, prepend=-1, append=-1))
        return CoveringMap(
            centers=pids[starts[:-1]],
            starts=starts,
            members=np.repeat(wid, len(off1))[order],
        )


@dataclass
class PointedDiamond:
    center_pid: int
    mark: float
    member_ids: np.ndarray


@dataclass
class DiamondProcess:
    """One sampled window restriction of the diamond point process: the
    covering-map row, center point id and mark of each sampled diamond."""

    ctx: ProcessContext
    seed: int
    param: float
    chosen: np.ndarray
    center_pids: np.ndarray
    marks: np.ndarray

    @property
    def diamonds(self) -> list:
        """The sampled diamonds as PointedDiamond records, built on each
        access; the pipeline reads the arrays."""
        cov = self.ctx.covering
        return [
            PointedDiamond(pid, mark, cov.members_of(row))
            for row, pid, mark in zip(
                self.chosen.tolist(), self.center_pids.tolist(), self.marks.tolist()
            )
        ]

    def dump_jsonl(self, path):
        sizes = np.diff(self.ctx.covering.starts)[self.chosen]
        with open(path, "w") as fh:
            for pid, mark, size in zip(
                self.center_pids.tolist(), self.marks.tolist(), sizes.tolist()
            ):
                fh.write(
                    json.dumps(
                        {
                            "center": self.ctx.space.word_str(pid),
                            "mark": mark,
                            "members_in_window": size,
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def sample_diamond_process(ctx: ProcessContext, seed: int) -> DiamondProcess:
    """Deterministic Bernoulli(1/v''_n) sample of the pointed marked
    diamonds that meet the window, drawn over the covering centers."""
    rng = SeededRandomness(seed)
    param = 1.0 / ctx.volume
    digests = ctx.center_digests
    chosen = np.flatnonzero(rng.uniforms(digests, STREAM_CENTERS) <= param)
    return DiamondProcess(
        ctx=ctx,
        seed=seed,
        param=param,
        chosen=chosen,
        center_pids=ctx.covering.centers[chosen],
        marks=rng.uniforms(digests[chosen], STREAM_MARKS),
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
    counts = np.bincount(members, minlength=len(ctx.space))
    window_counts = counts[ctx.window_ids]
    # Every window point is covered by exactly v''_n potential centers.
    exact_mean = ctx.volume * process.param
    return IncidenceStats(
        counts=window_counts,
        exact_mean=float(exact_mean),
        empirical_mean=float(window_counts.mean()) if len(window_counts) else 0.0,
        max_count=int(window_counts.max()) if len(window_counts) else 0,
    )


@dataclass
class CornerEventRow:
    n: int
    T: int
    corner_count: int
    volume: int
    exact_probability: float
    empirical_probability: float


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
    Empirical sampling enumerates the two corner clauses as prefix ranges
    of the factor balls and thresholds the same center stream the process
    sampler uses.  Over at least six breakpoints the exact sequence must be
    eventually decreasing along each breakpoint-parity class (the crossing
    rule alternates sides, so the interleaved sequence legitimately
    oscillates); shorter ranges skip the check.
    """
    growth, growth2 = schedule.growth, schedule.growth2
    rows = []
    n_range = list(n_range)
    need_emp = seeds > 0 and bool(n_range)
    if need_emp:
        r_max = max(schedule.r[n] for n in n_range)
        rp_max = max(schedule.r_prime[n] for n in n_range)
        b1 = FactorBall(make_oracle(growth.spec), max(r_max + T - 1, T - 1, 0), cap)
        b2 = FactorBall(make_oracle(growth2.spec), max(rp_max + T - 1, T - 1, 0), cap)
        d1 = factor_digests(b1, "G")
        d2 = factor_digests(b2, "G2")
    for n in n_range:
        stats = corner_count(schedule, n, T)
        v = diamond_volume(schedule, n)
        # 1 - (1 - 1/v)^|A| in log space; the direct power saturates at 1.
        exact = -math.expm1(stats.count * math.log1p(-1.0 / v)) if stats.count else 0.0
        emp = float("nan")
        if need_emp:
            digests = _corner_digests(
                b1, b2, d1, d2, schedule.r[n], schedule.r_prime[n], T
            )
            if len(digests) != stats.count:
                raise InvariantViolation(
                    "corner clause enumeration disagrees with the closed form"
                )
            hits = 0
            for s in range(seeds):
                rng = SeededRandomness(seed_digest(master_seed, s))
                u = rng.uniforms(digests, STREAM_CENTERS)
                if stats.count and bool((u <= 1.0 / v).any()):
                    hits += 1
            emp = hits / seeds
        rows.append(
            CornerEventRow(
                n=n,
                T=T,
                corner_count=stats.count,
                volume=v,
                exact_probability=exact,
                empirical_probability=emp,
            )
        )
    if len(rows) >= 6 and T > 0:
        split = eventually_decreasing_split([r.exact_probability for r in rows])
        if not split["eventually_decreasing"]:
            raise InvariantViolation(
                f"corner-event probabilities at T={T} are not eventually "
                "decreasing along either breakpoint parity"
            )
    return rows


def _corner_digests(b1, b2, d1, d2, r_n, rp_n, T) -> np.ndarray:
    """Digests of the corner-set centers (union of the two clauses)."""
    if T <= 0:
        return np.zeros(0, dtype=np.uint64)
    a1, a2 = b1.volume(r_n + T - 1), b2.volume(T - 1)
    c1, c2 = b1.volume(T - 1), b2.volume(rp_n + T - 1)
    blocks = []
    blocks.append(_range_digests(d1, d2, 0, a1, 0, a2))
    # Second clause minus the overlap block (i < v1(T-1), j < v2(T-1)).
    blocks.append(_range_digests(d1, d2, 0, c1, a2, c2))
    return np.concatenate(blocks)


def _range_digests(d1, d2, i0, i1, j0, j1) -> np.ndarray:
    if i1 <= i0 or j1 <= j0:
        return np.zeros(0, dtype=np.uint64)
    ii = np.repeat(np.arange(i0, i1), j1 - j0)
    jj = np.tile(np.arange(j0, j1), i1 - i0)
    return combine_digests(d1[ii], d2[jj])


def eventually_decreasing_split(values, min_tail: int = 2) -> dict:
    """Parity-split eventual-decrease diagnostics for a breakpoint table.

    The schedule's crossing rule alternates above/below balance at even and
    odd breakpoints, so corner ratios decay monotonically along each parity
    class while the interleaved sequence oscillates; each parity class must
    end in a strictly decreasing tail of at least `min_tail` entries.
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
    even_ok = len(even) - es >= min_tail
    odd_ok = len(odd) - os_ >= min_tail
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
    r_n = schedule.r[n]
    total = 0
    for t in range(r_n + 1):
        total += growth.sphere(t) * growth2.volume(schedule.f_of(r_n - t) + T)
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
