"""Bernoulli diamond processes on windows and their finite diagnostics.

Centers are sampled with probability 1/v''_n at every point of an enlarged
center window W+ (every center whose diamond could meet the observation
window W lies in W+, so the window restriction is exact).  Marks are
replicated from the center over all member points.  Incidence counts,
corner-event probabilities and hit probabilities are the desk-scale
stand-ins for the tightness and limit criteria of the construction.
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


class ProcessContext:
    """Precomputed window geometry shared by every seed of a sweep."""

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
        self.rp_n = schedule.r_prime[n]
        self.window_radius = window_radius
        reach = Fraction(self.r_n) + Fraction(self.rp_n) / Fraction(metric.c)
        self.reach = reach
        self.space = ProductSpace(metric, Fraction(window_radius) + reach, cap)
        self.window_ids = self.space.ids_within(window_radius)
        self.window_mask = self.space.mask_within(window_radius)
        self.point_digests = combine_digests(
            factor_digests(self.space.ball1, "G")[self.space.pts1],
            factor_digests(self.space.ball2, "G2")[self.space.pts2],
        )
        self.offsets = self._diamond_offsets()
        self.volume = diamond_volume(schedule, n).total
        if self.volume != len(self.offsets):
            raise InvariantViolation(
                "diamond slice-sum volume disagrees with offset enumeration"
            )
        self.covering = self._covering_map()

    def _diamond_offsets(self):
        """Member offsets of a diamond centered at the origin, as inverses.

        Stored as (u_inv, w_inv) element pairs so that the centers covering
        y are exactly (y1 * u_inv, y2 * w_inv).
        """
        sched, metric = self.schedule, self.metric
        out = []
        b1, b2 = self.space.ball1, self.space.ball2
        by_dist = {}
        for i, el in enumerate(b1.elements):
            by_dist.setdefault(int(b1.dist[i]), []).append(el)
        for t in range(self.r_n + 1):
            radius2 = sched.f_of(t)
            for u in by_dist.get(self.r_n - t, ()):
                u_inv = metric.first.inverse(u)
                for j in range(b2.volume(radius2)):
                    out.append((u_inv, metric.second.inverse(b2.elements[j])))
        return out

    def _covering_map(self):
        """center universe id -> np.array of member window ids."""
        first, second = self.metric.first, self.metric.second
        space = self.space
        cover = {}
        for wid in self.window_ids:
            y1 = space.ball1.elements[int(space.pts1[wid])]
            y2 = space.ball2.elements[int(space.pts2[wid])]
            for u_inv, w_inv in self.offsets:
                pid = space.lookup_elements(
                    first.multiply(y1, u_inv), second.multiply(y2, w_inv)
                )
                if pid is None:
                    raise InvariantViolation(
                        "center window W+ does not contain a covering center"
                    )
                cover.setdefault(pid, []).append(int(wid))
        return {
            pid: np.asarray(sorted(members), dtype=np.int64)
            for pid, members in cover.items()
        }

@dataclass
class PointedDiamond:
    center_pid: int
    mark: float
    member_ids: np.ndarray


@dataclass
class DiamondProcess:
    """One sampled window restriction of the diamond point process."""

    ctx: ProcessContext
    seed: int
    param: float
    center_pids: np.ndarray
    diamonds: list
    counts: np.ndarray  # per-universe-point incidence count (W entries used)

    def dump_jsonl(self, path):
        with open(path, "w") as fh:
            for d in self.diamonds:
                fh.write(
                    json.dumps(
                        {
                            "center": self.ctx.space.word_str(d.center_pid),
                            "mark": d.mark,
                            "members_in_window": int(len(d.member_ids)),
                        },
                        sort_keys=True,
                    )
                    + "\n"
                )


def sample_diamond_process(
    ctx: ProcessContext, seed: int, param_override: float = None
) -> DiamondProcess:
    """Deterministic Bernoulli(1/v''_n) sample of pointed marked diamonds."""
    rng = SeededRandomness(seed)
    param = 1.0 / ctx.volume if param_override is None else float(param_override)
    u1 = rng.uniforms(ctx.point_digests, STREAM_CENTERS)
    center_pids = np.flatnonzero(u1 <= param)
    marks = rng.uniforms(ctx.point_digests[center_pids], STREAM_MARKS)
    empty = np.zeros(0, dtype=np.int64)
    diamonds = []
    counts = np.zeros(len(ctx.space), dtype=np.int32)
    for pid, mark in zip(center_pids.tolist(), marks.tolist()):
        members = ctx.covering.get(pid, empty)
        diamonds.append(PointedDiamond(pid, float(mark), members))
        if len(members):
            np.add.at(counts, members, 1)
    return DiamondProcess(
        ctx=ctx,
        seed=seed,
        param=param,
        center_pids=center_pids,
        diamonds=diamonds,
        counts=counts,
    )


@dataclass
class IncidenceStats:
    """Per-window-point diamond counts versus the exact Binomial mean."""

    n: int
    window_points: int
    counts: np.ndarray
    exact_mean: float
    empirical_mean: float
    max_count: int


def incidence_stats(process: DiamondProcess) -> IncidenceStats:
    ctx = process.ctx
    window_counts = process.counts[ctx.window_ids]
    # Every window point is covered by exactly v''_n potential centers.
    exact_mean = ctx.volume * process.param
    return IncidenceStats(
        n=ctx.n,
        window_points=len(ctx.window_ids),
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
    need_emp = seeds > 0
    if need_emp:
        r_max = max(schedule.r[n] for n in n_range)
        rp_max = max(schedule.r_prime[n] for n in n_range)
        b1 = FactorBall(make_oracle(growth.spec), max(r_max + T - 1, T - 1, 0), cap)
        b2 = FactorBall(make_oracle(growth2.spec), max(rp_max + T - 1, T - 1, 0), cap)
        d1 = factor_digests(b1, "G")
        d2 = factor_digests(b2, "G2")
    for n in n_range:
        stats = corner_count(schedule, n, T)
        v = diamond_volume(schedule, n).total
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
    v = diamond_volume(schedule, n).total
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
