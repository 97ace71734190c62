"""Inductive construction of the almost-linear slice-radius schedule.

The precursor g is extended with alternating slopes c*(1 - 1/(n+1)) and
c*(1 + 1/(n+1)); a segment ends at the first radius where the volume ratio
v'_{floor(g(x))} / v_x crosses 1 from the corresponding side.  f = floor(g)
is the integer schedule, r_j the breakpoint radii and r'_j = f(r_j).

All arithmetic is exact: the slope is rational and g holds Fractions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation
from .groups import DEFAULT_ENUM_CAP, GrowthSeries, generator_bound, growth_series, make_oracle
from .product import as_slope

DEFAULT_SEGMENT_CAP = 10_000


@dataclass
class Segment:
    index: int
    start: int
    end: int
    slope: object
    crossing_ratio: object  # v'_{r'}/v_r at the segment's closing breakpoint


@dataclass
class SlopeSchedule:
    c: object
    horizon: int
    f: list
    g: list
    r: list
    r_prime: list
    segments: list
    growth: GrowthSeries
    growth2: GrowthSeries
    M: int = 0
    source: str = "lemma"
    truncated: bool = False

    def f_of(self, t: int) -> int:
        if t < 0:
            raise InputError("schedule argument must be >= 0")
        if t > self.horizon:
            raise InputError(
                f"schedule horizon too short: need f({t}), horizon {self.horizon}"
            )
        return self.f[t]

    def r_at(self, n: int) -> int:
        """The breakpoint radius r_n."""
        if n >= len(self.r):
            raise InputError(
                f"schedule has no breakpoint index {n}: at c = {self.c} and horizon "
                f"{self.horizon} it has {len(self.r)} (truncated: {self.truncated})"
            )
        return self.r[n]

    def diamond_reach(self, n: int) -> np.ndarray:
        """D_n's second-factor radius f(r_n - d) at each first-factor
        distance d = 0 .. r_n from the center."""
        r_n = self.r_at(n)
        return np.array([self.f_of(r_n - d) for d in range(r_n + 1)], dtype=np.int64)

    def reaches(self, n: int, T: int) -> bool:
        """Whether breakpoint n exists and the growth series reach its
        corner and dominance tables at T, which read each series to
        max(r + T - 1, r, T) for that series' breakpoint radius r."""
        return (
            n < len(self.r)
            and max(self.r[n] + T - 1, self.r[n], T) <= self.growth.horizon
            and max(self.r_prime[n] + T - 1, self.r_prime[n], T) <= self.growth2.horizon
        )

    def breakpoint_ratios(self) -> list:
        """v'_{r'_j} / v_{r_j} at every computed breakpoint."""
        out = []
        for rj, rpj in zip(self.r, self.r_prime):
            out.append(Fraction(self.growth2.volume(rpj), self.growth.volume(rj)))
        return out

    def check_invariants(self):
        if self.f[0] != 0:
            raise InvariantViolation("schedule must start at f(0) = 0")
        for t in range(1, len(self.f)):
            if self.f[t] < self.f[t - 1]:
                raise InvariantViolation("schedule f is not nondecreasing")
        for t, (ft, gt) in enumerate(zip(self.f, self.g)):
            if ft != math.floor(gt):
                raise InvariantViolation(f"f({t}) != floor(g({t}))")
        if self.source == "lemma":
            for j, ratio in enumerate(self.breakpoint_ratios()):
                if not ratio_within_bounds(ratio, self.M, self.c):
                    raise InvariantViolation(
                        f"breakpoint {j} ratio {ratio} outside [1/M, M^(2c)]"
                    )
                if j >= 1 and j % 2 == 1 and ratio > 1:
                    raise InvariantViolation("odd breakpoint ratio exceeds 1")
                if j >= 1 and j % 2 == 0 and ratio < 1:
                    raise InvariantViolation("even breakpoint ratio below 1")

    def verify_almost_linear(self, m_max: int) -> "AlmostLinearReport":
        """Least N(m) with |f(n+m) - f(n) - c m| <= 1 for all n in [N, horizon-m]."""
        rows = []
        for m in range(m_max + 1):
            cm = self.c * m
            last_violation = -1
            worst = 0
            for n in range(self.horizon - m + 1):
                dev = abs(self.f[n + m] - self.f[n] - cm)
                if dev > 1:
                    last_violation = n
                    worst = max(worst, float(dev))
            n_of_m = last_violation + 1
            ok = n_of_m <= self.horizon - m
            rows.append(
                AlmostLinearRow(
                    m=m,
                    n_of_m=n_of_m if ok else None,
                    max_late_deviation=worst,
                    holds_within_horizon=ok,
                )
            )
        return AlmostLinearReport(rows=rows)

    def breakpoints(self) -> dict:
        """The breakpoint radii, ratios and segments, as JSON values."""
        return {
            "c": str(self.c),
            "horizon": self.horizon,
            "truncated": self.truncated,
            "r": self.r,
            "r_prime": self.r_prime,
            "ratios": [str(x) for x in self.breakpoint_ratios()],
            "segments": [
                {
                    "index": s.index,
                    "start": s.start,
                    "end": s.end,
                    "slope": str(s.slope),
                    "crossing_ratio": str(s.crossing_ratio),
                }
                for s in self.segments
            ],
        }


@dataclass
class AlmostLinearRow:
    m: int
    n_of_m: object
    max_late_deviation: float
    holds_within_horizon: bool


@dataclass
class AlmostLinearReport:
    rows: list

    def all_hold(self) -> bool:
        return all(r.holds_within_horizon for r in self.rows)


def ratio_within_bounds(ratio: Fraction, M: int, c) -> bool:
    """1/M <= ratio <= M^(2c), compared exactly for c = p/q."""
    if ratio * M < 1:
        return False
    # ratio <= M^(2p/q)  <=>  ratio^q <= M^(2p)
    q, p = c.denominator, c.numerator
    return (ratio.numerator**q) <= (ratio.denominator**q) * (M ** (2 * p))


def build_schedule(
    growth: GrowthSeries,
    growth2: GrowthSeries,
    c,
    horizon: int,
    segment_cap: int = DEFAULT_SEGMENT_CAP,
) -> SlopeSchedule:
    """Run the alternating-slope induction up to `horizon`.

    Both factors must be nonamenable, as their specs say
    (`GroupSpec.amenable`): the recorded eps_nonamen, the least |S_n|/|B_n|
    up to the horizon, is positive for every infinite group and cannot
    tell.
    """
    c = as_slope(c)
    if horizon < 1:
        raise InputError("schedule horizon must be >= 1")
    for g in (growth, growth2):
        if g.spec.amenable():
            raise InputError(
                f"schedule construction requires nonamenable factors; {g.spec.to_dict()} "
                "is amenable: use the linear schedule"
            )
    if growth.horizon < horizon:
        raise InputError("first growth series does not cover the schedule horizon")
    g = [Fraction(0)]
    r = [0]
    segments = []
    truncated = False
    x = 0
    while x < horizon:
        j = len(r) - 1
        n = j // 2
        delta = c / (n + 1)
        slope = c - delta if j % 2 == 0 else c + delta
        seg_start = x
        crossed = False
        while x < horizon:
            x += 1
            g.append(g[-1] + slope)
            ft = math.floor(g[-1])
            if ft > growth2.horizon:
                raise InputError(
                    "second growth series does not cover the schedule's slice radii"
                )
            ratio = Fraction(growth2.volume(ft), growth.volume(x))
            if (j % 2 == 0 and ratio <= 1) or (j % 2 == 1 and ratio >= 1):
                r.append(x)
                segments.append(
                    Segment(
                        index=len(segments),
                        start=seg_start,
                        end=x,
                        slope=slope,
                        crossing_ratio=ratio,
                    )
                )
                crossed = True
                break
            if x - seg_start > segment_cap:
                raise InvariantViolation(
                    f"segment {j} failed to cross the volume-ratio threshold "
                    f"within {segment_cap} radii"
                )
        if not crossed:
            truncated = True
    f = [math.floor(v) for v in g]
    oracleA = make_oracle(growth.spec)
    oracleB = make_oracle(growth2.spec)
    sched = SlopeSchedule(
        c=c,
        horizon=horizon,
        f=f,
        g=g,
        r=r,
        r_prime=[f[rj] for rj in r],
        segments=segments,
        M=generator_bound(oracleA, oracleB),
        source="lemma",
        truncated=truncated,
        growth=growth,
        growth2=growth2,
    )
    sched.check_invariants()
    return sched


def linear_schedule(c, horizon: int, growth: GrowthSeries, growth2: GrowthSeries) -> SlopeSchedule:
    """Synthetic exact-slope schedule f(t) = floor(c t).

    Not a product of the growth induction; used for exact-geometry
    experiments (lattice windows) and wrong-slope probes.
    """
    c = as_slope(c)
    g = [c * t for t in range(horizon + 1)]
    f = [math.floor(v) for v in g]
    return SlopeSchedule(
        c=c,
        horizon=horizon,
        f=f,
        g=g,
        r=list(range(horizon + 1)),
        r_prime=f[:],
        segments=[Segment(0, 0, horizon, c, None)],
        M=generator_bound(make_oracle(growth.spec), make_oracle(growth2.spec)),
        source="linear",
        growth=growth,
        growth2=growth2,
    )


def schedule_for(spec1, spec2, c, horizon: int, cap: int = DEFAULT_ENUM_CAP) -> SlopeSchedule:
    """The slope schedule of spec1 x spec2 to `horizon`, as the specs pick it.

    The growth lemma's schedule when neither spec is amenable
    (`GroupSpec.amenable`), the exact linear schedule otherwise.  The first
    growth series runs to `horizon` and the second to 2 horizon + 2.
    """
    g1 = growth_series(spec1, horizon, cap=cap)
    g2 = growth_series(spec2, 2 * horizon + 2, cap=cap)
    if spec1.amenable() or spec2.amenable():
        return linear_schedule(c, horizon, growth=g1, growth2=g2)
    return build_schedule(g1, g2, c, horizon)
