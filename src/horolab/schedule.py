"""Inductive construction of the almost-linear slice-radius schedule.

The precursor g is extended with alternating slopes c*(1 - 1/(n+1)) and
c*(1 + 1/(n+1)); a segment ends at the first radius where the volume ratio
v'_{floor(g(x))} / v_x crosses 1 from the corresponding side.  f = floor(g)
is the integer schedule, r_j the breakpoint radii and r'_j = f(r_j).

All arithmetic is exact: the slope is rational and g holds Fractions.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InputError, InvariantViolation
from .groups import GrowthSeries, generator_bound, make_oracle
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
    M: int = 0
    source: str = "lemma"
    truncated: bool = False
    growth: GrowthSeries = None
    growth2: GrowthSeries = None
    segment_of: list = field(default_factory=list)

    def f_of(self, t: int) -> int:
        if t < 0:
            raise InputError("schedule argument must be >= 0")
        if t > self.horizon:
            raise InputError(
                f"schedule horizon too short: need f({t}), horizon {self.horizon}"
            )
        return self.f[t]

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
        return AlmostLinearReport(m_max=m_max, rows=rows)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["n", "f_n", "g_n", "segment_index", "slope"])
            for t in range(len(self.f)):
                seg = self.segment_of[t] if t < len(self.segment_of) else ""
                slope = (
                    str(self.segments[seg].slope)
                    if seg != "" and seg < len(self.segments)
                    else ""
                )
                w.writerow([t, self.f[t], str(self.g[t]), seg, slope])

    def breakpoints_json(self) -> str:
        ratios = (
            [str(x) for x in self.breakpoint_ratios()]
            if self.growth is not None
            else []
        )
        return json.dumps(
            {
                "c": str(self.c),
                "horizon": self.horizon,
                "truncated": self.truncated,
                "r": self.r,
                "r_prime": self.r_prime,
                "ratios": ratios,
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
            },
            indent=2,
            sort_keys=True,
        )


@dataclass
class AlmostLinearRow:
    m: int
    n_of_m: object
    max_late_deviation: float
    holds_within_horizon: bool


@dataclass
class AlmostLinearReport:
    m_max: int
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
    """Run the alternating-slope induction up to `horizon`."""
    c = as_slope(c)
    if horizon < 1:
        raise InputError("schedule horizon must be >= 1")
    if growth.eps_nonamen <= 0 or growth2.eps_nonamen <= 0:
        raise InputError(
            "schedule construction requires nonamenable growth on both factors "
            "(eps_nonamen > 0); use linear_schedule for exact-slope experiments"
        )
    if growth.horizon < horizon:
        raise InputError("first growth series does not cover the schedule horizon")
    g = [Fraction(0)]
    r = [0]
    segments = []
    segment_of = [0]
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
            segment_of.append(len(segments))
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
        segment_of=segment_of,
    )
    sched.check_invariants()
    return sched


def linear_schedule(
    c, horizon: int, growth: GrowthSeries = None, growth2: GrowthSeries = None
) -> SlopeSchedule:
    """Synthetic exact-slope schedule f(t) = floor(c t).

    Not a product of the growth induction; used for exact-geometry
    experiments (lattice windows) and wrong-slope probes.
    """
    c = as_slope(c)
    g = [c * t for t in range(horizon + 1)]
    f = [math.floor(v) for v in g]
    M = 0
    if growth is not None and growth2 is not None:
        M = generator_bound(make_oracle(growth.spec), make_oracle(growth2.spec))
    return SlopeSchedule(
        c=c,
        horizon=horizon,
        f=f,
        g=g,
        r=list(range(horizon + 1)),
        r_prime=f[:],
        segments=[Segment(0, 0, horizon, c, None)],
        M=M,
        source="linear",
        growth=growth,
        growth2=growth2,
        segment_of=[0] * (horizon + 1),
    )
