"""Perturbed diamonds: volumes, corner sets, dominance, sandwich checks.

A perturbed diamond of parameter n is the union over t of vertical slices
{(y, y'): d(x, y) = r_n - t, d'(x', y') <= f(t)} around its center x''.
Its volume has the exact slice decomposition sum_t s_{r_n - t} v'_{f(t)},
which the enumeration oracle must reproduce.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, InvariantViolation, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, ball
from .horoboundary import ProductHorofunction
from .product import ProductMetric
from .schedule import SlopeSchedule


@dataclass
class DiamondVolume:
    n: int
    radius: int
    total: int
    summands: list  # (t, s_{r_n-t}, v'_{f(t)}, product)


def diamond_volume(schedule: SlopeSchedule, n: int) -> DiamondVolume:
    if schedule.growth is None or schedule.growth2 is None:
        raise InputError("schedule carries no growth series")
    if n >= len(schedule.r):
        raise InputError(f"schedule has no breakpoint index {n}")
    r_n = schedule.r[n]
    rows = []
    total = 0
    for t in range(r_n + 1):
        s = schedule.growth.sphere(r_n - t)
        v2 = schedule.growth2.volume(schedule.f_of(t))
        rows.append((t, s, v2, s * v2))
        total += s * v2
    return DiamondVolume(n=n, radius=r_n, total=total, summands=rows)


def in_diamond(metric: ProductMetric, schedule: SlopeSchedule, n: int, center, y) -> bool:
    d1 = metric.first.distance(center[0], y[0])
    r_n = schedule.r[n]
    if d1 > r_n:
        return False
    return metric.second.distance(center[1], y[1]) <= schedule.f_of(r_n - d1)


def diamond_members(
    metric: ProductMetric,
    schedule: SlopeSchedule,
    n: int,
    center,
    window=None,
    cap: int = DEFAULT_ENUM_CAP,
) -> list:
    """Member points of D_n(center); intersected with `window` when given.

    With a window (an iterable of product points) membership is tested
    pointwise; otherwise the whole diamond is enumerated slice by slice.
    """
    if n >= len(schedule.r):
        raise InputError(f"schedule has no breakpoint index {n}")
    if window is not None:
        return [y for y in window if in_diamond(metric, schedule, n, center, y)]
    r_n = schedule.r[n]
    first, second = metric.first, metric.second
    by_dist = {}
    for el, d in ball(first, r_n, cap):
        by_dist.setdefault(d, []).append(el)
    ball2 = ball(second, schedule.f_of(r_n), cap)
    out = []
    for t in range(r_n + 1):
        radius2 = schedule.f_of(t)
        for u in by_dist.get(r_n - t, ()):
            y1 = first.multiply(center[0], u)
            for w, d2 in ball2:
                if d2 > radius2:
                    continue
                out.append((y1, second.multiply(center[1], w)))
                if len(out) > cap:
                    raise ResourceCapError("diamond member enumeration", cap)
    return out


@dataclass
class CornerStats:
    """Size of the corner set A_{n,T} against the generator-growth bound."""

    n: int
    T: int
    count: int
    bound: int
    volume: int

    @property
    def ratio(self) -> Fraction:
        return Fraction(self.count, self.volume)


def corner_count(schedule: SlopeSchedule, n: int, T: int) -> CornerStats:
    """|A_{n,T}| by inclusion-exclusion over the two corner clauses.

    A center (x, x') is a corner when (d(o,x) < r_n + T and d'(o',x') < T)
    or (d'(o',x') < r'_n + T and d(o,x) < T); strict inequalities make the
    counts ball volumes at radius - 1.
    """
    growth, growth2 = schedule.growth, schedule.growth2
    r_n, rp_n = schedule.r[n], schedule.r_prime[n]
    count = (
        growth.volume(r_n + T - 1) * growth2.volume(T - 1)
        + growth.volume(T - 1) * growth2.volume(rp_n + T - 1)
        - growth.volume(T - 1) * growth2.volume(T - 1)
    )
    M = schedule.M
    bound = (M**T) * (
        growth.volume(r_n) * growth2.volume(T) + growth.volume(T) * growth2.volume(rp_n)
    )
    if count > bound:
        raise InvariantViolation(
            f"corner count {count} exceeds the generator-growth bound {bound}"
        )
    return CornerStats(
        n=n, T=T, count=count, bound=bound, volume=diamond_volume(schedule, n).total
    )


def corner_count_bruteforce(
    metric: ProductMetric, schedule: SlopeSchedule, n: int, T: int, cap=DEFAULT_ENUM_CAP
) -> int:
    """Oracle for corner_count: enumerate candidate centers and test clauses."""
    r_n, rp_n = schedule.r[n], schedule.r_prime[n]
    b1 = ball(metric.first, max(r_n + T - 1, T - 1, 0), cap)
    b2 = ball(metric.second, max(rp_n + T - 1, T - 1, 0), cap)
    count = 0
    for _, d1 in b1:
        for _, d2 in b2:
            if (d1 < r_n + T and d2 < T) or (d2 < rp_n + T and d1 < T):
                count += 1
    return count


def corner_table_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "T", "corner_count", "corner_bound", "ratio"])
        for r in rows:
            w.writerow([r.n, r.T, r.count, r.bound, float(r.ratio)])


@dataclass
class DominanceRow:
    n: int
    volume: int
    max_factor_volume: int
    ratio: Fraction
    lower_bound: Fraction

    @property
    def ok(self) -> bool:
        return self.ratio >= self.lower_bound


def growth_dominance(schedule: SlopeSchedule, n_range) -> list:
    """v''_n / max(v_{r_n}, v'_{r'_n}) against the (eps/M^2) n lower bound."""
    growth, growth2 = schedule.growth, schedule.growth2
    eps = min(growth.eps_nonamen, growth2.eps_nonamen)
    M = schedule.M
    rows = []
    for n in n_range:
        v = diamond_volume(schedule, n).total
        m = max(growth.volume(schedule.r[n]), growth2.volume(schedule.r_prime[n]))
        row = DominanceRow(
            n=n,
            volume=v,
            max_factor_volume=m,
            ratio=Fraction(v, m),
            lower_bound=Fraction(eps, M * M) * n,
        )
        if not row.ok:
            raise InvariantViolation(
                f"dominance ratio at breakpoint {n} fell below (eps/M^2) n"
            )
        rows.append(row)
    return rows


def dominance_table_to_csv(rows, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n", "volume", "dominance_ratio", "lower_bound"])
        for r in rows:
            w.writerow([r.n, r.volume, float(r.ratio), float(r.lower_bound)])


@dataclass
class SandwichRow:
    n: int
    radius: int
    members_in_window: int
    delta: object
    lower_ok: bool
    upper_ok: bool
    lower_violations: int
    upper_violations: int
    vacuous: bool


@dataclass
class SandwichReport:
    rows: list
    first_sandwiched_n: object  # least tested n from which all checks pass


def sandwich_check(
    metric: ProductMetric,
    schedule: SlopeSchedule,
    horofn: ProductHorofunction,
    centers,
    window_points,
) -> SandwichReport:
    """Window surrogate of the horoball sandwich around perturbed diamonds.

    `centers` is a list of (n, center) pairs escaping in the direction of
    `horofn`.  With delta the maximum of the horofunction over the diamond
    within the window, the check is
    HB(theta'', delta - 2/c) ^ W  <=  D ^ W  <=  HB(theta'', delta + 1/c) ^ W.
    """
    window_points = list(window_points)
    if not window_points:
        raise InputError("sandwich window is empty")
    wr = max(metric.rho(metric.origin, y) for y in window_points)
    rows = []
    two_over_c = 2 / metric.c
    one_over_c = 1 / metric.c
    for n, center in centers:
        d1 = metric.first.length(center[0])
        d2 = metric.second.length(center[1])
        if min(d1, d2) < 2 * math.ceil(wr):
            raise InputError(
                "sandwich centers must satisfy d(x_n, o), d'(x'_n, o') >= 2 x window radius"
            )
        inside = [y for y in window_points if in_diamond(metric, schedule, n, center, y)]
        if not inside:
            rows.append(
                SandwichRow(
                    n=n,
                    radius=schedule.r[n],
                    members_in_window=0,
                    delta=None,
                    lower_ok=True,
                    upper_ok=True,
                    lower_violations=0,
                    upper_violations=0,
                    vacuous=True,
                )
            )
            continue
        values = {y: horofn.value(y) for y in window_points}
        delta = max(values[y] for y in inside)
        inside_set = set(inside)
        lower_bad = sum(
            1
            for y in window_points
            if values[y] <= delta - two_over_c and y not in inside_set
        )
        upper_bad = sum(1 for y in inside if values[y] > delta + one_over_c)
        rows.append(
            SandwichRow(
                n=n,
                radius=schedule.r[n],
                members_in_window=len(inside),
                delta=delta,
                lower_ok=lower_bad == 0,
                upper_ok=upper_bad == 0,
                lower_violations=lower_bad,
                upper_violations=upper_bad,
                vacuous=False,
            )
        )
    first = None
    for i in range(len(rows)):
        tail = rows[i:]
        if all(r.lower_ok and r.upper_ok for r in tail) and any(
            not r.vacuous for r in tail
        ):
            first = rows[i].n
            break
    return SandwichReport(rows=rows, first_sandwiched_n=first)
