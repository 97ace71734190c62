"""Perturbed diamonds: volumes, corner sets, dominance, sandwich checks.

A perturbed diamond of parameter n is the union over t of vertical slices
{(y, y'): d(x, y) = r_n - t, d'(x', y') <= f(t)} around its center x''.
At first-factor distance d from the center its slice reaches f(r_n - d)
in the second factor (`SlopeSchedule.diamond_reach`), so its volume has
the exact slice decomposition sum_d s_d v'_{f(r_n - d)}
(`product.slice_volume`), which the enumeration oracle must reproduce;
`point_process` builds its members with `FactorBall.slices`.  `in_diamond`
is the pointwise definition of membership, which tests compare against;
the sandwich check applies the slice radii to a whole `ProductSpace`
window at once, through the window's factor-index arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, ball
from .horoboundary import Horofunction
from .product import ProductMetric, ProductSpace, slice_volume
from .schedule import SlopeSchedule


def diamond_volume(schedule: SlopeSchedule, n: int) -> int:
    """v''_n = Sum_d s_d * v'_{f(r_n-d)}: the diamond volume by slices."""
    return slice_volume(schedule.growth, schedule.growth2, schedule.diamond_reach(n))


def in_diamond(metric: ProductMetric, schedule: SlopeSchedule, n: int, center, y) -> bool:
    d1 = metric.first.distance(center[0], y[0])
    r_n = schedule.r[n]
    if d1 > r_n:
        return False
    return metric.second.distance(center[1], y[1]) <= schedule.f_of(r_n - d1)


def diamond_members(
    metric: ProductMetric, schedule: SlopeSchedule, n: int, center, cap: int = DEFAULT_ENUM_CAP
) -> list:
    """Member points of D_n(center), enumerated slice by slice."""
    r_n = schedule.r_at(n)
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
        n=n, T=T, count=count, bound=bound, volume=diamond_volume(schedule, n)
    )


@dataclass
class DominanceRow:
    n: int
    volume: int
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
        v = diamond_volume(schedule, n)
        m = max(growth.volume(schedule.r[n]), growth2.volume(schedule.r_prime[n]))
        row = DominanceRow(
            n=n,
            volume=v,
            ratio=Fraction(v, m),
            lower_bound=Fraction(eps, M * M) * n,
        )
        if not row.ok:
            raise InvariantViolation(
                f"dominance ratio at breakpoint {n} fell below (eps/M^2) n"
            )
        rows.append(row)
    return rows


@dataclass
class SandwichRow:
    n: int
    radius: int
    members_in_window: int
    delta: object
    lower_ok: bool
    lower_violations: int
    vacuous: bool


@dataclass
class SandwichReport:
    rows: list
    first_sandwiched_n: object  # least tested n from which every lower clause holds


def sandwich_check(
    space: ProductSpace,
    schedule: SlopeSchedule,
    h1: Horofunction,
    h2: Horofunction,
    centers,
) -> SandwichReport:
    """Window surrogate of the horoball sandwich around perturbed diamonds.

    `centers` is a list of (n, center) pairs escaping in the direction of
    theta'' = h1 + h2/c, and the window W is `space`.  With delta the
    maximum of theta'' over the diamond within the window, the check is
    HB(theta'', delta - 2/c) ^ W  <=  D ^ W  <=  HB(theta'', delta + 1/c) ^ W.
    As delta is that maximum, the upper inclusion holds by construction, so
    only the lower one is counted.

    Everything runs on integer numerators over the window's arrays: for
    c = p/q, theta''·p = h1·p + h2·q (`ProductMetric.rho_num` of h1 and h2)
    is tabulated once per window from the factor balls, and top = delta·p,
    so the lower clause reads
    theta''·p <= top - 2q.
    Membership takes each factor element's distance to the center: a
    point is in D_n when d1 <= r_n and d2 <= f(r_n - d1), the slice radius
    `diamond_reach(n)[d1]`.
    """
    if len(space) == 0:
        raise InputError("sandwich window is empty")
    metric, b1, b2 = space.metric, space.ball1, space.ball2
    p, q = metric.c.numerator, metric.c.denominator
    v1 = np.array([h1.value(y) for y in b1.elements], dtype=np.int64)
    v2 = np.array([h2.value(y) for y in b2.elements], dtype=np.int64)
    theta = metric.rho_num(v1[space.pts1], v2[space.pts2])
    min_length = 2 * math.ceil(Fraction(int(space.rho_num.max()), p))
    rows = []
    for n, center in centers:
        if min(metric.first.length(center[0]), metric.second.length(center[1])) < min_length:
            raise InputError(
                "sandwich centers must satisfy d(x_n, o), d'(x'_n, o') >= 2 x window radius"
            )
        slice_reach = schedule.diamond_reach(n)
        r_n = len(slice_reach) - 1
        d1 = np.array([metric.first.distance(center[0], y) for y in b1.elements], dtype=np.int64)
        d2 = np.array([metric.second.distance(center[1], y) for y in b2.elements], dtype=np.int64)
        # Per first-factor element, the largest d2 inside D_n (-1: none).
        reach = np.where(d1 <= r_n, slice_reach[np.minimum(d1, r_n)], -1)
        inside = d2[space.pts2] <= reach[space.pts1]
        members = int(np.count_nonzero(inside))
        if members == 0:
            rows.append(SandwichRow(n, r_n, 0, None, True, 0, vacuous=True))
            continue
        top = int(theta[inside].max())
        lower_bad = int(np.count_nonzero((theta <= top - 2 * q) & ~inside))
        rows.append(
            SandwichRow(
                n=n,
                radius=r_n,
                members_in_window=members,
                delta=Fraction(top, p),
                lower_ok=lower_bad == 0,
                lower_violations=lower_bad,
                vacuous=False,
            )
        )
    first = None
    for i in range(len(rows)):
        tail = rows[i:]
        if all(r.lower_ok for r in tail) and any(not r.vacuous for r in tail):
            first = rows[i].n
            break
    return SandwichReport(rows=rows, first_sandwiched_n=first)
