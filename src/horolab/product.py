"""The product group G'' = G x G' under the weighted l1 metric.

rho_c((x,x'),(y,y')) = d(x,y) + d'(x',y')/c.  For rational c = p/q all
comparisons run on integer numerators (rho * p = d*p + d'*q), so ball and
diamond membership is exact.  The slope is rational only: `as_slope` is the
one place that decides its type, and it rejects floats.

A rho_c ball of radius R and a perturbed diamond are both vertical-slice
unions {d(o, y) = d, d'(o', y') <= reach[d]}, with reach[d] = floor(c (R -
d)) and `SlopeSchedule.diamond_reach`: `slice_volume` sizes one from the
growth series and `groups.Ball.slices` builds one as factor-ball index
arrays.  `ProductSpace` materialises one rho_c ball as an indexed point
universe (pairs of indices into the factor balls of `groups.ball`, backed
by numpy arrays); windows are index subsets of the universe, which keeps
every downstream Monte-Carlo kernel vectorisable.  `ProductSpace.of_keys`
holds any sorted key set, such as the process's W+; only windows build
their points' rho numerators (`rho_num`).
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, Ball, GrowthSeries, Oracle, ball


def as_slope(c) -> Fraction:
    """Normalise a slope given as int, str (such as "3/2") or Fraction."""
    if isinstance(c, (int, str, Fraction)):
        try:
            return Fraction(c)
        except (ValueError, ZeroDivisionError):
            pass
    raise InputError(f"slope {c!r} must be an int, a str such as '3/2' or a Fraction")


class ProductMetric:
    """Weighted l1 metric rho_c on the product of two group oracles."""

    def __init__(self, first: Oracle, second: Oracle, c):
        c = as_slope(c)
        if not (c > 0):
            raise InputError("slope c must be positive")
        self.first = first
        self.second = second
        self.c = c
        self.origin = (first.identity, second.identity)

    def rho(self, x, y):
        d1 = self.first.distance(x[0], y[0])
        d2 = self.second.distance(x[1], y[1])
        return self.rho_of_distances(d1, d2)

    def rho_of_distances(self, d1: int, d2: int) -> Fraction:
        return d1 + Fraction(d2) / self.c

    # Integer-numerator arithmetic (c = p/q): rho * p = d1*p + d2*q.

    def rho_num(self, d1, d2):
        """rho * p of factor distances: ints, or integer arrays elementwise."""
        c = self.c
        return d1 * c.numerator + d2 * c.denominator

    def radius_num(self, r) -> int:
        """Largest integer numerator with value <= r (exact for rational r)."""
        r = Fraction(r)
        return (r.numerator * self.c.numerator) // r.denominator

    def multiply(self, x, y):
        return (self.first.multiply(x[0], y[0]), self.second.multiply(x[1], y[1]))


def perfect_diamond(metric: ProductMetric, center, radius, cap=DEFAULT_ENUM_CAP):
    """All points of the rho_c ball around `center`: list of (point, rho).

    Enumerated slice by slice: first-coordinate sphere at distance t, second
    coordinate within floor(c*(radius-t)).
    """
    if radius < 0:
        raise InputError("diamond radius must be >= 0")
    ball1 = ball(metric.first, math.floor(radius), cap)
    ball2 = ball(metric.second, math.floor(metric.c * radius), cap)
    rad_num = metric.radius_num(radius)
    out = []
    for u, t in ball1:
        for w, t2 in ball2:
            if metric.rho_num(t, t2) <= rad_num:
                y = (
                    metric.first.multiply(center[0], u),
                    metric.second.multiply(center[1], w),
                )
                out.append((y, metric.rho_of_distances(t, t2)))
                if len(out) > cap:
                    raise ResourceCapError("diamond enumeration", cap)
    return out


def slice_volume(growth: GrowthSeries, growth2: GrowthSeries, reach) -> int:
    """Sum_d s_d * v'_{reach[d]}: the size of the slice union with
    second-factor radius reach[d] at first-factor distance d."""
    return sum(growth.sphere(d) * growth2.volume(r) for d, r in enumerate(reach))


def ball_slice_volume(
    metric: ProductMetric, growth: GrowthSeries, growth2: GrowthSeries, n: int
) -> int:
    """Sum_d s_d * v'_{floor(c (n - d))}: the rho_c ball volume by slices."""
    if n < 0:
        raise InputError("radius must be >= 0")
    return slice_volume(growth, growth2, [math.floor(metric.c * (n - d)) for d in range(n + 1)])


# perfbench/layers.py times `Ball.distance_matrix` under this name.
FactorBall = Ball


class ProductSpace:
    """A rho_c ball in G'' materialised as an indexed point universe, or
    (`of_keys`) any rising set of packed keys (i << 32) | j."""

    def __init__(self, metric: ProductMetric, radius, cap=DEFAULT_ENUM_CAP):
        self.metric = metric
        self.radius = Fraction(radius)
        r1 = math.floor(self.radius)
        r2 = math.floor(metric.c * self.radius)
        self.ball1 = ball(metric.first, r1, cap)
        self.ball2 = ball(metric.second, r2, cap)
        p, q = metric.c.numerator, metric.c.denominator
        rad_num = metric.radius_num(self.radius)
        reach = [(rad_num - d * p) // q for d in range(r1 + 1)]
        self.pts1, self.pts2 = self.ball1.slices(
            self.ball2, reach, cap, "product window enumeration", np.int32
        )
        # Packed (i << 32) | j keys; `slices` lists the points by i, then j,
        # so the keys increase and index the universe by binary search.
        self.keys = (self.pts1.astype(np.int64) << np.int64(32)) | self.pts2.astype(np.int64)

    @classmethod
    def of_keys(cls, metric: ProductMetric, ball1: Ball, ball2: Ball, keys):
        """The universe of the rising packed keys (i << 32) | j over `ball1`
        and `ball2`, which need not make a ball (it has no `radius`)."""
        self = cls.__new__(cls)
        self.metric, self.ball1, self.ball2, self.keys = metric, ball1, ball2, keys
        self.pts1, self.pts2 = (keys >> 32).astype(np.int32), (keys & 0xFFFFFFFF).astype(np.int32)
        return self

    def __len__(self):
        return len(self.pts1)

    @functools.cached_property
    def rho_num(self) -> np.ndarray:
        """rho * p of each point from the origin, built on first use: only
        `mask_within` and the sandwich check read it."""
        return self.metric.rho_num(
            self.ball1.dist[self.pts1].astype(np.int64), self.ball2.dist[self.pts2].astype(np.int64)
        )

    def lookup(self, i, j) -> np.ndarray:
        """Universe ids of the factor-ball index pairs (i, j), elementwise;
        -1 where the pair lies outside the universe.  An index of -1 (outside
        its factor ball) packs to a negative key (i << 32) | j, and so misses
        like any pair outside the universe."""
        keys = (np.asarray(i, dtype=np.int64) << 32) | j
        # The covering map's index arrays are as large as its keys; freed
        # before the search, they keep a wr-5 graphing run's peak RSS down.
        del i, j
        pos = np.minimum(np.searchsorted(self.keys, keys), len(self.keys) - 1)
        return np.where(self.keys[pos] == keys, pos, -1)

    def element(self, pid: int):
        return (
            self.ball1.elements[int(self.pts1[pid])],
            self.ball2.elements[int(self.pts2[pid])],
        )

    def word_str(self, pid: int) -> str:
        """The point's two canonical words, "first|second"."""
        return f"{self.ball1.words[int(self.pts1[pid])]}|{self.ball2.words[int(self.pts2[pid])]}"

    def mask_within(self, radius) -> np.ndarray:
        return self.rho_num <= self.metric.radius_num(radius)

