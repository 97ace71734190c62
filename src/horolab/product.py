"""The product group G'' = G x G' under the weighted l1 metric.

rho_c((x,x'),(y,y')) = d(x,y) + d'(x',y')/c.  For rational c = p/q all
comparisons run on integer numerators (rho * p = d*p + d'*q), so ball and
diamond membership is exact.  Irrational c falls back to floats with a
documented comparison epsilon of 1e-9.

`ProductSpace` materialises one rho_c ball as an indexed point universe
(pairs of factor-ball indices backed by numpy arrays); windows are index
subsets of the universe, which keeps every downstream Monte-Carlo kernel
vectorisable.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, GrowthSeries, Oracle, ball

FLOAT_EPS = 1e-9


def as_slope(c) -> object:
    """Normalise a slope given as int/str/Fraction/float."""
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    if isinstance(c, str):
        return Fraction(c)
    if isinstance(c, float):
        return c
    raise InputError(f"cannot interpret slope {c!r}")


def floor_scaled(c, t: int) -> int:
    """floor(c * t), exact for rational c."""
    if isinstance(c, Fraction):
        return (c.numerator * t) // c.denominator
    return math.floor(c * t + FLOAT_EPS)


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

    @property
    def exact(self) -> bool:
        return isinstance(self.c, Fraction)

    def rho(self, x, y):
        d1 = self.first.distance(x[0], y[0])
        d2 = self.second.distance(x[1], y[1])
        return self.rho_of_distances(d1, d2)

    def rho_of_distances(self, d1: int, d2: int):
        if self.exact:
            return d1 + Fraction(d2) / self.c
        return d1 + d2 / self.c

    # Integer-numerator arithmetic (rational c = p/q): rho * p = d1*p + d2*q.

    @property
    def den(self) -> int:
        return self.c.numerator if self.exact else None

    def rho_num(self, d1: int, d2: int) -> int:
        c = self.c
        return d1 * c.numerator + d2 * c.denominator

    def radius_num(self, r) -> int:
        """Largest integer numerator with value <= r (exact for rational r)."""
        c = self.c
        r = Fraction(r) if not isinstance(r, Fraction) else r
        return (r.numerator * c.numerator) // r.denominator

    def leq(self, d1: int, d2: int, r) -> bool:
        """rho(d1, d2) <= r with exact or epsilon comparison."""
        if self.exact:
            return self.rho_num(d1, d2) <= self.radius_num(r)
        return d1 + d2 / self.c <= r + FLOAT_EPS

    def multiply(self, x, y):
        return (self.first.multiply(x[0], y[0]), self.second.multiply(x[1], y[1]))

    def inverse(self, x):
        return (self.first.inverse(x[0]), self.second.inverse(x[1]))

    def word_str(self, x) -> str:
        return f"{self.first.word_str(x[0])}|{self.second.word_str(x[1])}"


def perfect_diamond(metric: ProductMetric, center, radius, cap=DEFAULT_ENUM_CAP):
    """All points of the rho_c ball around `center`: list of (point, rho).

    Enumerated slice by slice: first-coordinate sphere at distance t, second
    coordinate within floor(c*(radius-t)).
    """
    if radius < 0:
        raise InputError("diamond radius must be >= 0")
    rmax = Fraction(radius).numerator // Fraction(radius).denominator
    ball1 = ball(metric.first, rmax, cap)
    ball2 = ball(metric.second, _floor_value(metric.c, radius), cap)
    out = []
    for u, t in ball1:
        for w, t2 in ball2:
            if metric.leq(t, t2, radius):
                y = (
                    metric.first.multiply(center[0], u),
                    metric.second.multiply(center[1], w),
                )
                out.append((y, metric.rho_of_distances(t, t2)))
                if len(out) > cap:
                    raise ResourceCapError("diamond enumeration", cap)
    return out


def _floor_value(c, radius) -> int:
    """floor(c * radius) for int/Fraction radius."""
    r = Fraction(radius)
    if isinstance(c, Fraction):
        v = c * r
        return v.numerator // v.denominator
    return math.floor(float(c) * float(r) + FLOAT_EPS)


def diamond_to_csv(metric: ProductMetric, members, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["first_word", "second_word", "rho"])
        for (y, rho) in members:
            w.writerow(
                [metric.first.word_str(y[0]), metric.second.word_str(y[1]), str(rho)]
            )


@dataclass
class SliceVolume:
    """Eq.-style vertical-slice decomposition of a rho_c ball volume."""

    radius: int
    total: int
    summands: list  # (t, sphere_{n-t}, ball'_{floor(ct)}, product)


def ball_slice_volume(
    metric: ProductMetric, growth: GrowthSeries, growth2: GrowthSeries, n: int
) -> SliceVolume:
    """Sum_t s_{n-t} * v'_{floor(c t)} with the per-slice breakdown."""
    if n < 0:
        raise InputError("radius must be >= 0")
    rows = []
    total = 0
    for t in range(n + 1):
        s = growth.sphere(n - t)
        v2 = growth2.volume(floor_scaled(metric.c, t))
        rows.append((t, s, v2, s * v2))
        total += s * v2
    return SliceVolume(radius=n, total=total, summands=rows)


class FactorBall:
    """One factor's ball, indexed in (distance, length-lex) order.

    The first v_r entries are exactly the ball of radius r, so radius
    selections are index prefixes.
    """

    def __init__(self, oracle: Oracle, radius: int, cap=DEFAULT_ENUM_CAP):
        self.oracle = oracle
        self.radius = radius
        pairs = ball(oracle, radius, cap)
        self.elements = [el for el, _ in pairs]
        self.dist = np.fromiter((d for _, d in pairs), dtype=np.int32, count=len(pairs))
        self.index = {el: i for i, el in enumerate(self.elements)}
        self.volumes = [0] * (radius + 1)
        for d in self.dist:
            self.volumes[d] += 1
        for r in range(1, radius + 1):
            self.volumes[r] += self.volumes[r - 1]

    def __len__(self):
        return len(self.elements)

    def volume(self, r: int) -> int:
        if r < 0:
            return 0
        return self.volumes[min(r, self.radius)]

    def words(self):
        return [self.oracle.word_str(el) for el in self.elements]

    def distance_matrix(self, count=None) -> np.ndarray:
        """Pairwise word distances among the first `count` elements."""
        m = len(self.elements) if count is None else count
        orc = self.oracle
        out = np.zeros((m, m), dtype=np.int32)
        inv = [orc.inverse(el) for el in self.elements[:m]]
        for i in range(m):
            a = inv[i]
            for j in range(i + 1, m):
                d = orc.length(orc.multiply(a, self.elements[j]))
                out[i, j] = d
                out[j, i] = d
        return out


class ProductSpace:
    """A rho_c ball in G'' materialised as an indexed point universe."""

    def __init__(self, metric: ProductMetric, radius, cap=DEFAULT_ENUM_CAP):
        if not metric.exact:
            raise InputError("ProductSpace requires a rational slope c")
        self.metric = metric
        self.radius = Fraction(radius)
        r1 = self.radius.numerator // self.radius.denominator
        r2 = _floor_value(metric.c, self.radius)
        self.ball1 = FactorBall(metric.first, r1, cap)
        self.ball2 = FactorBall(metric.second, r2, cap)
        rad_num = metric.radius_num(self.radius)
        p, q = metric.c.numerator, metric.c.denominator
        blocks1, blocks2 = [], []
        total = 0
        for t in range(r1 + 1):
            lo = self.ball1.volume(t - 1)
            hi = self.ball1.volume(t)
            if hi == lo:
                continue
            max2 = (rad_num - t * p) // q
            cnt2 = self.ball2.volume(min(max2, r2))
            if cnt2 == 0:
                continue
            ii = np.arange(lo, hi, dtype=np.int32)
            blocks1.append(np.repeat(ii, cnt2))
            blocks2.append(np.tile(np.arange(cnt2, dtype=np.int32), hi - lo))
            total += (hi - lo) * cnt2
            if total > cap:
                raise ResourceCapError("product window enumeration", cap)
        self.pts1 = np.concatenate(blocks1) if blocks1 else np.zeros(0, dtype=np.int32)
        self.pts2 = np.concatenate(blocks2) if blocks2 else np.zeros(0, dtype=np.int32)
        d1 = self.ball1.dist[self.pts1].astype(np.int64)
        d2 = self.ball2.dist[self.pts2].astype(np.int64)
        self.rho_num = d1 * p + d2 * q
        self.den = p
        key = (self.pts1.astype(np.int64) << np.int64(32)) | self.pts2.astype(np.int64)
        self.index = {int(k): i for i, k in enumerate(key)}

    def __len__(self):
        return len(self.pts1)

    def lookup(self, i: int, j: int):
        """Universe id of factor-index pair, or None when outside."""
        return self.index.get((i << 32) | j)

    def lookup_elements(self, el1, el2):
        i = self.ball1.index.get(el1)
        j = self.ball2.index.get(el2)
        if i is None or j is None:
            return None
        return self.lookup(i, j)

    def element(self, pid: int):
        return (
            self.ball1.elements[int(self.pts1[pid])],
            self.ball2.elements[int(self.pts2[pid])],
        )

    def word_str(self, pid: int) -> str:
        return self.metric.word_str(self.element(pid))

    def ids_within(self, radius) -> np.ndarray:
        return np.flatnonzero(self.rho_num <= self.metric.radius_num(radius))

    def mask_within(self, radius) -> np.ndarray:
        return self.rho_num <= self.metric.radius_num(radius)


def check_triangle_inequality(metric: ProductMetric, points, samples=200, seed=7):
    """Spot-check rho_c axioms on sampled triples; raises on violation."""
    import random

    rng = random.Random(seed)
    pts = list(points)
    for _ in range(samples):
        x, y, z = (rng.choice(pts) for _ in range(3))
        rxy, ryz, rxz = metric.rho(x, y), metric.rho(y, z), metric.rho(x, z)
        if metric.rho(x, x) != 0 or rxy != metric.rho(y, x):
            raise InvariantViolation("rho_c symmetry/identity failed")
        if rxz > rxy + ryz:
            raise InvariantViolation("rho_c triangle inequality failed")
