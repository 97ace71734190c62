"""The product group G'' = G x G' under the weighted l1 metric.

rho_c((x,x'),(y,y')) = d(x,y) + d'(x',y')/c.  For rational c = p/q all
comparisons run on integer numerators (rho * p = d*p + d'*q), so ball and
diamond membership is exact.  The slope is rational only: `as_slope` is the
one place that decides its type, and it rejects floats.

A rho_c ball of radius R and a perturbed diamond are both vertical-slice
unions {d(o, y) = d, d'(o', y') <= reach[d]}, with reach[d] = floor(c (R -
d)) and `SlopeSchedule.diamond_reach`: `slice_volume` sizes one from the
growth series and `FactorBall.slices` builds one as factor-ball index
arrays (through `ragged`, the one ragged expansion).  `ProductSpace`
materialises one rho_c ball as an indexed point universe (pairs of
factor-ball indices backed by numpy arrays); windows are index subsets of
the universe, which keeps every downstream Monte-Carlo kernel
vectorisable.  `ProductSpace.of_keys` holds any sorted key set, such as the
process's W+; only windows build their points' rho numerators (`rho_num`).
`FactorBall.distances` gives a factor ball's word distances (int32) per
pair of index arrays through its oracle (`Oracle.distances`): in closed
form for free groups (|x| + |y| - 2 lcp(x, y), from per-level prefix ids),
lattices (the l1 norm of x - y), cyclic groups and direct products, from
one capped table for free products.  A `FactorBall` reads its BFS tree
from `groups.ball`: `FactorBall.quotient_table` (x c^-1 by index, walked
through the right-step table) is how the covering map finds its centers,
and a step column gives the coset lines' successors.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import InputError, ResourceCapError
from .groups import DEFAULT_ENUM_CAP, GrowthSeries, Oracle, ball


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


def ragged(counts, dtype=np.int64) -> tuple:
    """(owner, rank): every pair (i, r) with 0 <= r < counts[i], by i then
    r, as two arrays of `dtype`; `counts` is an integer array."""
    owner = np.repeat(np.arange(len(counts), dtype=dtype), counts)
    rank = np.arange(len(owner), dtype=dtype)
    rank -= np.repeat((np.cumsum(counts) - counts).astype(dtype), counts)
    return owner, rank


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


class FactorBall:
    """One factor's ball, indexed in (distance, length-lex) order.

    The first v_r entries are exactly the ball of radius r, so radius
    selections are index prefixes.  `tree` is the `groups.ball` it reads:
    `dist`, `parent`, `gen` and `step` are its BFS tree's arrays, and the
    element tuples, their `index` and the words come from it on first use.
    """

    def __init__(self, oracle: Oracle, radius: int, cap=DEFAULT_ENUM_CAP):
        self.oracle = oracle
        self.radius = radius
        self.cap = cap
        self.tree = tree = ball(oracle, radius, cap)
        self.dist, self.parent, self.gen, self.step = tree.dist, tree.parent, tree.gen, tree.step
        self.volumes = np.searchsorted(self.dist, np.arange(radius + 1), side="right").tolist()

    def __len__(self):
        return len(self.dist)

    @functools.cached_property
    def elements(self) -> tuple:
        return self.tree.elements

    @functools.cached_property
    def index(self) -> dict:
        return self.tree.index

    @functools.cached_property
    def words(self) -> list:
        return self.tree.words

    def volume(self, r: int) -> int:
        if r < 0:
            return 0
        return self.volumes[min(r, self.radius)]

    def quotient_table(self, rows: int, cols) -> np.ndarray:
        """Index of elements[i] * elements[c]^-1 for i < rows, one column
        per ball index c of `cols`, as int64.  Each row walks c's tree word
        backwards from i, one step by the inverse of each last generator up
        c's parents, and reads -1 once a step leaves the ball.  So an entry
        is exact wherever |elements[i]| + |elements[c]| <= radius, and in a
        free group, where distance to the identity along a geodesic path
        has no interior maximum, wherever the product lies in the ball."""
        node = np.asarray(cols, dtype=np.int64)
        out = np.repeat(np.arange(rows, dtype=np.int64)[:, None], len(node), axis=1)
        for _ in range(int(self.dist[node].max(initial=0))):
            walk = node > 0
            at = out[:, walk]
            moved = self.step[at, self.tree.inverse[self.gen[node[walk]]]]
            out[:, walk] = np.where(at >= 0, moved, -1)
            node = self.parent[node]
        return out

    def slices(self, other: "FactorBall", reach, cap: int, what: str, dtype=np.int64) -> tuple:
        """The slice union {(i, j): dist[i] = d, other.dist[j] <= reach[d]}
        as two index arrays into this ball and `other`, by i then j.  A
        reach past other.radius takes all of `other`.  The union's size
        counts against `cap` (ResourceCapError names `what`) before it is
        built."""
        vols = np.array([other.volume(r) for r in reach], dtype=np.int64)
        counts = vols[self.dist[: self.volume(len(reach) - 1)]]
        if int(counts.sum()) > cap:
            raise ResourceCapError(what, cap)
        return ragged(counts, dtype)

    @functools.cached_property
    def distances(self):
        """d(elements[i], elements[j]) for index arrays i and j, elementwise
        (`Oracle.distances` over this ball, built on first use)."""
        return self.oracle.distances(self.elements, self.cap)

    def distance_matrix(self, count=None) -> np.ndarray:
        """Pairwise word distances among the first `count` elements, as a
        table from `distances`; the m^2 entries count against the cap.  Kept
        only because perfbench/layers.py times the traced name
        `product.FactorBall.distance_matrix`; it goes with that name."""
        m = len(self.elements) if count is None else count
        if m * m > self.cap:
            raise ResourceCapError("distance table", self.cap)
        i = np.arange(m)
        return self.distances(i[:, None], i[None, :])


class ProductSpace:
    """A rho_c ball in G'' materialised as an indexed point universe, or
    (`of_keys`) any rising set of packed keys (i << 32) | j."""

    def __init__(self, metric: ProductMetric, radius, cap=DEFAULT_ENUM_CAP):
        self.metric = metric
        self.radius = Fraction(radius)
        r1 = math.floor(self.radius)
        r2 = math.floor(metric.c * self.radius)
        self.ball1 = FactorBall(metric.first, r1, cap)
        self.ball2 = FactorBall(metric.second, r2, cap)
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
    def of_keys(cls, metric: ProductMetric, ball1: FactorBall, ball2: FactorBall, keys):
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

