"""Geodesic rays, horofunctions and geodesic descent.

Boundary points are represented constructively by eventually periodic
geodesic rays; a horofunction's values are the limits d(x, ray_N) - N,
exact on tree-like and lattice factors and verified by probing two ray
lengths.  A horofunction is defined on the whole group; values are
computed lazily and memoised, so only the points asked about are ever
evaluated.  Pi1's descent toward the ray through a center is owned here,
on arrays of factor-ball indices (`ray_steps`).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .errors import ApproximationError, InputError, InvariantViolation
from .groups import FreeOracle, Oracle
from .product import as_slope

RAY_PROBE_ATTEMPTS = 3


def spell(oracle: Oracle, el) -> list:
    """Generator labels of one geodesic word for `el` (deterministic)."""
    inv_label = {}
    for lab, g in oracle.gen_pairs():
        inv_label.setdefault(g, lab)
    labels = []
    cur = el
    n = oracle.length(cur)
    while n > 0:
        for _, g in oracle.gen_pairs():
            nxt = oracle.multiply(cur, g)
            if oracle.length(nxt) == n - 1:
                labels.append(inv_label[oracle.inverse(g)])
                cur = nxt
                n -= 1
                break
        else:
            raise InvariantViolation("no length-decreasing neighbor found")
    labels.reverse()
    return labels


class GeodesicRay:
    """Eventually periodic geodesic ray: prefix labels + repeating period."""

    def __init__(self, oracle: Oracle, prefix, period):
        if not period:
            raise InputError("ray period must be nonempty")
        self.oracle = oracle
        self.prefix = list(prefix)
        self.period = list(period)
        self._points = [oracle.identity]
        self._validate(len(self.prefix) + 4 * len(self.period))

    def _labels(self, n: int) -> str:
        if n < len(self.prefix):
            return self.prefix[n]
        return self.period[(n - len(self.prefix)) % len(self.period)]

    def point(self, n: int):
        """Canonical form of the length-n ray prefix."""
        gens = self.oracle.generator_map()
        while len(self._points) <= n:
            i = len(self._points) - 1
            lab = self._labels(i)
            if lab not in gens:
                raise InputError(f"unknown generator symbol {lab!r} in ray")
            self._points.append(self.oracle.multiply(self._points[-1], gens[lab]))
        return self._points[n]

    def _validate(self, upto: int):
        for n in range(1, upto + 1):
            if self.oracle.length(self.point(n)) != n:
                raise InputError(
                    f"ray is not geodesic: prefix of length {n} reduces"
                )

    @staticmethod
    def through(oracle: Oracle, el) -> "GeodesicRay":
        """A geodesic ray whose prefix passes through `el`.

        The continuation is chosen deterministically among short label
        periods and verified; finite groups have none and raise.
        """
        prefix = spell(oracle, el)
        labels = [lab for lab, _ in oracle.gen_pairs()]
        cands = []
        if prefix:
            cands.append(prefix[-1:])
            if len(prefix) >= 2:
                cands.append(prefix[-2:])
            for lab in labels:
                cands.append([prefix[-1], lab])
        for lab in labels:
            cands.append([lab])
        for l1 in labels:
            for l2 in labels:
                cands.append([l1, l2])
        seen = set()
        for period in cands:
            key = tuple(period)
            if key in seen:
                continue
            seen.add(key)
            try:
                return GeodesicRay(oracle, prefix, period)
            except InputError:
                continue
        raise InputError("no geodesic ray continuation exists for this element")


class FreeRaySteps:
    """Descent steps of the horofunctions of the rays
    `GeodesicRay.through(c)` in a free group, in closed form over the
    elements of one factor ball, as arrays of ball indices.

    That ray spells c and then repeats its last letter (the first
    generator when c = e).  In the tree the horofunction falls by one only
    toward the ray's end, so y's descending neighbour is unique: y followed
    by the ray's next letter when y lies on the ray, and y's parent (y
    without its last letter) otherwise.

    The tables are built once per ball from its BFS tree (`groups.Ball`),
    whose elements are listed by length; a reduced word's parent is the
    word without its last letter.  For the element of index i:
    `prefix[k, i]` is the index of its length-min(k, |i|) prefix (the
    prefix ids per level), `last[i]` its last letter (0 for e), `run[i]`
    the length of its trailing run of that letter, and the ball's
    `step[i, column[x + rank]]` the index of i followed by the letter x,
    -1 outside the ball.
    """

    def __init__(self, ball):
        rank, size, radius = ball.oracle.spec.rank, len(ball), ball.radius
        letters = np.array([g[0] for _, g in ball.oracle.gen_pairs()])
        self.rank, self.step = rank, ball.step
        self.column = np.zeros(2 * rank + 1, dtype=np.int64)
        self.column[letters + rank] = np.arange(2 * rank)
        self.length = ball.dist.astype(np.int64)
        self.parent = ball.parent.astype(np.int64)
        self.last = np.append(letters, 0)[ball.gen]  # gen -1, the identity's, reads 0
        self.run = np.zeros(size, dtype=np.int64)
        self.prefix = np.zeros((radius + 1, size), dtype=np.int32)
        # Level by level: a word's parent is one level shorter, so it is done.
        for m in range(1, radius + 1):
            lo, hi = ball.volume(m - 1), ball.volume(m)
            up = self.parent[lo:hi]
            same = self.last[up] == self.last[lo:hi]
            self.run[lo:hi] = np.where(same, self.run[up] + 1, 1)
            self.prefix[:m, lo:hi] = self.prefix[:m, up]
            self.prefix[m:, lo:hi] = np.arange(lo, hi)

    def __call__(self, center, y) -> np.ndarray:
        """Ball index of the descent step of each y[i] toward the end of
        the ray through center[i], -1 where it leaves the ball."""
        n, m = self.length[center], self.length[y]
        last_c = np.where(n > 0, self.last[center], 1)
        short = m < n
        # y shorter than c: on the ray when it is c's prefix, and the ray's
        # next letter is c's letter m + 1.  Otherwise y must extend c by a
        # run of c's last letter.
        next_in_c = self.last[self.prefix[np.minimum(m + 1, len(self.prefix) - 1), center]]
        on_ray = np.where(
            short,
            self.prefix[m, center] == y,
            (self.prefix[n, y] == center)
            & ((m == n) | ((self.last[y] == last_c) & (self.run[y] >= m - n))),
        )
        step = np.where(short, next_in_c, last_c)
        return np.where(on_ray, self.step[y, self.column[step + self.rank]], self.parent[y])


class Horofunction:
    """1-Lipschitz function of a geodesic ray, vanishing at the origin.

    Values are stabilised limits d(., ray_N) - N, verified over two ray
    lengths, with probing started past `probe_radius`.  It is defined on
    the whole group, so descent never runs out of room: callers bound
    paths themselves.
    """

    def __init__(self, oracle: Oracle, ray: GeodesicRay, probe_radius: int = 64):
        self.oracle = oracle
        self.ray = ray
        self._probe = probe_radius + len(ray.prefix) + 2 * len(ray.period) + 2
        self._values = {}

    def value(self, x) -> int:
        v = self._values.get(x)
        if v is None:
            v = self._compute(x)
            self._values[x] = v
        return v

    def _compute(self, x) -> int:
        probe = self._probe
        for _ in range(RAY_PROBE_ATTEMPTS):
            a = self.oracle.distance(x, self.ray.point(probe)) - probe
            b = self.oracle.distance(x, self.ray.point(probe + 1)) - (probe + 1)
            if a == b:
                return a
            probe *= 2
        raise ApproximationError(
            "horofunction values did not stabilise within the probe budget"
        )

    def descend(self, x, key=None):
        """The neighbor with value one less that is least under `key`:
        ElementOrder-least by default."""
        target = self.value(x) - 1
        down = [nb for nb in self.oracle.neighbors(x) if self.value(nb) == target]
        if not down:
            raise InvariantViolation("horofunction has no descending neighbor")
        return min(down, key=key or self.oracle.sort_key)


class HorofunctionSteps:
    """`FreeRaySteps` on any factor ball, pair by pair: y descends the
    `Horofunction` of the ray through c, one kept per center, to the
    neighbour nearest c, then the ElementOrder-least (on a lattice two
    neighbours can descend, and the farther can leave the diamond)."""

    def __init__(self, ball):
        self.ball, self._descents = ball, {}

    def __call__(self, center, y) -> np.ndarray:
        ball, oracle = self.ball, self.ball.oracle
        out = np.empty(len(center), dtype=np.int64)
        for i, (ci, yi) in enumerate(zip(center.tolist(), y.tolist())):
            if ci not in self._descents:
                c = ball.elements[ci]
                h = Horofunction(oracle, GeodesicRay.through(oracle, c), probe_radius=ball.radius + 2)
                self._descents[ci] = h, lambda nb, c=c: (oracle.distance(nb, c), oracle.sort_key(nb))
            h, nearest = self._descents[ci]
            out[i] = ball.index.get(h.descend(ball.elements[yi], key=nearest), -1)
        return out


def ray_steps(ball):
    """Pi1's descent steps on `ball`: the closed form on a free ball."""
    return FreeRaySteps(ball) if isinstance(ball.oracle, FreeOracle) else HorofunctionSteps(ball)


def connect_then_descend(oracle, start, end, h, extra_steps: int) -> tuple:
    """Path start -> end along a geodesic word, then `extra_steps` descent
    steps of the factor horofunction h.  Returns (path, k)."""
    word = spell(oracle, oracle.multiply(oracle.inverse(start), end))
    gens = oracle.generator_map()
    path = list(itertools.accumulate([gens[lab] for lab in word], oracle.multiply, initial=start))
    for _ in range(extra_steps):
        path.append(h.descend(path[-1]))
    return path, len(word)


# perfbench/layers.py times descent under this name.
LazyWindowHorofunction = Horofunction


def horofunction_from_ray(oracle: Oracle, labels) -> Horofunction:
    """Exact horofunction of the ray that spells `labels` and then repeats
    their last label forever."""
    labels = list(labels)
    if not labels:
        raise InputError("ray must contain at least one generator")
    return Horofunction(oracle, GeodesicRay(oracle, labels, [labels[-1]]))


class ProductHorofunction:
    """theta'' = (theta, theta'): value(y, y') = h(y) + h'(y')/c."""

    def __init__(self, h1: Horofunction, h2: Horofunction, c):
        self.h1 = h1
        self.h2 = h2
        self.c = as_slope(c)

    def value(self, point):
        y1, y2 = point
        return self.h1.value(y1) + Fraction(self.h2.value(y2)) / self.c
