"""Geodesic rays, horofunctions and geodesic descent.

Boundary points are represented constructively by eventually periodic
geodesic rays; a horofunction's values are the limits d(x, ray_N) - N,
exact on tree-like and lattice factors and verified by probing two ray
lengths.  A horofunction is defined on the whole group; values are
computed lazily and memoised, so only the points asked about are ever
evaluated.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ApproximationError, InputError, InvariantViolation
from .groups import Oracle
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


def free_ray_step(center: tuple, y: tuple) -> tuple:
    """Descent step of the horofunction of `GeodesicRay.through(center)` in
    a free group, in closed form.

    That ray spells `center` and then repeats its last letter (the first
    generator when center = e).  In the tree the horofunction falls by one
    only toward the ray's end, so y's descending neighbour is unique: y
    followed by the ray's next letter when y is a prefix of the ray, and
    y without its last letter otherwise.
    """
    last = center[-1] if center else 1
    n = len(center)
    if len(y) < n:
        on_ray, step = center[: len(y)] == y, center[len(y)]
    else:
        on_ray = y[:n] == center and all(x == last for x in y[n:])
        step = last
    return y + (step,) if on_ray else y[:-1]


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

    def check_normalized(self):
        if self.value(self.oracle.identity) != 0:
            raise InvariantViolation("horofunction does not vanish at the origin")

    def check_lipschitz(self, points, exhaustive: bool = False):
        """Edge check among `points` by default; full pairwise check when
        exhaustive."""
        pts = list(points)
        among = set(pts)
        for x in pts:
            for nb in self.oracle.neighbors(x):
                if nb in among and abs(self.value(x) - self.value(nb)) > 1:
                    raise InvariantViolation("horofunction not 1-Lipschitz on an edge")
        if exhaustive:
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    if abs(self.value(x) - self.value(y)) > self.oracle.distance(x, y):
                        raise InvariantViolation("horofunction not 1-Lipschitz")


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
