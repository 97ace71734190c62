"""Horofunctions, horoballs and geodesic descent on finite windows.

Boundary points are represented constructively: either an eventually
periodic geodesic ray (exact on tree-like and lattice factors, verified by
probing two ray lengths) or a far anchor point whose shifted distance
function is taken as-is.  Values are computed lazily and memoised, so a
horofunction can serve a large window without materialising it.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from fractions import Fraction

from .errors import ApproximationError, InputError, InvariantViolation, WindowExhaustedError
from .groups import Oracle
from .product import ProductMetric, as_slope

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


class Horofunction:
    """1-Lipschitz window function vanishing at the origin.

    backing "exact_ray": values are stabilised limits d(., ray_N) - N,
    verified over two ray lengths.  backing "anchor": shifted distance
    function of a far point, tagged approximate.
    """

    def __init__(self, oracle: Oracle, window, backing: str, ray=None, anchor=None):
        self.oracle = oracle
        self.window = set(window)
        self.window_radius = max((oracle.length(x) for x in self.window), default=0)
        self.backing = backing
        self.ray = ray
        self.anchor = anchor
        self._values = {}
        if backing == "exact_ray":
            self._probe = self.window_radius + len(ray.prefix) + 2 * len(ray.period) + 2
        elif backing == "anchor":
            self._anchor_shift = oracle.length(anchor)
            if self._anchor_shift < 2 * self.window_radius:
                raise InputError(
                    "anchor too close: need d(anchor, o) >= 2 * window radius"
                )
        else:
            raise InputError(f"unknown horofunction backing {backing!r}")

    def value(self, x) -> int:
        v = self._values.get(x)
        if v is None:
            v = self._compute(x)
            self._values[x] = v
        return v

    def _compute(self, x) -> int:
        if self.backing == "anchor":
            return self.oracle.distance(x, self.anchor) - self._anchor_shift
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

    def contains(self, x) -> bool:
        return x in self.window

    def descend(self, x):
        """ElementOrder-least neighbor with value one less, inside the window."""
        if x not in self.window:
            raise WindowExhaustedError("descent started outside the window")
        target = self.value(x) - 1
        best = None
        for nb in self.oracle.neighbors(x):
            if nb in self.window and self.value(nb) == target:
                if best is None or self.oracle.sort_key(nb) < self.oracle.sort_key(best):
                    best = nb
        if best is None:
            raise WindowExhaustedError(
                "no descending neighbor inside the window"
            )
        return best

    def to_csv(self, path):
        rows = sorted(
            ((self.oracle.word_str(x), self.value(x)) for x in self.window),
            key=lambda r: r[0],
        )
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["word", "value", "backing_kind"])
            for word, val in rows:
                w.writerow([word, val, self.backing])

    def check_normalized(self):
        if self.value(self.oracle.identity) != 0:
            raise InvariantViolation("horofunction does not vanish at the origin")

    def check_lipschitz(self, exhaustive: bool = False):
        """Edge check by default; full pairwise check when exhaustive."""
        pts = list(self.window)
        for x in pts:
            for nb in self.oracle.neighbors(x):
                if nb in self.window and abs(self.value(x) - self.value(nb)) > 1:
                    raise InvariantViolation("horofunction not 1-Lipschitz on an edge")
        if exhaustive:
            for i, x in enumerate(pts):
                for y in pts[i + 1 :]:
                    if abs(self.value(x) - self.value(y)) > self.oracle.distance(x, y):
                        raise InvariantViolation("horofunction not 1-Lipschitz")


def horofunction_from_ray(oracle: Oracle, ray, window) -> Horofunction:
    """Exact horofunction of an eventually periodic geodesic ray.

    `ray` is either a GeodesicRay, a plain label sequence (period defaults
    to its last label), or a (prefix, period) pair of label sequences.
    """
    if not isinstance(ray, GeodesicRay):
        if (
            isinstance(ray, tuple)
            and len(ray) == 2
            and not isinstance(ray[0], str)
        ):
            ray = GeodesicRay(oracle, list(ray[0]), list(ray[1]))
        else:
            labels = list(ray)
            if not labels:
                raise InputError("ray must contain at least one generator")
            ray = GeodesicRay(oracle, labels, [labels[-1]])
    return Horofunction(oracle, window, "exact_ray", ray=ray)


def horofunction_from_anchor(oracle: Oracle, anchor, window) -> Horofunction:
    return Horofunction(oracle, window, "anchor", anchor=anchor)


class ProductHorofunction:
    """theta'' = (theta, theta'): value(y, y') = h(y) + h'(y')/c."""

    def __init__(self, h1: Horofunction, h2: Horofunction, c):
        self.h1 = h1
        self.h2 = h2
        self.c = as_slope(c)

    def value(self, point):
        y1, y2 = point
        if not self.h1.contains(y1) or not self.h2.contains(y2):
            raise InputError("window mismatch: point outside component windows")
        a = self.h1.value(y1)
        b = self.h2.value(y2)
        return a + Fraction(b) / self.c

    @property
    def backing(self) -> str:
        kinds = {self.h1.backing, self.h2.backing}
        return "exact_ray" if kinds == {"exact_ray"} else "anchor"


def product_horofunction(h1: Horofunction, h2: Horofunction, c) -> ProductHorofunction:
    return ProductHorofunction(h1, h2, c)


def descend(oracle: Oracle, h: Horofunction, x):
    return h.descend(x)


def descent_path(oracle: Oracle, h: Horofunction, x, max_steps=None) -> list:
    """Iterate descend until the window boundary; returns the path from x."""
    path = [x]
    while max_steps is None or len(path) <= max_steps:
        try:
            path.append(h.descend(path[-1]))
        except WindowExhaustedError:
            break
    return path


@dataclass(frozen=True)
class BoundaryType:
    tag: str  # "type_I" or "type_II"


def is_boundary_object(u) -> bool:
    return isinstance(u, (Horofunction, GeodesicRay))


def classify_boundary_pair(u, u_prime) -> BoundaryType:
    b1, b2 = is_boundary_object(u), is_boundary_object(u_prime)
    if not b1 and not b2:
        raise InputError("neither component is a boundary object")
    return BoundaryType("type_II" if (b1 and b2) else "type_I")


@dataclass
class Horoball:
    """Sublevel set {x : d_theta(x) <= delay} restricted to windows."""

    center: object  # Horofunction or ProductHorofunction
    delay: object

    def members(self, window_points) -> list:
        return [x for x in window_points if self.center.value(x) <= self.delay]

    def contains(self, x) -> bool:
        return self.center.value(x) <= self.delay


def ray_pair_through(metric: ProductMetric, center) -> ProductHorofunction:
    """Product horofunction in the direction of a product-point center.

    Each factor gets the exact ray through its coordinate (spec'd surrogate
    for the limit direction of escaping centers); the full factor groups
    back the lazy windows, so values exist wherever they are requested.
    """
    ray1 = GeodesicRay.through(metric.first, center[0])
    ray2 = GeodesicRay.through(metric.second, center[1])
    h1 = LazyWindowHorofunction(metric.first, ray1)
    h2 = LazyWindowHorofunction(metric.second, ray2)
    return ProductHorofunction(h1, h2, metric.c)


class LazyWindowHorofunction(Horofunction):
    """Ray horofunction whose window is the whole group (lazy values).

    Used internally where windows are enforced by the caller; `descend`
    here never exhausts, so callers must bound paths themselves.
    """

    def __init__(self, oracle: Oracle, ray: GeodesicRay, probe_radius: int = 64):
        self.oracle = oracle
        self.window = None
        self.window_radius = probe_radius
        self.backing = "exact_ray"
        self.ray = ray
        self.anchor = None
        self._values = {}
        self._probe = probe_radius + len(ray.prefix) + 2 * len(ray.period) + 2

    def contains(self, x) -> bool:
        return True

    def descend(self, x):
        target = self.value(x) - 1
        best = None
        for nb in self.oracle.neighbors(x):
            if self.value(nb) == target:
                if best is None or self.oracle.sort_key(nb) < self.oracle.sort_key(best):
                    best = nb
        if best is None:
            raise WindowExhaustedError("no descending neighbor")
        return best
