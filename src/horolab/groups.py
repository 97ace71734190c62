"""Finitely generated groups with decidable canonical forms.

Supported kinds: free(k), cyclic(q), integer_lattice(d), and arbitrary
free/direct products of those.  Every element is a hashable canonical
form; the Cayley graph is the right-multiplication graph on the symmetric
standard generating set, so the word metric is left-invariant.

`Oracle.distances` gives the word distances among a list of elements as a
vectorised function of two index arrays: in closed form for free groups,
cyclic groups, lattices and direct products, and from one capped table
(the only one) for free products.

Ball enumeration is plain BFS with a hard element cap; `ball` keeps each
group's largest enumeration for the process and serves smaller radii as
its prefixes.  Sphere counts are also available through exact truncated
power-series arithmetic, which reaches radii far beyond what enumeration
can store; the two routes are checked against each other in the test
suite.
"""

from __future__ import annotations

import bisect
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputError, InvariantViolation, ResourceCapError

DEFAULT_ENUM_CAP = 20_000_000
SERIES_CHECK_HORIZON = 6  # "auto" growth cross-checks the series by BFS this far

_LETTERS = "abcdefghijklmnopqrstuvwxyz"

# The one field besides `kind` that each group kind reads.
_SPEC_FIELD = {"free": "rank", "cyclic": "order", "integer_lattice": "dim",
               "free_product": "factors", "direct_product": "factors"}


@dataclass(frozen=True)
class GroupSpec:
    """Declarative description of a built-in group."""

    kind: str
    rank: int = 0
    order: int = 0
    dim: int = 0
    factors: tuple = ()

    def __post_init__(self):
        if self.kind == "free":
            if self.rank < 1:
                raise InputError("free group rank must be >= 1")
        elif self.kind == "cyclic":
            if self.order < 2:
                raise InputError("cyclic order must be >= 2")
        elif self.kind == "integer_lattice":
            if self.dim < 1:
                raise InputError("lattice dimension must be >= 1")
        elif self.kind in ("free_product", "direct_product"):
            if len(self.factors) < 2:
                raise InputError(f"{self.kind} needs at least two factors")
        else:
            raise InputError(f"unknown group kind {self.kind!r}")

    @staticmethod
    def from_dict(data) -> "GroupSpec":
        """Spec of a config object: its `kind` and the one field that kind
        uses (an integer `rank`, `order` or `dim`, or a list of `factors`);
        any other key is an InputError."""
        if not isinstance(data, dict) or "kind" not in data:
            raise InputError("group spec must be an object with a 'kind' field")
        kind = data["kind"]
        if not isinstance(kind, str) or kind not in _SPEC_FIELD:
            raise InputError(f"unknown group kind {kind!r}")
        name = _SPEC_FIELD[kind]
        extra = sorted(str(key) for key in data if key not in ("kind", name))
        if extra:
            raise InputError(f"group kind {kind!r} takes no {', '.join(extra)}")
        if name == "factors":
            factors = data.get(name, [])
            if not isinstance(factors, list):
                raise InputError(f"group factors must be a list, got {factors!r}")
            return GroupSpec(kind=kind, factors=tuple(GroupSpec.from_dict(f) for f in factors))
        value = data.get(name, 0)
        if isinstance(value, bool) or not isinstance(value, int):
            raise InputError(f"group {name} must be an integer, got {value!r}")
        return GroupSpec(kind=kind, **{name: value})

    def to_dict(self) -> dict:
        name = _SPEC_FIELD[self.kind]
        value = [f.to_dict() for f in self.factors] if name == "factors" else getattr(self, name)
        return {"kind": self.kind, name: value}

    def amenable(self) -> bool:
        """Whether the group is amenable, read off the spec: cyclic groups,
        lattices, the free group of rank 1 (Z), the infinite dihedral group
        (the free product of two groups of order 2) and direct products of
        amenable groups are; every other spec contains a free group of
        rank 2."""
        if self.kind == "free":
            return self.rank == 1
        if self.kind == "free_product":
            return len(self.factors) == 2 and all(
                f.kind == "cyclic" and f.order == 2 for f in self.factors
            )
        if self.kind == "direct_product":
            return all(f.amenable() for f in self.factors)
        return True  # cyclic or integer_lattice


def _inverse_label(label: str) -> str:
    if len(label) == 1 and label.islower():
        return label.upper()
    return label + "'"


class Oracle:
    """Word-problem backend for one group; elements are canonical forms."""

    spec: GroupSpec
    identity: object

    def multiply(self, a, b):
        raise NotImplementedError

    def inverse(self, a):
        raise NotImplementedError

    def length(self, a) -> int:
        """Word length of the canonical form (distance to the identity)."""
        raise NotImplementedError

    def sort_key(self, a) -> tuple:
        """Length-lexicographic key; flat int tuple, total and deterministic."""
        raise NotImplementedError

    def word_str(self, a) -> str:
        raise NotImplementedError

    def gen_pairs(self) -> list:
        """Symmetric generator list as (label, element) pairs."""
        raise NotImplementedError

    def sphere_sizes(self, horizon: int) -> list:
        """Exact sphere counts s_0..s_horizon via series arithmetic."""
        raise NotImplementedError

    def is_finite(self) -> bool:
        return False

    def exact_growth_rate(self):
        """Known exact growth rate, or None when only an estimate exists."""
        return None

    # Derived helpers -----------------------------------------------------

    def generator_map(self) -> dict:
        return dict(self.gen_pairs())

    def neighbors(self, a) -> list:
        return [self.multiply(a, g) for _, g in self.gen_pairs()]

    def canon(self, word) -> object:
        """Fold a sequence of generator labels into a canonical form."""
        gens = self.generator_map()
        el = self.identity
        for sym in word:
            if sym not in gens:
                raise InputError(f"unknown generator symbol {sym!r}")
            el = self.multiply(el, gens[sym])
        return el

    def distance(self, a, b) -> int:
        return self.length(self.multiply(self.inverse(a), b))

    def distances(self, elements, cap: int = DEFAULT_ENUM_CAP):
        """Word distances among `elements`, vectorised: a function of two
        index arrays i and j (broadcast like numpy's) that returns
        d(elements[i], elements[j]) elementwise.

        This generic form, which only free products use, tabulates every
        pair by the multiply-and-length loop into one int32 table of m^2
        entries (4 bytes each); the entries count against `cap` before it
        is built.  Every other family computes a pair's distance in closed
        form and holds O(m) data.
        """
        m = len(elements)
        if m * m > cap:
            raise ResourceCapError("distance table", cap)
        table = np.zeros((m, m), dtype=np.int32)
        inv = [self.inverse(el) for el in elements]
        for i, a in enumerate(inv):
            for j in range(i + 1, m):
                table[i, j] = table[j, i] = self.length(self.multiply(a, elements[j]))
        return lambda i, j: table[i, j]


class FreeOracle(Oracle):
    """Free group of rank k; canonical forms are reduced words.

    Letters are nonzero ints: +i / -i for the i-th generator and its
    inverse, stored as tuples with no adjacent cancelling pair.
    """

    def __init__(self, spec: GroupSpec):
        if spec.rank > len(_LETTERS):
            raise InputError("free rank beyond 26 not supported by the label scheme")
        self.spec = spec
        self.identity = ()

    def multiply(self, a, b):
        out = list(a)
        for x in b:
            if out and out[-1] == -x:
                out.pop()
            else:
                out.append(x)
        return tuple(out)

    def inverse(self, a):
        return tuple(-x for x in reversed(a))

    def length(self, a):
        return len(a)

    def distances(self, elements, cap: int = DEFAULT_ENUM_CAP):
        """Closed form |x| + |y| - 2 lcp(x, y), the tree path through the
        longest common prefix: prefix[k, i] is the id of elements[i]'s
        length-(k + 1) prefix, one id per distinct prefix, or past the word's
        end -1 - i, which no other word shares.  Two words agree at lcp
        levels and a word with itself at all, so x = y gives <= 0, clipped
        to 0.  Any list of words will do, repeats included."""
        m = len(elements)
        lengths = np.fromiter(map(len, elements), dtype=np.int64, count=m)
        levels = int(lengths.max(initial=0))
        prefix = np.empty((levels, m), dtype=np.int32)
        ids = {}
        for i, el in enumerate(elements):
            for k in range(levels):
                prefix[k, i] = ids.setdefault(el[: k + 1], len(ids)) if k < len(el) else -1 - i

        def dist(i, j):
            agree = sum(prefix[k, i] == prefix[k, j] for k in range(levels))
            return np.maximum(lengths[i] + lengths[j] - 2 * agree, 0)

        return dist

    def sort_key(self, a):
        return (len(a), a)

    def word_str(self, a):
        if not a:
            return "e"
        return "".join(
            _LETTERS[x - 1] if x > 0 else _LETTERS[-x - 1].upper() for x in a
        )

    def gen_pairs(self):
        pairs = []
        for i in range(self.spec.rank):
            pairs.append((_LETTERS[i], (i + 1,)))
            pairs.append((_LETTERS[i].upper(), (-(i + 1),)))
        return pairs

    def sphere_sizes(self, horizon):
        k = self.spec.rank
        out = [1]
        if horizon >= 1:
            out.append(2 * k)
        for _ in range(2, horizon + 1):
            out.append(out[-1] * (2 * k - 1))
        return out[: horizon + 1]

    def exact_growth_rate(self):
        return 2 * self.spec.rank - 1


class CyclicOracle(Oracle):
    """Cyclic group of order q; canonical form is the residue in [0, q)."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.identity = 0

    def multiply(self, a, b):
        return (a + b) % self.spec.order

    def inverse(self, a):
        return (-a) % self.spec.order

    def length(self, a):
        return min(a, self.spec.order - a)

    def distances(self, elements, cap: int = DEFAULT_ENUM_CAP):
        """Closed form min(r, q - r) with r = (x - y) mod q, from the m
        residues."""
        q = self.spec.order
        res = np.array(elements, dtype=np.int64)

        def dist(i, j):
            r = (res[i] - res[j]) % q
            return np.minimum(r, q - r)

        return dist

    def sort_key(self, a):
        return (self.length(a), a)

    def word_str(self, a):
        return "e" if a == 0 else f"g{a}"

    def gen_pairs(self):
        q = self.spec.order
        if q == 2:
            return [("g", 1), ("G", 1)]
        return [("g", 1), ("G", q - 1)]

    def sphere_sizes(self, horizon):
        q = self.spec.order
        out = [1]
        for n in range(1, horizon + 1):
            if n < (q + 1) // 2:
                out.append(2)
            elif n == q // 2 and q % 2 == 0:
                out.append(1)
            else:
                out.append(0)
        return out

    def is_finite(self):
        return True

    def exact_growth_rate(self):
        return 1


class LatticeOracle(Oracle):
    """Z^d with the standard basis; canonical form is the coordinate tuple."""

    def __init__(self, spec: GroupSpec):
        if spec.dim > len(_LETTERS):
            raise InputError("lattice dimension beyond 26 not supported")
        self.spec = spec
        self.identity = (0,) * spec.dim

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def inverse(self, a):
        return tuple(-x for x in a)

    def length(self, a):
        return sum(abs(x) for x in a)

    def distances(self, elements, cap: int = DEFAULT_ENUM_CAP):
        """Closed form: the l1 norm of x - y, from the d * m coordinates."""
        coords = np.array(elements, dtype=np.int64).reshape(len(elements), self.spec.dim).T
        return lambda i, j: sum(np.abs(col[i] - col[j]) for col in coords)

    def sort_key(self, a):
        return (self.length(a),) + a

    def word_str(self, a):
        return "(" + ",".join(str(x) for x in a) + ")"

    def _axis_label(self, i):
        return _LETTERS[23 + i] if self.spec.dim <= 3 else f"x{i + 1}"

    def gen_pairs(self):
        pairs = []
        for i in range(self.spec.dim):
            e = tuple(1 if j == i else 0 for j in range(self.spec.dim))
            lab = self._axis_label(i)
            pairs.append((lab, e))
            pairs.append((_inverse_label(lab), self.inverse(e)))
        return pairs

    def sphere_sizes(self, horizon):
        line = [1] + [2] * horizon
        out = line
        for _ in range(self.spec.dim - 1):
            out = _convolve(out, line, horizon)
        return out

    def exact_growth_rate(self):
        return 1


class DirectProductOracle(Oracle):
    """Direct product with the union generating set; l1 word metric."""

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.parts = [make_oracle(f) for f in spec.factors]
        self.identity = tuple(p.identity for p in self.parts)

    def multiply(self, a, b):
        return tuple(p.multiply(x, y) for p, x, y in zip(self.parts, a, b))

    def inverse(self, a):
        return tuple(p.inverse(x) for p, x in zip(self.parts, a))

    def length(self, a):
        return sum(p.length(x) for p, x in zip(self.parts, a))

    def distances(self, elements, cap: int = DEFAULT_ENUM_CAP):
        """The sum of the parts' distances (the l1 word metric), each over
        the part's distinct coordinates of `elements`."""
        parts = []
        for k, part in enumerate(self.parts):
            seen = {}
            codes = np.fromiter(
                (seen.setdefault(el[k], len(seen)) for el in elements),
                dtype=np.int64,
                count=len(elements),
            )
            parts.append((codes, part.distances(list(seen), cap)))
        return lambda i, j: sum(dist(codes[i], codes[j]) for codes, dist in parts)

    def sort_key(self, a):
        key = [self.length(a)]
        for p, x in zip(self.parts, a):
            sub = p.sort_key(x)
            key.append(len(sub))
            key.extend(sub)
        return tuple(key)

    def word_str(self, a):
        return "(" + ",".join(p.word_str(x) for p, x in zip(self.parts, a)) + ")"

    def gen_pairs(self):
        pairs = []
        for i, p in enumerate(self.parts):
            for lab, g in p.gen_pairs():
                el = tuple(
                    g if j == i else q.identity for j, q in enumerate(self.parts)
                )
                pairs.append((f"{i}:{lab}", el))
        return pairs

    def sphere_sizes(self, horizon):
        out = [1] + [0] * horizon
        for p in self.parts:
            out = _convolve(out, p.sphere_sizes(horizon), horizon)
        return out

    def is_finite(self):
        return all(p.is_finite() for p in self.parts)

    def exact_growth_rate(self):
        rates = [p.exact_growth_rate() for p in self.parts]
        if any(r is None for r in rates):
            return None
        return max(rates)


class FreeProductOracle(Oracle):
    """Free product; canonical forms are alternating syllable tuples.

    A syllable is (factor_index, nonidentity canonical form of the factor);
    adjacent syllables carry distinct factor indices.
    """

    def __init__(self, spec: GroupSpec):
        self.spec = spec
        self.parts = [make_oracle(f) for f in spec.factors]
        self.identity = ()

    def _push(self, out, i, x):
        part = self.parts[i]
        if out and out[-1][0] == i:
            merged = part.multiply(out[-1][1], x)
            out.pop()
            if merged != part.identity:
                out.append((i, merged))
        elif x != part.identity:
            out.append((i, x))

    def multiply(self, a, b):
        out = list(a)
        for i, x in b:
            self._push(out, i, x)
        return tuple(out)

    def inverse(self, a):
        return tuple((i, self.parts[i].inverse(x)) for i, x in reversed(a))

    def length(self, a):
        return sum(self.parts[i].length(x) for i, x in a)

    def sort_key(self, a):
        key = [self.length(a)]
        for i, x in a:
            sub = self.parts[i].sort_key(x)
            key.extend((i, len(sub)))
            key.extend(sub)
        return tuple(key)

    def word_str(self, a):
        if not a:
            return "e"
        return ".".join(f"{i}:{self.parts[i].word_str(x)}" for i, x in a)

    def gen_pairs(self):
        pairs = []
        for i, p in enumerate(self.parts):
            for lab, g in p.gen_pairs():
                pairs.append((f"{i}:{lab}", ((i, g),)))
        return pairs

    def sphere_sizes(self, horizon):
        # Sphere series U of a free product solves U = A (1 + U) with
        # A = sum_i S_i / (1 + S_i), S_i the factor sphere series (n >= 1).
        acc = [0] * (horizon + 1)
        for p in self.parts:
            s = p.sphere_sizes(horizon)
            s[0] = 0
            acc = _series_add(acc, _series_div(s, _series_add([1], s, horizon), horizon), horizon)
        u = _series_div(acc, _series_sub([1], acc, horizon), horizon)
        u[0] = 1
        return u

    def exact_growth_rate(self):
        return None


def make_oracle(spec: GroupSpec) -> Oracle:
    builders = {
        "free": FreeOracle,
        "cyclic": CyclicOracle,
        "integer_lattice": LatticeOracle,
        "direct_product": DirectProductOracle,
        "free_product": FreeProductOracle,
    }
    return builders[spec.kind](spec)


# Truncated integer power series helpers ----------------------------------


def _convolve(a, b, horizon):
    out = [0] * (horizon + 1)
    for i, x in enumerate(a[: horizon + 1]):
        if x == 0:
            continue
        for j, y in enumerate(b[: horizon + 1 - i]):
            out[i + j] += x * y
    return out


def _series_add(a, b, horizon=None):
    n = max(len(a), len(b)) if horizon is None else horizon + 1
    out = [0] * n
    for i in range(n):
        out[i] = (a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0)
    return out


def _series_sub(a, b, horizon=None):
    return _series_add(a, [-x for x in b], horizon)


def _series_div(a, b, horizon):
    if not b or b[0] == 0:
        raise InvariantViolation("series division by a series with zero constant term")
    out = [0] * (horizon + 1)
    for n in range(horizon + 1):
        acc = a[n] if n < len(a) else 0
        for k in range(1, n + 1):
            if k < len(b):
                acc -= b[k] * out[n - k]
        q, r = divmod(acc, b[0])
        if r:
            raise InvariantViolation("series division left a fractional coefficient")
        out[n] = q
    return out


# Balls and growth ---------------------------------------------------------


# Group spec -> (radius, ball): the largest ball of each group enumerated
# so far in this process.  Balls are sorted by distance first, so every
# smaller ball is an index prefix of it.
_BALLS = {}


def ball(oracle: Oracle, radius: int, cap: int = DEFAULT_ENUM_CAP):
    """All elements within `radius` of the identity, as a new list of
    (element, distance) sorted by (distance, sort_key).

    The largest ball asked for so far is kept per group spec for the rest
    of the process; a smaller radius is served as its prefix, a larger one
    enumerates again and replaces it.  The cap is checked on every call:
    ResourceCapError exactly when the ball has more than `cap` elements.
    """
    if radius < 0:
        raise InputError("ball radius must be >= 0")
    kept = _BALLS.get(oracle.spec)
    if kept is None or kept[0] < radius:
        kept = _BALLS[oracle.spec] = (radius, enumerate_ball(oracle, radius, cap))
    size = bisect.bisect_right(kept[1], radius, key=lambda pair: pair[1])
    if size > cap:
        raise ResourceCapError("ball enumeration", cap)
    return kept[1][:size]


def enumerate_ball(oracle: Oracle, radius: int, cap: int = DEFAULT_ENUM_CAP):
    """`ball` by plain BFS, without the per-spec memo."""
    gens = [g for _, g in oracle.gen_pairs()]
    dist = {oracle.identity: 0}
    frontier = deque([oracle.identity])
    while frontier:
        el = frontier.popleft()
        d = dist[el]
        if d == radius:
            continue
        for g in gens:
            nb = oracle.multiply(el, g)
            if nb not in dist:
                dist[nb] = d + 1
                if len(dist) > cap:
                    raise ResourceCapError("ball enumeration", cap)
                frontier.append(nb)
    return sorted(dist.items(), key=lambda kv: (kv[1], oracle.sort_key(kv[0])))


@dataclass
class GrowthSeries:
    """Ball volumes, sphere counts and growth diagnostics to a horizon."""

    spec: GroupSpec
    volumes: list
    spheres: list
    method: str
    growth_rate_estimates: list = field(default_factory=list)
    eps_nonamen: Fraction = Fraction(0)
    exact_rate: object = None

    def __post_init__(self):
        if not self.growth_rate_estimates:
            self.growth_rate_estimates = [
                self.volumes[n] ** (1.0 / n) for n in range(1, len(self.volumes))
            ]
        if self.eps_nonamen == 0 and len(self.volumes) > 1:
            self.eps_nonamen = min(
                Fraction(self.spheres[n], self.volumes[n])
                for n in range(1, len(self.volumes))
            )

    @property
    def horizon(self) -> int:
        return len(self.volumes) - 1

    def volume(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.horizon:
            raise InputError(
                f"growth horizon too short: need radius {n}, have {self.horizon}"
            )
        return self.volumes[n]

    def sphere(self, n: int) -> int:
        if n < 0:
            return 0
        if n > self.horizon:
            raise InputError(
                f"growth horizon too short: need radius {n}, have {self.horizon}"
            )
        return self.spheres[n]

    def check_invariants(self):
        v, s = self.volumes, self.spheres
        infinite = not make_oracle(self.spec).is_finite()
        for n in range(1, len(v)):
            if v[n] != v[n - 1] + s[n]:
                raise InvariantViolation("volume/sphere difference identity failed")
            if infinite and v[n] <= v[n - 1]:
                raise InvariantViolation("volumes not strictly increasing")
        for m in range(len(v)):
            for n in range(len(v) - m):
                if v[m + n] > v[m] * v[n]:
                    raise InvariantViolation("submultiplicativity v_{m+n} <= v_m v_n failed")
        est = self.growth_rate_estimates
        for i in range(1, len(est)):
            if est[i] > est[i - 1] + 1e-12:
                raise InvariantViolation("v_n^{1/n} not non-increasing")


def growth_series(
    spec: GroupSpec,
    horizon: int,
    method: str = "auto",
    cap: int = DEFAULT_ENUM_CAP,
) -> GrowthSeries:
    """Growth data for `spec` up to `horizon`.

    method "bfs" enumerates balls (capped); "auto" uses the oracle's exact
    power-series counts and cross-checks them against a small BFS
    enumeration.
    """
    if horizon < 1:
        raise InputError("growth horizon must be >= 1")
    oracle = make_oracle(spec)
    if method not in ("auto", "bfs"):
        raise InputError(f"unknown growth method {method!r}")
    if method == "bfs":
        spheres = _spheres_by_bfs(oracle, horizon, cap)
    else:
        spheres = oracle.sphere_sizes(horizon)
        probe = min(horizon, SERIES_CHECK_HORIZON)
        if _spheres_by_bfs(oracle, probe, cap) != spheres[: probe + 1]:
            raise InvariantViolation("series sphere counts disagree with BFS enumeration")
    volumes = []
    total = 0
    for s in spheres:
        total += s
        volumes.append(total)
    return GrowthSeries(
        spec=spec,
        volumes=volumes,
        spheres=spheres,
        method=method,
        exact_rate=oracle.exact_growth_rate(),
    )


def _spheres_by_bfs(oracle, horizon, cap):
    counts = [0] * (horizon + 1)
    for _, d in ball(oracle, horizon, cap):
        counts[d] += 1
    return counts


def generator_bound(*oracles) -> int:
    """M with v_{k+1} <= M v_k for every given group: max generator count + 1."""
    return max(len(o.gen_pairs()) for o in oracles) + 1
