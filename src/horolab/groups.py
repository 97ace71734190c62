"""Finitely generated groups with decidable canonical forms.

Supported kinds: free(k), cyclic(q), integer_lattice(d), and arbitrary
free/direct products of those.  Every element is a hashable canonical
form; the Cayley graph is the right-multiplication graph on the symmetric
standard generating set, so the word metric is left-invariant.

`Oracle.distances` gives the word distances among a list of elements as a
vectorised function of two index arrays: in closed form for free groups,
cyclic groups, lattices and direct products, and from one capped table
(the only one) for free products.

A ball (`Ball`) is its BFS tree as arrays: each element's distance,
parent and last generator, and a right-step table of its products with
the generators.  A free group's ball is built level by level in closed
form; every other group's by a BFS over canonical forms that keeps the
products it computes.  A ball gives its volumes, its slice unions with
another ball as index arrays (`Ball.slices`, through `ragged`, the one
ragged expansion) and its quotient tables x c^-1 by index, walked through
the right-step table (`Ball.quotient_table`).  `enumerate_ball` is the
plain BFS, the independent reference.  `ball` checks the element cap
against the exact sphere counts before anything is built, keeps each
group's largest ball for the process and serves smaller radii as its
prefixes.  Sphere counts come from exact truncated power-series
arithmetic, which reaches radii far beyond what enumeration can store; the
two routes are checked against each other in the test suite.
"""

from __future__ import annotations

import functools
from array import array
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

    def sphere_element(self, t: int, rank: int):
        """The element of rank 0 <= `rank` < |S_t| of the sphere of radius
        t, in closed form: a bijection of range(|S_t|) onto S_t, in the
        order of `ball` (by `sort_key`) where each factor's keys have one
        length."""
        raise NotImplementedError

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
        d(elements[i], elements[j]) elementwise, as int32 (int64 only for a
        cyclic group of order 2^31 or more).

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
        lengths = np.fromiter(map(len, elements), dtype=np.int32, count=m)
        levels = int(lengths.max(initial=0))
        prefix = np.empty((levels, m), dtype=np.int32)
        ids = {}
        for i, el in enumerate(elements):
            for k in range(levels):
                prefix[k, i] = ids.setdefault(el[: k + 1], len(ids)) if k < len(el) else -1 - i

        def dist(i, j):
            d = lengths[i] + lengths[j]
            for ids_k in prefix:
                d -= (ids_k[i] == ids_k[j]) * np.int32(2)  # no int64 temporary
            return np.maximum(d, 0)

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
        return [1] + [2 * k * (2 * k - 1) ** (n - 1) for n in range(1, horizon + 1)]

    def exact_growth_rate(self):
        return 2 * self.spec.rank - 1

    def _next_letter(self, rank, place, last) -> tuple:
        """One step of the mixed radix that ranks a sphere, on ints or
        elementwise on arrays: 2k choices of the first letter (`last` -1),
        then 2k - 1 of each next one (all but the inverse of the last
        letter, at 2k - 1 - last), each in the letters' order -k < ... < -1
        < 1 < ... < k.  `place` is (2k - 1) to the number of letters after
        this one.  Returns the letter's index in that order and the rest of
        the rank."""
        d, rest = divmod(rank, place)
        return d + (d >= 2 * self.spec.rank - 1 - last), rest

    def sphere_element(self, t, rank):
        k, word, last = self.spec.rank, [], -1
        for i in range(t):
            last, rank = self._next_letter(rank, (2 * k - 1) ** (t - 1 - i), last)
            word.append(last - k + (last >= k))
        return tuple(word)

    def sphere_columns(self, t, rank) -> np.ndarray:
        """The letters of `sphere_element` of each (t[i], rank[i]) as
        columns of `gen_pairs`, vectorised: row m holds every word's (m +
        1)-th letter, -1 past its end."""
        k, t, rank = self.spec.rank, np.asarray(t, dtype=np.int64), np.asarray(rank, dtype=np.int64)
        power = (2 * k - 1) ** np.arange(int(t.max(initial=0)), dtype=np.int64)
        cols = np.argsort([g[0] for _, g in self.gen_pairs()])  # the column of each letter, in order
        out, last = np.empty((len(power), len(t)), dtype=np.int64), np.full(len(t), -1)
        for m, row in enumerate(out):  # past a word's end its place is 1 and its rest 0
            last, rank = self._next_letter(rank, power[np.maximum(t - 1 - m, 0)], last)
            row[:] = (cols[last] + 1) * (t > m) - 1
        return out


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
        residues (int32 when q < 2^31, so x - y cannot overflow)."""
        q = self.spec.order
        res = np.array(elements, dtype=np.int32 if q < 2**31 else np.int64)

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
        # The residues n and q - n while 2 n < q, one at 2 n = q, none past.
        q = self.spec.order
        return [1] + [min(2, max(0, q + 1 - 2 * n)) for n in range(1, horizon + 1)]

    def is_finite(self):
        return True

    def exact_growth_rate(self):
        return 1

    def sphere_element(self, t, rank):
        """t, then q - t (one residue when they agree, 0 at t = 0)."""
        return (t, self.spec.order - t)[rank] % self.spec.order


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
        coords = np.array(elements, dtype=np.int32).reshape(len(elements), self.spec.dim).T

        def dist(i, j):
            d = np.abs(coords[0, i] - coords[0, j])
            for col in coords[1:]:
                d += np.abs(col[i] - col[j])
            return d

        return dist

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

    @functools.lru_cache(maxsize=64)  # by (oracle, radius); each make_oracle call is a new key
    def _sphere_tables(self, horizon):
        """The sphere counts of Z^k for k = 0 .. dim, to `horizon`."""
        out = [[1] + [0] * horizon]
        for _ in range(self.spec.dim):
            out.append(_convolve(out[-1], [1] + [2] * horizon, horizon))
        return out

    def sphere_sizes(self, horizon):
        return list(self._sphere_tables(horizon)[-1])

    def exact_growth_rate(self):
        return 1

    def sphere_element(self, t, rank):
        """Coordinates in lexicographic order, each value skipping the
        points of the l1 sphere of the coordinates after it that the
        smaller values complete."""
        out = []
        for n in self._sphere_tables(t)[-2::-1]:
            x = -t
            while rank >= n[t - abs(x)]:
                rank, x = rank - n[t - abs(x)], x + 1
            out.append(x)
            t -= abs(x)
        return tuple(out)


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
        ids = [p.identity for p in self.parts]
        return [
            (f"{i}:{lab}", tuple(ids[:i] + [g] + ids[i + 1 :]))
            for i, p in enumerate(self.parts)
            for lab, g in p.gen_pairs()
        ]

    @functools.lru_cache(maxsize=64)  # by (oracle, radius); each make_oracle call is a new key
    def _sphere_tables(self, horizon):
        """(sphere counts of part i, of the product of the parts after it)
        for each part i, to `horizon`."""
        tail, out = [1] + [0] * horizon, []
        for part in reversed(self.parts):
            out.append((part.sphere_sizes(horizon), tail))
            tail = _convolve(out[-1][0], tail, horizon)
        return out[::-1]

    def sphere_sizes(self, horizon):
        return _convolve(*self._sphere_tables(horizon)[0], horizon)

    def is_finite(self):
        return all(p.is_finite() for p in self.parts)

    def exact_growth_rate(self):
        rates = [p.exact_growth_rate() for p in self.parts]
        if any(r is None for r in rates):
            return None
        return max(rates)

    def sphere_element(self, t, rank):
        """The first part's length t0 rising, then its sphere rank, then
        the other parts' element of length t - t0: mixed radix over the
        parts' sphere counts (the last part takes all of what is left)."""
        out = []
        for part, (spheres, tail) in zip(self.parts, self._sphere_tables(t)):
            t0 = 0
            while rank >= (n := spheres[t0] * tail[t - t0]):
                rank, t0 = rank - n, t0 + 1
            r0, rank = divmod(rank, tail[t - t0])
            out.append(part.sphere_element(t0, r0))
            t -= t0
        return tuple(out)


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
        return [(f"{i}:{lab}", ((i, g),)) for i, p in enumerate(self.parts) for lab, g in p.gen_pairs()]

    @functools.lru_cache(maxsize=64)  # by (oracle, radius); each make_oracle call is a new key
    def _sphere_tables(self, horizon):
        """(s, b, u), to `horizon`: s[i][l], factor i's sphere counts;
        b[i][m], the normal forms of length m that start in no syllable of
        factor i (the identity at m = 0); and u[m], all of length m, those
        that start with a syllable of factor i of length l summing to
        s[i][l] * b[i][m - l]."""
        s = [p.sphere_sizes(horizon) for p in self.parts]
        b, u = [[1] for _ in s], [1]
        for n in range(1, horizon + 1):
            a = [sum(s_i[l] * b_i[n - l] for l in range(1, n + 1)) for s_i, b_i in zip(s, b)]
            u.append(sum(a))
            for a_i, b_i in zip(a, b):
                b_i.append(u[n] - a_i)
        return s, b, u

    def sphere_sizes(self, horizon):
        return list(self._sphere_tables(horizon)[2])

    def exact_growth_rate(self):
        return None

    def sphere_element(self, t, rank):
        """Syllable by syllable: its factor i, its length l and its factor
        sphere rank, then the rest, a normal form of length t - l that
        starts in another factor (b[i][t - l] of them)."""
        s, b, _ = self._sphere_tables(t)
        out, last = [], None
        while t:
            for i, l in ((i, l) for i in range(len(s)) if i != last for l in range(1, t + 1)):
                if rank < (n := s[i][l] * b[i][t - l]):
                    break
                rank -= n
            r, rank = divmod(rank, b[i][t - l])
            out.append((i, self.parts[i].sphere_element(l, r)))
            t, last = t - l, i
        return tuple(out)


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


# Balls and growth ---------------------------------------------------------


def ragged(counts, dtype=np.int64) -> tuple:
    """(owner, rank): every pair (i, r) with 0 <= r < counts[i], by i then
    r, as two arrays of `dtype`; `counts` is an integer array."""
    owner = np.repeat(np.arange(len(counts), dtype=dtype), counts)
    rank = np.arange(len(owner), dtype=dtype)
    rank -= np.repeat((np.cumsum(counts) - counts).astype(dtype), counts)
    return owner, rank


class Ball:
    """The elements within `radius` of the identity as a BFS tree, indexed
    in (distance, sort_key) order, so a smaller ball is an index prefix.

    For the element of index i, `dist[i]` is its distance, `parent[i]` the
    index of an element one step closer to the identity (0 for the
    identity itself), `gen[i]` the column g, in `oracle.gen_pairs()`
    order, with elements[parent[i]] * g = elements[i] (-1 for the
    identity), and `step[i, g]` the index of elements[i] * g, -1 outside
    the ball; `inverse[g]` is the column of g's inverse.  The arrays are
    int32 and read-only.  `volumes[r]` is the size of the radius-r prefix.
    The element tuples, their `index` and their `words` are built on first
    use; `word_list` builds the words without keeping them.  Iterating
    gives `enumerate_ball`'s (element, distance) pairs.
    """

    def __init__(self, oracle: Oracle, radius: int, dist, parent, gen, step, elements=None):
        self.oracle, self.radius = oracle, radius
        self.dist, self.parent, self.gen, self.step = dist, parent, gen, step
        for a in (dist, parent, gen, step):
            a.flags.writeable = False
        if elements is not None:
            self.__dict__["elements"] = elements  # the cached_property's value
        gens = [g for _, g in oracle.gen_pairs()]
        self.inverse = np.array([gens.index(oracle.inverse(g)) for g in gens])
        self.volumes = np.searchsorted(dist, np.arange(radius + 1), side="right").tolist()
        self._prefixes = {}

    def __len__(self):
        return len(self.dist)

    def __iter__(self):
        return zip(self.elements, self.dist.tolist())

    def prefix(self, radius: int) -> "Ball":
        """The ball of `radius` <= self.radius: its index prefix, with the
        steps that leave it set to -1; one object per radius."""
        if radius == self.radius:
            return self
        if radius not in self._prefixes:
            n = int(np.searchsorted(self.dist, radius, side="right"))
            step = np.where(self.step[:n] < n, self.step[:n], np.int32(-1))
            elements = self.__dict__.get("elements")
            self._prefixes[radius] = Ball(
                self.oracle, radius, self.dist[:n], self.parent[:n], self.gen[:n], step,
                None if elements is None else elements[:n],
            )
        return self._prefixes[radius]

    def _edges(self):
        """(parent, gen) of every element but the identity, as Python ints
        made one at a time (a memoryview, not a list of the whole ball)."""
        return zip(memoryview(self.parent[1:]), memoryview(self.gen[1:]))

    @functools.cached_property
    def elements(self) -> tuple:
        """The canonical forms, each its parent's times its last generator."""
        gens = [g for _, g in self.oracle.gen_pairs()]
        out = [self.oracle.identity]
        for p, g in self._edges():
            out.append(self.oracle.multiply(out[p], gens[g]))
        return tuple(out)

    @functools.cached_property
    def index(self) -> dict:
        return {el: i for i, el in enumerate(self.elements)}

    def word_list(self) -> list:
        """`oracle.word_str` of each element, as a new list.  A free group's
        reduced word is its parent's plus one letter, so those are built
        along the tree, without the element tuples."""
        orc = self.oracle
        if not isinstance(orc, FreeOracle):
            return [orc.word_str(el) for el in self.elements]
        letters, out = [orc.word_str(g) for _, g in orc.gen_pairs()], [""]
        for p, g in self._edges():
            out.append(out[p] + letters[g])
        out[0] = orc.word_str(orc.identity)
        return out

    # Kept for the artifacts that print words; the digests hash a new list.
    words = functools.cached_property(word_list)

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
            moved = self.step[at, self.inverse[self.gen[node[walk]]]]
            out[:, walk] = np.where(at >= 0, moved, -1)
            node = self.parent[node]
        return out

    def slices(self, other: "Ball", reach, cap: int, what: str, dtype=np.int64) -> tuple:
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

    def distance_matrix(self, count=None, cap: int = DEFAULT_ENUM_CAP) -> np.ndarray:
        """Pairwise word distances among the first `count` elements, as a
        table from `Oracle.distances`; the m^2 entries count against `cap`.
        Kept only because perfbench/layers.py times the traced name
        `product.FactorBall.distance_matrix`; it goes with that name."""
        m = len(self) if count is None else count
        if m * m > cap:
            raise ResourceCapError("distance table", cap)
        i = np.arange(m)
        return self.oracle.distances(self.elements, cap)(i[:, None], i[None, :])


def _free_ball(oracle: FreeOracle, radius: int) -> Ball:
    """`ball` of a free group in closed form, level by level: the words of
    length m + 1 are those of length m, in order, each followed by every
    letter but the inverse of its last one, in the letters' order -k < ...
    < -1 < 1 < ... < k, which is the order of `sort_key`."""
    letters = [g[0] for _, g in oracle.gen_pairs()]
    cols = np.argsort(letters).astype(np.int32)
    inverse = np.array([letters.index(-x) for x in letters] + [-1])  # [-1]: the identity's
    parent, gen = [np.zeros(1, dtype=np.int32)], [np.full(1, -1, dtype=np.int32)]
    lo = 0
    for _ in range(radius):
        keep = cols[None, :] != inverse[gen[-1]][:, None]
        rows, _ = np.nonzero(keep)
        parent.append((rows + lo).astype(np.int32))
        gen.append(np.broadcast_to(cols, keep.shape)[keep])
        lo += len(keep)
    sizes = [len(level) for level in parent]
    parent, gen = np.concatenate(parent), np.concatenate(gen)
    n = len(parent)
    step = np.full((n, len(letters)), -1, dtype=np.int32)
    step[parent[1:], gen[1:]] = np.arange(1, n, dtype=np.int32)
    step[np.arange(1, n), inverse[gen[1:]]] = parent[1:]
    dist = np.repeat(np.arange(radius + 1, dtype=np.int32), sizes)
    return Ball(oracle, radius, dist, parent, gen, step)


def _bfs_ball(oracle: Oracle, radius: int) -> Ball:
    """`ball` by BFS over canonical forms, which keeps every product el * g
    it computes as a step, then sorts each sphere by `sort_key`."""
    gens = [g for _, g in oracle.gen_pairs()]
    els, index = [oracle.identity], {oracle.identity: 0}
    parent, gen, dist, step = array("i", [0]), array("i", [-1]), array("i", [0]), array("i")
    for i, el in enumerate(els):  # els grows while it is read: the BFS queue
        for g, x in enumerate(gens):
            nb = oracle.multiply(el, x)
            j = index.get(nb)
            if j is None and dist[i] < radius:
                j = index[nb] = len(els)
                els.append(nb)
                parent.append(i)
                gen.append(g)
                dist.append(dist[i] + 1)
            step.append(-1 if j is None else j)
    del index
    order = np.array(sorted(range(len(els)), key=lambda i: (dist[i], oracle.sort_key(els[i]))))
    rank = np.full(len(els) + 1, -1, dtype=np.int32)  # rank[-1] = -1 keeps a missing step
    rank[order] = np.arange(len(els))
    return Ball(
        oracle,
        radius,
        np.asarray(dist)[order],
        rank[np.asarray(parent)[order]],
        np.asarray(gen)[order],
        rank[np.asarray(step).reshape(len(els), len(gens))[order]],
        tuple(els[i] for i in order.tolist()),
    )


# Group spec -> the largest ball of that group built so far in this
# process, of which every smaller ball is a prefix.
_BALLS = {}


def ball(oracle: Oracle, radius: int, cap: int = DEFAULT_ENUM_CAP) -> Ball:
    """All elements within `radius` of the identity, as a read-only `Ball`.

    The cap is checked on every call against the exact sphere counts,
    before anything is built: ResourceCapError exactly when the ball has
    more than `cap` elements.  The largest ball asked for so far is kept
    per group spec for the rest of the process; a smaller radius is served
    as its prefix, a larger one is built again and replaces it.
    """
    if radius < 0:
        raise InputError("ball radius must be >= 0")
    if sum(oracle.sphere_sizes(radius)) > cap:
        raise ResourceCapError("ball enumeration", cap)
    kept = _BALLS.get(oracle.spec)
    if kept is None or kept.radius < radius:
        build = _free_ball if isinstance(oracle, FreeOracle) else _bfs_ball
        kept = _BALLS[oracle.spec] = build(oracle, radius)
    return kept.prefix(radius)


def enumerate_ball(oracle: Oracle, radius: int, cap: int = DEFAULT_ENUM_CAP):
    """The (element, distance) pairs of `ball` by plain BFS, sorted by
    (distance, sort_key), without the memo: the reference for `Ball`.  It
    runs sphere by sphere, each sorted as it is made.  A neighbour of the
    sphere at d lies at d - 1, d or d + 1, so only the last two spheres are
    kept as sets."""
    gens = [g for _, g in oracle.gen_pairs()]
    out, inner, sphere = [(oracle.identity, 0)], set(), {oracle.identity}
    for d in range(1, radius + 1):
        outer = set()
        for el in sphere:
            for g in gens:
                nb = oracle.multiply(el, g)
                if nb not in inner and nb not in sphere and nb not in outer:
                    outer.add(nb)
                    if len(out) + len(outer) > cap:
                        raise ResourceCapError("ball enumeration", cap)
        out.extend((el, d) for el in sorted(outer, key=oracle.sort_key))
        inner, sphere = sphere, outer
    return out


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

    def _at(self, table: list, n: int) -> int:
        """table[n], 0 below radius 0; past the horizon, an InputError."""
        if n < 0:
            return 0
        if n > self.horizon:
            raise InputError(f"growth horizon too short: need radius {n}, have {self.horizon}")
        return table[n]

    def volume(self, n: int) -> int:
        return self._at(self.volumes, n)

    def sphere(self, n: int) -> int:
        return self._at(self.spheres, n)

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
    return np.bincount(ball(oracle, horizon, cap).dist, minlength=horizon + 1).tolist()


def generator_bound(*oracles) -> int:
    """M with v_{k+1} <= M v_k for every given group: max generator count + 1."""
    return max(len(o.gen_pairs()) for o in oracles) + 1
