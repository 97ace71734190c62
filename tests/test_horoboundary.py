from fractions import Fraction

import numpy as np
import pytest

from horolab.errors import InputError, InvariantViolation
from horolab.groups import GroupSpec, ball, make_oracle
from horolab.horoboundary import (
    FreeRaySteps,
    GeodesicRay,
    Horofunction,
    ProductHorofunction,
    horofunction_from_ray,
    spell,
)
from horolab.product import FactorBall

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)
Z2 = GroupSpec("integer_lattice", dim=2)


@pytest.fixture(scope="module")
def o():
    return make_oracle(F2)


@pytest.fixture(scope="module")
def win3(o):
    return [el for el, _ in ball(o, 3)]


def check_normalized(h):
    if h.value(h.oracle.identity) != 0:
        raise InvariantViolation("horofunction does not vanish at the origin")


def check_lipschitz(h, points, exhaustive: bool = False):
    """Edge check among `points` by default; full pairwise check when
    exhaustive."""
    pts = list(points)
    among = set(pts)
    for x in pts:
        for nb in h.oracle.neighbors(x):
            if nb in among and abs(h.value(x) - h.value(nb)) > 1:
                raise InvariantViolation("horofunction not 1-Lipschitz on an edge")
    if exhaustive:
        for i, x in enumerate(pts):
            for y in pts[i + 1 :]:
                if abs(h.value(x) - h.value(y)) > h.oracle.distance(x, y):
                    raise InvariantViolation("horofunction not 1-Lipschitz")


def test_spell_gives_geodesic_words(o):
    for labels in (["a", "b", "A"], ["b", "B"], ["a"] * 4, []):
        el = o.canon(labels)
        w = spell(o, el)
        assert o.canon(w) == el
        assert len(w) == o.length(el)


def test_ray_values_f2(o, win3):
    h = horofunction_from_ray(o, ["a"])
    assert h.value(o.canon(["a"])) == -1
    assert h.value(o.canon(["b"])) == 1
    assert h.value(o.identity) == 0
    check_normalized(h)
    check_lipschitz(h, win3, exhaustive=True)


def test_ray_values_stable_under_longer_prefix(o, win3):
    h1 = horofunction_from_ray(o, ["a"])
    h2 = horofunction_from_ray(o, ["a"] * 7)
    for el in win3:
        assert h1.value(el) == h2.value(el)


def test_non_geodesic_ray_rejected(o):
    with pytest.raises(InputError):
        horofunction_from_ray(o, ["a", "A"])


def test_descend_examples(o):
    h = horofunction_from_ray(o, ["a"])
    assert h.descend(o.identity) == o.canon(["a"])
    assert h.descend(o.canon(["b"])) == o.identity
    oz = make_oracle(Z1)
    hz = horofunction_from_ray(oz, ["x"])
    assert hz.descend((5,)) == (6,)


def test_descend_with_no_descending_neighbor_is_an_invariant_violation(o):
    h = horofunction_from_ray(o, ["a"])
    h.value = lambda x: 0  # constant: not a horofunction
    with pytest.raises(InvariantViolation):
        h.descend(o.identity)


def test_descent_path_decrements(o):
    h = horofunction_from_ray(o, ["a"])
    path = [o.canon(["b", "a"])]
    for _ in range(6):
        path.append(h.descend(path[-1]))
    vals = [h.value(p) for p in path]
    assert vals == list(range(vals[0], vals[0] - len(vals), -1))
    # Off the ray, descent first walks back to it, then along it.
    assert path[:4] == [o.canon(w) for w in (["b", "a"], ["b"], [], ["a"])]


def test_product_horofunction(o):
    o2 = make_oracle(F2)
    h1 = horofunction_from_ray(o, ["a"])
    h2 = horofunction_from_ray(o2, ["b"])
    hh = ProductHorofunction(h1, h2, Fraction(2))
    assert hh.value((o.identity, o2.identity)) == 0
    y = (o.canon(["a"]), o2.canon(["B"]))
    assert hh.value(y) == -1 + Fraction(1, 2)
    assert hh.value((o.canon(["a"] * 9), o2.identity)) == -9


def test_product_is_rho_lipschitz(o, win3):
    o2 = make_oracle(F2)
    h1 = horofunction_from_ray(o, ["a"])
    h2 = horofunction_from_ray(o2, ["a"])
    hh = ProductHorofunction(h1, h2, Fraction(1))
    pts = [(x, y) for x in win3[:9] for y in win3[:9]]
    for i, p in enumerate(pts[:40]):
        for q in pts[i + 1 : i + 9]:
            d = o.distance(p[0], q[0]) + o2.distance(p[1], q[1])
            assert abs(hh.value(p) - hh.value(q)) <= d


def test_ray_through_free_and_lattice():
    o = make_oracle(F2)
    ray = GeodesicRay.through(o, o.canon(["a", "b"]))
    assert o.length(ray.point(6)) == 6
    oz = make_oracle(Z2)
    rayz = GeodesicRay.through(oz, (2, -1))
    assert oz.length(rayz.point(7)) == 7
    ray0 = GeodesicRay.through(o, o.identity)
    assert o.length(ray0.point(3)) == 3


def test_ray_through_free_product_wraps_cyclic():
    spec = GroupSpec(
        "free_product",
        factors=(GroupSpec("cyclic", order=2), GroupSpec("cyclic", order=3)),
    )
    op = make_oracle(spec)
    el = op.canon(["0:g"])
    ray = GeodesicRay.through(op, el)
    assert op.length(ray.point(8)) == 8


def test_no_ray_in_finite_group():
    oc = make_oracle(GroupSpec("cyclic", order=5))
    with pytest.raises(InputError):
        GeodesicRay.through(oc, 1)


def test_lazy_horofunction_descends_anywhere():
    o = make_oracle(F2)
    h = Horofunction(o, GeodesicRay(o, ["a"], ["a"]))
    far = o.canon(["b"] * 10)
    assert h.value(far) == 10
    path = [far]
    for _ in range(12):
        path.append(h.descend(path[-1]))
    assert h.value(path[-1]) == -2


@pytest.mark.parametrize("spec, labels", [(F2, ["a"]), (Z2, ["x"])])
def test_values_do_not_depend_on_the_probe_radius(spec, labels):
    o = make_oracle(spec)
    near = horofunction_from_ray(o, labels)
    far = Horofunction(o, near.ray, probe_radius=200)
    for el, _ in ball(o, 3):
        assert near.value(el) == far.value(el)
        assert near.descend(el) == far.descend(el)


@pytest.mark.parametrize(
    "spec, center_radius, radius",
    [(F2, 4, 5), (GroupSpec("free", rank=3), 2, 3)],
    ids=["f2", "f3"],
)
def test_free_ray_steps_are_the_horofunction_descent(spec, center_radius, radius):
    o = make_oracle(spec)
    b = FactorBall(o, radius)
    steps = FreeRaySteps(b)
    ys = np.arange(len(b))
    seen = {"on ray": 0, "past the center": 0, "off the ray": 0, "leaves the ball": 0}
    for ci in range(b.volume(center_radius)):  # the identity center first
        center = b.elements[ci]
        h = Horofunction(o, GeodesicRay.through(o, center), probe_radius=radius + 2)
        want = [b.index.get(h.descend(y), -1) for y in b.elements]
        assert steps(np.full(len(ys), ci), ys).tolist() == want
        for y, target in zip(b.elements, want):
            down = target >= 0 and len(b.elements[target]) > len(y)
            seen["on ray" if down else "off the ray"] += target >= 0
            seen["past the center"] += down and len(y) > len(center)
            seen["leaves the ball"] += target < 0
    assert min(seen.values()) > 0, seen
