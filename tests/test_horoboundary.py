from fractions import Fraction

import pytest

from horolab.errors import InputError, WindowExhaustedError
from horolab.groups import GroupSpec, ball, make_oracle
from horolab.horoboundary import (
    GeodesicRay,
    Horofunction,
    ProductHorofunction,
    horofunction_from_ray,
    spell,
)

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)
Z2 = GroupSpec("integer_lattice", dim=2)


@pytest.fixture(scope="module")
def o():
    return make_oracle(F2)


@pytest.fixture(scope="module")
def win3(o):
    return [el for el, _ in ball(o, 3)]


def test_spell_gives_geodesic_words(o):
    for labels in (["a", "b", "A"], ["b", "B"], ["a"] * 4, []):
        el = o.canon(labels)
        w = spell(o, el)
        assert o.canon(w) == el
        assert len(w) == o.length(el)


def test_ray_values_f2(o, win3):
    h = horofunction_from_ray(o, ["a"], win3)
    assert h.value(o.canon(["a"])) == -1
    assert h.value(o.canon(["b"])) == 1
    assert h.value(o.identity) == 0
    h.check_normalized()
    h.check_lipschitz(exhaustive=True)


def test_ray_values_stable_under_longer_prefix(o, win3):
    h1 = horofunction_from_ray(o, ["a"], win3)
    h2 = horofunction_from_ray(o, ["a"] * 7, win3)
    for el in win3:
        assert h1.value(el) == h2.value(el)


def test_non_geodesic_ray_rejected(o, win3):
    with pytest.raises(InputError):
        horofunction_from_ray(o, ["a", "A"], win3)


def test_descend_examples(o, win3):
    h = horofunction_from_ray(o, ["a"], win3)
    assert h.descend(o.identity) == o.canon(["a"])
    assert h.descend(o.canon(["b"])) == o.identity
    oz = make_oracle(Z1)
    hz = horofunction_from_ray(oz, ["x"], [el for el, _ in ball(oz, 7)])
    assert hz.descend((5,)) == (6,)


def test_descend_window_exhausted(o, win3):
    h = horofunction_from_ray(o, ["a"], win3)
    deep = o.canon(["a", "a", "a"])
    with pytest.raises(WindowExhaustedError):
        h.descend(deep)


def test_descent_path_decrements(o):
    win = [el for el, _ in ball(o, 4)]
    h = horofunction_from_ray(o, ["a"], win)
    path = [o.canon(["b", "a"])]
    with pytest.raises(WindowExhaustedError):
        for _ in range(len(win)):
            path.append(h.descend(path[-1]))
    vals = [h.value(p) for p in path]
    assert vals == list(range(vals[0], vals[0] - len(vals), -1))
    assert len(path) > 2 and all(p in h.window for p in path)


def test_product_horofunction(o, win3):
    o2 = make_oracle(F2)
    h1 = horofunction_from_ray(o, ["a"], win3)
    h2 = horofunction_from_ray(o2, ["b"], [el for el, _ in ball(o2, 3)])
    hh = ProductHorofunction(h1, h2, Fraction(2))
    assert hh.value((o.identity, o2.identity)) == 0
    y = (o.canon(["a"]), o2.canon(["B"]))
    assert hh.value(y) == -1 + Fraction(1, 2)
    with pytest.raises(InputError):
        hh.value((o.canon(["a"] * 9), o2.identity))


def test_product_is_rho_lipschitz(o, win3):
    o2 = make_oracle(F2)
    h1 = horofunction_from_ray(o, ["a"], win3)
    h2 = horofunction_from_ray(o2, ["a"], win3)
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
def test_windowless_matches_windowed(spec, labels):
    o = make_oracle(spec)
    win = [el for el, _ in ball(o, 3)]
    windowed = horofunction_from_ray(o, labels, win)
    windowless = Horofunction(o, windowed.ray)
    interior = {el for el, d in ball(o, 2)}
    for el in win:
        assert windowless.value(el) == windowed.value(el)
        assert windowless.contains(el) and windowed.contains(el)
        if el in interior:
            assert windowless.descend(el) == windowed.descend(el)
    assert not windowed.contains(o.canon(labels * 4))
    assert windowless.contains(o.canon(labels * 4))
