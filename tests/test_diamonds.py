from fractions import Fraction

import pytest

from horolab.diamonds import (
    corner_count,
    corner_count_bruteforce,
    diamond_members,
    diamond_volume,
    growth_dominance,
    in_diamond,
    sandwich_check,
)
from horolab.errors import InputError
from horolab.groups import GroupSpec, ball, growth_series, make_oracle
from horolab.horoboundary import ProductHorofunction, horofunction_from_ray
from horolab.product import ProductMetric, ProductSpace
from horolab.schedule import build_schedule, linear_schedule

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)


@pytest.fixture(scope="module")
def sched():
    g = growth_series(F2, 14)
    return build_schedule(g, g, 1, 12)


@pytest.fixture(scope="module")
def metric():
    return ProductMetric(make_oracle(F2), make_oracle(F2), 1)


@pytest.fixture(scope="module")
def lattice():
    g = growth_series(Z1, 40)
    m = ProductMetric(make_oracle(Z1), make_oracle(Z1), 1)
    return m, linear_schedule(1, 30, growth=g, growth2=g)


def test_volume_identity(sched, metric):
    for n in range(5):
        dv = diamond_volume(sched, n)
        members = diamond_members(metric, sched, n, metric.origin)
        assert dv.total == len(members) == len(set(members))
    assert diamond_volume(sched, 2).total == 33
    assert diamond_volume(sched, 0).total == 1


def test_volume_identity_lattice(lattice):
    m, lsched = lattice
    for n in range(4):
        dv = diamond_volume(lsched, n)
        members = diamond_members(m, lsched, n, m.origin)
        assert dv.total == len(members)
    # f = identity makes diamonds perfect l1 balls: 2n^2 + 2n + 1
    assert diamond_volume(lsched, 2).total == 13


def test_members_window_intersection(sched, metric):
    sp = ProductSpace(metric, 3)
    window = [sp.element(i) for i in range(len(sp))]
    full = set(diamond_members(metric, sched, 2, metric.origin))
    clipped = diamond_members(metric, sched, 2, metric.origin, window=window)
    assert set(clipped) == full & set(window)


def test_far_center_misses_window(sched, metric):
    o1 = metric.first
    far = (o1.canon(["a"] * 9), metric.second.identity)
    sp = ProductSpace(metric, 2)
    window = [sp.element(i) for i in range(len(sp))]
    assert diamond_members(metric, sched, 2, far, window=window) == []


def test_translation_invariance(sched, metric):
    # |D_n(x) ^ xW| does not depend on the center x
    sp = ProductSpace(metric, 3)
    window = [sp.element(i) for i in range(len(sp))]
    base = len(diamond_members(metric, sched, 2, metric.origin, window=window))
    for labels in (["a"], ["b", "a"], ["A", "b"]):
        g = (metric.first.canon(labels), metric.second.canon(labels[::-1]))
        shifted = [metric.multiply(g, w) for w in window]
        got = len(diamond_members(metric, sched, 2, g, window=shifted))
        assert got == base


def test_in_diamond_matches_enumeration(sched, metric):
    members = set(diamond_members(metric, sched, 1, metric.origin))
    sp = ProductSpace(metric, 2)
    for i in range(len(sp)):
        y = sp.element(i)
        assert in_diamond(metric, sched, 1, metric.origin, y) == (y in members)


def test_corner_counts(sched, metric):
    assert corner_count(sched, 3, 0).count == 0
    for n, T in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        stats = corner_count(sched, n, T)
        assert stats.count == corner_count_bruteforce(metric, sched, n, T)
        assert stats.count <= stats.bound


def test_corner_ratio_positive_decay(sched):
    rows = [corner_count(sched, n, 1) for n in range(1, 9)]
    ratios = [float(r.ratio) for r in rows]
    assert all(r > 0 for r in ratios)
    assert ratios[6] < ratios[4] < ratios[2] < ratios[0]
    assert ratios[7] < ratios[5] < ratios[3]


def test_growth_dominance(sched):
    rows = growth_dominance(sched, range(1, 9))
    for r in rows:
        assert r.ratio >= r.lower_bound
    # identical groups: growth is at least linear in the breakpoint index
    assert float(rows[-1].ratio) / float(rows[0].ratio) >= len(rows) / 2


def test_sandwich_lattice_exact(lattice):
    m, lsched = lattice
    oz1, oz2 = m.first, m.second
    win = ProductSpace(m, 5)
    pts = [win.element(i) for i in range(len(win))]
    hz = ProductHorofunction(
        horofunction_from_ray(oz1, ["X"], [el for el, _ in ball(oz1, 6)]),
        horofunction_from_ray(oz2, ["X"], [el for el, _ in ball(oz2, 6)]),
        Fraction(1),
    )
    centers = []
    for n in range(20, 27):
        N = (lsched.r[n] + 2) // 2 + 1
        centers.append((n, ((-N,), (-N,))))
    rep = sandwich_check(m, lsched, hz, centers, pts)
    assert rep.first_sandwiched_n == 20
    for r in rep.rows:
        assert r.lower_ok and r.upper_ok
        assert not r.vacuous
        # half-plane geometry: members are exactly the horoball members
        assert r.members_in_window == sum(1 for p in pts if hz.value(p) <= r.delta)


def test_sandwich_vacuous_flag(lattice):
    m, lsched = lattice
    oz1, oz2 = m.first, m.second
    win = ProductSpace(m, 3)
    pts = [win.element(i) for i in range(len(win))]
    hz = ProductHorofunction(
        horofunction_from_ray(oz1, ["X"], [el for el, _ in ball(oz1, 4)]),
        horofunction_from_ray(oz2, ["X"], [el for el, _ in ball(oz2, 4)]),
        Fraction(1),
    )
    centers = [(4, ((-20,), (-20,)))]
    rep = sandwich_check(m, lsched, hz, centers, pts)
    assert rep.rows[0].vacuous
    assert rep.first_sandwiched_n is None


def test_sandwich_center_distance_guard(lattice):
    m, lsched = lattice
    oz1, oz2 = m.first, m.second
    win = ProductSpace(m, 3)
    pts = [win.element(i) for i in range(len(win))]
    hz = ProductHorofunction(
        horofunction_from_ray(oz1, ["X"], [el for el, _ in ball(oz1, 4)]),
        horofunction_from_ray(oz2, ["X"], [el for el, _ in ball(oz2, 4)]),
        Fraction(1),
    )
    with pytest.raises(InputError):
        sandwich_check(m, lsched, hz, [(6, ((-4,), (-4,)))], pts)


def test_sandwich_empty_window_error(lattice):
    m, lsched = lattice
    with pytest.raises(InputError):
        sandwich_check(m, lsched, None, [], [])
