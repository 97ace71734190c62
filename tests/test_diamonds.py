import math
from fractions import Fraction

import pytest

from horolab.diamonds import (
    SandwichRow,
    corner_count,
    diamond_members,
    diamond_volume,
    growth_dominance,
    in_diamond,
    sandwich_check,
)
from horolab.errors import InputError
from horolab.groups import GroupSpec, ball, growth_series, make_oracle
from horolab.horoboundary import ProductHorofunction, horofunction_from_ray
from horolab.product import FactorBall, ProductMetric, ProductSpace
from horolab.schedule import build_schedule, linear_schedule, schedule_for

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
        assert dv == len(members) == len(set(members))
    assert diamond_volume(sched, 2) == 33
    assert diamond_volume(sched, 0) == 1


def test_volume_identity_lattice(lattice):
    m, lsched = lattice
    for n in range(4):
        dv = diamond_volume(lsched, n)
        members = diamond_members(m, lsched, n, m.origin)
        assert dv == len(members)
    # f = identity makes diamonds perfect l1 balls: 2n^2 + 2n + 1
    assert diamond_volume(lsched, 2) == 13


def test_far_center_misses_window(sched, metric):
    o1 = metric.first
    far = (o1.canon(["a"] * 9), metric.second.identity)
    sp = ProductSpace(metric, 2)
    assert not any(in_diamond(metric, sched, 2, far, sp.element(i)) for i in range(len(sp)))


def test_translation_invariance(sched, metric):
    # |D_n(x) ^ xW| does not depend on the center x
    sp = ProductSpace(metric, 3)
    window = [sp.element(i) for i in range(len(sp))]
    base = sum(in_diamond(metric, sched, 2, metric.origin, w) for w in window)
    for labels in (["a"], ["b", "a"], ["A", "b"]):
        g = (metric.first.canon(labels), metric.second.canon(labels[::-1]))
        got = sum(in_diamond(metric, sched, 2, g, metric.multiply(g, w)) for w in window)
        assert got == base


@pytest.mark.parametrize(
    "first, c, n_values",
    [(F2, 1, range(4)), (GroupSpec("integer_lattice", dim=2), "1/2", range(5))],
    ids=["f2xf2-lemma", "z2xf2-linear-half"],
)
def test_diamond_reach_agrees_with_in_diamond(first, c, n_values):
    sched = schedule_for(first, F2, c, 8)
    assert sched.source == ("lemma" if first == F2 else "linear")
    m = ProductMetric(make_oracle(first), make_oracle(F2), c)
    for n in n_values:
        reach = sched.diamond_reach(n)
        assert len(reach) == sched.r[n] + 1
        b1 = FactorBall(m.first, sched.r[n] + 1)
        b2 = FactorBall(m.second, int(reach.max()) + 1)
        for u, d1 in zip(b1.elements, b1.dist.tolist()):
            for w, d2 in zip(b2.elements, b2.dist.tolist()):
                inside = d1 < len(reach) and d2 <= reach[d1]
                assert in_diamond(m, sched, n, m.origin, (u, w)) == inside


def test_in_diamond_matches_enumeration(sched, metric):
    members = set(diamond_members(metric, sched, 1, metric.origin))
    sp = ProductSpace(metric, 2)
    for i in range(len(sp)):
        y = sp.element(i)
        assert in_diamond(metric, sched, 1, metric.origin, y) == (y in members)


def corner_count_bruteforce(metric: ProductMetric, schedule, n: int, T: int) -> int:
    """Oracle for corner_count: enumerate candidate centers and test clauses."""
    r_n, rp_n = schedule.r[n], schedule.r_prime[n]
    b1 = ball(metric.first, max(r_n + T - 1, T - 1, 0))
    b2 = ball(metric.second, max(rp_n + T - 1, T - 1, 0))
    count = 0
    for _, d1 in b1:
        for _, d2 in b2:
            if (d1 < r_n + T and d2 < T) or (d2 < rp_n + T and d1 < T):
                count += 1
    return count


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


def _lattice_horofunction(m):
    return horofunction_from_ray(m.first, ["X"])


def test_sandwich_lattice_exact(lattice):
    m, lsched = lattice
    win = ProductSpace(m, 5)
    h = _lattice_horofunction(m)
    hz = ProductHorofunction(h, h, Fraction(1))
    centers = []
    for n in range(20, 27):
        N = (lsched.r[n] + 2) // 2 + 1
        centers.append((n, ((-N,), (-N,))))
    rep = sandwich_check(win, lsched, h, h, centers)
    assert rep.first_sandwiched_n == 20
    pts = [win.element(i) for i in range(len(win))]
    for r in rep.rows:
        assert r.lower_ok
        assert not r.vacuous
        # half-plane geometry: members are exactly the horoball members
        assert r.members_in_window == sum(1 for p in pts if hz.value(p) <= r.delta)


def test_sandwich_vacuous_flag(lattice):
    m, lsched = lattice
    h = _lattice_horofunction(m)
    rep = sandwich_check(ProductSpace(m, 3), lsched, h, h, [(4, ((-20,), (-20,)))])
    assert rep.rows[0].vacuous
    assert rep.first_sandwiched_n is None


def test_sandwich_center_distance_guard(lattice):
    m, lsched = lattice
    h = _lattice_horofunction(m)
    with pytest.raises(InputError):
        sandwich_check(ProductSpace(m, 3), lsched, h, h, [(6, ((-4,), (-4,)))])


def test_sandwich_empty_window_error(lattice):
    m, lsched = lattice
    h = _lattice_horofunction(m)
    empty = ProductSpace(m, 5)  # every ball holds its center: empty it by hand
    empty.pts1 = empty.pts2 = empty.rho_num = empty.pts1[:0]
    with pytest.raises(InputError):
        sandwich_check(empty, lsched, h, h, [])


def _reference_rows(space, schedule, h1, h2, centers) -> list:
    """The sandwich rows point by point, from the definitions: `in_diamond`
    for membership and `ProductHorofunction.value` for theta''."""
    m = space.metric
    hh = ProductHorofunction(h1, h2, m.c)
    pts = [space.element(i) for i in range(len(space))]
    values = [hh.value(y) for y in pts]
    rows = []
    for n, center in centers:
        inside = [in_diamond(m, schedule, n, center, y) for y in pts]
        if not any(inside):
            rows.append(SandwichRow(n, schedule.r[n], 0, None, True, 0, True))
            continue
        delta = max(v for v, a in zip(values, inside) if a)
        lower = sum(1 for v, a in zip(values, inside) if v <= delta - 2 / m.c and not a)
        rows.append(SandwichRow(n, schedule.r[n], sum(inside), delta, lower == 0, lower, False))
    return rows


def _lattice_case(c):
    o = make_oracle(Z1)
    g = growth_series(Z1, 40)
    m = ProductMetric(o, o, c)
    sched = linear_schedule(c, 30, growth=g, growth2=g)
    space = ProductSpace(m, 3)
    reach = 6 * max(1, math.ceil(c))  # 2 x the window's rho radius, in either factor
    centers = []
    for n in range(10, 31, 4):
        for s1, s2 in ((-1, -1), (-1, 1), (1, -1)):
            centers.append((n, ((s1 * (reach + n % 3),), (s2 * (reach + n % 2),))))
    rays = (["X"], ["X"]), (["x"], ["X"]), (["x"], ["x"])
    return space, sched, centers, [tuple(horofunction_from_ray(o, r) for r in pair) for pair in rays]


def _free_case():
    o1, o2 = make_oracle(F2), make_oracle(F2)
    g = growth_series(F2, 14)
    sched = build_schedule(g, g, 1, 12)
    space = ProductSpace(ProductMetric(o1, o2, 1), 2)
    centers = []
    for n in range(5, 13):
        M = 4 + n % 2
        centers.append((n, (o1.canon(["A"] * M), o2.canon(["A"] * 4))))
        centers.append((n, (o1.canon(["A"] * 4), o2.canon(["b"] * M))))
    rays = (["A"], ["A"]), (["a"], ["A"]), (["a"], ["B"])
    horos = [(horofunction_from_ray(o1, r1), horofunction_from_ray(o2, r2)) for r1, r2 in rays]
    return space, sched, centers, horos


@pytest.mark.parametrize(
    "case",
    [
        lambda: _lattice_case(Fraction(1)),
        lambda: _lattice_case(Fraction(1, 2)),
        lambda: _lattice_case(Fraction(2)),
        _free_case,
    ],
    ids=["zxz-c1", "zxz-c1/2", "zxz-c2", "f2xf2-c1"],
)
def test_sandwich_rows_match_the_pointwise_definition(case):
    space, sched, centers, horos = case()
    lower = 0
    for h1, h2 in horos:
        rep = sandwich_check(space, sched, h1, h2, centers)
        assert rep.rows == _reference_rows(space, sched, h1, h2, centers)
        lower += sum(r.lower_violations for r in rep.rows)
        assert any(not r.vacuous for r in rep.rows)
    # The reversed rays put points of low theta'' outside the diamonds.
    assert lower > 0
