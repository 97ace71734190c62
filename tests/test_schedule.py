import json
from fractions import Fraction

import pytest

from horolab import cli
from horolab.errors import InputError, InvariantViolation
from horolab.groups import GroupSpec, GrowthSeries, growth_series
from horolab.schedule import build_schedule, linear_schedule, ratio_within_bounds

F2 = GroupSpec("free", rank=2)
F3 = GroupSpec("free", rank=3)
Z1 = GroupSpec("integer_lattice", dim=1)


@pytest.fixture(scope="module")
def sched_f2():
    g = growth_series(F2, 14)
    return build_schedule(g, g, 1, 12)


def test_identical_groups_table(sched_f2):
    assert sched_f2.f[:6] == [0, 0, 2, 2, 4, 4]
    assert sched_f2.r == list(range(13))
    assert sched_f2.f[0] == 0
    assert sched_f2.g[3] == Fraction(5, 2)


def test_breakpoint_ratio_sides(sched_f2):
    ratios = sched_f2.breakpoint_ratios()
    for j, ratio in enumerate(ratios):
        if j == 0:
            continue
        if j % 2 == 1:
            assert ratio <= 1
        else:
            assert ratio >= 1
    # identical groups: even breakpoints balance exactly
    assert all(r == 1 for r in ratios[2::2])


def test_ratio_bounds(sched_f2):
    M = sched_f2.M
    assert M == 5
    for ratio in sched_f2.breakpoint_ratios():
        assert ratio_within_bounds(ratio, M, sched_f2.c)
    assert min(sched_f2.breakpoint_ratios()) == Fraction(1, 5)


def test_segment_slopes_sequence(sched_f2):
    slopes = [s.slope for s in sched_f2.segments]
    expected = []
    n = 0
    while len(expected) < len(slopes):
        expected.append(Fraction(1) - Fraction(1, n + 1))
        expected.append(Fraction(1) + Fraction(1, n + 1))
        n += 1
    assert slopes == expected[: len(slopes)]


def test_floor_consistency(sched_f2):
    for ft, gt in zip(sched_f2.f, sched_f2.g):
        assert ft == gt.numerator // gt.denominator
        assert 0 <= gt - ft < 1


def test_almost_linear(sched_f2):
    rep = sched_f2.verify_almost_linear(5)
    assert rep.all_hold()
    for row in rep.rows:
        assert row.n_of_m == 0
    trivially = sched_f2.verify_almost_linear(0)
    assert trivially.rows[0].n_of_m == 0


def test_linear_schedule_is_floor():
    g = growth_series(F2, 10)
    s = linear_schedule(Fraction(3, 2), 10, growth=g, growth2=g)
    assert s.f == [(3 * t) // 2 for t in range(11)]
    rep = s.verify_almost_linear(4)
    assert rep.all_hold()


def test_asymmetric_groups_build():
    g1 = growth_series(F2, 14)
    g2 = growth_series(F3, 30)
    sched = build_schedule(g1, g2, Fraction(2, 3), 12)
    sched.check_invariants()
    assert sched.f[0] == 0
    assert all(b > a for a, b in zip(sched.r, sched.r[1:]))
    ratios = sched.breakpoint_ratios()
    for j in range(1, len(ratios)):
        assert (ratios[j] <= 1) if j % 2 else (ratios[j] >= 1)


def test_truncation_mid_segment():
    g1 = growth_series(F2, 16)
    g2 = growth_series(F3, 34)
    full = build_schedule(g1, g2, Fraction(2, 3), 6)
    assert not full.truncated
    cut = build_schedule(g1, g2, Fraction(2, 3), 5)
    assert cut.truncated
    # valid up to the last completed breakpoint, f still filled to horizon
    assert cut.r == full.r[: len(cut.r)]
    assert len(cut.f) == 6
    cut.check_invariants()


def test_segment_cap_divergence():
    # synthetic ratio that never re-crosses 1: v = 4^n against v' = 2^n
    va = [4**n for n in range(10)]
    vb = [2**n for n in range(20)]
    ga = GrowthSeries(F2, va, [va[0]] + [va[i] - va[i - 1] for i in range(1, 10)], "synthetic")
    gb = GrowthSeries(F2, vb, [vb[0]] + [vb[i] - vb[i - 1] for i in range(1, 20)], "synthetic")
    with pytest.raises(InvariantViolation):
        build_schedule(ga, gb, 1, 9, segment_cap=4)


@pytest.mark.parametrize(
    "spec",
    [
        Z1,
        GroupSpec("integer_lattice", dim=2),
        GroupSpec("cyclic", order=5),
        GroupSpec("free", rank=1),
        GroupSpec("direct_product", factors=(Z1, GroupSpec("cyclic", order=3))),
    ],
    ids=["Z", "Z2", "C5", "F1", "ZxC3"],
)
def test_refuses_an_amenable_factor_whatever_its_eps(spec):
    # eps_nonamen is positive for every infinite group up to a horizon, so
    # the refusal reads the spec.
    g, ga = growth_series(F2, 24), growth_series(spec, 12)
    for first, second in ((ga, g), (g, ga)):
        with pytest.raises(InputError, match="requires nonamenable factors"):
            build_schedule(first, second, 1, 10)


def test_growth_horizon_guard():
    g = growth_series(F2, 6)
    with pytest.raises(InputError):
        build_schedule(g, g, 1, 12)
    g2short = growth_series(F2, 12)
    with pytest.raises(InputError):
        build_schedule(g2short, growth_series(F2, 5), 2, 12)


def test_f_of_bounds(sched_f2):
    assert sched_f2.f_of(0) == 0
    with pytest.raises(InputError):
        sched_f2.f_of(13)
    with pytest.raises(InputError):
        sched_f2.f_of(-1)


def test_dump_roundtrip(tmp_path, sched_f2):
    # The defaults' schedule: F2 x F2, c = 1, horizon 12, by the lemma.
    assert cli.main(["schedule", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "schedule.csv").read_text().splitlines()[0]
    assert header == "n,f_n,g_n,segment_index,slope"
    blob = (tmp_path / "breakpoints.json").read_text()
    assert '"r"' in blob and '"segments"' in blob
    assert json.loads(blob) == sched_f2.breakpoints()
