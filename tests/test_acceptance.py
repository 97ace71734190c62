"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints its criterion's pass/fail line; heavyweight state (the
pinned run and its 200-seed graphing sweep) is shared through a
module-scoped context.
"""

import copy
import dataclasses
import os

import pytest

from horolab import acceptance, cli
from horolab.graphing import BaselineReport, BaselineRow, CostReport, SeedStats

THREADS = min(4, os.cpu_count() or 1)


@pytest.fixture(scope="module")
def sc():
    return acceptance.SuiteContext(master_seed=20260810, threads=THREADS)


def _check(result):
    print(result.line())
    assert result.passed, result.detail
    if result.runtime_limit is not None:
        assert result.elapsed < result.runtime_limit


def test_criterion_01_growth_oracles(sc):
    _check(acceptance.criterion_1_growth(sc))


def test_criterion_02_ball_decomposition(sc):
    _check(acceptance.criterion_2_slices(sc))


def test_criterion_03_schedule(sc):
    _check(acceptance.criterion_3_schedule(sc))


def test_criterion_04_diamond_volume(sc):
    _check(acceptance.criterion_4_diamond_volume(sc))


def test_criterion_05_corner_decay(sc):
    _check(acceptance.criterion_5_corner_decay(sc))


def test_criterion_06_sandwich(sc):
    _check(acceptance.criterion_6_sandwich(sc))


def test_criterion_07_pi1_forest(sc):
    _check(acceptance.criterion_7_pi1_forest(sc))


def test_criterion_08_touching_paths(sc):
    _check(acceptance.criterion_8_touching(sc))


def test_criterion_09_cost(sc):
    _check(acceptance.criterion_9_cost(sc))


def test_criterion_10_baseline(sc):
    _check(acceptance.criterion_10_baseline(sc))


def test_criterion_11_determinism(sc, capsys):
    _check(acceptance.criterion_11_determinism(sc))
    assert "artifacts written" not in capsys.readouterr().out


def test_criterion_01_times_a_cold_bfs_and_checks_the_memo(monkeypatch):
    # Criterion 1 reads nothing of the suite.  It enumerates cold even when
    # the memo already holds the ball, and fails when the memo's prefix
    # differs from the cold BFS: reversed, one element short (which a bare
    # `zip` would pass) or with two elements of one sphere swapped.
    cold = acceptance.enumerate_ball
    radii = []
    monkeypatch.setattr(acceptance, "enumerate_ball", lambda o, r: radii.append(r) or cold(o, r))
    assert acceptance.criterion_1_growth(None).passed
    assert radii == [8]
    for edit in (lambda p: p[::-1], lambda p: p[:-1], lambda p: [p[0], p[2], p[1], *p[3:]]):
        monkeypatch.setattr(acceptance, "ball", lambda o, r, edit=edit: edit(cold(o, r)))
        result = acceptance.criterion_1_growth(None)
        assert not result.passed
        assert "differs from the memo's prefix" in result.detail


def test_all_criteria_lists_the_module_functions_in_order():
    # The benchmark finds each criterion by `__name__` and rebinds every
    # reference to it, which needs the list entry to be the module global.
    names = [f.__name__ for f in acceptance.ALL_CRITERIA]
    assert [name.split("_")[:2] for name in names] == [
        ["criterion", str(i)] for i in range(1, 12)
    ]
    for f in acceptance.ALL_CRITERIA:
        assert f is getattr(acceptance, f.__name__)


# Offered runs ---------------------------------------------------------------


def _clean_report(seeds=200):
    """A CostReport that passes criteria 7 and 9."""
    return CostReport(
        seeds=seeds,
        eps=0.05,
        stages=[{"stage": "pi3", "half_degree_mean": 1.01, "half_degree_se": 0.01}],
        lambda_hat=0.5,
        pi5_bound_lhs=2.0,
        pi5_bound_rhs=3.0,
        pi5_violations=0,
        pi5_disconnected=0,
        boundary_deficit=0.5,
        kernel_truncation_mass=0.001,
        excluded_diamond_fraction=0.05,
        pi1_interior_violations=0,
        parallel_violations=0,
        monotone_violations=0,
        largest_fraction_by_eps={0.01: 0.006, 0.05: 0.007},
        runs=[SeedStats(seed=i, interior=30) for i in range(seeds)],
    )


def _clean_baseline(seeds=20):
    """A BaselineReport that passes criterion 10."""
    rows = [
        BaselineRow(e, f, 0.001, h, 0.01, h)
        for e, f, h in ((0.0, 0.010, 1.0), (0.05, 0.014, 1.01), (0.2, 0.021, 1.04))
    ]
    return BaselineReport(
        seeds=seeds, rows=rows, line_partition_ok=True, monotone_violations=0, truncation_mass=0.001
    )


@pytest.fixture
def no_sweep(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the suite ran a sweep of its own")

    for name in ("GraphingContext", "cost_report", "coset_line_baseline"):
        monkeypatch.setattr(cli, name, fail)


def _offered_suite(graphing_s=12.5, **changes):
    """A suite offered a run of the defaults changed by `changes`, whose
    sweeps are clean reports."""
    offered = cli.Run(cli._deep_merge(copy.deepcopy(cli.DEFAULTS), changes))
    offered.graphing = _clean_report(), graphing_s
    offered.prop13 = _clean_baseline(), 0.25
    return acceptance.SuiteContext(master_seed=20260810, offered=offered)


def test_matching_offer_serves_criteria_7_and_9(no_sweep):
    sc = _offered_suite()
    c7 = acceptance.criterion_7_pi1_forest(sc)
    c9 = acceptance.criterion_9_cost(sc)
    assert c7.passed and c9.passed, (c7.detail, c9.detail)
    assert "3000 interior marked points" in c7.detail
    assert c7.elapsed < 5.0
    assert c9.elapsed == 12.5


def test_matching_offer_serves_criterion_10(no_sweep):
    sc = _offered_suite()
    c10 = acceptance.criterion_10_baseline(sc)
    assert c10.passed, c10.detail
    assert "fractions ['0.010', '0.014', '0.021']" in c10.detail
    assert c10.elapsed == 0.25


# The arguments of the pinned run's sweeps, as the fakes below record them.
PINNED_SWEEPS = {
    "graphing": (200, [0.01, 0.05, 0.1, 0.2], 0.05, 20260810),
    "prop13": (4, 2, [0.0, 0.05, 0.2], 20, 20260810),
}


@pytest.mark.parametrize(
    "change, name",
    [
        ({"master_seed": 1}, "graphing"),
        ({"graphing": {"window_radius": 4}}, "graphing"),
        ({"graphing": {"eps_list": [0.01, 0.05, 0.1]}}, "graphing"),
        ({"graphing": {"seeds": 50}}, "graphing"),
        ({"master_seed": 1}, "prop13"),
        ({"prop13": {"seeds": 5}}, "prop13"),
    ],
    ids=["master_seed", "window_radius", "eps_list", "seeds", "prop13-master_seed", "prop13-seeds"],
)
def test_offer_with_another_key_is_not_used(monkeypatch, change, name):
    calls = {"graphing": [], "prop13": []}

    def fake_cost_report(ctx, seeds, eps_list, primary_eps, master_seed, threads=1):
        calls["graphing"].append((seeds, eps_list, primary_eps, master_seed))
        return _clean_report(seeds)

    def fake_baseline(metric, wr, margin, eps_list, seeds, master_seed, cap):
        calls["prop13"].append((wr, margin, eps_list, seeds, master_seed))
        return _clean_baseline(seeds)

    monkeypatch.setattr(cli, "GraphingContext", lambda *args, **kwargs: None)
    monkeypatch.setattr(cli, "cost_report", fake_cost_report)
    monkeypatch.setattr(cli, "coset_line_baseline", fake_baseline)
    sc = _offered_suite(**change)
    criterion = {
        "graphing": acceptance.criterion_7_pi1_forest,
        "prop13": acceptance.criterion_10_baseline,
    }[name]
    assert criterion(sc).passed
    assert calls[name] == [PINNED_SWEEPS[name]]
    assert sc.sweep(name)[0] is not getattr(sc.offered, name)[0]


def test_a_disconnected_pi5_fails_criterion_9(no_sweep):
    sc = _offered_suite()
    report, seconds = sc.offered.graphing
    sc.offered.graphing = dataclasses.replace(report, pi5_disconnected=1), seconds
    c9 = acceptance.criterion_9_cost(sc)
    assert not c9.passed
    assert "pi5 disconnected 1" in c9.detail


def test_offered_sweep_elapsed_counts_against_the_runtime_limit(no_sweep):
    sc = _offered_suite(graphing_s=700.0)
    c9 = acceptance.criterion_9_cost(sc)
    assert not c9.passed
    assert c9.elapsed == 700.0 > c9.runtime_limit
