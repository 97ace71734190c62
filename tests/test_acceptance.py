"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints its criterion's pass/fail line; heavyweight state (the
200-seed graphing sweep) is shared through a module-scoped context.
"""

import dataclasses
import os

import pytest

from horolab import acceptance
from horolab.graphing import CostReport, SeedStats

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


# Offered sweeps -------------------------------------------------------------


def _clean_report(seeds=200):
    """A CostReport that passes criteria 7 and 9."""
    return CostReport(
        seeds=seeds,
        eps=0.05,
        stages=[{"stage": "pi3", "half_degree_mean": 1.01, "half_degree_se": 0.01}],
        lambda_hat_mean=0.5,
        pi5_bound_lhs=2.0,
        pi5_bound_rhs=3.0,
        pi5_violations=0,
        pi5_disconnected=0,
        boundary_deficit=0.5,
        truncation_mass=0.001,
        excluded_diamond_fraction=0.05,
        pi1_interior_violations=0,
        parallel_violations=0,
        monotone_violations=0,
        largest_fraction_by_eps={0.01: 0.006, 0.05: 0.007},
        runs=[SeedStats(seed_index=i, n_interior=30) for i in range(seeds)],
    )


@pytest.fixture
def no_sweep(monkeypatch):
    def fail(*args, **kwargs):
        pytest.fail("the suite built its own graphing sweep")

    monkeypatch.setattr(acceptance, "cost_report", fail)
    monkeypatch.setattr(acceptance, "GraphingContext", fail)


def _offered_suite(elapsed=12.5, **changes):
    """A suite offered a clean report under its own key, changed by `changes`."""
    sc = acceptance.SuiteContext(master_seed=20260810)
    key = dataclasses.replace(sc.graphing_key(), **changes)
    sc.sweeps = (acceptance.GraphingSweep(key, _clean_report(), elapsed),)
    return sc


def test_matching_offer_serves_criteria_7_and_9(no_sweep):
    sc = _offered_suite()
    c7 = acceptance.criterion_7_pi1_forest(sc)
    c9 = acceptance.criterion_9_cost(sc)
    assert c7.passed and c9.passed, (c7.detail, c9.detail)
    assert "3000 interior marked points" in c7.detail
    assert c7.elapsed < 5.0
    assert c9.elapsed == 12.5


@pytest.mark.parametrize(
    "change",
    [
        {"master_seed": 1},
        {"window_radius": 4},
        {"eps_list": (0.01, 0.05, 0.1)},
        {"seeds": 50},
    ],
    ids=lambda c: next(iter(c)),
)
def test_offer_with_another_key_is_not_used(monkeypatch, change):
    calls = []

    def fake_cost_report(ctx, seeds, eps_list, primary_eps, master_seed, threads=1):
        calls.append((seeds, eps_list, primary_eps, master_seed))
        return _clean_report(seeds)

    monkeypatch.setattr(acceptance, "GraphingContext", lambda *args, **kwargs: None)
    monkeypatch.setattr(acceptance, "cost_report", fake_cost_report)
    sc = _offered_suite(**change)
    assert acceptance.criterion_7_pi1_forest(sc).passed
    assert calls == [(200, [0.01, 0.05, 0.1, 0.2], 0.05, 20260810)]
    assert sc.graphing_runs() is not sc.sweeps[0].report


def test_a_disconnected_pi5_fails_criterion_9(no_sweep):
    sc = _offered_suite()
    sweep = sc.sweeps[0]
    report = dataclasses.replace(sweep.report, pi5_disconnected=1)
    sc.sweeps = (dataclasses.replace(sweep, report=report),)
    c9 = acceptance.criterion_9_cost(sc)
    assert not c9.passed
    assert "pi5 disconnected 1" in c9.detail


def test_offered_sweep_elapsed_counts_against_the_runtime_limit(no_sweep):
    sc = _offered_suite(elapsed=700.0)
    c9 = acceptance.criterion_9_cost(sc)
    assert not c9.passed
    assert c9.elapsed == 700.0 > c9.runtime_limit
