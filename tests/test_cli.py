import ast
import copy
import csv
import dataclasses
import hashlib
import json
import re
from pathlib import Path

import numpy as np
import pytest

from horolab import acceptance, cli, graphing, groups, point_process
from horolab.errors import MarkCollisionError
from horolab.graphing import BaselineRow, CostReport, SeedStats
from horolab.point_process import ProcessContext, sample_diamond_process
from horolab.product import ProductSpace
from horolab.randomness import STREAM_CENTERS, SeededRandomness, seed_digest

SMALL = {
    "acceptance_checks": False,
    "growth": {"horizon": 5, "ball_dump_radius": 2},
    "schedule": {"horizon": 8},
    "diamond": {"n_values": [0, 1, 2, 3, 4]},
    "process": {"seeds": 4, "corner_seeds": 4, "n_range": [1, 2, 3, 4], "window_radius": 3},
    "graphing": {"seeds": 4, "window_radius": 4, "margin": 2},
    "prop13": {"seeds": 3, "window_radius": 3, "margin": 1},
}


@pytest.mark.parametrize(
    "command",
    ["growth", "schedule", "diamond", "process", "graphing", "touching", "prop13"],
)
def test_subcommands_exit_zero(tmp_path, command):
    rc = cli.main([command, "--out", str(tmp_path)], config_overrides=SMALL)
    assert rc == 0
    assert (tmp_path / "manifest.json").exists()
    assert (tmp_path / "plot.csv").exists()
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"]["master_seed"] == 20260810
    _check_stage_metrics(manifest["metrics"], [command])


def _check_stage_metrics(metrics: dict, stages):
    """The manifest's `metrics`: one entry per stage, each with its wall
    seconds and the peak RSS of the process and of its children."""
    assert sorted(metrics) == sorted(stages)
    for entry in metrics.values():
        assert set(entry) == {"wall_s", "peak_rss_mb", "children_peak_rss_mb"}
        assert all(isinstance(v, float) and v >= 0 for v in entry.values())
        assert entry["peak_rss_mb"] > 0


def test_all_times_every_runner_and_the_acceptance_suite(tmp_path, monkeypatch):
    runners = {name: (lambda run, out: {}) for name in cli.RUNNERS}
    monkeypatch.setattr(cli, "RUNNERS", runners)
    monkeypatch.setattr(acceptance, "run_all", lambda **kwargs: [])
    overrides = {**SMALL, "acceptance_checks": True}
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    _check_stage_metrics(metrics, list(runners) + ["acceptance"])


def test_criterion_times_go_to_the_manifest_not_acceptance_txt(tmp_path, monkeypatch):
    monkeypatch.setattr(
        acceptance, "ALL_CRITERIA", [acceptance.criterion_1_growth, acceptance.criterion_3_schedule]
    )
    overrides = {**SMALL, "acceptance_checks": True}
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    lines = (tmp_path / "acceptance.txt").read_text().splitlines()
    assert [ln.split(":")[0] for ln in lines] == ["[PASS] criterion 1", "[PASS] criterion 3"]
    assert not any(re.search(r"\(\d+\.\ds\)", ln) for ln in lines)
    metrics = json.loads((tmp_path / "manifest.json").read_text())["metrics"]
    for name in ("criterion_01", "criterion_03"):
        assert list(metrics[name]) == ["elapsed_s"]
        assert isinstance(metrics[name]["elapsed_s"], float) and metrics[name]["elapsed_s"] >= 0
    _check_stage_metrics(
        {k: v for k, v in metrics.items() if not k.startswith("criterion_")},
        list(cli.RUNNERS) + ["acceptance"],
    )


def test_expected_artifacts(tmp_path):
    cli.main(["schedule", "--out", str(tmp_path)], config_overrides=SMALL)
    for name in ("schedule.csv", "breakpoints.json", "almost_linear.csv", "plot.csv"):
        assert (tmp_path / name).exists(), name
    header = (tmp_path / "plot.csv").read_text().splitlines()[0]
    assert header == "series,x,y,y_err"


def test_every_data_artifact_goes_through_the_cli_writers(tmp_path, monkeypatch):
    written = set()
    for name in ("write_csv", "write_json"):
        writer = getattr(cli, name)

        def recording(path, *args, writer=writer):
            written.add(Path(path).relative_to(tmp_path).as_posix())
            writer(path, *args)

        monkeypatch.setattr(cli, name, recording)
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=SMALL) == 0
    files = {p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()}
    # SMALL skips the acceptance suite, so there is no acceptance.txt.
    assert files - written == {"manifest.json", "process/process_seed0.jsonl"}


def _opens_for_writing(call: ast.Call) -> bool:
    """`open(..., mode)` or `<path>.open(mode)` with a writing mode, or
    `<path>.write_text`/`write_bytes`."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    at = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[at : at + 1]
    return any(
        not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes
    )


def test_only_the_cli_module_writes_files_or_knows_a_file_format():
    offenders = []
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                modules = []
            if {"csv", "json"} & set(modules):
                offenders.append(f"{path.name}:{node.lineno} imports {modules}")
            if isinstance(node, ast.Call) and _opens_for_writing(node):
                offenders.append(f"{path.name}:{node.lineno} opens a file for writing")
    assert offenders == []


def test_negative_eps_exits_2(tmp_path):
    rc = cli.main(
        ["graphing", "--out", str(tmp_path)],
        config_overrides={"graphing": {"eps_list": [-0.1]}},
    )
    assert rc == 2


@pytest.mark.parametrize(
    "overrides",
    [{"threads": "2"}, {"threads": 1.5}, {"threads": 0}, {"graphing": {"seeds": "3"}}],
    ids=["threads-str", "threads-float", "threads-0", "seeds-str"],
)
def test_malformed_count_exits_2(tmp_path, capsys, overrides):
    rc = cli.main(["graphing", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "overrides",
    [
        {"graphing": {"window_radius": "5"}},
        {"graphing": {"eps": "0.05"}},
        {"graphing": {"eps": float("nan")}},
        {"enum_cap": "big"},
        {"prop13": {"margin": 2.5}},
        {"process": {"n": -1}},
        {"process": {"T": 1.0}},
        {"schedule": {"horizon": 0}},
        {"growth": {"horizon": "8"}},
        {"process": {"n_range": [1, "2"]}},
        {"graphing": {"eps_list": [0.05, "0.1"]}},
        {"prop13": {"eps_list": 0.05}},
        {"graphing": 5},
        {"graphing": {"window_radus": 7}},
        {"growth_methd": "bfs"},
        {"growth_method": "auto"},
        {"growth": {"method": "bfs"}},
        {"group": {"kind": "free", "rank": "x"}},
        {"group": {"kind": "free", "rank": 2.7}},
        {"group": {"kind": "free", "rank": True}},
        {"group2": {"kind": "cyclic", "order": "4"}},
        {"group": {"kind": "integer_lattice", "dim": 1.0}},
        {"group": {"kind": "direct_product", "factors": 5}},
        {"group": {"kind": "free", "rank": 2, "bogus": 1}},
        {"group2": {"kind": "integer_lattice", "dim": 2, "rank": 2}},
        {
            "group": {
                "kind": "free_product",
                "factors": [{"kind": "free", "rank": 1, "dim": 1}, {"kind": "free", "rank": 1}],
            }
        },
        {"c": "abc"},
        {"c": "-1"},
        {"schedule": {"mode": "linear"}},
        {"diamond": {"sandwich": False}},
        {"seeds": 3},
        {"acceptance_checks": "no"},
        {"master_seed": "x"},
        {"master_seed": 1.5},
        {"master_seed": True},
        {"master_seed": [1]},
    ],
    ids=[
        "window_radius-str",
        "eps-str",
        "eps-nan",
        "enum_cap-str",
        "margin-float",
        "n-negative",
        "T-float",
        "horizon-0",
        "horizon-str",
        "n_range-entry-str",
        "eps_list-entry-str",
        "eps_list-scalar",
        "block-not-object",
        "misspelled-block-key",
        "misspelled-top-key",
        "dropped-growth_method",
        "dropped-growth-method",
        "group-rank-str",
        "group-rank-float",
        "group-rank-bool",
        "group-order-str",
        "group-dim-float",
        "group-factors-not-list",
        "group-unknown-key",
        "group-key-of-another-kind",
        "group-factor-unknown-key",
        "c-str",
        "c-negative",
        "dropped-schedule-mode",
        "dropped-diamond-sandwich",
        "dropped-top-seeds",
        "acceptance_checks-str",
        "master_seed-str",
        "master_seed-float",
        "master_seed-bool",
        "master_seed-list",
    ],
)
def test_malformed_numeric_field_exits_2(tmp_path, capsys, overrides):
    rc = cli.main(["growth", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 2
    assert "config error:" in capsys.readouterr().err


# Every config field but the group specs, as (block, key); key None names a
# top-level field.
CONFIG_FIELDS = [
    (block, key)
    for block, default in cli.DEFAULTS.items()
    if block not in ("group", "group2")
    for key in (default if isinstance(default, dict) else [None])
]


@pytest.mark.parametrize("value", ["x", [True]], ids=["str", "list-of-bool"])
@pytest.mark.parametrize(
    "block, key", CONFIG_FIELDS, ids=[b if k is None else f"{b}.{k}" for b, k in CONFIG_FIELDS]
)
def test_every_field_given_a_value_of_the_wrong_kind_exits_2(tmp_path, capsys, block, key, value):
    # No field takes a string or a list of booleans.
    overrides = {block: value} if key is None else {block: {key: value}}
    assert cli.main(["growth", "--out", str(tmp_path)], config_overrides=overrides) == 2
    assert "config error:" in capsys.readouterr().err


def test_bad_group_exits_2(tmp_path):
    rc = cli.main(
        ["growth", "--out", str(tmp_path)],
        config_overrides={"group": {"kind": "nonsense"}},
    )
    assert rc == 2


def test_bad_slope_exits_2(tmp_path):
    rc = cli.main(["schedule", "--out", str(tmp_path)], config_overrides={"c": "1/0"})
    assert rc == 2


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"c": "3/2"}, 0),
        ({"c": "2", "prop13": {"window_radius": 3, "margin": 1}}, 0),
        # A radius-8 second factor (13,121 elements) once needed an m^2
        # distance table over enum_cap; now the window's 233M pairs are
        # hashed, for one seed to keep the run short.
        ({"c": "2", "prop13": {"seeds": 1}}, 0),
        ({"c": "1/10"}, 0),  # floor(c * 2 wr) = 0
    ],
    ids=["c-3/2", "c-2-wr3", "c-2-wr4", "c-1/10"],
)
def test_prop13_reads_the_second_factor_out_to_c_times_the_window_diameter(
    tmp_path, overrides, code
):
    assert cli.main(["prop13", "--out", str(tmp_path)], config_overrides=overrides) == code


def test_growth_runs_when_the_schedule_would_fail(tmp_path, capsys):
    # Z x F2 with c null: the slope is undefined, so the schedule fails.
    overrides = {"group": {"kind": "integer_lattice", "dim": 1}, "group2": {"kind": "free", "rank": 2}}
    assert cli.main(["growth", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 2
    assert "config error:" in capsys.readouterr().err


C2 = {"kind": "cyclic", "order": 2}
C3 = {"kind": "cyclic", "order": 3}


@pytest.mark.parametrize(
    "group",
    [
        {"kind": "integer_lattice", "dim": 1},
        {"kind": "integer_lattice", "dim": 2},
        {"kind": "free_product", "factors": [C2, C2]},
    ],
    ids=["1", "2", "C2*C2"],  # Z^1, Z^2 and the infinite dihedral group
)
def test_an_amenable_factor_takes_the_linear_schedule(tmp_path, group):
    # An amenable first factor x F2 at c = 1 takes the linear schedule,
    # whatever the factor's growth-rate estimates.
    overrides = {"group": group, "group2": {"kind": "free", "rank": 2}, "c": "1"}
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert cli.Run(cli._deep_merge(cli.DEFAULTS, overrides)).schedule.source == "linear"


def test_equal_free_products_take_slope_1(tmp_path):
    # (Z/2*Z/3)^2 with c null: equal specs give c = 1, although the growth
    # series the schedule reads have different horizons.
    pair = {"kind": "free_product", "factors": [C2, C3]}
    overrides = {**SMALL, "group": pair, "group2": pair}
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert json.loads((tmp_path / "breakpoints.json").read_text())["c"] == "1"
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=overrides) == 0


def test_unequal_factors_without_exact_rates_need_an_explicit_c(tmp_path, capsys):
    overrides = {"group": {"kind": "free_product", "factors": [C2, C3]}}
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 2
    assert "needs exact growth rates" in capsys.readouterr().err


def test_main_leaves_the_defaults_unchanged(tmp_path):
    before = copy.deepcopy(cli.DEFAULTS)
    rc = cli.main(
        ["growth", "--out", str(tmp_path)],
        config_overrides={
            "growth": {"horizon": 3},
            **{block: {"seeds": 3} for block in ("process", "graphing", "prop13")},
        },
    )
    assert rc == 0
    assert cli.DEFAULTS == before
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert [config[b]["seeds"] for b in ("process", "graphing", "prop13")] == [3, 3, 3]


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("growth", {"enum_cap": 50, "growth": {"horizon": 6}}),
    ],
    ids=["growth"],
)
def test_resource_cap_exits_3(tmp_path, capsys, command, overrides):
    rc = cli.main([command, "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 3
    captured = capsys.readouterr()
    assert "resource cap:" in captured.err
    assert "resource cap:" not in captured.out


def test_a_corner_set_over_the_cap_exits_3_before_it_is_built(tmp_path, capsys, monkeypatch):
    # The radius-8 F2 balls (13,121 elements) and the radius-3 window's
    # covering map fit a cap of 20,000; the n = 8 corner set, with 26,241
    # centers, does not.  Once the corner stage starts, no center digest is
    # made and none is drawn.
    def never(*args, **kwargs):
        raise AssertionError("a corner set was drawn")

    def corner_stage(*args, **kwargs):
        monkeypatch.setattr(point_process, "combine_digests", never)
        monkeypatch.setattr(SeededRandomness, "below", never)
        return corner_events(*args, **kwargs)

    corner_events = cli.corner_event_probability
    monkeypatch.setattr(cli, "corner_event_probability", corner_stage)
    overrides = {"enum_cap": 20_000, "process": {"seeds": 2, "window_radius": 3}}
    assert cli.main(["process", "--out", str(tmp_path)], config_overrides=overrides) == 3
    captured = capsys.readouterr()
    assert "resource cap: corner set A_{n,T} at n = 8, T = 1 exceeded" in captured.err
    assert "resource cap:" not in captured.out


def test_a_covering_map_over_the_cap_exits_3_before_it_is_built(tmp_path, capsys, monkeypatch):
    # The radius-4 window has 865 points and a diamond at n = 2 has 33
    # members: 28,545 (point, offset) pairs against a cap of 20,000, which
    # the radius-6 factor balls of the center window (1,457 elements) fit.
    def never(*args, **kwargs):
        raise AssertionError("a quotient table was built")

    monkeypatch.setattr(groups.Ball, "quotient_table", never)
    overrides = {"enum_cap": 20_000}
    assert cli.main(["process", "--out", str(tmp_path)], config_overrides=overrides) == 3
    err = capsys.readouterr().err
    assert "covering map (window points x diamond offsets) exceeded the enumeration cap of 20000" in err


def test_the_percolation_cap_counts_each_seeds_open_ranks(tmp_path, capsys):
    # At eps 4 the radius-4 window's 865 points open 3,531 ranks of their
    # spheres under the first seed and 3,387 under the second, before any
    # is unranked; the cap counts each seed's on its own.
    overrides = {"prop13": {"seeds": 2, "eps_list": [0.0, 4.0]}}
    for cap, code in ((3530, 3), (3531, 0)):
        overrides["enum_cap"] = cap
        assert cli.main(["prop13", "--out", str(tmp_path)], config_overrides=overrides) == code
    err = capsys.readouterr().err
    assert "percolation pairs exceeded the enumeration cap of 3530" in err
    assert err.count("resource cap:") == 1


def test_config_file_merge(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"growth": {"horizon": 4}}))
    out = tmp_path / "out"
    rc = cli.main(
        ["growth", "--config", str(cfg), "--out", str(out)],
        config_overrides={"growth": {"ball_dump_radius": 1}},
    )
    assert rc == 0
    rows = (out / "growth_G.csv").read_text().strip().splitlines()
    assert len(rows) == 6  # header + n = 0..4


@pytest.mark.parametrize(
    "text", [None, '{"growth": ', "[1]"], ids=["missing", "malformed", "not-an-object"]
)
def test_config_file_errors_exit_2(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    rc = cli.main(["growth", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and str(cfg) in err


def test_seed_flag_changes_manifest(tmp_path):
    rc = cli.main(
        ["prop13", "--out", str(tmp_path), "--seed", "123"], config_overrides=SMALL
    )
    assert rc == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["config"]["master_seed"] == 123


def test_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = cli.main(
            ["process", "--out", str(out), "--seed", "777"], config_overrides=SMALL
        )
        assert rc == 0
    for p in sorted(out1.iterdir()):
        if p.name == "manifest.json":
            continue
        assert p.read_bytes() == (out2 / p.name).read_bytes(), p.name


def test_lattice_group_config(tmp_path):
    overrides = dict(SMALL)
    overrides = {
        **SMALL,
        "group": {"kind": "integer_lattice", "dim": 1},
        "group2": {"kind": "integer_lattice", "dim": 1},
        "c": "1",
        "schedule": {"horizon": 8},
        "diamond": {"n_values": [0, 1, 2, 3]},
    }
    rc = cli.main(["diamond", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 0
    vol = (tmp_path / "volumes.csv").read_text().strip().splitlines()
    # linear schedule on Z x Z: l1 balls 1, 5, 13, 25
    assert vol[1].split(",")[3] == "1"
    assert vol[3].split(",")[3] == "13"


@pytest.mark.parametrize(
    "command, overrides, n_values",
    [
        ("diamond", {"group2": {"kind": "free", "rank": 3}, "c": "2/3"}, [0, 1, 2, 3, 4, 5]),
        ("diamond", {"schedule": {"horizon": 8}}, [0, 1, 2, 3, 4, 5, 6]),
        ("process", {"schedule": {"horizon": 8}, "process": {"T": 3}}, [1, 2, 3, 4, 5, 6]),
    ],
    ids=["F2xF3-2/3", "F2xF2-horizon-8", "process-F2xF2-horizon-8-T3"],
)
def test_diamond_keeps_the_n_whose_tables_the_growth_series_reach(
    tmp_path, command, overrides, n_values
):
    # The corner tables read each series to r_n + T - 1 and r'_n + T - 1,
    # with T the largest of `diamond.T_values` or `process.T`.
    assert cli.main([command, "--out", str(tmp_path)], config_overrides=overrides) == 0
    if command == "diamond":
        assert json.loads((tmp_path / "summary.json").read_text())["n_values"] == n_values
    else:
        with open(tmp_path / "corner_events.csv", newline="") as fh:
            assert [int(row["n"]) for row in csv.DictReader(fh)] == n_values


def test_a_missing_breakpoint_names_the_schedule(tmp_path, capsys):
    # Off the balanced slope, F2 x F2's horizon-12 schedule stops at 2
    # breakpoints, and the process needs r_2.
    assert cli.main(["process", "--out", str(tmp_path)], config_overrides={"c": "1/2"}) == 2
    assert capsys.readouterr().err == (
        "config error: schedule has no breakpoint index 2: "
        "at c = 1/2 and horizon 12 it has 2 (truncated: True)\n"
    )


def test_tree_scenarios_on_free_groups_of_rank_3(tmp_path):
    f3 = {"kind": "free", "rank": 3}
    for command in ("diamond", "touching"):
        out = tmp_path / command
        rc = cli.main([command, "--out", str(out)], config_overrides={"group": f3, "group2": f3})
        assert rc == 0
    sandwich = json.loads((tmp_path / "diamond" / "summary.json").read_text())["sandwich"]
    assert set(sandwich) == {"lattice", "tree"}
    assert sandwich["tree"]["violations"] == 0
    touching = json.loads((tmp_path / "touching" / "summary.json").read_text())
    assert set(touching) == {"tree_k2_kp1", "degenerate", "lattice"}


def test_diamond_on_free_groups_of_ranks_3_and_2(tmp_path):
    # The tree scenario's schedule reads the second factor's growth out to
    # 2 h + 2, as the run's own schedule does; F3 x F2 then has no
    # breakpoint from 16 on, so its tree table is empty.
    overrides = {"group": {"kind": "free", "rank": 3}, "c": "1"}
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert cli.main(["diamond", "--out", str(tmp_path)], config_overrides=overrides) == 0
    sandwich = json.loads((tmp_path / "summary.json").read_text())["sandwich"]
    assert sandwich["tree"] == {
        "first_sandwiched_n": None,
        "violations": 0,
        "checked_rows": 0,
        "vacuous": True,
    }
    assert len((tmp_path / "sandwich_tree.csv").read_text().splitlines()) == 1


@pytest.mark.parametrize("c, checked", [("1", 9), ("1/2", 0)])
def test_diamond_reports_a_sandwich_without_checked_rows_as_vacuous(tmp_path, c, checked):
    # Off the balanced slope, F2 x F2's horizon-26 schedule stops at 2
    # breakpoints, so the tree scenario has no center n >= 16 to check.
    assert cli.main(["diamond", "--out", str(tmp_path)], config_overrides={"c": c}) == 0
    sandwich = json.loads((tmp_path / "summary.json").read_text())["sandwich"]
    tree = sandwich["tree"]
    assert tree["checked_rows"] == checked
    assert tree["vacuous"] == (checked == 0)
    rows = (tmp_path / "sandwich_tree.csv").read_text().splitlines()[1:]
    assert checked == sum(1 for row in rows if row.split(",")[-1] == "False")
    assert not sandwich["lattice"]["vacuous"] and sandwich["lattice"]["checked_rows"] > 0


@pytest.mark.parametrize("n_range", [[], [40]], ids=["empty", "past-the-breakpoints"])
def test_process_without_a_usable_breakpoint_writes_header_only_tables(tmp_path, n_range):
    overrides = {**SMALL, "process": {**SMALL["process"], "n_range": n_range}}
    assert cli.main(["process", "--out", str(tmp_path)], config_overrides=overrides) == 0
    for name, header in (
        ("corner_events.csv", "n,T,corner_count,volume,exact_probability,empirical_probability"),
        ("hit.csv", "n,T,hitting_count,volume,ratio,lower_bound"),
    ):
        assert (tmp_path / name).read_text().splitlines() == [header]


def test_all_runners_on_a_rational_slope(tmp_path):
    overrides = {
        **SMALL,
        "group": {"kind": "integer_lattice", "dim": 2},
        "group2": {"kind": "free", "rank": 2},
        "c": "1/2",
    }
    rc = cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 0
    breakpoints = json.loads((tmp_path / "schedule" / "breakpoints.json").read_text())
    assert breakpoints["c"] == "1/2"
    assert not (tmp_path / "diamond" / "sandwich_tree.csv").exists()
    assert json.loads((tmp_path / "manifest.json").read_text())["config"]["c"] == "1/2"


def test_default_graphing_sweep_is_the_acceptance_sweep(tmp_path, monkeypatch):
    """`horolab all` on the defaults offers the suite both of its sweeps;
    with one graphing entry changed, only the prop13 sweep."""
    shared = []

    def fake_suite(master_seed, threads, echo, offered):
        sc = acceptance.SuiteContext(master_seed, threads, offered)
        shared.append([offered.same_sweep(sc.run, name) for name in ("graphing", "prop13")])
        return []

    for name in cli.RUNNERS:
        monkeypatch.setitem(cli.RUNNERS, name, lambda run, out: {})
    monkeypatch.setattr(acceptance, "run_all", fake_suite)
    assert cli.main(["all", "--out", str(tmp_path), "--threads", "2"]) == 0
    overrides = {"graphing": {"seeds": 50}}
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert shared == [[True, True], [False, True]]


def test_all_offers_its_graphing_sweep_to_the_suite(tmp_path, monkeypatch):
    runs = []

    def fake_suite(master_seed, threads, echo, offered):
        runs.append(offered)
        return []

    monkeypatch.setattr(acceptance, "run_all", fake_suite)
    overrides = dict(SMALL, acceptance_checks=True)
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    (run,) = runs
    report, seconds = run.graphing
    assert (run.cfg["graphing"]["seeds"], run.cfg["graphing"]["window_radius"]) == (4, 4)
    assert seconds > 0
    assert report.seed0_stages == {}  # they would keep the whole context alive
    written = (tmp_path / "graphing" / "cost_report.json").read_text()
    assert written == json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("c, calls", [(None, 1), ("1", 2)], ids=["defaults", "c-set"])
def test_all_computes_the_sandwich_scenarios_once(tmp_path, monkeypatch, c, calls):
    # With the groups, c and schedule of the defaults, criterion 6 reads the
    # scenarios `diamond` computed; with c set, the suite computes its own.
    counted = []

    def counting(*args):
        counted.append(args)
        return sandwich_scenarios(*args)

    sandwich_scenarios = acceptance.sandwich_scenarios
    monkeypatch.setattr(acceptance, "sandwich_scenarios", counting)
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [acceptance.criterion_6_sandwich])
    overrides = {**SMALL, "acceptance_checks": True, "schedule": {"horizon": 12}, "c": c}
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert len(counted) == calls
    assert (tmp_path / "acceptance.txt").read_text().startswith("[PASS] criterion 6")


@pytest.mark.parametrize("rank, calls", [(2, 1), (3, 2)], ids=["F2", "F3"])
def test_all_computes_the_touching_scenarios_once(tmp_path, monkeypatch, rank, calls):
    # On F2 x F2, criterion 8 reads the traces `touching` computed; on
    # F3 x F3, the suite computes the pinned run's.
    counted = []

    def counting(*args):
        counted.append(args)
        return touching_scenarios(*args)

    touching_scenarios = acceptance.touching_scenarios
    monkeypatch.setattr(acceptance, "touching_scenarios", counting)
    monkeypatch.setattr(cli, "RUNNERS", {"touching": cli.run_touching})
    monkeypatch.setattr(acceptance, "ALL_CRITERIA", [acceptance.criterion_8_touching])
    group = {"kind": "free", "rank": rank}
    overrides = {"group": group, "group2": group}
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert len(counted) == calls
    assert (tmp_path / "acceptance.txt").read_text().startswith("[PASS] criterion 8")


def test_graphing_exits_1_after_writing_pi1_interior_violations(tmp_path, monkeypatch, capsys):
    cost_report = cli.cost_report

    def violating(*args, **kwargs):
        return dataclasses.replace(cost_report(*args, **kwargs), pi1_interior_violations=3)

    monkeypatch.setattr(cli, "cost_report", violating)
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=SMALL) == 1
    report = json.loads((tmp_path / "cost_report.json").read_text())
    assert report["pi1_interior_violations"] == 3
    assert "3 interior marked points have no Pi1 out-edge" in capsys.readouterr().err


def _read_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_report_artifacts_are_written_from_their_dataclass_fields(tmp_path):
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=SMALL) == 0
    assert cli.main(["prop13", "--out", str(tmp_path)], config_overrides=SMALL) == 0
    names = [f.name for f in dataclasses.fields(SeedStats) if f.name != "largest_fraction"]
    with open(tmp_path / "runs.csv", newline="") as fh:
        assert next(csv.reader(fh)) == names
    with open(tmp_path / "baseline.csv", newline="") as fh:
        assert next(csv.reader(fh)) == [f.name for f in dataclasses.fields(BaselineRow)]
    report = json.loads((tmp_path / "cost_report.json").read_text())
    keys = {f.name for f in dataclasses.fields(CostReport)} - {"runs", "seed0_stages"}
    assert set(report) == keys


def test_runs_csv_marks_a_rejected_seed(tmp_path, monkeypatch):
    # Injected at the batch entry: the batch holding seed 2 collides, is run
    # again seed by seed, and only seed 2 collides alone.
    run_batch = graphing._run_batch

    def colliding(ctx, keys, eps_list, primary_eps, seed_indices, collect=None):
        if 2 in seed_indices:
            raise MarkCollisionError("overlapping diamonds drew identical marks")
        return run_batch(ctx, keys, eps_list, primary_eps, seed_indices, collect)

    monkeypatch.setattr(graphing, "_run_batch", colliding)
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=SMALL) == 0
    rows = _read_rows(tmp_path / "runs.csv")
    assert [r["rejected"] for r in rows] == ["False", "False", "True", "False"]
    assert json.loads((tmp_path / "cost_report.json").read_text())["rejected_seeds"] == 1


def test_a_pi1_violation_keeps_runs_csv_and_names_its_seeds(tmp_path, monkeypatch, capsys):
    run_batch = graphing._run_batch

    def violating(*args, **kwargs):
        runs = run_batch(*args, **kwargs)
        for st in runs:
            if st.seed == 1:
                st.pi1_interior_violations = 2
        return runs

    monkeypatch.setattr(graphing, "_run_batch", violating)
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=SMALL) == 1
    rows = _read_rows(tmp_path / "runs.csv")
    assert [r["pi1_interior_violations"] for r in rows] == ["0", "2", "0", "0"]
    for name in ("cost_report.json", "edges_seed0.csv", "pi5_seed0.csv", "plot.csv"):
        assert (tmp_path / name).exists(), name
    err = capsys.readouterr().err
    assert "2 interior marked points have no Pi1 out-edge (seeds [1])" in err


def test_all_builds_its_schedule_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return schedule_for(*args, **kwargs)

    schedule_for = cli.schedule_for
    monkeypatch.setattr(cli, "schedule_for", counted)
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=SMALL) == 0
    assert len(calls) == 1


# SHA-256 of every data artifact of four reduced runs, pinned when the
# per-seed stages were rewritten over one vertex table (the Z^2 x F2 run
# when the stages after Pi3 moved to edge arrays, the `all` run before
# the runners came to share one resolved `Run`).  A change that alters
# these bytes on purpose updates the pins and says which and why.  The
# Z^2 x F2 run reaches the `Horofunction` branch of `GraphingContext.tau`
# and the linear schedule; it was re-pinned when `tau` came to take the
# descending neighbour nearest the center, which took its cost report's
# pi1_interior_violations from 15 to 0.  `diamond/summary.json` was
# re-pinned when each sandwich scenario gained `checked_rows` and `vacuous`,
# and the three `runs.csv` pins when that file gained the per-seed
# diagnostics from `stalled` to `n_s0_interior`.  The three `runs.csv` pins
# moved again when the file came to be written from every `SeedStats` field
# but `largest_fraction`, which added the columns `rejected` to
# `monotone_ok` after the 22 earlier ones (each earlier field unchanged),
# and the two `diamond/sandwich_*.csv` pins when `SandwichRow` dropped
# `upper_ok` and `upper_violations`: the upper inclusion holds by
# construction, so those columns read True and 0 for every input.
# The `all` run covers every runner; its digests are keyed by relative path.
# The Pi2 artifacts (each graphing run's and `all`'s graphing/* and
# prop13/* files) moved when the percolation came to be drawn by geometric
# gaps over each point's rho spheres; no other file moved.
# The two F2 x F3 runs at c = 2/3 were pinned when W+ became exactly the
# covering centers, the change that moved the most ids on an unbalanced
# product (97,313 of the 210,713 points of the earlier center window at
# n = 2, wr 3), with digests taken before that change.
# The free-product and direct-product runs were pinned before factor balls
# became arrays (closed-form free balls, a right-step table and tree-walked
# quotient tables), with digests taken before that change.
F2 = {"kind": "free", "rank": 2}
F3 = {"kind": "free", "rank": 3}
C2C3 = {"kind": "free_product", "factors": [{"kind": "cyclic", "order": q} for q in (2, 3)]}
F2xZ = {"kind": "direct_product", "factors": [F2, {"kind": "integer_lattice", "dim": 1}]}
PINNED_RUNS = {
    "all": ("all", SMALL),
    "graphing": ("graphing", {"graphing": {"window_radius": 4, "seeds": 5, "eps": 1.0}}),
    "graphing-z2xf2": (
        "graphing",
        {
            "group": {"kind": "integer_lattice", "dim": 2},
            "group2": {"kind": "free", "rank": 2},
            "c": "1/2",
            "schedule": {"horizon": 8},
            "graphing": {"seeds": 30, "window_radius": 4, "margin": 2},
        },
    ),
    "graphing-f2xf3": (
        "graphing",
        {"group2": F3, "c": "2/3", "graphing": {"window_radius": 3, "margin": 1, "seeds": 5}},
    ),
    "process-f2xf3": (
        "process",
        {
            "group2": F3,
            "c": "2/3",
            "process": {"window_radius": 3, "seeds": 5, "corner_seeds": 5, "n_range": [1, 2, 3]},
        },
    ),
    "prop13": ("prop13", {"prop13": {"window_radius": 3, "seeds": 3}}),
    "graphing-c2c3xf2": (
        "graphing",
        {"group": C2C3, "group2": F2, "c": "1/2", "graphing": {"window_radius": 4, "seeds": 10}},
    ),
    "graphing-f2zxf2": ("graphing", {"group": F2xZ, "graphing": {"window_radius": 4, "seeds": 5}}),
}
PINNED_DIGESTS = {
    "all": {
        "diamond/corners.csv": "7aba8511352f20a659584ec527d01142a7b0dce1e93b8e0ca4ac457bd9be32fa",
        "diamond/dominance.csv": "9e66eeefa8fc3eaf0f4cae6351baaeabf08869dfd673ea3d01aff0df1227ea9a",
        "diamond/perfect_diamond.csv": "eb88ba42a429282a7c638bad10374d1e16f579cb2cf66a0197dc76a722ef51d3",
        "diamond/plot.csv": "938e17eca5fd367c1f0c29b65bb111b8d0d10eb3fdd0b2b69d8ce35a3635c8fd",
        "diamond/sandwich_lattice.csv": "6b857eee3fb447f17fa4ff7ac7e1e39f6ef42ede7442b0fc82205aa94ceb9b4d",
        "diamond/sandwich_tree.csv": "f9f6269626bc6a84afa800e95f76b158554c0a4487e0e3e0b25f87a98ebdba89",
        "diamond/summary.json": "ff8501369344e5ffd0d8e8d99e4241156cf898d9342ccc6558e6b7a8de4e7a2f",
        "diamond/volumes.csv": "0df7487da9e8da2c2a6873070ba68a3e9fc9f83db9103dea26e9c499004b5150",
        "graphing/cost_report.json": "df6804c9ee5bce17fb33cfa6548eeedeefe8c65576e89a3d9f2edbbcf72e0355",
        "graphing/edges_seed0.csv": "0fabe60b1509a8d9a8619e2afc388ee8124445163d242bf88319808c006ed25c",
        "graphing/pi5_seed0.csv": "9ca7df6df658f032fe8d1511930040c70a0d9d4378113582243a25fe558bcc0a",
        "graphing/plot.csv": "212aa79d16fa79811f1fb61f66999c0bc2fd89e81028e7eda204d0d35f51a482",
        "graphing/runs.csv": "95318f77a954a51346ce0c83e0c8b5686f4070fc89c24779bf6fdd5dd71ae8d5",
        "growth/ball_G.csv": "3a0c1a24ed9c1745c62fcbcdbec8cc01a201b6f334eaadfa5067f156d9786c5f",
        "growth/ball_G2.csv": "3a0c1a24ed9c1745c62fcbcdbec8cc01a201b6f334eaadfa5067f156d9786c5f",
        "growth/growth_G.csv": "0a063b576d55c46c7524b3366515cd32938aae9d3e48becc4b608fbaf099516e",
        "growth/growth_G2.csv": "0a063b576d55c46c7524b3366515cd32938aae9d3e48becc4b608fbaf099516e",
        "growth/plot.csv": "2ba6f1cde447ef2dede00930ea1a4ff1d312eb06dde325a1de42b61b869c8eed",
        "growth/summary.json": "698ed92a98f6128944750a8c563e92c1daef13d83f673a27ca1bd6aa6b88078c",
        "process/corner_events.csv": "51a29601d696c70e8726cfbcc46ce57a2a7dada30d9ed3103dd1c10718055c8c",
        "process/hit.csv": "d8de6887764c6861ce3ab55b82b6a99bbdb39e9335d435e7fe7e55910fc8d635",
        "process/incidence.csv": "989e3598ab970bb09b4e3d5e5356ca9c2fe5f06780eb85e3097970cdc7ae7985",
        "process/plot.csv": "1eb907b0a01e1f997867e588c82a65e1a4e521f9d4c4016071ff69b29a67897e",
        "process/process_seed0.jsonl": "f7a89c5a0b0c4cda65697b96d697420ee895ee2c3b4b68bd6b33e6748e340a83",
        "process/summary.json": "02caf5ccf9cfd735480eb6c5139399e6e42b8b011c5dd0bfe2240b6222bebfb1",
        "prop13/baseline.csv": "de5eb7d1c6b5f5e4566e504f75141896ab61431938f0bcfbf19ae7a433c5292b",
        "prop13/plot.csv": "83c59b257a47259149a8ced5d08353445862ac0f7643b1a1f23595e7bd15faa8",
        "prop13/summary.json": "669080493e42026e122abfe73245b0f85532c53462c5766d3ce013161a111f08",
        "schedule/almost_linear.csv": "563ce38fa6444f5077cbb25267b2fd05f41269c53bccdf958b1b87cfa1978f3d",
        "schedule/breakpoints.json": "ad285097a515e17d1e22a7d9c65c438aeb7e334698a3d206cb422ea1f4b30cff",
        "schedule/plot.csv": "b8f3546be1b09f9b429e8374bf2700b3c6bf336a81c892e31147be827fe0e296",
        "schedule/schedule.csv": "76bdaa3715369adb066dbe8b7f77f5fb2b4c0e2613d50dd806de92c2bb062987",
        "touching/plot.csv": "b57f6f6333b5f68dedfe98442e1c91008b380d91ebe639104cba3ffe9dd3bceb",
        "touching/summary.json": "8cc048590db2f5c598e79639a8db717015111ecab7ad076c1a1aef7701540ed9",
        "touching/traces.csv": "3a02717f5aaba081adebf6bee0e74cfb8af2f3a3a67d7f8bd369886f89ae8008",
    },
    "graphing": {
        "cost_report.json": "1c5e18923b6e967044d8b18cdde97f7dc46858ee0a4a04dd554ae85e815cc298",
        "edges_seed0.csv": "2ec89ed2cafbcb9756075c9666113a3fd8b0bf4a9072d155efede8b093e84511",
        "pi5_seed0.csv": "bef46b6734a636bee7821d49ea4c1465f02c9b3add8cde0e4cdd03a138bafa90",
        "plot.csv": "fb0cd3b33c7b0be3d5b05e50e121f90363485d06256ddd413260a855ae687471",
        "runs.csv": "29a9eb23f9160f9c69b3356c9f9b2ade196e6223e47e67d95da6145b2d5267a1",
    },
    "graphing-z2xf2": {
        "cost_report.json": "85cc23f7a822755a0ce3a5676b2e861cae230e2614452011416c3840985a77c4",
        "edges_seed0.csv": "de55699df1b56bbc3d069553d746920ba0c753c4bd5b90afac075ff99b98b2ea",
        "pi5_seed0.csv": "f841465473763c7729b56ae6a503b03dc38e2f8d5fad5c7b34bb0c9d330c00e7",
        "plot.csv": "895d6b9a83bc4d70d1dc7dbdfdf266c983bb021e9d16f817d898cd9c8707d665",
        "runs.csv": "970e02b2adb888824c7fcd408128ef4bbe93a556f7569247bbabe1a7d60715d4",
    },
    "graphing-f2xf3": {
        "cost_report.json": "8c979a10c4d91a525bdcf0f6e455e4a9a3741e9cb27423830bc77b37d9073da2",
        "edges_seed0.csv": "8170be5f233e55493e882ae17c3660114e6bc325bc373ea9db1d792beba20f20",
        "pi5_seed0.csv": "17838f0f6bcfd8be827148fad9ed370c4502de9496891b1be2236e514ddabb5d",
        "plot.csv": "74dd1aefd64b52a180865a90e809ffea52eacf05b87a67408cfd620eba9218f8",
        "runs.csv": "9814de0b9ba1ffc49441a637ee681d744838a7a065404829f0088260084f7ade",
    },
    "process-f2xf3": {
        "corner_events.csv": "7a8a582ad058a44724a8ffff71d2e500d98470cc93296fa18f004b4b430b1fda",
        "hit.csv": "0c322dc2ba941fd348dd56ca57aba6591910914bca4d6ee9bdf78a2f6a6bd3a7",
        "incidence.csv": "7459c2b4e554f5249e80edd83768b3ac8535f2710afa4d0afb3f4c70505b0460",
        "plot.csv": "1a6b60f67b2705c90f7047d6f74dfb85db5e598bb9d6c3d67a2e43d325289c15",
        "process_seed0.jsonl": "4cf0a71762ddb0c67bbb8486b11a41d8fe9a65f98a8de3a8e5b50b3ab725060a",
        "summary.json": "b4b4c1c502967e7605ce1b2cbe0dde7f47953e31969fa1daed39b84fa89edc3e",
    },
    "prop13": {
        "baseline.csv": "7d5f023263e490a9f75d54d6ffbe99cb3322c3bd594e69a0975abe5c2995bc33",
        "plot.csv": "23e786332385289ca97ebf0e6ec4544c2333048b3a504db43f11a840d7c3ba02",
        "summary.json": "669080493e42026e122abfe73245b0f85532c53462c5766d3ce013161a111f08",
    },
    "graphing-c2c3xf2": {
        "cost_report.json": "1be86c4273fba7805d58c2ca78b74ad64282771554e27bcfa4186c830064ba95",
        "edges_seed0.csv": "ea8759b9b2a083c018b01439167bb91cc1b07f9ca069e0d8ba6d6efe74c74541",
        "pi5_seed0.csv": "5bf39717e398c13e0cc60ac7c381ec1fb74858f66b1e1a78f522ad9d2d58d8dc",
        "plot.csv": "21b9c7ca433b1abb97da89315db2c7989cff5473ae9a13fcc93e7a5ebaf14559",
        "runs.csv": "e5e038670ee3ef6e249401db834a4403d6c2d04a2aac52097c9e9f3c31c3ff07",
    },
    "graphing-f2zxf2": {
        "cost_report.json": "424f7959c21c77de4d4ccffd74e0e6131f1d927f62dcbf78da323f2111080df8",
        "edges_seed0.csv": "54739db7c234bbf41869bcf4d3d2e563586d52aa0d0936db353edbecbc803a31",
        "pi5_seed0.csv": "89368c304bb49ab8bfb7696530202b260886c8562fa1e5de47791a1da623d284",
        "plot.csv": "c35b90d6acdc57ed40ddc974829dab7fe2e7d48069d1bc9a07e72a7b9fbced61",
        "runs.csv": "f3d54bf00365a0e35ee9bc70bd030eccdf74166634282e49ace0e2f848423164",
    },
}


def test_center_draw_is_the_uniforms_threshold_on_the_pinned_wr4_seeds():
    # The center draw finishes only the heads under the bound of u <= 1/v;
    # it must choose exactly the centers whose uniforms pass, on every seed
    # of every pinned graphing sweep at window radius 4.
    checked = 0
    for command, overrides in PINNED_RUNS.values():
        cfg = cli._deep_merge(copy.deepcopy(cli.DEFAULTS), overrides)
        sub = cfg["graphing"]
        if command not in ("graphing", "all") or sub["window_radius"] != 4:
            continue
        run = cli.Run(cfg)
        window = ProductSpace(run.metric, 4, cfg["enum_cap"])
        ctx = ProcessContext(window, run.schedule, sub["n"], cfg["enum_cap"])
        for s in range(sub["seeds"]):
            key = seed_digest(cfg["master_seed"], s)
            u = SeededRandomness(key).uniforms(ctx.center_digests, STREAM_CENTERS)
            want = np.flatnonzero(u <= 1.0 / ctx.volume)
            assert sample_diamond_process(ctx, key).chosen.tolist() == want.tolist()
            checked += 1
    assert checked == 4 + 5 + 30 + 10 + 5


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_artifacts_match_their_pinned_digests(tmp_path, run):
    command, overrides = PINNED_RUNS[run]
    assert cli.main([command, "--out", str(tmp_path)], config_overrides=overrides) == 0
    got = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    assert got == PINNED_DIGESTS[run]
