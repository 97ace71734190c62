import copy
import json

import pytest

from horolab import acceptance, cli
from horolab.graphing import PercolationKernel
from horolab.groups import make_oracle
from horolab.product import ProductMetric

SMALL = {
    "acceptance_checks": False,
    "growth": {"horizon": 5, "ball_dump_radius": 2},
    "schedule": {"horizon": 8},
    "diamond": {"n_values": [0, 1, 2, 3, 4], "sandwich": True},
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
    assert (tmp_path / "plot.csv").exists() or command == "growth" and True
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["command"] == command
    assert manifest["config"]["master_seed"] == 20260810


def test_expected_artifacts(tmp_path):
    cli.main(["schedule", "--out", str(tmp_path)], config_overrides=SMALL)
    for name in ("schedule.csv", "breakpoints.json", "almost_linear.csv", "plot.csv"):
        assert (tmp_path / name).exists(), name
    header = (tmp_path / "plot.csv").read_text().splitlines()[0]
    assert header == "series,x,y,y_err"


def test_negative_eps_exits_2(tmp_path):
    rc = cli.main(
        ["graphing", "--out", str(tmp_path)],
        config_overrides={"graphing": {"eps_list": [-0.1]}},
    )
    assert rc == 2


def test_bad_group_exits_2(tmp_path):
    rc = cli.main(
        ["growth", "--out", str(tmp_path)],
        config_overrides={"group": {"kind": "nonsense"}},
    )
    assert rc == 2


def test_bad_slope_exits_2(tmp_path):
    rc = cli.main(["schedule", "--out", str(tmp_path)], config_overrides={"c": "1/0"})
    assert rc == 2


def test_main_leaves_the_defaults_unchanged(tmp_path):
    before = copy.deepcopy(cli.DEFAULTS)
    rc = cli.main(
        ["growth", "--out", str(tmp_path)],
        config_overrides={"seeds": 3, "growth": {"horizon": 3}},
    )
    assert rc == 0
    assert cli.DEFAULTS == before
    config = json.loads((tmp_path / "manifest.json").read_text())["config"]
    assert [config[b]["seeds"] for b in ("process", "graphing", "prop13")] == [3, 3, 3]


def test_resource_cap_exits_3(tmp_path, capsys):
    rc = cli.main(
        ["growth", "--out", str(tmp_path)],
        config_overrides={"enum_cap": 50, "growth": {"horizon": 6, "method": "bfs"}},
    )
    assert rc == 3
    captured = capsys.readouterr()
    assert "resource cap:" in captured.err
    assert "resource cap:" not in captured.out


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
        "diamond": {"n_values": [0, 1, 2, 3], "sandwich": False},
    }
    rc = cli.main(["diamond", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 0
    vol = (tmp_path / "volumes.csv").read_text().strip().splitlines()
    # linear schedule on Z x Z: l1 balls 1, 5, 13, 25
    assert vol[1].split(",")[3] == "1"
    assert vol[3].split(",")[3] == "13"


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


def _default_graphing_key(**graphing):
    cfg = copy.deepcopy(cli.DEFAULTS)
    cfg["graphing"].update(graphing)
    sched, _, _ = cli._schedule_for(cfg, cfg["schedule"]["horizon"])
    spec1, spec2 = cli._resolved_groups(cfg)
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), sched.c)
    wr = cfg["graphing"]["window_radius"]
    kernel = PercolationKernel(metric, sched.growth, sched.growth2, 2 * wr)
    return cli._graphing_key(cfg, sched, kernel)


def test_default_graphing_sweep_is_the_acceptance_sweep():
    suite_key = acceptance.SuiteContext(master_seed=20260810).graphing_key()
    assert _default_graphing_key() == suite_key
    assert _default_graphing_key(seeds=50) != suite_key


def test_all_offers_its_graphing_sweep_to_the_suite(tmp_path, monkeypatch):
    offered = []

    def fake_suite(master_seed, threads, echo, sweeps):
        offered.extend(sweeps)
        return []

    monkeypatch.setattr(acceptance, "run_all", fake_suite)
    overrides = dict(SMALL, acceptance_checks=True)
    assert cli.main(["all", "--out", str(tmp_path)], config_overrides=overrides) == 0
    (sweep,) = offered
    assert (sweep.key.seeds, sweep.key.window_radius) == (4, 4)
    assert sweep.elapsed > 0
    assert sweep.report.seed0_stages == {}  # they would keep the whole context alive
    written = (tmp_path / "graphing" / "cost_report.json").read_text()
    assert written == json.dumps(sweep.report.to_json_dict(), indent=2, sort_keys=True) + "\n"
