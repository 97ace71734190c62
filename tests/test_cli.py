import copy
import hashlib
import json

import pytest

from horolab import acceptance, cli

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
    ],
)
def test_malformed_numeric_field_exits_2(tmp_path, capsys, overrides):
    rc = cli.main(["growth", "--out", str(tmp_path)], config_overrides=overrides)
    assert rc == 2
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
        config_overrides={"enum_cap": 50, "growth": {"horizon": 6}},
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
    sched = cli._schedule_for(cfg, cfg["schedule"]["horizon"])
    return cli._graphing_key(cfg, sched)


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


# SHA-256 of every data artifact of three reduced runs, pinned when the
# per-seed stages were rewritten over one vertex table (the Z^2 x F2 run
# when the stages after Pi3 moved to edge arrays).  A change that alters
# these bytes on purpose updates the pins and says which and why.  The
# Z^2 x F2 run reaches the `Horofunction` branch of `GraphingContext.tau`
# and the linear schedule; its cost report holds pi1_interior_violations 15.
PINNED_RUNS = {
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
    "prop13": ("prop13", {"prop13": {"window_radius": 3, "seeds": 3}}),
}
PINNED_DIGESTS = {
    "graphing": {
        "cost_report.json": "ff8c0d2fc839bdb0289343c52b5a0b388325c8f515970aa1a8da320f94442f15",
        "edges_seed0.csv": "d0ecf15fd319b047c94a9c1c9b40f236c0e924e350c9caf1d28c3cebe5b074ad",
        "pi5_seed0.csv": "e1974183227f312f320484b9476ed18ee4897445459a2bdf9dc5c1838830c762",
        "plot.csv": "637fc315ee87f19364fdabe7329d60a9037b218dcd40ee21c5c7d20bc9d0ed87",
        "runs.csv": "01e5181511275d0b86dfd82b567b1d665200f1a3f0bda16eb2a4494e2f166ccd",
    },
    "graphing-z2xf2": {
        "cost_report.json": "56975e95d8fc807fb31caba539625cb213027760899a5540e5fde922413db6cb",
        "edges_seed0.csv": "a6337a399a8450f229450d405e6ad6b832ebfdcf95501a79f4b5866945cd40a6",
        "pi5_seed0.csv": "9765b89ebbfe5e3be5e03c830c4c858666410a9a3e778c9bfd8661ffe5895d64",
        "plot.csv": "1b536edbace4aa7d822e410b05ce1163f8756a1f08f0d4a9c677a31b55d1964b",
        "runs.csv": "32bf2930726b0e4980721c7ce2459cef50c9544c5affe4cbf3e17ad633e082a9",
    },
    "prop13": {
        "baseline.csv": "4b945fd2289bd74ecb4c12c67cf8826a30ffc8a57444c476cdf95c64feaf4e60",
        "plot.csv": "3d7ae07c532e554954958de46813fa85923e7d9de46f8f79907dbe6d1df6d612",
        "summary.json": "669080493e42026e122abfe73245b0f85532c53462c5766d3ce013161a111f08",
    },
}


@pytest.mark.parametrize("run", sorted(PINNED_RUNS))
def test_artifacts_match_their_pinned_digests(tmp_path, run):
    command, overrides = PINNED_RUNS[run]
    assert cli.main([command, "--out", str(tmp_path)], config_overrides=overrides) == 0
    got = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "manifest.json"
    }
    assert got == PINNED_DIGESTS[run]
