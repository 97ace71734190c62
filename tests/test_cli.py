import copy
import dataclasses
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
        {"c": "abc"},
        {"c": "-1"},
        {"schedule": {"mode": "bogus"}},
        {"diamond": {"sandwich": "no"}},
        {"acceptance_checks": "no"},
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
        "schedule-mode-unknown",
        "sandwich-str",
        "acceptance_checks-str",
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


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"c": "3/2"}, 0),
        ({"c": "2", "prop13": {"window_radius": 3, "margin": 1}}, 0),
        ({"c": "2"}, 3),  # the wr-4 window's distance table passes enum_cap
    ],
    ids=["c-3/2", "c-2-wr3", "c-2-wr4"],
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


@pytest.mark.parametrize("dim", [1, 2])
def test_lemma_schedule_refuses_an_amenable_factor(tmp_path, capsys, dim):
    # Z^dim x F2 at c = 1: "lemma" exits 2, "auto" still takes the linear
    # schedule.
    overrides = {
        "group": {"kind": "integer_lattice", "dim": dim},
        "group2": {"kind": "free", "rank": 2},
        "c": "1",
        "schedule": {"mode": "lemma"},
    }
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 2
    assert "requires nonamenable factors" in capsys.readouterr().err
    overrides["schedule"] = {"mode": "auto"}
    assert cli.main(["schedule", "--out", str(tmp_path)], config_overrides=overrides) == 0
    assert cli.Run(cli._deep_merge(cli.DEFAULTS, overrides)).schedule.source == "linear"


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


def test_graphing_exits_1_after_writing_pi1_interior_violations(tmp_path, monkeypatch, capsys):
    cost_report = cli.cost_report

    def violating(*args, **kwargs):
        return dataclasses.replace(cost_report(*args, **kwargs), pi1_interior_violations=3)

    monkeypatch.setattr(cli, "cost_report", violating)
    assert cli.main(["graphing", "--out", str(tmp_path)], config_overrides=SMALL) == 1
    report = json.loads((tmp_path / "cost_report.json").read_text())
    assert report["pi1_interior_violations"] == 3
    assert "3 interior marked points have no Pi1 out-edge" in capsys.readouterr().err


def test_all_builds_its_schedule_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return build_schedule(*args, **kwargs)

    build_schedule = cli.build_schedule
    monkeypatch.setattr(cli, "build_schedule", counted)
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
# re-pinned when each sandwich scenario gained `checked_rows` and `vacuous`.
# The `all` run covers every runner; its digests are keyed by relative path.
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
    "prop13": ("prop13", {"prop13": {"window_radius": 3, "seeds": 3}}),
}
PINNED_DIGESTS = {
    "all": {
        "diamond/corners.csv": "7aba8511352f20a659584ec527d01142a7b0dce1e93b8e0ca4ac457bd9be32fa",
        "diamond/dominance.csv": "9e66eeefa8fc3eaf0f4cae6351baaeabf08869dfd673ea3d01aff0df1227ea9a",
        "diamond/perfect_diamond.csv": "eb88ba42a429282a7c638bad10374d1e16f579cb2cf66a0197dc76a722ef51d3",
        "diamond/plot.csv": "938e17eca5fd367c1f0c29b65bb111b8d0d10eb3fdd0b2b69d8ce35a3635c8fd",
        "diamond/sandwich_lattice.csv": "6da226d9ab5538431b52a6ec63c2f2b8aa2e4ccd4208701df99d40e9139447a4",
        "diamond/sandwich_tree.csv": "b267fe1a24d7800a16cd31d103bde48c05f9e9c19b769ce435dbd3170a693bd3",
        "diamond/summary.json": "ff8501369344e5ffd0d8e8d99e4241156cf898d9342ccc6558e6b7a8de4e7a2f",
        "diamond/volumes.csv": "0df7487da9e8da2c2a6873070ba68a3e9fc9f83db9103dea26e9c499004b5150",
        "graphing/cost_report.json": "0a318d46d1ebd097992d5c18cbb504fcf3a630fe1ca0a079b535143773bd15c7",
        "graphing/edges_seed0.csv": "0fabe60b1509a8d9a8619e2afc388ee8124445163d242bf88319808c006ed25c",
        "graphing/pi5_seed0.csv": "9ca7df6df658f032fe8d1511930040c70a0d9d4378113582243a25fe558bcc0a",
        "graphing/plot.csv": "06f9c5c96d761893d0429facd9226ac2c4a6d9c89131364721767f311caf09ba",
        "graphing/runs.csv": "47791004660bc0ac33b60fa9a29e9e247ab56c07bcc0a210e19b886987a37376",
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
        "prop13/baseline.csv": "1bdd2d8b70111f199a6fdea2e2306adf0864b584fc975c947e276dc905aa1dbe",
        "prop13/plot.csv": "7447593294260f9de7a161e510bf54034ccf6a888a33824f87adbba268415289",
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
        "cost_report.json": "ff8c0d2fc839bdb0289343c52b5a0b388325c8f515970aa1a8da320f94442f15",
        "edges_seed0.csv": "d0ecf15fd319b047c94a9c1c9b40f236c0e924e350c9caf1d28c3cebe5b074ad",
        "pi5_seed0.csv": "e1974183227f312f320484b9476ed18ee4897445459a2bdf9dc5c1838830c762",
        "plot.csv": "637fc315ee87f19364fdabe7329d60a9037b218dcd40ee21c5c7d20bc9d0ed87",
        "runs.csv": "01e5181511275d0b86dfd82b567b1d665200f1a3f0bda16eb2a4494e2f166ccd",
    },
    "graphing-z2xf2": {
        "cost_report.json": "2273431b3d78577ebe2ace647fc11d63123c99ea0dcb3891c53e885a9e5ab409",
        "edges_seed0.csv": "545d28540f4dc520433fba432809dbbaa7a02517864dd79a16e3f8060d92ff7d",
        "pi5_seed0.csv": "a01333864669a3d5f4710618b787b78a45a93d2c11b03d43dd47fa91ddbb8ede",
        "plot.csv": "c07bd2cf99a693cf29ad75e4e85fd14376028fa5152262df2b1a2932c4b27dd0",
        "runs.csv": "33be8e5470115dcb5322806db3cbffac838f55f3defeede76e96785551cf6489",
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
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }
    assert got == PINNED_DIGESTS[run]
