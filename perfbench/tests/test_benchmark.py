import json
import subprocess
import sys
from dataclasses import replace

import pytest

import layers
import run
from conftest import BENCH, ROOT

TINY = {"window_radius": 3, "margin": 2, "seeds": 2}
TINY_CONFIGS = {
    "graphing-wr5": {"graphing": TINY},
    "baseline-wr5": {"prop13": TINY},
    "all-t2": {
        "acceptance_checks": False,
        "graphing": TINY,
        "prop13": TINY,
        "process": {"window_radius": 3, "seeds": 2, "corner_seeds": 2},
    },
}


def test_benchmark_json_matches_the_metric_tables():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == layers.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_layer_values_read_spans_and_counters():
    summary = {
        "graphing.run_seed": {"calls": 4, "s": 1.0, "self_s": 0.25, "durations": [0.1, 0.2, 0.3, 0.4]},
    }
    counts = {"graphing.vertices": 7, "point_process.covering_centers": 3,
              "point_process.universe_points": 12}
    values = layers.layer_values(summary, counts)
    assert values["graphing.run_seed.s"] == 1.0
    assert values["graphing.run_seed.self_s"] == 0.25
    assert values["graphing.run_seed.calls"] == 4
    assert values["graphing.run_seed.p50_ms"] == pytest.approx(200.0)
    assert values["graphing.run_seed.p90_ms"] == pytest.approx(400.0)
    assert values["graphing.vertices"] == 7
    assert values["point_process.center_yield"] == 0.25
    assert values["graphing.tau.s"] == 0  # span never recorded
    assert set(values) == {n for n, _ in layers.PER_LAYER} - layers.PARENT_METRICS


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_smoke_every_workload_on_a_tiny_window(name, tmp_path, capsys):
    w = replace(run.WORKLOADS[name], config=TINY_CONFIGS[name])
    result = run.run_workload(ROOT, w, seed=5, seconds=0, trace=False, out=tmp_path)
    assert result["correct"], capsys.readouterr().out
    assert set(result["metrics"]) == {n for n, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["attempted"] == run.SETUP_SAMPLES  # one full run, then set-up alone
    traced = [run.run_workload(ROOT, w, seed=5, seconds=0, trace=True, out=tmp_path) for _ in range(2)]
    out = capsys.readouterr().out
    assert all(r["correct"] for r in traced), out
    assert "missing span" not in out
    assert set(traced[0]["metrics"]) == {n for n, _ in layers.PER_LAYER}
    assert traced[0]["metrics"]["sizes.universe"]["value"] > 0


def test_exits_nonzero_without_sources(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "graphing-wr5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_artifact_digest_masks_elapsed_times_and_skips_the_manifest(tmp_path):
    def tree(name, acceptance, manifest):
        d = tmp_path / name
        (d / "graphing").mkdir(parents=True)
        (d / "graphing" / "runs.csv").write_text("seed\n0\n")
        (d / "acceptance.txt").write_text(acceptance)
        (d / "manifest.json").write_text(manifest)
        return run.artifact_digest(d)

    a = tree("a", "[PASS] criterion 7: forest (10.2s) 0 violations\n", '{"t": 1}')
    b = tree("b", "[PASS] criterion 7: forest (9.8s) 0 violations\n", '{"t": 2}')
    c = tree("c", "[PASS] criterion 7: forest (9.8s) 1 violations\n", '{"t": 2}')
    assert a == b != c
