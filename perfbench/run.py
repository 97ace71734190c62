"""The horolab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the directory holding src/horolab).
Each workload runs the real `horolab` CLI in fresh child interpreters, one
after another (closed loop), with the master seed N.

--trace 0 repeats the full command until S seconds have passed, then
samples set-up alone until it has SETUP_SAMPLES set-up times, and reports
the medians of the end-to-end metrics.  --trace 1 runs the workload's
config with threads = 1 twice at the same time, untraced and with every
layer span of layers.py, and reports the per-layer metrics and the
tracing overhead.

Every run checks the exit code, the gate fields of the artifacts and that
the data artifacts (everything but manifest.json) are byte-identical to
every other run of the same source tree, workload and seed.  `--workload
all` runs every workload in turn.  The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
OUT = HERE / ".out"

END_TO_END = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("seeds_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("cpu_s", "s"),
]
SETUP_SAMPLES = 3
RUN_BUDGET_S = 165.0  # a run must exit within 180 s
# acceptance.txt reports each criterion's elapsed seconds, e.g. "(10.2s)";
# they are masked so the rest of the file is still compared byte for byte.
ELAPSED = re.compile(rb"\(\d+\.\d+s\)")
COST_GATES = (
    "pi1_interior_violations",
    "parallel_violations",
    "monotone_violations",
    "pi5_violations",
)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    sweep: str  # "cost_report" or "baseline", see probe.py
    threads: int = 1
    cost_reports: tuple = ()  # cost_report.json files whose violation counts gate
    prop13_summaries: tuple = ()  # prop13 summary.json files that gate


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "graphing-wr5",
            "graphing",
            {"graphing": {"window_radius": 5, "seeds": 40}},
            "cost_report",
            cost_reports=("cost_report.json",),
        ),
        Workload(
            "baseline-wr5",
            "prop13",
            {"prop13": {"window_radius": 5, "seeds": 20}},
            "baseline",
            prop13_summaries=("summary.json",),
        ),
        Workload(
            "all-t2",
            "all",
            {},
            "cost_report",
            threads=2,
            cost_reports=("graphing/cost_report.json",),
            prop13_summaries=("prop13/summary.json",),
        ),
    )
}


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(msg: str):
    print(msg, file=sys.stderr, flush=True)


@dataclass
class Child:
    """One child interpreter: its timings, usage, checks and digest."""

    mode: str
    wall_s: float = 0.0
    setup_s: float = None
    sweep_s: float = 0.0
    seeds: int = 0
    rss_mb: float = 0.0
    cpu_s: float = 0.0
    digest: str = None
    report: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems


class Bench:
    """Runs children for one workload inside a source checkout."""

    def __init__(self, root: Path, workload: Workload, seed: int, out: Path = OUT):
        self.root = root
        self.w = workload
        self.seed = seed
        self.out = out
        self.dir = out / workload.name
        self.start = now()
        self.count = 0
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.key = hashlib.sha256(
            json.dumps(
                [source_digest(root), workload.command, workload.config, seed], sort_keys=True
            ).encode()
        ).hexdigest()

    def config_path(self, threads: int) -> Path:
        path = self.dir / f"config-t{threads}.json"
        if not path.exists():
            path.write_text(json.dumps(self.w.config, sort_keys=True))
        return path

    def remaining(self) -> float:
        return RUN_BUDGET_S - (now() - self.start)

    def child(self, mode: str, threads: int) -> Child:
        return self.children([(mode, threads)])[0]

    def children(self, specs) -> list:
        """Start one child per (mode, threads) at once and wait for all."""
        started = [self.spawn(mode, threads) for mode, threads in specs]
        waiting = {s["proc"].pid: s for s in started}
        while waiting:
            pid, status, usage = os.wait4(-1, 0)  # this process starts no others
            t1 = now()
            s = waiting.pop(pid, None)
            if s is not None:
                s["timer"].cancel()
                s["child"] = self.finish(s, status, usage, t1)
        return [s["child"] for s in started]

    def spawn(self, mode: str, threads: int) -> dict:
        self.count += 1
        run_dir = self.dir / f"{self.count:02d}-{mode}"
        run_dir.mkdir()
        argv = [
            sys.executable, str(HERE / "probe.py"),
            "--mode", mode, "--sweep", self.w.sweep, "--report", str(run_dir / "probe.json"),
            "--", self.w.command, "--config", str(self.config_path(threads)),
            "--seed", str(self.seed), "--out", str(run_dir / "artifacts"),
            "--threads", str(threads),
        ]
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        with open(run_dir / "child.log", "wb") as logfh:
            t0 = now()
            proc = subprocess.Popen(
                argv, cwd=self.root, env=env, stdout=logfh, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
        timer = threading.Timer(max(1.0, self.remaining()), kill_group, (proc.pid,))
        timer.start()
        return {"mode": mode, "dir": run_dir, "proc": proc, "t0": t0, "timer": timer}

    def finish(self, s: dict, status: int, usage, t1: float) -> Child:
        run_dir, t0 = s["dir"], s["t0"]
        s["proc"].returncode = rc = os.waitstatus_to_exitcode(status)
        c = Child(s["mode"])
        c.wall_s = t1 - t0
        c.rss_mb = usage.ru_maxrss / 1024.0  # kB on Linux; includes waited-for workers
        c.cpu_s = usage.ru_utime + usage.ru_stime
        if rc != 0:
            c.problems.append(f"exit code {rc} (see {run_dir / 'child.log'})")
        try:
            c.report = json.loads((run_dir / "probe.json").read_text())
        except (OSError, ValueError):
            c.problems.append("no probe report")
            return c
        if c.report.get("setup_mark") is None:
            c.problems.append("the sweep never started")
        else:
            c.setup_s = c.report["setup_mark"] - t0
        c.sweep_s = c.report.get("sweep_s", 0.0)
        c.seeds = c.report.get("seeds", 0)
        if c.mode != "setup" and rc == 0:
            c.problems += check_gates(run_dir / "artifacts", self.w)
            c.digest = artifact_digest(run_dir / "artifacts")
            c.problems += self.remember("digests", c.digest)
            shutil.rmtree(run_dir / "artifacts")
        return c

    def remember(self, kind: str, value) -> list:
        """Compare `value` with what an earlier run of this key recorded."""
        path = self.out / f"{kind}.json"
        try:
            seen = json.loads(path.read_text())
        except (OSError, ValueError):
            seen = {}
        if self.key in seen:
            if seen[self.key] != value:
                return [f"{kind} differ from an earlier run of the same source and seed"]
            return []
        seen[self.key] = value
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(seen, sort_keys=True))
        tmp.replace(path)
        return []


def kill_group(pid: int):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def source_digest(root: Path) -> str:
    """SHA-256 of the package sources and of this benchmark's own code."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")) + sorted(HERE.glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def artifact_digest(out: Path) -> str:
    """SHA-256 of every data artifact (all files but manifest.json)."""
    h = hashlib.sha256()
    for p in sorted(out.rglob("*")):
        if p.is_file() and p.name != "manifest.json":
            data = p.read_bytes()
            if p.name == "acceptance.txt":
                data = ELAPSED.sub(b"(-s)", data)
            h.update(f"{p.relative_to(out)}\0{len(data)}\0".encode() + data)
    return h.hexdigest()


def check_gates(out: Path, w: Workload) -> list:
    problems = []
    for rel in w.cost_reports:
        rep = load_json(out / rel, problems)
        for key in COST_GATES:
            if rep is not None and rep.get(key) != 0:
                problems.append(f"{rel}: {key} = {rep.get(key)}")
    for rel in w.prop13_summaries:
        summ = load_json(out / rel, problems)
        if summ is not None and not (
            summ.get("line_partition_ok") is True and summ.get("monotone_violations") == 0
        ):
            problems.append(f"{rel}: line_partition_ok/monotone_violations not clean")
    if w.command == "all" and w.config.get("acceptance_checks", True):
        try:
            lines = (out / "acceptance.txt").read_text().splitlines()
        except OSError:
            lines = []
        if not lines or not all(ln.startswith("[PASS]") for ln in lines):
            problems.append("acceptance_passed is false (acceptance.txt)")
    return problems


def load_json(path: Path, problems: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: unreadable ({exc})")
        return None


def machine(workload: str, seed: int) -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "workload": workload,
        "seed": seed,
    }


def measure(bench: Bench, seconds: float) -> tuple:
    """Untraced closed loop; returns (children, metrics)."""
    w = bench.w
    full = []
    while not full or (
        now() - bench.start < seconds and bench.remaining() > 2 * full[-1].wall_s
    ):
        full.append(bench.child("plain", w.threads))
        log(f"{w.name}: run {len(full)} {full[-1].wall_s:.2f} s {full[-1].problems or 'ok'}")
    setup_only = []
    good = [c for c in full if c.ok]
    for _ in range(SETUP_SAMPLES - len(good)):
        if good and bench.remaining() > 2 * max(c.setup_s for c in good) + 5:
            setup_only.append(bench.child("setup", w.threads))
    children = full + setup_only
    good = [c for c in full if c.ok]
    values = {
        "wall_s": median(c.wall_s for c in good),
        "setup_s": median(c.setup_s for c in children if c.ok),
        "seeds_per_s": median(c.seeds / c.sweep_s for c in good if c.sweep_s > 0),
        "peak_rss_mb": median(c.rss_mb for c in good),
        "cpu_s": median(c.cpu_s for c in good),
    }
    return children, {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def measure_traced(bench: Bench) -> tuple:
    """Untraced and traced serial runs side by side, one per core, so both
    see the same machine; returns (children, metrics, missing)."""
    plain, traced = bench.children([("plain", 1), ("trace", 1)])
    if plain.digest and traced.digest and plain.digest != traced.digest:
        traced.problems.append("tracing changed the data artifacts")
    values = dict(traced.report.get("layers", {}))
    values["trace.overhead"] = traced.wall_s / plain.wall_s - 1.0 if plain.wall_s else 0.0
    exact = {
        name: values.get(name, 0)
        for name, unit in layers.PER_LAYER
        if unit in ("count", "bytes") or name == "point_process.center_yield"
    }
    if traced.ok:
        traced.problems += bench.remember("counts", exact)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in layers.PER_LAYER}
    return [plain, traced], metrics, traced.report.get("missing", [])


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def run_workload(root: Path, w: Workload, seed: int, seconds: float, trace: bool, out: Path = OUT) -> dict:
    """Run one workload and print its report; returns the result object."""
    bench = Bench(root, w, seed, out)
    missing = []
    if trace:
        children, metrics, missing = measure_traced(bench)
    else:
        children, metrics = measure(bench, seconds)
    failed = [c for c in children if not c.ok]
    print("machine: " + json.dumps(machine(w.name, seed), sort_keys=True))
    kinds = ", ".join(f"{sum(c.mode == m for c in children)} {m}" for m in ("plain", "setup", "trace"))
    print(f"{w.name} seed {seed} ({kinds} runs):")
    for name, m in metrics.items():
        print(f"  {name:52s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_frac':52s} {len(failed) / len(children):.6g} ratio ({len(failed)}/{len(children)})")
    digests = sorted({c.digest for c in children if c.digest})
    print(f"artifacts_sha256: {' '.join(digests) or 'none'}")
    for name in missing:
        print(f"missing span: {name}")
    for c in failed:
        for p in c.problems:
            print(f"FAILED ({c.mode}): {p}")
    return {
        "correct": not failed,
        "attempted": len(children),
        "failed": len(failed),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="horolab benchmark")
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "horolab" / "cli.py").is_file():
        log(f"no horolab sources under {root / 'src'}; run from the root of a checkout")
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(root, WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
