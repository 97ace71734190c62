"""Experiment runner: configuration, orchestration and artifact emission.

Subcommands: growth, schedule, diamond, process, graphing, touching,
prop13, all.  Each run writes CSV/JSON artifacts plus a long-format
plot.csv (series, x, y, y_err) into the output directory, and a manifest
echoing the fully resolved configuration, with the wall seconds and peak
RSS of each runner (and of the acceptance suite) and the elapsed seconds
of each acceptance criterion under `metrics`.  Timestamps and elapsed
seconds live only in the manifest; every other artifact is
byte-identical across reruns with the same master seed.

This is the only module that writes files.  The computation modules
return values; each runner builds its rows and writes every CSV and JSON
artifact through `write_csv` and `write_json`, which fix the format.  A
report's dataclass is its artifact's schema: `write_records` writes one
column per field (runs.csv, baseline.csv, sandwich_*.csv), and
`CostReport.to_json_dict` keys cost_report.json by field name.
Only the manifest, acceptance.txt (text) and process_seed0.jsonl (JSON
Lines) are written otherwise.

`main` builds one `Run` from the validated config and hands it to the
runner.  The run resolves the group specs, the slope, the schedule, the
metric and the graphing and prop13 sweeps each once, on first use, and
keeps them for the rest of the invocation; `growth`, `touching` and
`prop13` never build the schedule.  Growth series are recomputed where
they are read: `groups.ball` keeps each group's enumeration for the
whole process, so a repeated series costs no enumeration.

`all` runs every subcommand and then the acceptance suite, and offers the
suite its run.  A criterion takes a sweep from the offered run when every
config entry that sweep reads (`SWEEP_INPUTS`) equals the suite's pinned
run's, as with the defaults: criteria 7 and 9 reuse the graphing sweep,
criterion 10 the prop13 sweep and criterion 6 the sandwich scenarios
that `diamond` wrote.

Exit codes: 0 success, 1 invariant violation, 2 config error, 3 resource
cap.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import dataclasses
import datetime
import functools
import json
import math
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, acceptance
from .diamonds import SandwichRow, corner_count, diamond_volume, growth_dominance
from .errors import (
    ApproximationError,
    HorolabError,
    InputError,
    InvariantViolation,
    MarkCollisionError,
    ResourceCapError,
)
from .graphing import (
    BaselineRow,
    CostReport,
    GraphingContext,
    SeedStats,
    coset_line_baseline,
    cost_report,
)
from .groups import GroupSpec, ball, growth_series, make_oracle
from .point_process import (
    ProcessContext,
    corner_event_probability,
    eventually_decreasing_split,
    hit_probability,
    incidence_stats,
    sample_diamond_process,
)
from .product import ProductMetric, as_slope, perfect_diamond
from .randomness import seed_digest
from .schedule import schedule_for

DEFAULTS = {
    "group": {"kind": "free", "rank": 2},
    "group2": {"kind": "free", "rank": 2},
    "c": None,
    "enum_cap": 20_000_000,
    "master_seed": 20260810,
    "threads": 1,
    "acceptance_checks": True,
    "growth": {"horizon": 8, "ball_dump_radius": 3},
    "schedule": {"horizon": 12, "m_max": 5},
    "diamond": {"n_values": list(range(0, 9)), "T_values": [1, 2, 3]},
    "process": {
        "n": 2,
        "window_radius": 4,
        "seeds": 50,
        "T": 1,
        "n_range": list(range(1, 9)),
        "corner_seeds": 50,
    },
    "graphing": {
        "n": 2,
        "window_radius": 5,
        "margin": 2,
        "eps": 0.05,
        "eps_list": [0.01, 0.05, 0.1, 0.2],
        "seeds": 200,
    },
    "prop13": {"window_radius": 4, "margin": 2, "eps_list": [0.0, 0.05, 0.2], "seeds": 20},
}


def _deep_merge(base: dict, extra: dict) -> dict:
    """`extra` over `base`, block by block.  A group spec is replaced whole:
    merged, a lattice spec would keep the default free spec's `rank`."""
    out = dict(base)
    for k, v in (extra or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict) and k not in ("group", "group2"):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


# Integer config fields as (block, key, least value); block None is the
# top level.  Every entry of an integer list field is an integer >= 0.
_INT_FIELDS = (
    (None, "enum_cap", 1),
    (None, "threads", 1),
    ("growth", "horizon", 1),
    ("growth", "ball_dump_radius", 0),
    ("schedule", "horizon", 1),
    ("schedule", "m_max", 0),
    ("process", "n", 0),
    ("process", "window_radius", 0),
    ("process", "seeds", 1),
    ("process", "T", 0),
    ("process", "corner_seeds", 0),
    ("graphing", "n", 0),
    ("graphing", "window_radius", 1),
    ("graphing", "margin", 1),
    ("graphing", "seeds", 1),
    ("prop13", "window_radius", 1),
    ("prop13", "margin", 1),
    ("prop13", "seeds", 1),
)
_INT_LIST_FIELDS = (("process", "n_range"), ("diamond", "n_values"), ("diamond", "T_values"))
_EPS_LIST_FIELDS = (("graphing", "eps_list"), ("prop13", "eps_list"))


def _require_int(value, name: str, least: int = 1):
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InputError(f"{name} must be an integer >= {least}, got {value!r}")


def _require_eps(value, name: str):
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value < math.inf:
        raise InputError(f"{name} must be a finite number >= 0, got {value!r}")


def _require_list(value, name: str) -> list:
    if not isinstance(value, list):
        raise InputError(f"{name} must be a list, got {value!r}")
    return value


# Blocks whose keys are checked against DEFAULTS; `group` and `group2` are
# checked by GroupSpec.
_BLOCKS = ("growth", "schedule", "diamond", "process", "graphing", "prop13")


def _validate(cfg: dict):
    unknown = [key for key in cfg if key not in DEFAULTS]
    for block in _BLOCKS:
        if not isinstance(cfg[block], dict):
            raise InputError(f"{block} must be an object, got {cfg[block]!r}")
        unknown += [f"{block}.{key}" for key in cfg[block] if key not in DEFAULTS[block]]
    if unknown:
        raise InputError(f"unknown config keys: {', '.join(unknown)}")

    def get(block, key):
        if block is None:
            return cfg[key], key
        return cfg[block][key], f"{block}.{key}"

    for block, key, least in _INT_FIELDS:
        _require_int(*get(block, key), least)
    for block, key in _INT_LIST_FIELDS:
        for v in _require_list(*get(block, key)):
            _require_int(v, f"{block}.{key} entry", 0)
    for block, key in _EPS_LIST_FIELDS:
        for v in _require_list(*get(block, key)):
            _require_eps(v, f"{block}.{key} entry")
    _require_eps(*get("graphing", "eps"))
    if isinstance(cfg["master_seed"], bool) or not isinstance(cfg["master_seed"], int):
        raise InputError(f"master_seed must be an integer, got {cfg['master_seed']!r}")
    if not isinstance(cfg["acceptance_checks"], bool):
        raise InputError(
            f"acceptance_checks must be true or false, got {cfg['acceptance_checks']!r}"
        )
    if cfg["c"] is not None and not as_slope(str(cfg["c"])) > 0:
        raise InputError(f"c must be null or a positive rational, got {cfg['c']!r}")


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_records(path, cls, records, omit=()):
    """A CSV of dataclass records, one column per field of `cls` but those
    named in `omit`, in field order."""
    names = [f.name for f in dataclasses.fields(cls) if f.name not in omit]
    write_csv(path, names, ([getattr(r, name) for name in names] for r in records))


def write_plot(out, rows):
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], rows)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_c(cfg, spec1, spec2) -> Fraction:
    """The metric slope: the configured c; else 1 for equal specs or equal
    exact growth rates; else log a / log a' from the exact rates, when
    that is an integer.  Anything else is an InputError."""
    if cfg["c"] is not None:
        return as_slope(str(cfg["c"]))  # a JSON 1.5 reads as "1.5", i.e. 3/2
    a, b = make_oracle(spec1).exact_growth_rate(), make_oracle(spec2).exact_growth_rate()
    if spec1 == spec2 or (a is not None and a == b):
        return Fraction(1)
    if a is None or b is None:
        raise InputError(
            "slope c = log a / log a' needs exact growth rates for unequal factors; "
            "set an explicit rational c in the config"
        )
    if a <= 1 or b <= 1:
        raise InputError(
            "slope c = log a / log a' undefined for subexponential growth; "
            "set an explicit rational c in the config"
        )
    value = math.log(a) / math.log(b)
    if abs(value - round(value)) < 1e-12:
        return Fraction(int(round(value)))
    raise InputError(
        f"derived slope c = {value:.6f} is not rational; set an explicit "
        "rational c in the config for exact window arithmetic"
    )


# The config entries each sweep reads, and the sandwich scenarios (the
# groups and the slope).  Threads and the enumeration cap change how a
# sweep runs, not what it reports.
SWEEP_INPUTS = {
    "graphing": ("group", "group2", "c", "schedule", "graphing", "master_seed"),
    "prop13": ("group", "group2", "c", "prop13", "master_seed"),
    "sandwich": ("group", "group2", "c"),
}


def _peak_rss_mb(who) -> float:
    """Peak resident set size in MB; `ru_maxrss` is in KiB, bytes on macOS."""
    return resource.getrusage(who).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


class Run:
    """One invocation of the pipeline, built from a validated config.

    The group specs decide the slope `c` (with the config's `c`, through
    `_resolve_c`), and they alone pick the lemma or the linear schedule
    (`schedule_for`); no growth-rate estimate does.  The specs and `c` fix
    the metric, which carries the sandwich scenarios and the prop13 sweep;
    with the growth series they fix the schedule, which the graphing
    sweep also reads.  Each of these but the
    growth series is resolved on first use and kept for the rest of the
    invocation, so no runner re-derives one and no sweep runs twice.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.metrics = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        """Time the `name` stage into `metrics`: its wall seconds, and the
        peak RSS so far of this process and of its waited-for children."""
        t0 = time.perf_counter()
        yield
        self.metrics[name] = {
            "wall_s": time.perf_counter() - t0,
            "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
            "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN),
        }

    @functools.cached_property
    def specs(self) -> tuple:
        return GroupSpec.from_dict(self.cfg["group"]), GroupSpec.from_dict(self.cfg["group2"])

    @functools.cached_property
    def c(self) -> Fraction:
        """The metric slope, from the config and the group specs alone
        (`_resolve_c`)."""
        return _resolve_c(self.cfg, *self.specs)

    @functools.cached_property
    def schedule(self):
        """The slope schedule to `schedule.horizon`, as the specs pick it."""
        horizon = self.cfg["schedule"]["horizon"]
        return schedule_for(*self.specs, self.c, horizon, self.cfg["enum_cap"])

    @functools.cached_property
    def metric(self) -> ProductMetric:
        spec1, spec2 = self.specs
        return ProductMetric(make_oracle(spec1), make_oracle(spec2), self.c)

    @functools.cached_property
    def sandwich(self) -> dict:
        """The horoball-sandwich scenarios on the run's groups and slope."""
        return acceptance.sandwich_scenarios(*self.specs, self.c)

    def sweep_graphing(self) -> CostReport:
        """Run the graphing sweep and return its report, seed-0 stages
        included.  The run keeps it as `graphing` without them: they
        reference the whole GraphingContext."""
        sub = self.cfg["graphing"]
        t0 = time.time()
        ctx = GraphingContext(
            self.metric, self.schedule, sub["n"], sub["window_radius"], sub["margin"],
            self.cfg["enum_cap"],
        )
        report = cost_report(
            ctx,
            sub["seeds"],
            sub["eps_list"],
            sub["eps"],
            self.cfg["master_seed"],
            threads=self.cfg["threads"],
        )
        self.graphing = dataclasses.replace(report, seed0_stages={}), time.time() - t0
        return report

    @functools.cached_property
    def graphing(self) -> tuple:
        """(report, wall seconds) of the graphing sweep."""
        self.sweep_graphing()
        return self.graphing  # the instance attribute sweep_graphing set

    @functools.cached_property
    def prop13(self) -> tuple:
        """(report, wall seconds) of the coset-line baseline sweep."""
        sub, cfg = self.cfg["prop13"], self.cfg
        t0 = time.time()
        report = coset_line_baseline(
            self.metric,
            sub["window_radius"],
            sub["margin"],
            sub["eps_list"],
            sub["seeds"],
            cfg["master_seed"],
            cap=cfg["enum_cap"],
        )
        return report, time.time() - t0

    def same_sweep(self, other: "Run", name: str) -> bool:
        """Whether `other`'s `name` sweep (or sandwich scenarios) reports
        what this run's does: every config entry it reads is equal."""
        return all(self.cfg[key] == other.cfg[key] for key in SWEEP_INPUTS[name])


def run_growth(run: Run, out: Path):
    cfg = run.cfg
    sub = cfg["growth"]
    plot = []
    summary = {}
    for tag, spec in zip(("G", "G2"), run.specs):
        g = growth_series(spec, sub["horizon"], method="bfs", cap=cfg["enum_cap"])
        g.check_invariants()
        rows = []
        for n, v in enumerate(g.volumes):
            est = g.growth_rate_estimates[n - 1] if n >= 1 else float("nan")
            rows.append([n, v, g.spheres[n], est])
            plot.append([f"volume_{tag}", n, v, 0])
        write_csv(out / f"growth_{tag}.csv", ["n", "volume", "sphere", "rate_estimate"], rows)
        oracle = make_oracle(spec)
        radius = min(sub["ball_dump_radius"], sub["horizon"])
        write_csv(
            out / f"ball_{tag}.csv",
            ["canonical_word", "distance"],
            [[oracle.word_str(el), d] for el, d in ball(oracle, radius, cfg["enum_cap"])],
        )
        summary[tag] = {
            "spec": spec.to_dict(),
            "method": g.method,
            "eps_nonamen": str(g.eps_nonamen),
            "exact_rate": None if g.exact_rate is None else float(g.exact_rate),
            "rate_estimate": g.growth_rate_estimates[-1],
        }
    write_json(out / "summary.json", summary)
    write_plot(out, plot)


def run_schedule(run: Run, out: Path):
    sub = run.cfg["schedule"]
    sched = run.schedule
    sched.check_invariants()
    rows = []
    for t in range(len(sched.f)):
        seg = sched.segment_of[t]
        slope = sched.segments[seg].slope if seg < len(sched.segments) else ""
        rows.append([t, sched.f[t], sched.g[t], seg, slope])
    write_csv(out / "schedule.csv", ["n", "f_n", "g_n", "segment_index", "slope"], rows)
    write_json(out / "breakpoints.json", sched.breakpoints())
    rep = sched.verify_almost_linear(sub["m_max"])
    write_csv(
        out / "almost_linear.csv",
        ["m", "N_of_m", "max_violation", "holds_within_horizon"],
        [[r.m, r.n_of_m, r.max_late_deviation, r.holds_within_horizon] for r in rep.rows],
    )
    plot = [["f", t, sched.f[t], 0] for t in range(len(sched.f))]
    plot += [["g", t, float(sched.g[t]), 0] for t in range(len(sched.g))]
    write_plot(out, plot)


def run_diamond(run: Run, out: Path):
    sub = run.cfg["diamond"]
    sched, metric = run.schedule, run.metric
    t = max(sub["T_values"], default=0)
    n_values = [n for n in sub["n_values"] if sched.reaches(n, t)]
    vol_rows = []
    plot = []
    for n in n_values:
        dv = diamond_volume(sched, n)
        vol_rows.append([n, sched.r[n], sched.r_prime[n], dv])
        plot.append(["diamond_volume", n, dv, 0])
    write_csv(out / "volumes.csv", ["n", "r_n", "r_prime_n", "volume"], vol_rows)
    dump_radius = min(2, sched.horizon)
    write_csv(
        out / "perfect_diamond.csv",
        ["first_word", "second_word", "rho"],
        [
            [metric.first.word_str(y[0]), metric.second.word_str(y[1]), rho]
            for y, rho in perfect_diamond(
                metric, metric.origin, dump_radius, cap=run.cfg["enum_cap"]
            )
        ],
    )
    corner_rows = []
    for T in sub["T_values"]:
        for n in n_values:
            corner_rows.append(corner_count(sched, n, T))
            plot.append(
                ["corner_ratio_T%d" % T, n, float(corner_rows[-1].ratio), 0]
            )
    write_csv(
        out / "corners.csv",
        ["n", "T", "corner_count", "corner_bound", "ratio"],
        [[r.n, r.T, r.count, r.bound, float(r.ratio)] for r in corner_rows],
    )
    dom = growth_dominance(sched, [n for n in n_values if n >= 1])
    write_csv(
        out / "dominance.csv",
        ["n", "volume", "dominance_ratio", "lower_bound"],
        [[r.n, r.volume, float(r.ratio), float(r.lower_bound)] for r in dom],
    )
    for r in dom:
        plot.append(["dominance_ratio", r.n, float(r.ratio), 0])
    sandwich = _run_sandwich_scenarios(run, out)
    summary = {"n_values": n_values, "schedule_source": sched.source, "sandwich": sandwich}
    write_plot(out, plot)
    write_json(out / "summary.json", summary)


def _run_sandwich_scenarios(run: Run, out: Path) -> dict:
    """Each scenario's summary.  `checked_rows` counts the rows whose
    diamond meets the window; a scenario with none is `vacuous`, however
    few violations it reports."""
    results = {}
    for name, rep in run.sandwich.items():
        write_records(out / f"sandwich_{name}.csv", SandwichRow, rep.rows)
        checked = sum(1 for r in rep.rows if not r.vacuous)
        results[name] = {
            "first_sandwiched_n": rep.first_sandwiched_n,
            "violations": sum(r.lower_violations for r in rep.rows),
            "checked_rows": checked,
            "vacuous": checked == 0,
        }
    return results


def run_process(run: Run, out: Path):
    cfg = run.cfg
    sub = cfg["process"]
    sched = run.schedule
    ctx = ProcessContext(run.metric, sched, sub["n"], sub["window_radius"], cfg["enum_cap"])
    inc_rows = []
    plot = []
    for s in range(sub["seeds"]):
        proc = sample_diamond_process(ctx, seed_digest(cfg["master_seed"], s))
        if s == 0:
            _, sizes = ctx.covering.gather(proc.chosen)
            columns = (proc.center_pids.tolist(), proc.marks.tolist(), sizes.tolist())
            with open(out / "process_seed0.jsonl", "w") as fh:  # JSON Lines: a diamond a line
                for pid, mark, size in zip(*columns):
                    center = ctx.space.word_str(pid)
                    line = {"center": center, "mark": mark, "members_in_window": size}
                    fh.write(json.dumps(line, sort_keys=True) + "\n")
        inc = incidence_stats(proc)
        inc_rows.append(
            [s, len(proc.center_pids), inc.empirical_mean, inc.exact_mean, inc.max_count]
        )
        plot.append(["incidence_mean", s, inc.empirical_mean, 0])
    write_csv(
        out / "incidence.csv",
        ["seed", "centers", "empirical_mean", "exact_mean", "max_count"],
        inc_rows,
    )
    n_range = [n for n in sub["n_range"] if sched.reaches(n, sub["T"])]
    corner_rows = corner_event_probability(
        sched, n_range, sub["T"], sub["corner_seeds"], cfg["master_seed"], cfg["enum_cap"]
    )
    write_csv(
        out / "corner_events.csv",
        ["n", "T", "corner_count", "volume", "exact_probability", "empirical_probability"],
        [
            [r.n, r.T, r.corner_count, r.volume, r.exact_probability, r.empirical_probability]
            for r in corner_rows
        ],
    )
    split = eventually_decreasing_split([r.miss_exponent for r in corner_rows])
    for r in corner_rows:
        plot.append(["corner_event_exact", r.n, r.exact_probability, 0])
    hit_rows = []
    for n in n_range:
        try:
            h = hit_probability(sched, n, sub["T"])
        except InputError:
            continue
        hit_rows.append([n, h.T, h.hitting_count, h.volume, float(h.ratio), float(h.lower_bound)])
        plot.append(["hit_ratio", n, float(h.ratio), 0])
    write_csv(
        out / "hit.csv",
        ["n", "T", "hitting_count", "volume", "ratio", "lower_bound"],
        hit_rows,
    )
    write_plot(out, plot)
    summary = {
        "window_points": len(ctx.window_ids),
        "diamond_volume": ctx.volume,
        "corner_decay": split,
    }
    write_json(out / "summary.json", summary)


def run_graphing(run: Run, out: Path):
    sub = run.cfg["graphing"]
    rep = run.sweep_graphing()
    write_json(out / "cost_report.json", rep.to_json_dict())
    # largest_fraction holds one value per epsilon; cost_report.json and
    # plot.csv carry its means.
    write_records(out / "runs.csv", SeedStats, rep.runs, omit=("largest_fraction",))
    seed0 = rep.seed0_stages
    mw = seed0.get("marked_window")
    if mw is not None:
        space = mw.ctx.pctx.space

        def vname(vi):  # a marked vertex as word|word#diamond
            return f"{space.word_str(int(mw.v_pid[vi]))}#{int(mw.v_k[vi])}"

        write_csv(
            out / "edges_seed0.csv",
            ["stage", "source", "target"],
            [
                [stage, vname(a), vname(b)]
                for stage, key in zip(
                    ("pi1", "pi2", "pi3", "F", "pi4"),
                    ("pi1", "pi2_lifted", "pi3", "f_edges", "pi4"),
                )
                for a, b in seed0[key].tolist()
            ],
        )
        write_csv(
            out / "pi5_seed0.csv",
            ["stage", "source", "target"],
            [
                ["pi5", space.word_str(a), space.word_str(b)]
                for a, b in seed0["pi5"].tolist()
            ],
        )
    plot = []
    for e, fr in sorted(rep.largest_fraction_by_eps.items()):
        plot.append(["largest_component_fraction", e, fr, 0])
    for st in rep.stages:
        plot.append(
            ["half_degree_" + st["stage"], sub["eps"], st["half_degree_mean"], st["half_degree_se"]]
        )
    write_plot(out, plot)
    if rep.pi1_interior_violations:
        seeds = [r.seed for r in rep.runs if r.pi1_interior_violations]
        raise InvariantViolation(
            f"{rep.pi1_interior_violations} interior marked points have no Pi1 out-edge "
            f"(seeds {seeds}); see runs.csv"
        )


def run_touching(run: Run, out: Path):
    rows = []
    plot = []
    summary = {}
    for name, tr in acceptance.touching_scenarios(*run.specs).items():
        for j, rho in enumerate(tr.rho_values):
            rows.append(
                [name, j, str(rho), str(tr.xi1_values[j]), str(tr.xi2_values[j])]
            )
            plot.append([f"rho_{name}", j, float(rho), 0])
        summary[name] = {
            "k": tr.k,
            "k_prime": tr.k_prime,
            "bound": str(tr.bound),
            "bound_ok": tr.bound_ok,
            "monotone1": tr.monotone1,
            "monotone2": tr.monotone2,
            "steps": len(tr.rho_values),
        }
        if not (tr.bound_ok and tr.monotone1 and tr.monotone2):
            raise InvariantViolation(f"touching trace {name} violated its bound")
    write_csv(out / "traces.csv", ["scenario", "j", "rho", "d_theta1", "d_theta2"], rows)
    write_plot(out, plot)
    write_json(out / "summary.json", summary)


def run_prop13(run: Run, out: Path):
    rep, _ = run.prop13
    write_records(out / "baseline.csv", BaselineRow, rep.rows)
    plot = [
        ["largest_fraction", r.eps, r.largest_fraction_mean, r.largest_fraction_se]
        for r in rep.rows
    ] + [["half_degree", r.eps, r.half_degree_mean, r.half_degree_se] for r in rep.rows]
    write_plot(out, plot)
    summary = {
        "line_partition_ok": rep.line_partition_ok,
        "monotone_violations": rep.monotone_violations,
        "truncation_mass": rep.truncation_mass,
    }
    write_json(out / "summary.json", summary)
    if rep.monotone_violations:
        raise InvariantViolation("baseline merging was not monotone in eps")


RUNNERS = {
    "growth": run_growth,
    "schedule": run_schedule,
    "diamond": run_diamond,
    "process": run_process,
    "graphing": run_graphing,
    "touching": run_touching,
    "prop13": run_prop13,
}


def run_all(run: Run, out: Path):
    cfg = run.cfg
    for name, runner in RUNNERS.items():
        subdir = out / name
        subdir.mkdir(parents=True, exist_ok=True)
        with run.stage(name):
            runner(run, subdir)
    if cfg["acceptance_checks"]:
        lines = []
        with run.stage("acceptance"):
            results = acceptance.run_all(
                master_seed=cfg["master_seed"],
                threads=cfg["threads"],
                echo=lambda s: (lines.append(s), print(s)),
                offered=run,
            )
        for r in results:
            run.metrics[f"criterion_{r.index:02d}"] = {"elapsed_s": r.elapsed}
        (out / "acceptance.txt").write_text("\n".join(lines) + "\n")
        if not all(r.passed for r in results):
            raise InvariantViolation("acceptance criteria failed; see acceptance.txt")


def _read_config(path) -> dict:
    try:
        with open(path) as fh:
            loaded = json.load(fh)
    except (OSError, ValueError) as exc:  # JSON and Unicode errors are ValueErrors
        raise InputError(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise InputError(f"config file {path} must hold a JSON object, got {loaded!r}")
    return loaded


def main(argv=None, config_overrides=None) -> int:
    parser = argparse.ArgumentParser(
        prog="horolab",
        description="Simulation lab for horoball processes on product Cayley graphs",
    )
    parser.add_argument("command", choices=list(RUNNERS) + ["all"])
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument("--seed", type=int, default=None, help="master seed override")
    parser.add_argument("--out", default="horolab_out", help="output directory")
    parser.add_argument("--threads", type=int, default=None)
    args = parser.parse_args(argv)
    try:
        cfg = copy.deepcopy(DEFAULTS)
        if args.config:
            cfg = _deep_merge(cfg, _read_config(args.config))
        if config_overrides:
            cfg = _deep_merge(cfg, config_overrides)
        if args.seed is not None:
            cfg = _deep_merge(cfg, {"master_seed": args.seed})
        if args.threads is not None:
            cfg = _deep_merge(cfg, {"threads": args.threads})
        _validate(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        run = Run(cfg)
        if args.command == "all":
            run_all(run, out)
        else:
            with run.stage(args.command):
                RUNNERS[args.command](run, out)
        manifest = {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": cfg,
            "metrics": run.metrics,
        }
        # Not through `write_json`: the manifest is no data artifact, and its
        # metrics differ from run to run.
        (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
        print(f"horolab {args.command}: artifacts written to {out}")
        return 0
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (InvariantViolation, MarkCollisionError, ApproximationError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except HorolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
