"""Experiment runner: configuration, orchestration and artifact emission.

Subcommands: growth, schedule, diamond, process, graphing, touching,
prop13, all.  Each run writes CSV/JSON artifacts plus a long-format
plot.csv (series, x, y, y_err) into the output directory, and a manifest
echoing the fully resolved configuration, with the wall seconds and peak
RSS of each runner (and of the acceptance suite) under `metrics`.
Timestamps live only in the manifest, and elapsed seconds only there and
in acceptance.txt; every other artifact is byte-identical across reruns
with the same master seed.

`main` builds one `Run` from the validated config and hands it to the
runner.  The run resolves the group specs, the growth series, the
schedule, the metric and the graphing and prop13 sweeps each once, on
first use, and keeps them for the rest of the invocation; `growth`,
`touching` and `prop13` never build the schedule.

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
from .diamonds import (
    corner_count,
    diamond_volume,
    dominance_table_to_csv,
    growth_dominance,
    corner_table_to_csv,
)
from .errors import (
    ApproximationError,
    HorolabError,
    InputError,
    InvariantViolation,
    MarkCollisionError,
    ResourceCapError,
)
from .graphing import (
    CostReport,
    GraphingContext,
    coset_line_baseline,
    cost_report,
    edges_to_csv,
)
from .groups import GroupSpec, ball_to_csv, growth_series, make_oracle
from .point_process import (
    ProcessContext,
    corner_event_probability,
    eventually_decreasing_split,
    hit_probability,
    incidence_stats,
    sample_diamond_process,
)
from .product import ProductMetric, as_slope, diamond_to_csv, perfect_diamond
from .randomness import seed_digest
from .schedule import build_schedule, linear_schedule

DEFAULTS = {
    "group": {"kind": "free", "rank": 2},
    "group2": {"kind": "free", "rank": 2},
    "c": None,
    "enum_cap": 20_000_000,
    "master_seed": 20260810,
    "threads": 1,
    "seeds": None,
    "acceptance_checks": True,
    "growth": {"horizon": 8, "ball_dump_radius": 3},
    "schedule": {"horizon": 12, "m_max": 5, "mode": "auto"},
    "diamond": {"n_values": list(range(0, 9)), "T_values": [1, 2, 3], "sandwich": True},
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


def _require_bool(value, name: str):
    if not isinstance(value, bool):
        raise InputError(f"{name} must be true or false, got {value!r}")


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
    _require_bool(*get(None, "acceptance_checks"))
    _require_bool(*get("diamond", "sandwich"))
    if cfg["schedule"]["mode"] not in ("auto", "lemma", "linear"):
        raise InputError(
            f"schedule.mode must be auto, lemma or linear, got {cfg['schedule']['mode']!r}"
        )
    if cfg["c"] is not None and not as_slope(str(cfg["c"])) > 0:
        raise InputError(f"c must be null or a positive rational, got {cfg['c']!r}")
    if cfg["seeds"] is not None:
        _require_int(cfg["seeds"], "seeds")
        for block in ("process", "graphing", "prop13"):
            cfg[block]["seeds"] = cfg["seeds"]


def write_csv(path, header, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow(row)


def write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_c(cfg, g1, g2):
    if cfg["c"] is not None:
        return as_slope(str(cfg["c"]))  # a JSON 1.5 reads as "1.5", i.e. 3/2
    a, b = g1.exact_rate, g2.exact_rate
    if a is not None and b is not None and a == b:
        return Fraction(1)
    ra = float(a) if a is not None else g1.rate()
    rb = float(b) if b is not None else g2.rate()
    if ra <= 1 or rb <= 1:
        raise InputError(
            "slope c = log a / log a' undefined for subexponential growth; "
            "set an explicit rational c in the config"
        )
    value = math.log(ra) / math.log(rb)
    if abs(value - round(value)) < 1e-12:
        return Fraction(int(round(value)))
    raise InputError(
        f"derived slope c = {value:.6f} is not rational; set an explicit "
        "rational c in the config for exact window arithmetic"
    )


# The config entries each sweep reads, and the sandwich scenarios (the
# groups and the slope, which the schedule's growth series fix when `c` is
# null).  Threads and the enumeration cap change how a sweep runs, not
# what it reports.
SWEEP_INPUTS = {
    "graphing": ("group", "group2", "c", "schedule", "graphing", "master_seed"),
    "prop13": ("group", "group2", "c", "prop13", "master_seed"),
    "sandwich": ("group", "group2", "c", "schedule"),
}


def _peak_rss_mb(who) -> float:
    """Peak resident set size in MB; `ru_maxrss` is in KiB, bytes on macOS."""
    return resource.getrusage(who).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)


class Run:
    """One invocation of the pipeline, built from a validated config.

    Each step fixes the next: the group specs fix the growth series, the
    growth series the schedule, the schedule the metric, and these carry
    the graphing and prop13 sweeps.  Each is resolved on first use and
    kept for the rest of the invocation, so no runner re-derives one and
    no sweep runs twice.
    """

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self._growth = {}
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

    def growth(self, spec: GroupSpec, horizon: int, method: str):
        """The growth series of `spec` to `horizon`, one per distinct
        (spec, horizon, method)."""
        key = (spec, horizon, method)
        if key not in self._growth:
            self._growth[key] = growth_series(spec, horizon, method=method, cap=self.cfg["enum_cap"])
        return self._growth[key]

    def growth_pair(self, horizon: int, horizon2: int) -> tuple:
        spec1, spec2 = self.specs
        return self.growth(spec1, horizon, "auto"), self.growth(spec2, horizon2, "auto")

    @functools.cached_property
    def schedule(self):
        """The slope schedule to `schedule.horizon`.

        mode "lemma" runs the growth induction and refuses a factor whose
        spec is amenable (`GroupSpec.amenable`); "linear" is the
        exact-slope synthetic table;
        "auto" chooses lemma for clearly exponential factors and linear
        otherwise (subexponential growth never certifies nonamenability at
        desk scale).
        """
        mode, horizon = self.cfg["schedule"]["mode"], self.cfg["schedule"]["horizon"]
        g1, g2 = self.growth_pair(horizon, 2 * horizon + 2)
        if mode == "auto":
            exponential = all(
                (g.exact_rate is not None and g.exact_rate > 1)
                or (g.exact_rate is None and g.rate() > 1.05)
                for g in (g1, g2)
            )
            mode = "lemma" if exponential else "linear"
        c = _resolve_c(self.cfg, g1, g2)
        if mode == "lemma":
            return build_schedule(g1, g2, c, horizon)
        return linear_schedule(c, horizon, growth=g1, growth2=g2)

    @functools.cached_property
    def metric(self) -> ProductMetric:
        spec1, spec2 = self.specs
        return ProductMetric(make_oracle(spec1), make_oracle(spec2), self.schedule.c)

    @functools.cached_property
    def sandwich(self) -> dict:
        """The horoball-sandwich scenarios on the run's groups and slope."""
        return acceptance.sandwich_scenarios(*self.specs, self.schedule.c)

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
        """(report, wall seconds) of the coset-line baseline sweep.

        Its slope comes from its own growth pair through `_resolve_c`, not
        from the schedule: the schedule's pair has other horizons, and for
        a free product with `c: null` that changes the slope.
        """
        sub, cfg = self.cfg["prop13"], self.cfg
        wr = sub["window_radius"]
        t0 = time.time()
        horizon = max(2 * wr, 8)
        g1, g2 = self.growth_pair(horizon, horizon)
        c = _resolve_c(cfg, g1, g2)
        # The kernel reads the second factor's spheres out to floor(c * 2 wr).
        g2 = self.growth(self.specs[1], max(horizon, math.floor(c * 2 * wr)), "auto")
        metric = ProductMetric(make_oracle(self.specs[0]), make_oracle(self.specs[1]), c)
        report = coset_line_baseline(
            metric,
            g1,
            g2,
            wr,
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


def run_growth(run: Run, out: Path) -> dict:
    cfg = run.cfg
    sub = cfg["growth"]
    plot = []
    summary = {}
    for tag, spec in zip(("G", "G2"), run.specs):
        g = run.growth(spec, sub["horizon"], "bfs")
        g.check_invariants()
        rows = []
        for n, v in enumerate(g.volumes):
            est = g.growth_rate_estimates[n - 1] if n >= 1 else float("nan")
            rows.append([n, v, g.spheres[n], est])
            plot.append([f"volume_{tag}", n, v, 0])
        write_csv(out / f"growth_{tag}.csv", ["n", "volume", "sphere", "rate_estimate"], rows)
        ball_to_csv(make_oracle(spec), min(sub["ball_dump_radius"], sub["horizon"]), out / f"ball_{tag}.csv", cap=cfg["enum_cap"])
        summary[tag] = {
            "spec": spec.to_dict(),
            "method": g.method,
            "eps_nonamen": str(g.eps_nonamen),
            "exact_rate": None if g.exact_rate is None else float(g.exact_rate),
            "rate_estimate": g.growth_rate_estimates[-1],
        }
    write_json(out / "summary.json", summary)
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    return summary


def run_schedule(run: Run, out: Path) -> dict:
    sub = run.cfg["schedule"]
    sched = run.schedule
    sched.check_invariants()
    sched.to_csv(out / "schedule.csv")
    (out / "breakpoints.json").write_text(sched.breakpoints_json() + "\n")
    rep = sched.verify_almost_linear(sub["m_max"])
    write_csv(
        out / "almost_linear.csv",
        ["m", "N_of_m", "max_violation", "holds_within_horizon"],
        [[r.m, r.n_of_m, r.max_late_deviation, r.holds_within_horizon] for r in rep.rows],
    )
    plot = [["f", t, sched.f[t], 0] for t in range(len(sched.f))]
    plot += [["g", t, float(sched.g[t]), 0] for t in range(len(sched.g))]
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    return {
        "source": sched.source,
        "breakpoints": len(sched.r),
        "truncated": sched.truncated,
        "almost_linear_all_hold": rep.all_hold(),
    }


def run_diamond(run: Run, out: Path) -> dict:
    sub = run.cfg["diamond"]
    sched, metric = run.schedule, run.metric
    n_values = [n for n in sub["n_values"] if n < len(sched.r)]
    vol_rows = []
    plot = []
    for n in n_values:
        dv = diamond_volume(sched, n)
        vol_rows.append([n, sched.r[n], sched.r_prime[n], dv])
        plot.append(["diamond_volume", n, dv, 0])
    write_csv(out / "volumes.csv", ["n", "r_n", "r_prime_n", "volume"], vol_rows)
    dump_radius = min(2, sched.horizon)
    diamond_to_csv(
        metric,
        perfect_diamond(metric, metric.origin, dump_radius, cap=run.cfg["enum_cap"]),
        out / "perfect_diamond.csv",
    )
    corner_rows = []
    for T in sub["T_values"]:
        for n in n_values:
            corner_rows.append(corner_count(sched, n, T))
            plot.append(
                ["corner_ratio_T%d" % T, n, float(corner_rows[-1].ratio), 0]
            )
    corner_table_to_csv(corner_rows, out / "corners.csv")
    dom = growth_dominance(sched, [n for n in n_values if n >= 1])
    dominance_table_to_csv(dom, out / "dominance.csv")
    for r in dom:
        plot.append(["dominance_ratio", r.n, float(r.ratio), 0])
    summary = {"n_values": n_values, "schedule_source": sched.source}
    if sub["sandwich"]:
        summary["sandwich"] = _run_sandwich_scenarios(run, out)
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    write_json(out / "summary.json", summary)
    return summary


def _run_sandwich_scenarios(run: Run, out: Path) -> dict:
    """Each scenario's summary.  `checked_rows` counts the rows whose
    diamond meets the window; a scenario with none is `vacuous`, however
    few violations it reports."""
    results = {}
    for name, rep in run.sandwich.items():
        _sandwich_to_csv(rep, out / f"sandwich_{name}.csv")
        checked = sum(1 for r in rep.rows if not r.vacuous)
        results[name] = {
            "first_sandwiched_n": rep.first_sandwiched_n,
            "violations": sum(r.lower_violations + r.upper_violations for r in rep.rows),
            "checked_rows": checked,
            "vacuous": checked == 0,
        }
    return results


def _sandwich_to_csv(rep, path):
    write_csv(
        path,
        [
            "n",
            "radius",
            "members_in_window",
            "delta",
            "lower_ok",
            "upper_ok",
            "lower_violations",
            "upper_violations",
            "vacuous",
        ],
        [
            [
                r.n,
                r.radius,
                r.members_in_window,
                "" if r.delta is None else str(r.delta),
                r.lower_ok,
                r.upper_ok,
                r.lower_violations,
                r.upper_violations,
                r.vacuous,
            ]
            for r in rep.rows
        ],
    )


def run_process(run: Run, out: Path) -> dict:
    cfg = run.cfg
    sub = cfg["process"]
    sched = run.schedule
    ctx = ProcessContext(run.metric, sched, sub["n"], sub["window_radius"], cfg["enum_cap"])
    inc_rows = []
    plot = []
    for s in range(sub["seeds"]):
        proc = sample_diamond_process(ctx, seed_digest(cfg["master_seed"], s))
        if s == 0:
            proc.dump_jsonl(out / "process_seed0.jsonl")
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
    n_range = [n for n in sub["n_range"] if n < len(sched.r)]
    corner_rows = corner_event_probability(
        sched, n_range, sub["T"], seeds=sub["corner_seeds"], master_seed=cfg["master_seed"]
    )
    write_csv(
        out / "corner_events.csv",
        ["n", "T", "corner_count", "volume", "exact_probability", "empirical_probability"],
        [
            [r.n, r.T, r.corner_count, r.volume, r.exact_probability, r.empirical_probability]
            for r in corner_rows
        ],
    )
    split = eventually_decreasing_split([r.exact_probability for r in corner_rows])
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
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    summary = {
        "window_points": len(ctx.window_ids),
        "diamond_volume": ctx.volume,
        "corner_decay": split,
    }
    write_json(out / "summary.json", summary)
    return summary


# runs.csv: (column, SeedStats attribute) per column, in file order.
_RUNS_COLUMNS = (
    ("seed", "seed_index"),
    ("diamonds", "n_diamonds"),
    ("excluded", "excluded_diamonds"),
    ("vertices", "n_vertices"),
    ("interior", "n_interior"),
    ("half_deg_pi1", "half_deg_pi1"),
    ("half_deg_pi3", "half_deg_pi3"),
    ("half_deg_pi3_raw", "half_deg_pi3_raw"),
    ("lambda_hat", "lambda_hat"),
    ("pi5_lhs", "pi5_lhs"),
    ("pi5_rhs", "pi5_rhs"),
    ("pi5_ok", "pi5_ok"),
    ("boundary_deficit", "boundary_deficit"),
)

# baseline.csv: each column is the BaselineReport row key of its name.
_BASELINE_COLUMNS = (
    "eps",
    "largest_fraction_mean",
    "largest_fraction_se",
    "half_degree_mean",
    "half_degree_se",
    "expected_half_degree",
)


def run_graphing(run: Run, out: Path) -> dict:
    sub = run.cfg["graphing"]
    rep = run.sweep_graphing()
    write_json(out / "cost_report.json", rep.to_json_dict())
    if rep.pi1_interior_violations:
        raise InvariantViolation(
            f"{rep.pi1_interior_violations} interior marked points have no Pi1 out-edge; "
            "see cost_report.json"
        )
    write_csv(
        out / "runs.csv",
        [col for col, _ in _RUNS_COLUMNS],
        [[getattr(r, attr) for _, attr in _RUNS_COLUMNS] for r in rep.runs],
    )
    seed0 = rep.seed0_stages
    if seed0.get("marked_window") is not None:
        labeled = [
            ("pi1", seed0["pi1"]),
            ("pi2", seed0["pi2_lifted"]),
            ("pi3", seed0["pi3"]),
            ("F", seed0["f_edges"]),
            ("pi4", seed0["pi4"]),
        ]
        edges_to_csv(seed0["marked_window"], labeled, out / "edges_seed0.csv")
        space = seed0["marked_window"].ctx.pctx.space
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
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    return rep.to_json_dict()


def run_touching(run: Run, out: Path) -> dict:
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
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    write_json(out / "summary.json", summary)
    return summary


def run_prop13(run: Run, out: Path) -> dict:
    rep, _ = run.prop13
    write_csv(
        out / "baseline.csv",
        _BASELINE_COLUMNS,
        [[r[col] for col in _BASELINE_COLUMNS] for r in rep.rows],
    )
    plot = [
        ["largest_fraction", r["eps"], r["largest_fraction_mean"], r["largest_fraction_se"]]
        for r in rep.rows
    ] + [
        ["half_degree", r["eps"], r["half_degree_mean"], r["half_degree_se"]]
        for r in rep.rows
    ]
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    summary = {
        "line_partition_ok": rep.line_partition_ok,
        "monotone_violations": rep.monotone_violations,
        "truncation_mass": rep.truncation_mass,
    }
    write_json(out / "summary.json", summary)
    if rep.monotone_violations:
        raise InvariantViolation("baseline merging was not monotone in eps")
    return summary


RUNNERS = {
    "growth": run_growth,
    "schedule": run_schedule,
    "diamond": run_diamond,
    "process": run_process,
    "graphing": run_graphing,
    "touching": run_touching,
    "prop13": run_prop13,
}


def run_all(run: Run, out: Path) -> dict:
    cfg = run.cfg
    summary = {}
    for name, runner in RUNNERS.items():
        subdir = out / name
        subdir.mkdir(parents=True, exist_ok=True)
        with run.stage(name):
            summary[name] = runner(run, subdir)
    if cfg["acceptance_checks"]:
        lines = []
        with run.stage("acceptance"):
            results = acceptance.run_all(
                master_seed=cfg["master_seed"],
                threads=cfg["threads"],
                echo=lambda s: (lines.append(s), print(s)),
                offered=run,
            )
        (out / "acceptance.txt").write_text("\n".join(lines) + "\n")
        summary["acceptance_passed"] = all(r.passed for r in results)
        if not summary["acceptance_passed"]:
            raise InvariantViolation("acceptance criteria failed; see acceptance.txt")
    return summary


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
            with open(args.config) as fh:
                cfg = _deep_merge(cfg, json.load(fh))
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
            summary = run_all(run, out)
        else:
            with run.stage(args.command):
                summary = RUNNERS[args.command](run, out)
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
