"""Experiment runner: configuration, orchestration and artifact emission.

Subcommands: growth, schedule, diamond, process, graphing, touching,
prop13, all.  Each run writes CSV/JSON artifacts plus a long-format
plot.csv (series, x, y, y_err) into the output directory, and a manifest
echoing the fully resolved configuration.  Timestamps live only in the
manifest, and elapsed seconds only there and in acceptance.txt; every
other artifact is byte-identical across reruns with the same master seed.

`all` runs every subcommand and then the acceptance suite.  It hands the
graphing sweep to the suite, which reuses it for criteria 7 and 9 when
the graphing config matches the suite's pinned sweep (the defaults do).

Exit codes: 0 success, 1 invariant violation, 2 config error, 3 resource
cap.
"""

from __future__ import annotations

import argparse
import copy
import csv
import dataclasses
import datetime
import json
import math
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
    WindowExhaustedError,
)
from .graphing import (
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
    "growth_method": "auto",
    "enum_cap": 20_000_000,
    "master_seed": 20260810,
    "threads": 1,
    "seeds": None,
    "acceptance_checks": True,
    "growth": {"horizon": 8, "method": "bfs", "ball_dump_radius": 3},
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
    out = dict(base)
    for k, v in (extra or {}).items():
        if isinstance(v, dict) and isinstance(out.get(k), dict):
            out[k] = _deep_merge(out[k], v)
        else:
            out[k] = v
    return out


def _validate(cfg: dict):
    for block in ("graphing", "prop13"):
        for e in cfg[block].get("eps_list", []):
            if e < 0:
                raise InputError(f"negative percolation parameter {e} in {block}")
    if cfg["graphing"]["eps"] < 0:
        raise InputError("negative percolation parameter")
    for block in ("process", "graphing", "prop13"):
        if cfg[block]["seeds"] < 1:
            raise InputError(f"{block}.seeds must be >= 1")
    if cfg["seeds"] is not None:
        if cfg["seeds"] < 1:
            raise InputError("seeds must be >= 1")
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


def _resolved_groups(cfg):
    spec1 = GroupSpec.from_dict(cfg["group"])
    spec2 = GroupSpec.from_dict(cfg["group2"])
    return spec1, spec2


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


def _growth_pair(cfg, horizon, horizon2=None):
    spec1, spec2 = _resolved_groups(cfg)
    method = cfg["growth_method"]
    g1 = growth_series(spec1, horizon, method=method, cap=cfg["enum_cap"])
    g2 = growth_series(spec2, horizon2 or horizon, method=method, cap=cfg["enum_cap"])
    return g1, g2


def _schedule_for(cfg, horizon):
    """Pick the slope-schedule constructor for the configured groups.

    mode "lemma" runs the growth induction (needs recorded eps_nonamen > 0
    on both factors); "linear" is the exact-slope synthetic table; "auto"
    chooses lemma for clearly exponential factors and linear otherwise
    (subexponential growth never certifies nonamenability at desk scale).
    """
    mode = cfg["schedule"].get("mode", "auto")
    g1, g2 = _growth_pair(cfg, horizon, 2 * horizon + 2)
    if mode == "auto":
        exponential = all(
            (g.exact_rate is not None and g.exact_rate > 1)
            or (g.exact_rate is None and g.rate() > 1.05)
            for g in (g1, g2)
        )
        mode = "lemma" if exponential else "linear"
    c = _resolve_c(cfg, g1, g2)
    if mode == "lemma":
        return build_schedule(g1, g2, c, horizon), g1, g2
    if mode != "linear":
        raise InputError(f"unknown schedule mode {mode!r}")
    return linear_schedule(c, horizon, growth=g1, growth2=g2), g1, g2


def run_growth(cfg, out: Path) -> dict:
    sub = cfg["growth"]
    spec1, spec2 = _resolved_groups(cfg)
    plot = []
    summary = {}
    for tag, spec in (("G", spec1), ("G2", spec2)):
        g = growth_series(spec, sub["horizon"], method=sub["method"], cap=cfg["enum_cap"])
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


def run_schedule(cfg, out: Path) -> dict:
    sub = cfg["schedule"]
    sched, _, _ = _schedule_for(cfg, sub["horizon"])
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


def run_diamond(cfg, out: Path) -> dict:
    sub = cfg["diamond"]
    sched, _, _ = _schedule_for(cfg, cfg["schedule"]["horizon"])
    spec1, spec2 = _resolved_groups(cfg)
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), sched.c)
    n_values = [n for n in sub["n_values"] if n < len(sched.r)]
    vol_rows = []
    plot = []
    for n in n_values:
        dv = diamond_volume(sched, n)
        vol_rows.append([n, sched.r[n], sched.r_prime[n], dv.total])
        plot.append(["diamond_volume", n, dv.total, 0])
    write_csv(out / "volumes.csv", ["n", "r_n", "r_prime_n", "volume"], vol_rows)
    dump_radius = min(2, sched.horizon)
    diamond_to_csv(
        metric,
        perfect_diamond(metric, metric.origin, dump_radius, cap=cfg["enum_cap"]),
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
        summary["sandwich"] = _run_sandwich_scenarios(cfg, out, sched.c)
    write_csv(out / "plot.csv", ["series", "x", "y", "y_err"], plot)
    write_json(out / "summary.json", summary)
    return summary


def _run_sandwich_scenarios(cfg, out: Path, c) -> dict:
    results = {}
    for name, rep in acceptance.sandwich_scenarios(*_resolved_groups(cfg), c).items():
        _sandwich_to_csv(rep, out / f"sandwich_{name}.csv")
        results[name] = {
            "first_sandwiched_n": rep.first_sandwiched_n,
            "violations": sum(r.lower_violations + r.upper_violations for r in rep.rows),
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


def run_process(cfg, out: Path) -> dict:
    sub = cfg["process"]
    sched, _, _ = _schedule_for(cfg, cfg["schedule"]["horizon"])
    spec1, spec2 = _resolved_groups(cfg)
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), sched.c)
    ctx = ProcessContext(metric, sched, sub["n"], sub["window_radius"], cfg["enum_cap"])
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


def _graphing_key(cfg, sched, kernel) -> acceptance.SweepKey:
    sub = cfg["graphing"]
    return acceptance.sweep_key(
        _resolved_groups(cfg),
        sched,
        kernel,
        sub["n"],
        sub["window_radius"],
        sub["margin"],
        sub["eps_list"],
        sub["eps"],
        sub["seeds"],
        cfg["master_seed"],
    )


def run_graphing(cfg, out: Path, sweeps: list = None) -> dict:
    """When `sweeps` is a list, the finished sweep is appended to it."""
    sub = cfg["graphing"]
    sched, _, _ = _schedule_for(cfg, cfg["schedule"]["horizon"])
    spec1, spec2 = _resolved_groups(cfg)
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), sched.c)
    t0 = time.time()
    ctx = GraphingContext(
        metric, sched, sub["n"], sub["window_radius"], sub["margin"], cfg["enum_cap"]
    )
    rep = cost_report(
        ctx,
        sub["seeds"],
        sub["eps_list"],
        sub["eps"],
        cfg["master_seed"],
        threads=cfg["threads"],
    )
    if sweeps is not None:
        key = _graphing_key(cfg, sched, ctx.kernel)
        # The seed-0 stages reference the whole GraphingContext; the suite
        # needs none of them, so it gets the report without them.
        offered = dataclasses.replace(rep, seed0_stages={})
        sweeps.append(acceptance.GraphingSweep(key, offered, time.time() - t0))
    write_json(out / "cost_report.json", rep.to_json_dict())
    write_csv(
        out / "runs.csv",
        [
            "seed",
            "diamonds",
            "excluded",
            "vertices",
            "interior",
            "half_deg_pi1",
            "half_deg_pi3",
            "half_deg_pi3_raw",
            "lambda_hat",
            "pi5_lhs",
            "pi5_rhs",
            "pi5_ok",
            "boundary_deficit",
        ],
        [
            [
                r.seed_index,
                r.n_diamonds,
                r.excluded_diamonds,
                r.n_vertices,
                r.n_interior,
                r.half_deg_pi1,
                r.half_deg_pi3,
                r.half_deg_pi3_raw,
                r.lambda_hat,
                r.pi5_lhs,
                r.pi5_rhs,
                r.pi5_ok,
                r.boundary_deficit,
            ]
            for r in rep.runs
        ],
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
        space = ctx.pctx.space
        write_csv(
            out / "pi5_seed0.csv",
            ["stage", "source", "target"],
            [
                ["pi5", space.word_str(a), space.word_str(b)]
                for a, b in seed0["pi5"]
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


def run_touching(cfg, out: Path) -> dict:
    rows = []
    plot = []
    summary = {}
    for name, tr in acceptance.touching_scenarios(*_resolved_groups(cfg)).items():
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


def run_prop13(cfg, out: Path) -> dict:
    sub = cfg["prop13"]
    spec1, spec2 = _resolved_groups(cfg)
    g1, g2 = _growth_pair(cfg, max(2 * sub["window_radius"], 8))
    c = _resolve_c(cfg, g1, g2)
    metric = ProductMetric(make_oracle(spec1), make_oracle(spec2), c)
    rep = coset_line_baseline(
        metric,
        g1,
        g2,
        sub["window_radius"],
        sub["margin"],
        sub["eps_list"],
        sub["seeds"],
        cfg["master_seed"],
        cap=cfg["enum_cap"],
    )
    write_csv(
        out / "baseline.csv",
        [
            "eps",
            "largest_fraction_mean",
            "largest_fraction_se",
            "half_degree_mean",
            "half_degree_se",
            "expected_half_degree",
        ],
        [
            [
                r["eps"],
                r["largest_fraction_mean"],
                r["largest_fraction_se"],
                r["half_degree_mean"],
                r["half_degree_se"],
                r["expected_half_degree"],
            ]
            for r in rep.rows
        ],
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


def run_all(cfg, out: Path) -> dict:
    summary = {}
    sweeps = []  # filled by run_graphing, offered to the acceptance suite
    for name, runner in RUNNERS.items():
        subdir = out / name
        subdir.mkdir(parents=True, exist_ok=True)
        extra = {"sweeps": sweeps} if name == "graphing" else {}
        summary[name] = runner(cfg, subdir, **extra)
    if cfg["acceptance_checks"]:
        lines = []
        results = acceptance.run_all(
            master_seed=cfg["master_seed"],
            threads=cfg["threads"],
            echo=lambda s: (lines.append(s), print(s)),
            sweeps=sweeps,
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
        if args.command == "all":
            summary = run_all(cfg, out)
        else:
            summary = RUNNERS[args.command](cfg, out)
        manifest = {
            "command": args.command,
            "version": __version__,
            "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "config": cfg,
        }
        write_json(out / "manifest.json", manifest)
        print(f"horolab {args.command}: artifacts written to {out}")
        return 0
    except InputError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (
        InvariantViolation,
        MarkCollisionError,
        ApproximationError,
        WindowExhaustedError,
    ) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return 1
    except HorolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
