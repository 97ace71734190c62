"""Which horolab names are traced, what is counted there, and the
per-layer metric table.

Every hook wraps a public name of the package from outside (see
`spans.Tracer`); nothing under src/ is edited.  A metric named `<span>.s`,
`<span>.self_s`, `<span>.calls`, `<span>.p50_ms` or `<span>.p90_ms` is read
off the spans of that name; any other metric is a counter filled by the
hooks below.
"""

from __future__ import annotations

import math
import os
import re
import sys

# (name, unit) of every per-layer metric, in report order.
PER_LAYER = [
    ("groups.ball.s", "s"),
    ("groups.ball.elements", "count"),
    ("product.ProductSpace.s", "s"),
    ("product.ProductSpace.points", "count"),
    ("product.FactorBall.distance_matrix.s", "s"),
    ("product.FactorBall.distance_matrix.entries", "count"),
    ("point_process.ProcessContext.s", "s"),
    ("point_process.ProcessContext.self_s", "s"),
    ("point_process.factor_digests.s", "s"),
    ("point_process.covering_centers", "count"),
    ("point_process.center_yield", "ratio"),
    ("point_process.sample_diamond_process.s", "s"),
    ("point_process.diamonds_sampled", "count"),
    ("point_process.diamonds_in_window", "count"),
    ("randomness.uniforms.s", "s"),
    ("randomness.uniforms.draws", "count"),
    ("randomness.uniform.calls", "count"),
    ("randomness.uniform.s", "s"),
    ("randomness.combine_unordered.s", "s"),
    ("horoboundary.LazyWindowHorofunction.descend.s", "s"),
    ("horoboundary.LazyWindowHorofunction.descend.calls", "count"),
    ("graphing.GraphingContext.s", "s"),
    ("graphing.GraphingContext.self_s", "s"),
    ("graphing.PercolationKernel.s", "s"),
    ("graphing.cost_report.s", "s"),
    ("graphing.run_seed.s", "s"),
    ("graphing.run_seed.self_s", "s"),
    ("graphing.run_seed.p50_ms", "ms"),
    ("graphing.run_seed.p90_ms", "ms"),
    ("graphing.run_seed.calls", "count"),
    ("graphing.tau.s", "s"),
    ("graphing.tau.calls", "count"),
    ("graphing.build_marked_window.s", "s"),
    ("graphing.vertices", "count"),
    ("graphing.bases", "count"),
    ("graphing.build_pi1.s", "s"),
    ("graphing.build_percolation.s", "s"),
    ("graphing.percolation.pairs", "count"),
    ("graphing.percolation.open_pairs", "count"),
    ("graphing.pi3_edges.s", "s"),
    ("graphing.largest_component_fraction.s", "s"),
    ("graphing.largest_component_fraction.calls", "count"),
    ("graphing.break_overlaps.s", "s"),
    ("graphing.build_forest_and_pi45.s", "s"),
    ("graphing.coset_line_baseline.s", "s"),
    ("graphing.coset_line_baseline.self_s", "s"),
    ("graphing.coset_line_baseline.pairs", "count"),
    ("acceptance.criterion_07.s", "s"),
    ("acceptance.criterion_09.s", "s"),
    ("acceptance.criterion_10.s", "s"),
    ("acceptance.criterion_11.s", "s"),
    ("cli.run_growth.s", "s"),
    ("cli.run_schedule.s", "s"),
    ("cli.run_diamond.s", "s"),
    ("cli.run_process.s", "s"),
    ("cli.run_graphing.s", "s"),
    ("cli.run_touching.s", "s"),
    ("cli.run_prop13.s", "s"),
    ("cli.artifacts.s", "s"),
    ("cli.artifacts.bytes", "bytes"),
    ("sizes.universe", "count"),
    ("sizes.window", "count"),
    ("sizes.rejected_seeds", "count"),
    ("trace.overhead", "ratio"),
]

# Filled by the parent from the traced and untraced runs, not by hooks.
PARENT_METRICS = {"trace.overhead"}

CRITERIA = (7, 9, 10, 11)
RUNNERS = ("growth", "schedule", "diamond", "process", "graphing", "touching", "prop13")

_SPAN_SUFFIXES = (".self_s", ".s", ".calls", ".p50_ms", ".p90_ms")


class Counters:
    """Counts recorded at the hooks; `first` keeps the first value set."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.last_space_points = 0

    def add(self, name, n=1):
        self.tracer.count(name, int(n))

    def first(self, name, n):
        if name not in self.tracer.counts:
            self.tracer.counts[name] = int(n)


def install(tracer) -> Counters:
    """Wrap every traced horolab name; modules must already be imported."""
    import horolab.cli  # noqa: F401  (imports every layer module)

    ctr = Counters(tracer)
    fn = tracer.patch_function
    meth = tracer.patch_method

    def on_space(args, kwargs, result):
        ctr.last_space_points = len(args[0])
        ctr.add("product.ProductSpace.points", len(args[0]))

    def on_process_context(args, kwargs, result):
        ctx = args[0]
        ctr.add("point_process.covering_centers", len(ctx.covering))
        ctr.add("point_process.universe_points", len(ctx.space))

    def on_graphing_context(args, kwargs, result):
        pctx = args[0].pctx
        ctr.first("sizes.universe", len(pctx.space))
        ctr.first("sizes.window", len(pctx.window_ids))

    def on_sample(args, kwargs, result):
        ctr.add("point_process.diamonds_sampled", len(result.diamonds))
        ctr.add(
            "point_process.diamonds_in_window",
            sum(1 for d in result.diamonds if len(d.member_ids)),
        )

    def on_percolation(args, kwargs, result):
        b = len(args[1])
        ctr.add("graphing.bases", b)
        ctr.add("graphing.percolation.pairs", b * (b - 1) // 2)
        if result:
            ctr.add("graphing.percolation.open_pairs", len(result[max(result)]))

    def on_baseline(args, kwargs, result):
        n = ctr.last_space_points  # the window the baseline just built
        ctr.first("sizes.universe", n)
        ctr.first("sizes.window", n)
        ctr.add("graphing.coset_line_baseline.pairs", result.seeds * (n * (n - 1) // 2))

    def on_artifact(args, kwargs, result):
        ctr.add("cli.artifacts.bytes", os.path.getsize(args[0]))

    fn("horolab.groups", "ball", "groups.ball",
       lambda a, k, r: ctr.add("groups.ball.elements", len(r)))
    meth("horolab.product", "ProductSpace", "__init__", "product.ProductSpace", on_space)
    meth("horolab.product", "FactorBall", "distance_matrix", "product.FactorBall.distance_matrix",
         lambda a, k, r: ctr.add("product.FactorBall.distance_matrix.entries", r.size))
    meth("horolab.point_process", "ProcessContext", "__init__", "point_process.ProcessContext",
         on_process_context)
    fn("horolab.point_process", "factor_digests", "point_process.factor_digests")
    fn("horolab.point_process", "sample_diamond_process", "point_process.sample_diamond_process",
       on_sample)
    meth("horolab.randomness", "SeededRandomness", "uniforms", "randomness.uniforms",
         lambda a, k, r: ctr.add("randomness.uniforms.draws", r.size))
    meth("horolab.randomness", "SeededRandomness", "uniform", "randomness.uniform")
    fn("horolab.randomness", "combine_unordered", "randomness.combine_unordered")
    meth("horolab.horoboundary", "LazyWindowHorofunction", "descend",
         "horoboundary.LazyWindowHorofunction.descend")
    meth("horolab.graphing", "GraphingContext", "__init__", "graphing.GraphingContext",
         on_graphing_context)
    meth("horolab.graphing", "GraphingContext", "tau", "graphing.tau")
    meth("horolab.graphing", "PercolationKernel", "__init__", "graphing.PercolationKernel")
    fn("horolab.graphing", "cost_report", "graphing.cost_report",
       lambda a, k, r: ctr.add("sizes.rejected_seeds", r.rejected_seeds))
    fn("horolab.graphing", "run_seed", "graphing.run_seed")
    fn("horolab.graphing", "build_marked_window", "graphing.build_marked_window",
       lambda a, k, r: ctr.add("graphing.vertices", r.n_vertices))
    fn("horolab.graphing", "build_pi1", "graphing.build_pi1")
    fn("horolab.graphing", "build_percolation", "graphing.build_percolation", on_percolation)
    fn("horolab.graphing", "pi3_edges", "graphing.pi3_edges")
    fn("horolab.graphing", "largest_component_fraction", "graphing.largest_component_fraction")
    fn("horolab.graphing", "break_overlaps", "graphing.break_overlaps")
    fn("horolab.graphing", "build_forest_and_pi45", "graphing.build_forest_and_pi45")
    fn("horolab.graphing", "coset_line_baseline", "graphing.coset_line_baseline", on_baseline)
    fn("horolab.cli", "write_csv", "cli.artifacts", on_artifact)
    fn("horolab.cli", "write_json", "cli.artifacts", on_artifact)

    acceptance = sys.modules["horolab.acceptance"]
    for index in CRITERIA:
        name = f"acceptance.criterion_{index:02d}"
        attr = next(
            (f.__name__ for f in getattr(acceptance, "ALL_CRITERIA", ())
             if re.match(rf"criterion_{index}_", f.__name__)),
            None,
        )
        if attr is None:
            tracer.note_missing(name)
        else:
            fn("horolab.acceptance", attr, name)
    runners = getattr(sys.modules["horolab.cli"], "RUNNERS", {})
    for key in RUNNERS:
        if key in runners:
            fn("horolab.cli", runners[key].__name__, f"cli.run_{key}")
        else:
            tracer.note_missing(f"cli.run_{key}")
    return ctr


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in (0, 100]) of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def layer_values(summary: dict, counts: dict) -> dict:
    """Per-layer metric values from a span summary and the hook counters."""
    out = {}
    for name, _ in PER_LAYER:
        if name in PARENT_METRICS:
            continue
        span = stat = None
        for suffix in _SPAN_SUFFIXES:
            if name.endswith(suffix):
                span, stat = name[: -len(suffix)], suffix[1:]
                break
        if name == "point_process.center_yield":
            universe = counts.get("point_process.universe_points", 0)
            value = counts.get("point_process.covering_centers", 0) / universe if universe else 0.0
        elif span is not None and (span in summary or name not in counts):
            agg = summary.get(span)
            if agg is None:
                value = 0
            elif stat in ("p50_ms", "p90_ms"):
                value = 1000.0 * percentile(agg["durations"], float(stat[1:3]))
            else:
                value = agg[stat]
        else:
            value = counts.get(name, 0)
        out[name] = value
    return out
