"""The acceptance suite: one runnable check per exit criterion.

Each criterion is a check registered once, by `@criterion(index, name,
limit)`, which appends it to `ALL_CRITERIA` wrapped to time the call and
return a CriterionResult with a pass flag, elapsed time and a one-line
detail string; `run_all` executes them in order and also backs the CLI
`all` subcommand.  The printed line leaves the elapsed time out, so it
repeats byte for byte; the CLI records it in the manifest.  Thresholds
and tolerances are pinned here, not in the callers.

The suite's pinned world is the `cli.Run` of the defaults at the suite's
master seed and thread count: criteria 2 to 4 read its schedule and
metric, criteria 7 and 9 its 200-seed graphing sweep, criterion 10 its
prop13 sweep, criterion 6 its sandwich scenarios (`sandwich_scenarios`
on F2 x F2 at c = 1, each a `diamonds.sandwich_check` over a
`ProductSpace` window) and criterion 8 its touching traces
(`touching_scenarios`).  A caller may offer its own run (`horolab all`
does); a criterion takes a sweep or the scenarios from the offered run
only when every config entry they read equals the pinned run's
(`cli.SWEEP_INPUTS`; the sandwich scenarios read only `group`, `group2`
and `c`, the touching traces only the groups), and from the pinned run
otherwise.  The CLI's `diamond` and `touching` runners write the same
scenarios out for the configured groups.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from .diamonds import (
    diamond_members,
    diamond_volume,
    growth_dominance,
    sandwich_check,
)
from .graphing import connect_then_descend, touching_paths
from .groups import GroupSpec, ball, enumerate_ball, growth_series, make_oracle
from .horoboundary import (
    GeodesicRay,
    Horofunction,
    ProductHorofunction,
    horofunction_from_ray,
)
from .point_process import corner_event_probability, eventually_decreasing_split
from .product import ProductMetric, ProductSpace, ball_slice_volume, perfect_diamond
from .schedule import build_schedule, schedule_for

F2 = GroupSpec("free", rank=2)
Z1 = GroupSpec("integer_lattice", dim=1)


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    elapsed: float
    detail: str
    runtime_limit: float = None

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.index}: {self.name} {self.detail}"


ALL_CRITERIA = []


def criterion(index: int, name: str, limit: float = None):
    """Register a check as acceptance criterion `index` in `ALL_CRITERIA`.

    The check takes the SuiteContext and returns (passed, detail), or
    (passed, detail, sweep seconds) when it reads a sweep that may have
    run before it; its elapsed time is then the larger of the call's and
    the sweep's.  A criterion whose elapsed time reaches `limit` fails.
    """

    def register(check):
        @functools.wraps(check)
        def timed(sc: SuiteContext) -> CriterionResult:
            t0 = time.time()
            passed, detail, *sweep_s = check(sc)
            elapsed = max([time.time() - t0, *sweep_s])
            passed = passed and (limit is None or elapsed < limit)
            return CriterionResult(index, name, passed, elapsed, detail, limit)

        ALL_CRITERIA.append(timed)
        return timed

    return register


@dataclass
class SuiteContext:
    """The pinned run the criteria read, and the run a caller offers."""

    master_seed: int = 20260810
    threads: int = 1
    offered: object = None  # a cli.Run, or None

    def __post_init__(self):
        from . import cli  # cli imports this module

        cfg = dict(copy.deepcopy(cli.DEFAULTS), master_seed=self.master_seed, threads=self.threads)
        self.run = cli.Run(cfg)

    def sweep(self, name: str):
        """(report, wall seconds) of the "graphing" or "prop13" sweep, or
        the "sandwich" or "touching" scenarios by name: the offered run's
        when it reports what the pinned run's would."""
        offered = self.offered
        if offered is not None and offered.same_sweep(self.run, name):
            return getattr(offered, name)
        return getattr(self.run, name)


@criterion(1, "growth oracles", limit=10.0)
def criterion_1_growth(sc: SuiteContext):
    """The F2 ball to radius 8 by a cold BFS, checked against the closed
    form and against `ball`, which may serve it from the process's memo.
    `ball` builds a free group's ball level by level in closed form, so
    the two are independent constructions of one ball.  The runtime limit
    times the cold BFS, not a memo lookup."""
    oracle = make_oracle(F2)
    cold = enumerate_ball(oracle, 8)
    closed = [2 * 3**n - 1 for n in range(9)]
    cold_volumes = [sum(1 for _, d in cold if d <= n) for n in range(9)]
    if cold_volumes != closed:
        return False, f"cold BFS volumes {cold_volumes} != closed form"
    if cold != list(ball(oracle, 8)):
        return False, "cold BFS ball differs from the memo's prefix"
    g = growth_series(F2, 8, "bfs")
    if g.volumes != closed:
        return False, f"BFS volumes {g.volumes} != closed form"
    est = g.growth_rate_estimates
    non_inc = all(est[i] <= est[i - 1] + 1e-12 for i in range(1, len(est)))
    ge3 = all(e >= 3.0 - 1e-12 for e in est)
    g.check_invariants()
    return non_inc and ge3, f"v_8={g.volumes[8]}, rate est {est[-1]:.4f}"


@criterion(2, "ball slice decomposition")
def criterion_2_slices(sc: SuiteContext):
    m = sc.run.metric
    g = growth_series(F2, 12)
    for n in range(5):
        total = ball_slice_volume(m, g, g, n)
        brute = len(perfect_diamond(m, m.origin, n))
        if total != brute:
            return False, f"n={n}: slice sum {total} != enumeration {brute}"
    n2 = ball_slice_volume(m, g, g, 2)
    return n2 == 49, f"n=2 ball volume {n2}"


@criterion(3, "slope schedule", limit=5.0)
def criterion_3_schedule(sc: SuiteContext):
    sched = sc.run.schedule
    if (sched.f[0], sched.f[1], sched.f[2]) != (0, 0, 2):
        return False, f"f prefix {sched.f[:3]} != (0, 0, 2)"
    sched.check_invariants()  # includes the [1/M, M^(2c)] ratio bounds
    rep = sched.verify_almost_linear(5)
    if not rep.all_hold():
        return False, "almost-linearity bound failed within the horizon"
    ns = [r.n_of_m for r in rep.rows]
    return True, f"breakpoints {len(sched.r)}, N(m)={ns}"


@criterion(4, "diamond volume identity")
def criterion_4_diamond_volume(sc: SuiteContext):
    sched, m = sc.run.schedule, sc.run.metric
    for n in range(5):
        total = diamond_volume(sched, n)
        members = diamond_members(m, sched, n, m.origin)
        if total != len(members) or len(set(members)) != total:
            return False, f"n={n}: slice sum {total} != enumeration {len(members)}"
    v2 = diamond_volume(sched, 2)
    return v2 == 33, f"r_n=2 volume {v2}"


@criterion(5, "corner decay and dominance", limit=60.0)
def criterion_5_corner_decay(sc: SuiteContext):
    g = growth_series(F2, 18)
    sched = build_schedule(g, g, 1, 14)  # 14 breakpoints, past the pinned run's 12
    breakpoints = list(range(1, 15))  # 14 computed breakpoints
    tails = {}
    for T in (1, 2, 3):
        rows = corner_event_probability(sched, breakpoints, T, seeds=0)
        ratios = [r.corner_count / r.volume for r in rows]
        probs = [r.exact_probability for r in rows]
        for label, series in (("ratio", ratios), ("prob", probs)):
            split = eventually_decreasing_split(series)
            if not split["eventually_decreasing"]:
                return False, f"T={T} {label}s not eventually decreasing: {series}"
            tails[(T, label)] = max(split["even_tail_start"], split["odd_tail_start"])
    dom = growth_dominance(sched, breakpoints)  # raises when the bound fails
    worst = min(float(r.ratio / r.lower_bound) for r in dom if r.lower_bound > 0)
    n0 = {f"T{t}": breakpoints[i] for (t, lab), i in tails.items() if lab == "prob"}
    return True, f"14 breakpoints, decay tails from n={n0}; dominance margin x{worst:.1f}"


def sandwich_scenarios(spec1, spec2, c) -> dict:
    """The horoball-sandwich scenarios, as SandwichReports by name.

    "lattice" always runs: Z x Z at c = 1, a linear schedule, half-plane
    horoballs and window radius 5.  "tree" runs on spec1 x spec2 at slope
    c, window radius 4 and centers escaping along A^-M, when both factors
    are free.  Both schedules come from `schedule_for`, as `cli.Run`'s does.
    """
    oz = make_oracle(Z1)
    lsched = schedule_for(Z1, Z1, 1, 30)
    centers = []
    for n in range(20, 29):
        N = (lsched.r[n] + 2) // 2 + 1
        centers.append((n, ((-N,), (-N,))))
    hz = horofunction_from_ray(oz, ["X"])
    win = ProductSpace(ProductMetric(oz, oz, 1), 5)
    reports = {"lattice": sandwich_check(win, lsched, hz, hz, centers)}
    if spec1.kind == "free" and spec2.kind == "free":
        o1, o2 = make_oracle(spec1), make_oracle(spec2)
        sched = schedule_for(spec1, spec2, c, 26)
        centers = []
        for n in range(16, min(25, len(sched.r))):
            M = sched.r[n] // 2
            centers.append((n, (o1.canon(["A"] * M), o2.canon(["A"] * M))))
        h1, h2 = horofunction_from_ray(o1, ["A"]), horofunction_from_ray(o2, ["A"])
        w4 = ProductSpace(ProductMetric(o1, o2, c), 4)
        reports["tree"] = sandwich_check(w4, sched, h1, h2, centers)
    return reports


@criterion(6, "horoball sandwich")
def criterion_6_sandwich(sc: SuiteContext):
    reports = sc.sweep("sandwich")
    rep = reports["lattice"]
    lattice_ok = all(r.lower_ok for r in rep.rows) and any(not r.vacuous for r in rep.rows)
    if not lattice_ok:
        return False, "lattice lower inclusion violated"
    rep2 = reports["tree"]
    viol = sum(r.lower_violations for r in rep2.rows)
    ok = rep2.first_sandwiched_n is not None and viol == 0
    return ok, (
        f"lattice exact; tree N0={rep2.first_sandwiched_n}, lower violations={viol}; "
        "upper inclusion holds by construction"
    )


@criterion(7, "descent forest out-degrees")
def criterion_7_pi1_forest(sc: SuiteContext):
    runs = sc.sweep("graphing")[0].runs[:100]
    if len(runs) < 100:
        return False, "fewer than 100 seeds"
    viol = sum(r.pi1_interior_violations for r in runs)
    par = sum(r.parallel_violations for r in runs)
    interior = sum(r.interior for r in runs)
    return (
        viol == 0 and par == 0,
        f"{interior} interior marked points over 100 seeds, "
        f"{viol} out-degree and {par} parallel violations",
    )


def touching_scenarios(spec1, spec2) -> dict:
    """The touching-path scenarios, as TouchingTraces by name, all at c = 1.

    "tree_k2_kp1" (x1 = (aa, e), x2 = (e, a)) and "degenerate" (identical
    points and horofunction) run on spec1 x spec2 when both factors are
    free and on F2 x F2 otherwise; "lattice" runs on Z x Z between the
    half-plane horoballs of y1 = (-2, 0) and y2 = (1, -1).
    """
    if spec1.kind != "free" or spec2.kind != "free":
        spec1 = spec2 = F2
    o1, o2 = make_oracle(spec1), make_oracle(spec2)
    m = ProductMetric(o1, o2, 1)
    h_a1 = Horofunction(o1, GeodesicRay(o1, ["a"], ["a"]))
    h_b1 = Horofunction(o2, GeodesicRay(o2, ["b"], ["b"]))
    h_b2 = Horofunction(o1, GeodesicRay(o1, ["b"], ["b"]))
    h_a2 = Horofunction(o2, GeodesicRay(o2, ["a"], ["a"]))
    hh1 = ProductHorofunction(h_a1, h_b1, 1)
    hh2 = ProductHorofunction(h_b2, h_a2, 1)
    x1 = (o1.canon(["a", "a"]), o2.identity)
    x2 = (o1.identity, o2.canon(["a"]))
    eta, k = connect_then_descend(o1, x2[0], x1[0], h_a1, 12)
    etap, kp = connect_then_descend(o2, x1[1], x2[1], h_a2, 12)
    eta0, k0 = connect_then_descend(o1, x1[0], x1[0], h_a1, 8)
    etap0, kp0 = connect_then_descend(o2, x1[1], x1[1], h_b1, 8)
    oz1, oz2 = make_oracle(Z1), make_oracle(Z1)
    mz = ProductMetric(oz1, oz2, 1)
    hz1 = Horofunction(oz1, GeodesicRay(oz1, ["X"], ["X"]))
    hz2 = Horofunction(oz2, GeodesicRay(oz2, ["X"], ["X"]))
    hzz = ProductHorofunction(hz1, hz2, 1)
    y1, y2 = ((-2,), (0,)), ((1,), (-1,))
    etaz, kz = connect_then_descend(oz1, y2[0], y1[0], hz1, 10)
    etazp, kzp = connect_then_descend(oz2, y1[1], y2[1], hz2, 10)
    return {
        "tree_k2_kp1": touching_paths(m, hh1, hh2, eta, k, etap, kp),
        "degenerate": touching_paths(m, hh1, hh1, eta0, k0, etap0, kp0),
        "lattice": touching_paths(mz, hzz, hzz, etaz, kz, etazp, kzp),
    }


@criterion(8, "touching paths")
def criterion_8_touching(sc: SuiteContext):
    traces = sc.sweep("touching")
    tr = traces["tree_k2_kp1"]
    if not tr.ok:
        return False, "tree trace failed"
    if not (tr.k == 2 and tr.k_prime == 1 and max(tr.rho_values) <= 3):
        return False, f"k={tr.k}, k'={tr.k_prime}, max rho {max(tr.rho_values)}"
    tr0 = traces["degenerate"]
    if max(tr0.rho_values) != 0 or not tr0.ok:
        return False, "degenerate trace not identically zero"
    trz = traces["lattice"]
    return trz.ok, (
        f"tree max rho {max(tr.rho_values)} <= 3; lattice max rho "
        f"{max(trz.rho_values)} <= {trz.bound}"
    )


@criterion(9, "cost estimators", limit=600.0)
def criterion_9_cost(sc: SuiteContext):
    rep, sweep_s = sc.sweep("graphing")  # run in criterion 7 or offered
    st = {s["stage"]: s for s in rep.stages}
    h3 = st["pi3"]["half_degree_mean"]
    se = st["pi3"]["half_degree_se"]
    band_hi = 1.0 + 0.05 + 3.0 * se + rep.boundary_deficit
    in_band = 1.0 - 1e-9 <= h3 <= band_hi
    pi5_ok = rep.pi5_violations == 0 and rep.pi5_disconnected == 0
    fr = [rep.largest_fraction_by_eps[e] for e in sorted(rep.largest_fraction_by_eps)]
    mono = all(b >= a - 1e-12 for a, b in zip(fr, fr[1:])) and rep.monotone_violations == 0
    detail = (
        f"half-deg pi3 {h3:.4f} in [1, {band_hi:.4f}], pi5 violations "
        f"{rep.pi5_violations}, pi5 disconnected {rep.pi5_disconnected}, "
        f"fractions {['%.3f' % f for f in fr]}"
    )
    return in_band and pi5_ok and mono, detail, sweep_s


@criterion(10, "coset-line baseline")
def criterion_10_baseline(sc: SuiteContext):
    rep, sweep_s = sc.sweep("prop13")  # run here or offered
    eps0 = [r for r in rep.rows if r.eps == 0.0][0]
    half_one = abs(eps0.half_degree_mean - 1.0) < 1e-12
    fr = [r.largest_fraction_mean for r in rep.rows]
    mono = all(b >= a - 1e-12 for a, b in zip(fr, fr[1:]))
    ok = rep.line_partition_ok and half_one and rep.monotone_violations == 0 and mono
    detail = (
        f"line partition ok={rep.line_partition_ok}, eps=0 half-degree "
        f"{eps0.half_degree_mean:.4f}, fractions {['%.3f' % f for f in fr]}"
    )
    return ok, detail, sweep_s


@criterion(11, "byte-identical reruns")
def criterion_11_determinism(sc: SuiteContext):
    """Byte-identical reruns of the artifact suite at a reduced scale."""
    from . import cli  # cli imports this module

    small = {
        "acceptance_checks": False,
        "graphing": {"seeds": 5, "window_radius": 4, "margin": 2},
        "process": {"seeds": 5, "corner_seeds": 5, "n_range": [1, 2, 3, 4, 5, 6]},
        "prop13": {"seeds": 5},
    }
    digests = []
    for _ in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            with contextlib.redirect_stdout(io.StringIO()):  # keep the suite's output clean
                rc = cli.main(
                    ["all", "--out", tmp, "--seed", str(sc.master_seed)],
                    config_overrides=small,
                )
            if rc != 0:
                return False, f"reduced suite exited {rc}"
            blob = {}
            for p in sorted(Path(tmp).rglob("*")):
                if p.is_file() and p.name != "manifest.json":
                    blob[str(p.relative_to(tmp))] = p.read_bytes()
            digests.append(blob)
    if digests[0].keys() != digests[1].keys():
        return False, "file sets differ between reruns"
    diff = [k for k in digests[0] if digests[0][k] != digests[1][k]]
    return not diff, f"{len(digests[0])} data files compared; differing: {diff}"


def run_all(master_seed: int = 20260810, threads: int = 1, echo=print, offered=None) -> list:
    sc = SuiteContext(master_seed=master_seed, threads=threads, offered=offered)
    results = []
    for fn in ALL_CRITERIA:
        res = fn(sc)
        results.append(res)
        if echo:
            echo(res.line())
    return results
