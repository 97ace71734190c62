"""The acceptance suite: one runnable check per exit criterion.

Each criterion returns a CriterionResult with a pass flag, elapsed time
and a one-line detail string; `run_all` executes them in order and also
backs the CLI `all` subcommand.  Thresholds and tolerances are pinned
here, not in the callers.

Criteria 7 and 9 read one pinned 200-seed graphing sweep.  A caller that
already ran a sweep may offer it as a GraphingSweep; the suite reuses it
only when its SweepKey equals the pinned sweep's key, and sweeps itself
otherwise.

Criteria 6 and 8 check the scenarios built by `sandwich_scenarios` and
`touching_scenarios`; the CLI's `diamond` and `touching` runners write
the same scenarios out for the configured groups.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .diamonds import (
    diamond_members,
    diamond_volume,
    growth_dominance,
    sandwich_check,
)
from .graphing import (
    CostReport,
    GraphingContext,
    PercolationKernel,
    coset_line_baseline,
    connect_then_descend,
    cost_report,
    touching_paths,
)
from .groups import GroupSpec, ball, growth_series, make_oracle
from .horoboundary import (
    GeodesicRay,
    Horofunction,
    ProductHorofunction,
    horofunction_from_ray,
)
from .point_process import corner_event_probability, eventually_decreasing_split
from .product import ProductMetric, ProductSpace, ball_slice_volume, perfect_diamond
from .schedule import build_schedule, linear_schedule

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
        return f"[{status}] criterion {self.index}: {self.name} ({self.elapsed:.1f}s) {self.detail}"


@dataclass(frozen=True)
class SweepKey:
    """Every input that fixes a graphing sweep's CostReport.

    Threads and the enumeration cap are left out: they change how a sweep
    runs, not what it reports."""

    specs: tuple
    c: Fraction
    r: tuple
    r_prime: tuple
    f: tuple
    annuli: tuple
    n: int
    window_radius: int
    margin: int
    eps_list: tuple
    primary_eps: float
    seeds: int
    master_seed: int


def sweep_key(
    specs,
    schedule,
    kernel: PercolationKernel,
    n: int,
    window_radius: int,
    margin: int,
    eps_list,
    primary_eps: float,
    seeds: int,
    master_seed: int,
) -> SweepKey:
    return SweepKey(
        specs=tuple(specs),
        c=schedule.c,
        r=tuple(schedule.r),
        r_prime=tuple(schedule.r_prime),
        f=tuple(schedule.f),
        annuli=tuple(kernel.annuli),
        n=int(n),
        window_radius=int(window_radius),
        margin=int(margin),
        eps_list=tuple(float(e) for e in eps_list),
        primary_eps=float(primary_eps),
        seeds=int(seeds),
        master_seed=int(master_seed),
    )


@dataclass(frozen=True)
class GraphingSweep:
    """A finished sweep: its key, its report and its wall time in seconds."""

    key: SweepKey
    report: CostReport
    elapsed: float


def _timed(fn):
    t0 = time.time()
    passed, detail = fn()
    return passed, time.time() - t0, detail


@dataclass
class SuiteContext:
    """Shared heavyweight state reused across criteria."""

    master_seed: int = 20260810
    threads: int = 1
    sweeps: tuple = ()  # GraphingSweeps offered by the caller
    _cache: dict = field(default_factory=dict)

    def growth_f2(self, horizon, method="auto"):
        key = ("growth", horizon, method)
        if key not in self._cache:
            self._cache[key] = growth_series(F2, horizon, method=method)
        return self._cache[key]

    def schedule_f2(self, horizon):
        key = ("schedule", horizon)
        if key not in self._cache:
            g = self.growth_f2(max(horizon, 12))
            self._cache[key] = build_schedule(g, self.growth_f2(max(horizon, 12)), 1, horizon)
        return self._cache[key]

    def metric_f2(self):
        if "metric" not in self._cache:
            self._cache["metric"] = ProductMetric(make_oracle(F2), make_oracle(F2), 1)
        return self._cache["metric"]

    def graphing_key(self) -> SweepKey:
        """Key of the pinned sweep behind criteria 7 and 9."""
        sched, wr = self.schedule_f2(12), 5
        kernel = PercolationKernel(self.metric_f2(), sched.growth, sched.growth2, 2 * wr)
        return sweep_key(
            (F2, F2), sched, kernel, 2, wr, 2, [0.01, 0.05, 0.1, 0.2], 0.05, 200, self.master_seed
        )

    def graphing_runs(self):
        if "gruns" not in self._cache:
            key = self.graphing_key()
            offered = [sw for sw in self.sweeps if sw.key == key]
            if offered:
                report, elapsed = offered[0].report, offered[0].elapsed
            else:
                t0 = time.time()
                ctx = GraphingContext(
                    self.metric_f2(), self.schedule_f2(12), key.n, key.window_radius, key.margin
                )
                report = cost_report(
                    ctx,
                    key.seeds,
                    list(key.eps_list),
                    key.primary_eps,
                    key.master_seed,
                    threads=self.threads,
                )
                elapsed = time.time() - t0
            self._cache["gruns"], self._cache["gruns_elapsed"] = report, elapsed
        return self._cache["gruns"]

    @property
    def sweep_elapsed(self) -> float:
        return self._cache.get("gruns_elapsed", 0.0)


def criterion_1_growth(sc: SuiteContext) -> CriterionResult:
    def body():
        g = growth_series(F2, 8, method="bfs")
        closed = [2 * 3**n - 1 for n in range(9)]
        if g.volumes != closed:
            return False, f"BFS volumes {g.volumes} != closed form"
        est = g.growth_rate_estimates
        non_inc = all(est[i] <= est[i - 1] + 1e-12 for i in range(1, len(est)))
        ge3 = all(e >= 3.0 - 1e-12 for e in est)
        g.check_invariants()
        return non_inc and ge3, f"v_8={g.volumes[8]}, rate est {est[-1]:.4f}"

    passed, elapsed, detail = _timed(body)
    passed = passed and elapsed < 10.0
    return CriterionResult(1, "growth oracles", passed, elapsed, detail, 10.0)


def criterion_2_slices(sc: SuiteContext) -> CriterionResult:
    def body():
        m = sc.metric_f2()
        g = sc.growth_f2(12)
        for n in range(5):
            total = ball_slice_volume(m, g, g, n).total
            brute = len(perfect_diamond(m, m.origin, n))
            if total != brute:
                return False, f"n={n}: slice sum {total} != enumeration {brute}"
        n2 = ball_slice_volume(m, g, g, 2).total
        return n2 == 49, f"n=2 ball volume {n2}"

    passed, elapsed, detail = _timed(body)
    return CriterionResult(2, "ball slice decomposition", passed, elapsed, detail)


def criterion_3_schedule(sc: SuiteContext) -> CriterionResult:
    def body():
        sched = sc.schedule_f2(12)
        if (sched.f[0], sched.f[1], sched.f[2]) != (0, 0, 2):
            return False, f"f prefix {sched.f[:3]} != (0, 0, 2)"
        sched.check_invariants()  # includes the [1/M, M^(2c)] ratio bounds
        rep = sched.verify_almost_linear(5)
        if not rep.all_hold():
            return False, "almost-linearity bound failed within the horizon"
        ns = [r.n_of_m for r in rep.rows]
        return True, f"breakpoints {len(sched.r)}, N(m)={ns}"

    passed, elapsed, detail = _timed(body)
    passed = passed and elapsed < 5.0
    return CriterionResult(3, "slope schedule", passed, elapsed, detail, 5.0)


def criterion_4_diamond_volume(sc: SuiteContext) -> CriterionResult:
    def body():
        sched = sc.schedule_f2(12)
        m = sc.metric_f2()
        for n in range(5):
            total = diamond_volume(sched, n).total
            members = diamond_members(m, sched, n, m.origin)
            if total != len(members) or len(set(members)) != total:
                return False, f"n={n}: slice sum {total} != enumeration {len(members)}"
        v2 = diamond_volume(sched, 2).total
        return v2 == 33, f"r_n=2 volume {v2}"

    passed, elapsed, detail = _timed(body)
    return CriterionResult(4, "diamond volume identity", passed, elapsed, detail)


def criterion_5_corner_decay(sc: SuiteContext) -> CriterionResult:
    def body():
        g = growth_series(F2, 18)
        sched = build_schedule(g, g, 1, 14)
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
                tails[(T, label)] = max(
                    split["even_tail_start"], split["odd_tail_start"]
                )
        dom = growth_dominance(sched, breakpoints)  # raises when the bound fails
        worst = min(float(r.ratio / r.lower_bound) for r in dom if r.lower_bound > 0)
        n0 = {f"T{t}": breakpoints[i] for (t, lab), i in tails.items() if lab == "prob"}
        return True, (
            f"14 breakpoints, decay tails from n={n0}; dominance margin x{worst:.1f}"
        )

    passed, elapsed, detail = _timed(body)
    passed = passed and elapsed < 60.0
    return CriterionResult(5, "corner decay and dominance", passed, elapsed, detail, 60.0)


def sandwich_scenarios(spec1, spec2, c) -> dict:
    """The horoball-sandwich scenarios, as SandwichReports by name.

    "lattice" always runs: Z x Z at c = 1, a linear schedule and
    half-plane horoballs.  "tree" runs on spec1 x spec2 at slope c, window
    radius 4 and centers escaping along A^-M, when both factors are free.
    """
    oz1, oz2 = make_oracle(Z1), make_oracle(Z1)
    gz = growth_series(Z1, 40)
    mz = ProductMetric(oz1, oz2, 1)
    lsched = linear_schedule(1, 30, growth=gz, growth2=gz)
    win = ProductSpace(mz, 5)
    hz = ProductHorofunction(
        horofunction_from_ray(oz1, ["X"], [el for el, _ in ball(oz1, 6)]),
        horofunction_from_ray(oz2, ["X"], [el for el, _ in ball(oz2, 6)]),
        1,
    )
    centers = []
    for n in range(20, 29):
        N = (lsched.r[n] + 2) // 2 + 1
        centers.append((n, ((-N,), (-N,))))
    wpts = [win.element(i) for i in range(len(win))]
    reports = {"lattice": sandwich_check(mz, lsched, hz, centers, wpts)}
    if spec1.kind == "free" and spec2.kind == "free":
        o1, o2 = make_oracle(spec1), make_oracle(spec2)
        sched = build_schedule(growth_series(spec1, 26), growth_series(spec2, 26), c, 26)
        m = ProductMetric(o1, o2, c)
        w4 = ProductSpace(m, 4)
        hh = ProductHorofunction(
            horofunction_from_ray(o1, ["A"], [el for el, _ in ball(o1, 5)]),
            horofunction_from_ray(o2, ["A"], [el for el, _ in ball(o2, 5)]),
            c,
        )
        centers = []
        for n in range(16, min(25, len(sched.r))):
            M = sched.r[n] // 2
            centers.append((n, (o1.canon(["A"] * M), o2.canon(["A"] * M))))
        pts4 = [w4.element(i) for i in range(len(w4))]
        reports["tree"] = sandwich_check(m, sched, hh, centers, pts4)
    return reports


def criterion_6_sandwich(sc: SuiteContext) -> CriterionResult:
    def body():
        reports = sandwich_scenarios(F2, F2, 1)
        rep = reports["lattice"]
        lattice_ok = (
            all(r.lower_ok and r.upper_ok for r in rep.rows)
            and any(not r.vacuous for r in rep.rows)
        )
        if not lattice_ok:
            return False, "lattice inclusions violated"
        rep2 = reports["tree"]
        viol = sum(r.lower_violations + r.upper_violations for r in rep2.rows)
        ok = rep2.first_sandwiched_n is not None and viol == 0
        return ok and lattice_ok, (
            f"lattice exact; tree N0={rep2.first_sandwiched_n}, violations={viol}"
        )

    passed, elapsed, detail = _timed(body)
    return CriterionResult(6, "horoball sandwich", passed, elapsed, detail)


def criterion_7_pi1_forest(sc: SuiteContext) -> CriterionResult:
    def body():
        runs = sc.graphing_runs().runs[:100]
        if len(runs) < 100:
            return False, "fewer than 100 seeds"
        viol = sum(r.pi1_interior_violations for r in runs)
        par = sum(r.parallel_violations for r in runs)
        interior = sum(r.n_interior for r in runs)
        return (
            viol == 0 and par == 0,
            f"{interior} interior marked points over 100 seeds, "
            f"{viol} out-degree and {par} parallel violations",
        )

    passed, elapsed, detail = _timed(body)
    return CriterionResult(7, "descent forest out-degrees", passed, elapsed, detail)


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


def criterion_8_touching(sc: SuiteContext) -> CriterionResult:
    def body():
        traces = touching_scenarios(F2, F2)
        tr = traces["tree_k2_kp1"]
        if not (tr.bound_ok and tr.monotone1 and tr.monotone2):
            return False, "tree trace failed"
        if not (tr.k == 2 and tr.k_prime == 1 and max(tr.rho_values) <= 3):
            return False, f"k={tr.k}, k'={tr.k_prime}, max rho {max(tr.rho_values)}"
        tr0 = traces["degenerate"]
        if max(tr0.rho_values) != 0 or not (tr0.monotone1 and tr0.monotone2):
            return False, "degenerate trace not identically zero"
        trz = traces["lattice"]
        ok = trz.bound_ok and trz.monotone1 and trz.monotone2
        return ok, (
            f"tree max rho {max(tr.rho_values)} <= 3; lattice max rho "
            f"{max(trz.rho_values)} <= {trz.bound}"
        )

    passed, elapsed, detail = _timed(body)
    return CriterionResult(8, "touching paths", passed, elapsed, detail)


def criterion_9_cost(sc: SuiteContext) -> CriterionResult:
    def body():
        rep = sc.graphing_runs()
        st = {s["stage"]: s for s in rep.stages}
        h3 = st["pi3"]["half_degree_mean"]
        se = st["pi3"]["half_degree_se"]
        band_hi = 1.0 + 0.05 + 3.0 * se + rep.boundary_deficit
        in_band = 1.0 - 1e-9 <= h3 <= band_hi
        pi5_ok = rep.pi5_violations == 0
        fr = [rep.largest_fraction_by_eps[e] for e in sorted(rep.largest_fraction_by_eps)]
        mono = all(b >= a - 1e-12 for a, b in zip(fr, fr[1:])) and rep.monotone_violations == 0
        ok = in_band and pi5_ok and mono
        return ok, (
            f"half-deg pi3 {h3:.4f} in [1, {band_hi:.4f}], pi5 violations "
            f"{rep.pi5_violations}, fractions {['%.3f' % f for f in fr]}"
        )

    passed, elapsed, detail = _timed(body)
    elapsed = max(elapsed, sc.sweep_elapsed)  # the sweep ran earlier: criterion 7 or offered
    passed = passed and elapsed < 600.0
    return CriterionResult(9, "cost estimators", passed, elapsed, detail, 600.0)


def criterion_10_baseline(sc: SuiteContext) -> CriterionResult:
    def body():
        g = sc.growth_f2(12)
        rep = coset_line_baseline(
            sc.metric_f2(), g, g, 4, 2, [0.0, 0.05, 0.2], 20, sc.master_seed
        )
        eps0 = [r for r in rep.rows if r["eps"] == 0.0][0]
        half_one = abs(eps0["half_degree_mean"] - 1.0) < 1e-12
        fr = [r["largest_fraction_mean"] for r in rep.rows]
        mono = all(b >= a - 1e-12 for a, b in zip(fr, fr[1:]))
        ok = rep.line_partition_ok and half_one and rep.monotone_violations == 0 and mono
        return ok, (
            f"line partition ok={rep.line_partition_ok}, eps=0 half-degree "
            f"{eps0['half_degree_mean']:.4f}, fractions {['%.3f' % f for f in fr]}"
        )

    passed, elapsed, detail = _timed(body)
    return CriterionResult(10, "coset-line baseline", passed, elapsed, detail)


def criterion_11_determinism(sc: SuiteContext) -> CriterionResult:
    """Byte-identical reruns of the artifact suite at a reduced scale."""
    import contextlib
    import io
    import tempfile
    from pathlib import Path

    from . import cli

    def body():
        small = {
            "acceptance_checks": False,
            "seeds": 5,
            "graphing": {"seeds": 5, "window_radius": 4, "margin": 2},
            "process": {"seeds": 5, "corner_seeds": 5, "n_range": [1, 2, 3, 4, 5, 6]},
            "prop13": {"seeds": 5},
        }
        digests = []
        for run in range(2):
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

    passed, elapsed, detail = _timed(body)
    return CriterionResult(11, "byte-identical reruns", passed, elapsed, detail)


ALL_CRITERIA = [
    criterion_1_growth,
    criterion_2_slices,
    criterion_3_schedule,
    criterion_4_diamond_volume,
    criterion_5_corner_decay,
    criterion_6_sandwich,
    criterion_7_pi1_forest,
    criterion_8_touching,
    criterion_9_cost,
    criterion_10_baseline,
    criterion_11_determinism,
]


def run_all(master_seed: int = 20260810, threads: int = 1, echo=print, sweeps=()) -> list:
    sc = SuiteContext(master_seed=master_seed, threads=threads, sweeps=tuple(sweeps))
    results = []
    for fn in ALL_CRITERIA:
        res = fn(sc)
        results.append(res)
        if echo:
            echo(res.line())
    return results
