"""Child side of the benchmark: run one `horolab` CLI command in this
interpreter and record when its sweep starts and how long it runs.

    python3 perfbench/probe.py --mode MODE --sweep KIND --report FILE -- <horolab args>

MODE is `plain` (timing marks only), `setup` (exit as soon as the sweep
starts, to sample set-up time) or `trace` (every layer span of
layers.py).  KIND names the workload's sweep: `cost_report` (the first
`cost_report` call) or `baseline` (the first `SeededRandomness` built
inside `coset_line_baseline`).  Times are CLOCK_MONOTONIC readings, which
the parent process shares.  The report is JSON; the exit code is the CLI's.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import layers
from spans import Tracer, replace_everywhere


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SweepClock:
    """Marks the first sweep entry and sums the time and seeds of sweeps."""

    def __init__(self, report_path: str, setup_only: bool):
        self.report_path = report_path
        self.setup_only = setup_only
        self.setup_mark = None
        self.sweep_s = 0.0
        self.seeds = 0

    def mark(self):
        if self.setup_mark is None:
            self.setup_mark = now()
            if self.setup_only:
                self.write({"rc": 0})
                os._exit(0)

    def write(self, extra: dict):
        data = {"setup_mark": self.setup_mark, "sweep_s": self.sweep_s, "seeds": self.seeds}
        data.update(extra)
        with open(self.report_path, "w") as fh:
            json.dump(data, fh)

    def install_cost_report(self):
        import horolab.graphing as graphing

        original = graphing.cost_report
        clock = self

        def timed_cost_report(*args, **kwargs):
            clock.mark()
            t0 = now()
            report = original(*args, **kwargs)
            clock.sweep_s += now() - t0
            clock.seeds += len(report.runs)
            return report

        replace_everywhere(original, timed_cost_report, "horolab")

    def install_baseline(self):
        import horolab.graphing as graphing

        original = graphing.coset_line_baseline
        base_rng = graphing.SeededRandomness
        clock = self
        state = {"inside": False, "start": None}

        class MarkedRandomness(base_rng):
            def __init__(self, *args, **kwargs):
                if state["inside"] and state["start"] is None:
                    clock.mark()
                    state["start"] = now()
                super().__init__(*args, **kwargs)

        def timed_baseline(*args, **kwargs):
            state["inside"], state["start"] = True, None
            try:
                report = original(*args, **kwargs)
            finally:
                state["inside"] = False
            if state["start"] is not None:
                clock.sweep_s += now() - state["start"]
            clock.seeds += report.seeds
            return report

        graphing.SeededRandomness = MarkedRandomness
        replace_everywhere(original, timed_baseline, "horolab")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("plain", "setup", "trace"), required=True)
    parser.add_argument("--sweep", choices=("cost_report", "baseline"), required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args

    import horolab.cli

    tracer = None
    if args.mode == "trace":
        tracer = Tracer()
        layers.install(tracer)
    clock = SweepClock(args.report, setup_only=args.mode == "setup")
    if args.sweep == "cost_report":
        clock.install_cost_report()
    else:
        clock.install_baseline()
    rc = horolab.cli.main(cli_args)
    extra = {"rc": rc}
    if tracer is not None:
        summary = tracer.summary()
        extra["layers"] = layers.layer_values(summary, dict(tracer.counts))
        extra["missing"] = tracer.missing
        extra["spans"] = {
            name: {k: agg[k] for k in ("calls", "s", "self_s")} for name, agg in summary.items()
        }
    clock.write(extra)
    return rc


if __name__ == "__main__":
    sys.exit(main())
