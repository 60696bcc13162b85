"""Benchmark entry point: one seeded workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload coord-enum --seed 1 --seconds 30 --trace 0

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With `--trace 0` the metrics are the
end-to-end ones, with `--trace 1` the per-layer ones.  A fuller record of
the run goes to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import clock
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"

SETUP_REPEATS = 9
MAX_ROUNDS = 39
"""Rounds per run, warm-up included, so that no case runs 40 times."""


def _purge_lstag() -> None:
    for name in [n for n in sys.modules if n == "lstag" or n.startswith("lstag.")]:
        del sys.modules[name]


def _set_up(plan: workloads.Plan):
    lstag = importlib.import_module("lstag")
    env, problems = plan.setup(lstag)
    return lstag, env, problems


class Runner:
    """Runs whole rounds of a case list, timing each call in reference seconds."""

    def __init__(self, cases: list[workloads.Case], meter: clock.Meter):
        self.cases = cases
        self.meter = meter
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, str] = {}
        self.problems: dict[str, list[str]] = {}
        self.ref_s: dict[str, list[float]] = {c.name: [] for c in cases}
        self.wall_s: dict[str, list[float]] = {c.name: [] for c in cases}
        self.kernel_s: dict[str, list[float]] = {c.name: [] for c in cases}

    def _call(self, case: workloads.Case):
        """One operation; returns (output, wall s, reference s), or None when it raised."""
        self.attempted += 1
        try:
            return self.meter.timed(case.run)
        except Exception as exc:  # the program failed this operation: count it, keep going
            self.failed += 1
            self.failures[case.name] = f"{type(exc).__name__}: {exc}"
            return None

    def _check(self, case: workloads.Case, out) -> None:
        problems = case.check(out)
        if problems:
            self.problems.setdefault(case.name, problems[:3])

    def round(self, record: bool) -> None:
        for case in self.cases:
            res = self._call(case)
            if res is None:
                continue
            out, wall, ref = res
            self._check(case, out)
            if record:
                self.ref_s[case.name].append(ref)
                self.wall_s[case.name].append(wall)
                self.kernel_s[case.name].append(self.meter.kernels[-1])

    def traced_round(self, tracer: Tracer) -> dict[str, float]:
        """One round under the tracer; outputs are checked after it is removed."""
        outputs, ref = [], {}
        tracer.install()
        try:
            for case in self.cases:
                tracer.case = case.name
                res = self._call(case)
                if res is not None:
                    outputs.append((case, res[0]))
                    ref[case.name] = res[2]
        finally:
            tracer.uninstall()
        for case, out in outputs:
            self._check(case, out)
        return ref


def tracer_setup(tracer: Tracer, plan: workloads.Plan, meter: clock.Meter) -> float:
    """One traced pass of the workload's grammar set-up (the import is not repeated)."""
    lstag = importlib.import_module("lstag")
    tracer.case = "setup"
    tracer.install()
    try:
        _, _, ref = meter.timed(lambda: plan.setup(lstag))
    finally:
        tracer.uninstall()
    return ref


def _medians(times: dict[str, list[float]]) -> dict[str, float]:
    """Each case's median; cases that failed every time have none."""
    return {name: statistics.median(v) for name, v in times.items() if v}


def _geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "lstag" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"perfbench: no lstag checkout at {ROOT} (need src/lstag and fixtures/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    OUT.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        plan = workloads.WORKLOADS[args.workload](random.Random(args.seed), ROOT, workdir)
        meter = clock.Meter()
        setup_ref = []
        for _ in range(SETUP_REPEATS):
            _purge_lstag()
            (lstag, env, setup_problems), _, ref = meter.timed(lambda: _set_up(plan))
            setup_ref.append(ref)
        if not Path(lstag.__file__).resolve().is_relative_to(src):
            print(f"perfbench: imported lstag from {lstag.__file__}, not {src}", file=sys.stderr)
            return 2

        runner = Runner(plan.cases(lstag, env), meter)
        runner.round(record=False)  # warm-up: lazy caches fill, checks run
        budget = args.seconds / 2 if args.trace else args.seconds
        rounds, t0 = 1, time.perf_counter()
        while rounds < MAX_ROUNDS - args.trace and (rounds == 1 or time.perf_counter() - t0 < budget):
            runner.round(record=True)
            rounds += 1
        medians = _medians(runner.ref_s)
        if not medians:
            print("perfbench: every case failed", file=sys.stderr)
            return 1
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "cases": {name: {"ref_ms": [t * 1e3 for t in runner.ref_s[name]],
                             "wall_ms": [t * 1e3 for t in runner.wall_s[name]],
                             "kernel_ms": [t * 1e3 for t in runner.kernel_s[name]]} for name in runner.ref_s},
            "setup_ref_s": setup_ref,
            "wall_case_ms_geomean": _geomean(_medians(runner.wall_s).values()) * 1e3,
        }
        if args.trace:
            tracer = Tracer()
            traced_setup = tracer_setup(tracer, plan, meter)
            traced = runner.traced_round(tracer)
            rounds += 1
            round_kernels = meter.kernels[-len(runner.cases):]
            metrics = tracer.metrics(clock.REFERENCE_KERNEL_S / statistics.median(round_kernels))
            metrics["trace.overhead_x"] = sum(traced.values()) / sum(medians[n] for n in traced)
            units = {name: Tracer.unit(name) for name in metrics}
            units["trace.overhead_x"] = "x"
            spans = {"traced_setup_ref_s": traced_setup, "dropped_spans": tracer.dropped_spans,
                     "columns": ["case", "layer", "function", "start_ns", "duration_ns", "depth"],
                     "spans": tracer.spans}
            (OUT / f"trace-{tag}.json").write_text(json.dumps(spans) + "\n", encoding="utf-8")
        else:
            metrics = {
                "setup_s": statistics.median(setup_ref),
                "case_ms_geomean": _geomean(medians.values()) * 1e3,
                "cases_per_s": len(medians) / sum(medians.values()),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            units = {"setup_s": "s", "case_ms_geomean": "ms", "cases_per_s": "1/s", "peak_rss_mb": "MB"}
        problems = dict(runner.problems, **({"setup": setup_problems} if setup_problems else {}))
        result = {
            "correct": not problems,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
        }
        record.update(rounds=rounds, failures=runner.failures, problems=problems, result=result)
        (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        for name, found in problems.items():
            print(f"perfbench: {name}: {'; '.join(found)}", file=sys.stderr)
        for name, failure in runner.failures.items():
            print(f"perfbench: failed: {name}: {failure}", file=sys.stderr)
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
