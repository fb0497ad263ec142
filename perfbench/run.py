#!/usr/bin/env python3
"""elastika benchmark: end-to-end figures, or per-layer figures when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 40 --trace 0

The package is imported from `src/` of the checkout, set up several times
(`setup_s` is the shortest), then the workload runs whole passes until
`--seconds` have passed.  Each part of an operation is timed by its
shortest run over the passes.  Every time is scaled to a fixed host speed
by a reference loop timed just before and just after it (see
`reference_s`).  Every simulated output is checked against a reference;
a wrong value or a determinism failure exits with code 1.  The last line
of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.  `--trace 1` runs half the
time untraced and half with spans around every call into the package,
reports the per-layer figures instead, and writes the spans to
`perfbench/out/`.
"""
from __future__ import annotations

import argparse
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 9
# The reference time at the speed every figure is scaled to; close to its
# best on the 2-core x86-64 host of the baseline.
REF_S = 0.002

# name -> (unit, direction)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "sweep_s": ("s", "lower"),
    "sim_results_per_s": ("1/s", "higher"),
    "wide_prog_s_p50": ("s", "lower"),
    "wide_prog_s_p90": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pac_buffers": ("count", "lower"),
    "pac_throughput_per_ns": ("1/ns", "higher"),
}


def load_package():
    """Import elastika afresh from the checkout's src/ directory."""
    for name in [m for m in sys.modules
                 if m == "elastika" or m.startswith("elastika.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"elastika.{name}")
            for name in ("frontend", "depgraph", "buffering", "sim",
                         "metrics", "netlist", "bench")}
    mods["engine"] = importlib.import_module("elastika.sim.engine")
    return types.SimpleNamespace(**mods)


def reference_s() -> float:
    """Best of three runs of a fixed pure-Python loop: the host's speed
    right now.

    Shared hosts change speed for minutes at a time, by a third and more,
    and a process's CPU time slows with its wall time.  So every time is
    taken between two reference times and reported by `at_ref_speed`.
    The loop allocates nothing the garbage collector tracks, so the code
    under test cannot change its speed."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(20000):
            k = i & 255
            d[k] = d.get(k, 0) + i
        best = min(best, time.perf_counter() - t0)
    return best


def at_ref_speed(elapsed: float, before: float, after: float) -> float:
    """`elapsed` seconds, taken between reference times `before` and
    `after`, as the time at the speed where the reference takes REF_S."""
    return elapsed * 2 * REF_S / (before + after)


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as statistics.quantiles does."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Passes of one workload.  Every part of an operation is timed on each
    pass, scaled by the reference times around it; an operation's
    time is the sum of its parts' shortest times."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.part_s: dict[tuple, list[float]] = {}  # (op, part) -> times
        self.sim_s: dict[tuple, list[float]] = {}   # ... -> time in sim.run
        self.ref_s: list[float] = []       # reference times between parts
        self.passes = 0
        self.results = 0                   # checked results, first pass
        self.pac_buffers = 0               # first pass
        self.pac_rates: list[float] = []   # per pass, geometric mean
        # Operations are counted once per run, however many passes repeat
        # them, so the counts depend on the workload and not on the time.
        self.attempted: set = set()
        self.failed: set = set()           # failed in any pass

    def measure(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        for parts in self.workload.passes():
            outcomes = [self._part(op, part, fn) for op, part, fn in parts]
            try:
                self.workload.end_pass()
            except Exception:   # the pass as a whole failed its checks
                self.failed.update(op for op, _, _ in parts)
                raise
            if not self.passes:
                self.results = sum(o.results for o in outcomes)
                self.pac_buffers = sum(o.pac_buffers for o in outcomes)
            self.passes += 1
            self.pac_rates.append(geomean(
                [r for o in outcomes for r in o.pac_rates] or [0.0]))
            if (self.passes >= self.workload.min_passes
                    and time.perf_counter() >= deadline):
                return

    def _part(self, op, part, fn):
        self.attempted.add(op)
        if not self.ref_s:
            self.ref_s.append(reference_s())
        t0 = time.perf_counter()
        try:
            if self.tracer is None:
                outcome = fn()
            else:
                self.tracer.op = f"{self.workload.name}.{self.passes}.{op}"
                idx = self.tracer.begin("harness.op")
                try:
                    outcome = fn()
                finally:
                    self.tracer.end(idx)
        except Exception:
            self.failed.add(op)
            raise
        elapsed = time.perf_counter() - t0
        self.ref_s.append(reference_s())
        before, after = self.ref_s[-2:]
        self.part_s.setdefault((op, part), []).append(
            at_ref_speed(elapsed, before, after))
        self.sim_s.setdefault((op, part), []).append(
            at_ref_speed(outcome.sim_s, before, after))
        if outcome.failed:
            self.failed.add(op)
        return outcome

    def op_s(self) -> list[float]:
        """Each operation's time: its parts' shortest times, summed."""
        total: dict = {}
        for (op, _), times in self.part_s.items():
            total[op] = total.get(op, 0.0) + min(times)
        return list(total.values())

    def pass_s(self) -> float:
        """A pass's time: the times of its operations, summed."""
        return sum(self.op_s())


def geomean(values: list[float]) -> float:
    if min(values) <= 0:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))


def end_to_end(setups: list[float], run: Run) -> dict[str, float]:
    ops = run.op_s()
    return {
        "setup_s": min(setups),
        "sweep_s": run.pass_s(),
        "sim_results_per_s": run.results / sum(
            min(t) for t in run.sim_s.values()),
        "wide_prog_s_p50": statistics.median(ops),
        "wide_prog_s_p90": percentile(ops, 90),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "pac_buffers": float(run.pac_buffers),
        "pac_throughput_per_ns": statistics.median(run.pac_rates),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("sweep", "wide"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "elastika" / "__init__.py").is_file():
        print(f"error: no elastika package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from spans import Tracer
    from workloads import WORKLOADS, Violation

    cls = WORKLOADS[args.workload]
    setups = []
    refs = [reference_s()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ek = load_package()
        workload = cls(ek, args.seed)
        elapsed = time.perf_counter() - t0
        refs.append(reference_s())
        setups.append(at_ref_speed(elapsed, *refs[-2:]))

    metrics: dict[str, tuple[float, str]] = {}
    correct = True
    runs = [Run(workload)]
    try:
        if args.trace:
            plain = runs[0]
            plain.measure(args.seconds / 2)
            tracer = Tracer()
            tracer.install(ek)
            try:
                tracer.op = "setup"
                traced = Run(cls(ek, args.seed, tracer), tracer)
                runs.append(traced)
                traced.measure(args.seconds / 2)
            finally:
                tracer.restore()
            metrics = tracer.layer_metrics()
            metrics["trace.overhead_pct"] = (
                100.0 * (traced.pass_s() / plain.pass_s() - 1.0), "%")
            OUT.mkdir(exist_ok=True)
            tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.jsonl")
        else:
            runs[0].measure(args.seconds)
            for name, value in end_to_end(setups, runs[0]).items():
                metrics[name] = (value, END_TO_END[name][0])
    except Violation as exc:
        print(f"violation: {exc}", file=sys.stderr)
        correct = False
    except Exception:  # shipped programs must not raise: report and fail
        traceback.print_exc()
        correct = False
    findings = {}
    for run in runs:
        findings.update(getattr(run.workload, "findings", {}))
    for lines, text in findings.values():
        print("\n".join(lines) + "\n" + text, file=sys.stderr)
    attempted = sum(len(r.attempted) for r in runs)
    failed = sum(len(r.failed) for r in runs)

    print(f"# {args.workload} seed {args.seed}: "
          f"{sum(r.passes for r in runs)} passes, {attempted} "
          f"operations, {failed} failed, {SETUP_REPEATS} set-ups; reference "
          f"time median {1000 * statistics.median(runs[0].ref_s):.3f} ms, "
          f"times scaled to {1000 * REF_S:g} ms")
    for name, (value, unit) in metrics.items():
        better = END_TO_END.get(name, (unit, ""))[1]
        print(f"{name:32s} {value:14.6g} {unit:6s} {better}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
