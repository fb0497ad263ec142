"""The benchmark workloads.

Each workload is built from a seed (`__init__` is its set-up) and exposes
`passes`: an endless sequence of passes.  A pass is a list of
(operation, part, callable) triples; the callable returns an `Outcome`,
and operation and part name the same work in every pass.  An operation
is a cell on `sweep` and a program on `wide` (its parts are compiling it
and each policy/mode).  `end_pass` runs the checks that span a whole
pass; `min_passes` is how many passes a run needs for them.  A broken
correctness guarantee raises `Violation`.

All calls into elastika go through the package namespace `ek` handed in,
so a tracer can wrap them from outside.
"""
from __future__ import annotations

import dataclasses
import random
import time
import traceback

import gen

MODES = ("async", "sync")
POLICIES = ("simple", "loop", "pac")
CLOCK = 2000
# Simulated-time horizon, at least six times the longest correct run: a net
# that stops draining ends as a short, failed run instead of a hang.
WIDE_HORIZON_PS = 10**7
# The programs of `wide` are drawn from this seed, not from --seed.
CORPUS_SEED = 0


class Violation(Exception):
    """An output disagreed with its reference, or bytes that must repeat
    did not."""


@dataclasses.dataclass
class Outcome:
    results: int = 0          # simulated results checked against a reference
    sim_s: float = 0.0        # host seconds inside sim.run
    failed: bool = False      # deadlocked or raised under some policy/mode
    pac_rates: list = dataclasses.field(default_factory=list)  # per ns
    pac_buffers: int = 0


def steady_rate_per_ns(report, port: str) -> float:
    """Results per ns between the first and last result on `port`."""
    times = [t for _, t in report.results.get(port, [])]
    if len(times) >= 2 and times[-1] > times[0]:
        return 1000.0 * (len(times) - 1) / (times[-1] - times[0])
    return 1000.0 * report.throughput


def simulate(ek, out: Outcome, buffered, mode: str, stimulus: dict,
             max_time: int):
    """sim.run on a copy of the stimulus, its time added to out.sim_s."""
    cfg = ek.sim.SimConfig(mode=mode, clock=CLOCK if mode == "sync" else 0,
                           stimulus={k: list(v) for k, v in stimulus.items()},
                           max_time=max_time)
    t0 = time.perf_counter()
    try:
        return ek.sim.run(buffered, cfg)
    finally:
        out.sim_s += time.perf_counter() - t0


class Sweep:
    """The shipped 18-cell matrix through `bench.run_cell`, one cell at a
    time; the seed only shuffles the cell order of each pass."""

    name = "sweep"
    min_passes = 2   # the format_table bytes of two passes are compared

    def __init__(self, ek, seed: int, tracer=None):
        self.ek = ek
        self.rng = random.Random(seed)
        self.specs = {}
        self.results = {}   # checked results per cell
        for name in ek.bench.benchmark_names():
            spec = ek.bench.benchmark(name)
            spec.compiled()
            self.results[name] = sum(len(v) for d in spec.datasets
                                     for v in spec.reference(d).values())
            if tracer is not None:
                spec = dataclasses.replace(spec, reference=tracer.wrap(
                    "bench.verify", spec.reference))
            self.specs[name] = spec
        self.cells = [(name, policy, mode) for name in self.specs
                      for mode in MODES for policy in POLICIES]
        self.rows: dict = {}
        self.tables: dict | None = None

    def passes(self):
        while True:
            order = self.rng.sample(self.cells, len(self.cells))
            yield [(cell, 0, lambda cell=cell: self._cell(*cell))
                   for cell in order]

    def _cell(self, name: str, policy: str, mode: str) -> Outcome:
        spec = self.specs[name]
        out = Outcome(results=self.results[name])
        bench = self.ek.bench
        run = bench.run

        def timed_run(net, cfg):   # the sim.run calls inside run_cell
            t0 = time.perf_counter()
            try:
                return run(net, cfg)
            finally:
                out.sim_s += time.perf_counter() - t0
        bench.run = timed_run
        try:
            row = bench.run_cell(spec, policy, mode, CLOCK)
        except bench.EquivalenceError as exc:
            raise Violation(str(exc)) from None
        finally:
            bench.run = run
        self.rows[(name, policy, mode)] = row
        if policy == "pac":
            out.pac_buffers = row.buffers
            out.pac_rates = [row.throughput]
        return out

    def end_pass(self) -> None:
        order = {p: i for i, p in enumerate(POLICIES)}
        tables = {}
        for name in self.specs:
            rows = sorted((row for (bench, _, _), row in self.rows.items()
                           if bench == name),
                          key=lambda r: (r.mode, r.clock, order[r.policy]))
            tables[name] = self.ek.bench.format_table(rows)
        if self.tables is not None and tables != self.tables:
            raise Violation("two sweep passes gave different format_table "
                            "output")
        self.tables = tables
        self.rows = {}


def verify(tracer, where: str, report, expected: dict) -> int:
    """Check every output port against its reference and return the number
    of results checked.  A wrong or extra value is a Violation, and so is a
    missing one unless the run deadlocked (a deadlock is a finding)."""
    idx = tracer.begin("bench.verify") if tracer else None
    try:
        checked = 0
        for port in sorted(expected):
            got = [v for v, _ in report.results.get(port, [])]
            want = expected[port]
            if got != want[:len(got)]:
                raise Violation(f"{where}: port {port}: got {got}, "
                                f"want {want}")
            if len(got) < len(want) and not report.deadlock:
                why = "; ".join([report.completion] + report.diagnosis[:1])
                raise Violation(f"{where}: port {port}: {len(got)} of "
                                f"{len(want)} results ({why})")
            checked += len(got)
        return checked
    finally:
        if tracer:
            tracer.end(idx)


class Wide:
    """Generated programs, one per size slot, each compiled, planned and
    spliced under every policy and mode, round-tripped through netlist,
    costed, bounded and simulated against the generator's own reference.

    The programs are those of CORPUS_SEED, the same in every run, so a
    program that deadlocks fails every run alike; the seed only shuffles
    the order of the programs and of their policy/mode parts in each
    pass."""

    name = "wide"
    min_passes = 1

    def __init__(self, ek, seed: int, tracer=None):
        self.ek = ek
        self.rng = random.Random(seed)
        corpus = random.Random(CORPUS_SEED)
        self.programs = [gen.generate(corpus.randrange(1 << 32), slot)
                         for slot in gen.SLOTS]
        self.tracer = tracer
        # program seed -> (finding lines, program text)
        self.findings: dict[int, tuple[list[str], str]] = {}
        self.params = ek.metrics.PowerParams()
        self.delays = ek.sim.DelayTable()
        self.nets: dict = {}   # program seed -> compiled net, this pass

    def passes(self):
        pairs = [(policy, mode) for mode in MODES for policy in POLICIES]
        while True:
            parts = []
            for key in self.rng.sample(range(len(self.programs)),
                                       len(self.programs)):
                prog = self.programs[key]
                parts.append((key, "compile",
                              lambda p=prog: self._compile(p)))
                parts += [(key, f"{policy}/{mode}",
                           lambda p=prog, pol=policy, m=mode:
                           self._policy(p, pol, m))
                          for policy, mode in self.rng.sample(pairs,
                                                              len(pairs))]
            yield parts

    def _compile(self, prog: gen.Program) -> Outcome:
        self.nets[prog.seed] = self.ek.frontend.compile(
            self.ek.frontend.parse(prog.text))
        return Outcome()

    def _policy(self, prog: gen.Program, policy: str, mode: str) -> Outcome:
        ek = self.ek
        out = Outcome()
        where = (f"wide seed {prog.seed} slot "
                 f"{gen.SLOTS.index(prog.slot)} {policy}/{mode}")
        net = self.nets[prog.seed]
        # Only planning, splicing and simulating a generated net may fail as
        # a finding; an exception anywhere else fails the run.
        try:
            plan = getattr(ek.buffering, f"policy_{policy}")(net, mode=mode)
            buffered = ek.buffering.apply(net, plan)
        except Exception:
            return self._failed(out, prog, where, traceback.format_exc())
        if policy == "pac":
            out.pac_buffers = len(plan)
        text = ek.netlist.dumps(buffered)
        if ek.netlist.dumps(ek.netlist.loads(text)) != text:
            raise Violation(f"{where}: netlist.dumps changed after a loads "
                            "round trip")
        ek.metrics.power(buffered, self.params)
        if policy == "pac" and mode == "async":
            try:
                ek.metrics.analytic_throughput(buffered, self.delays)
            except ek.metrics.TooManyCycles:
                pass  # counted by the trace as a refusal
        try:
            report = simulate(ek, out, buffered, mode, prog.stimulus,
                              WIDE_HORIZON_PS)
        except Exception:
            return self._failed(out, prog, where, traceback.format_exc())
        out.results = verify(self.tracer, where, report, prog.expected)
        if report.deadlock:
            return self._failed(out, prog, where, "deadlock: "
                                + "; ".join(report.diagnosis[:1]))
        if policy == "pac":
            out.pac_rates.append(steady_rate_per_ns(
                report, report.primary_port()))
        return out

    def _failed(self, out: Outcome, prog: gen.Program, where: str,
                detail: str) -> Outcome:
        """Record a finding: the program stays in the set, the operation
        counts as failed."""
        lines, _ = self.findings.setdefault(prog.seed, ([], prog.text))
        line = f"finding: {where}: {detail.strip()}"
        if line not in lines:
            lines.append(line)
        out.failed = True
        return out

    def end_pass(self) -> None:
        pass


WORKLOADS = {w.name: w for w in (Sweep, Wide)}
