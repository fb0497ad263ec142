"""Slack elasticity: more storage or other delays never change what a
live plan computes.

An elastic net is slack elastic when the values it computes do not depend
on how much storage its channels hold (Manohar & Martin, "Slack
elasticity in concurrent computing", MPC 1998), nor on how long its
components take (Carloni, McMillan & Sangiovanni-Vincentelli, "Theory of
latency-insensitive design", IEEE TCAD 2001).  These oracles need no
reference: every plan below that does not deadlock is run again

* buffered on 3 seeded random supersets of its planned links, at
  capacity 1 and at capacity 2, and
* under 3 seeded random valid delay tables, zero entries included,

and each run must end the same way, with the same values on every
output port, and must not deadlock.  The nets are the shipped benchmarks
under both datasets and the generated programs 0-11 of ``tests/data``
with their own stimuli, each planned by every policy for async and for
sync at 2000 ps.

``DEADLOCKS`` names the plans that deadlock on their own stimulus (ROADMAP
item 1; ``tests/test_write_order.py`` pins them as strict xfails).  They
are skipped by name, so a plan that newly deadlocks fails here.
"""
from __future__ import annotations

import dataclasses
import functools
import random
from pathlib import Path

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import Kind, Network
from elastika.sim import DelayTable, SimConfig, parse_stimulus, run

DATA = Path(__file__).parent / "data"
PROGRAMS = [f"gen{k:02}" for k in range(12)]
# (net, dataset index or None for the program's own stimulus)
NETS = ([(name, i) for name in benchmark_names() for i in (0, 1)]
        + [(name, None) for name in PROGRAMS])
MODES = ("async", "sync")
DEADLOCKS = {("gen03", "loop"), ("gen03", "pac"), ("gen10", "loop")}
DRAWS = 3


@functools.lru_cache(maxsize=None)
def compiled(name: str) -> Network:
    if name in PROGRAMS:
        return compile_module(parse((DATA / f"{name}.csp").read_text()))
    return benchmark(name).compiled()


def stimulus(name: str, dataset: int | None) -> dict[str, list[int]]:
    if dataset is None:
        return parse_stimulus((DATA / f"{name}.stim").read_text())
    return benchmark(name).datasets[dataset]


def outcome(net: Network, mode: str, stim: dict[str, list[int]],
            delays: DelayTable = DelayTable()) -> tuple[str, dict]:
    report = run(net, SimConfig(
        mode=mode, clock=2000 if mode == "sync" else 0, delays=delays,
        stimulus={port: list(values) for port, values in stim.items()}))
    assert not report.deadlock, report.diagnosis
    return report.completion, {port: [v for v, _ in got]
                               for port, got in sorted(report.results.items())}


def random_delays(rng: random.Random, net: Network) -> DelayTable:
    """Each scalar delay and each operator class the net uses, plus the
    default, is 0 one time in three, else up to 3000 ps."""
    def draw() -> int:
        return 0 if rng.randrange(3) == 0 else rng.randrange(1, 3001)
    classes = sorted({c.params.get("delay_class", "default")
                      for c in net.components.values()
                      if c.kind is Kind.OPERATOR} | {"default"})
    scalars = {f.name: draw() for f in dataclasses.fields(DelayTable)
               if f.name != "operator"}
    return DelayTable(**scalars, operator={cls: draw() for cls in classes})


def cases():
    for name, dataset in NETS:
        for policy in sorted(POLICIES):
            for mode in MODES:
                tag = name if dataset is None else f"{name}{dataset}"
                marks = ()
                if (name, policy) in DEADLOCKS:
                    marks = pytest.mark.skip(
                        reason="deadlocks on its own stimulus (ROADMAP item 1)")
                yield pytest.param(name, dataset, policy, mode, marks=marks,
                                   id=f"{tag}-{policy}-{mode}")


@pytest.mark.parametrize("name, dataset, policy, mode", cases())
def test_storage_and_delays_leave_the_outputs_alone(name, dataset, policy,
                                                    mode):
    net = compiled(name)
    stim = stimulus(name, dataset)
    plan = POLICIES[policy](net, mode=mode)
    expected = outcome(apply(net, plan), mode, stim)
    rng = random.Random(f"{name}-{dataset}-{policy}-{mode}")
    unplanned = sorted(set(net.links) - set(plan.links))
    for _ in range(DRAWS):
        extra = rng.sample(unplanned, rng.randint(0, len(unplanned)))
        wider = dataclasses.replace(plan, links=tuple(sorted(
            [*plan.links, *extra])))
        for capacity in (1, 2):
            assert outcome(apply(net, wider, capacity), mode, stim) \
                == expected, (len(extra), capacity)
    buffered = apply(net, plan)
    for _ in range(DRAWS):
        delays = random_delays(rng, net)
        assert outcome(buffered, mode, stim, delays) == expected, delays
