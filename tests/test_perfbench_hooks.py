"""The benchmark's span tracer still finds the calls it times.

``perfbench/spans.py`` wraps the package's entry points by attribute name
(``depgraph.build``, ``buffering.policy_*``, ``bench.POLICIES``, ``apply``,
``run``, ``power`` and more).  A refactor that renames one of them, or
routes a call around it, leaves the traced per-layer figures at 0 without
failing anything else, so this test runs one traced sweep and checks that
every layer it names was seen.
"""
from __future__ import annotations

import dataclasses
import sys
import types
from pathlib import Path

import elastika.sim.engine
from elastika import (bench, buffering, depgraph, frontend, metrics, netlist,
                      sim)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer  # noqa: E402

TRACED = ("depgraph.build_ms", "buffering.plan_ms.simple",
          "buffering.plan_ms.loop", "buffering.plan_ms.pac",
          "sim.run_ms.async", "sim.run_ms.sync", "metrics.bound_ms")


def test_traced_sweep_reaches_every_layer():
    ek = types.SimpleNamespace(
        frontend=frontend, depgraph=depgraph, buffering=buffering, sim=sim,
        metrics=metrics, netlist=netlist, bench=bench,
        engine=elastika.sim.engine)
    tracer = Tracer()
    try:
        tracer.install(ek)
        patched = list(tracer._patched)
        # A fresh spec instance compiles its net again, under the tracer.
        spec = dataclasses.replace(bench.benchmark("elgcd"))
        ek.bench.sweep(spec)
        net = spec.compiled()
        buffered = ek.buffering.apply(net, ek.buffering.policy_pac(net))
        try:
            ek.metrics.analytic_throughput(buffered, sim.DelayTable())
        except metrics.TooManyCycles:
            pass  # a refused bound is still a timed span
    finally:
        tracer.restore()
    figures = tracer.layer_metrics()
    for name in TRACED:
        assert figures[name][0] > 0, name
    assert patched
    for owner, attr, original in patched:
        now = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
        assert now is original, attr
