"""Direct handler calls against the event queue.

A handler that causes an event at its own time which sorts before the
event it handles, and before anything it queued, calls that event's
handler through the handler tables instead of returning it to the run
loop.  The queue would have handed such an event straight back, so the
handlers must run in the same order, on the same times, ports and
payloads, whether direct calls are made or not.  ``_DIRECT_DEPTH = 0``
turns every direct call off.

A chain of direct calls nests one Python frame or two per key, so on a
net of more keys than ``_DIRECT_DEPTH`` the chains are capped, and a
3,000-stage chain must drain without a ``RecursionError``.
"""
from __future__ import annotations

import gc
from pathlib import Path

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import Component, Kind, Link, Network, Port
from elastika.sim import (SimConfig, SimError, engine, parse_stimulus, run,
                          to_json)

DATA = Path(__file__).parent / "data"
MODES = ("async", "sync")


def traced(monkeypatch, net, cfg: SimConfig, depth: int):
    """(handler calls, report JSON or error, events queued) of one run of
    ``net`` with ``_DIRECT_DEPTH`` set to ``depth``.  Each call is
    recorded as (t, key, port, phase, payload)."""
    monkeypatch.setattr(engine, "_DIRECT_DEPTH", depth)
    calls: list[tuple] = []
    sims = []
    lower = engine.Simulation._lower

    def record(handler, key: int, phase: int):
        def call(port, payload, t):
            calls.append((t, key, port, phase, payload))
            return handler(port, payload, t)
        return call

    def wrapped(self, w):
        lower(self, w)
        sims.append(self)
        # In phase order, as the run loop indexes them.
        for phase, table in enumerate((self.on_ack, self.on_fire,
                                       self.on_offer)):
            for key, handler in enumerate(table):
                if handler is not None:
                    table[key] = record(handler, key, phase)

    monkeypatch.setattr(engine.Simulation, "_lower", wrapped)
    try:
        outcome = to_json(run(net, cfg))
    except SimError as exc:
        outcome = f"{type(exc).__name__}: {exc}"
    monkeypatch.undo()
    return calls, outcome, sims[0].seq if sims else None


def assert_same_calls(monkeypatch, net, cfg: SimConfig) -> int:
    """Asserts the runs with and without direct calls match; returns the
    events that direct calls kept off the queue."""
    queued, queued_out, queued_seq = traced(monkeypatch, net, cfg, 0)
    direct, direct_out, direct_seq = traced(monkeypatch, net, cfg,
                                            engine._DIRECT_DEPTH)
    assert direct == queued
    assert direct_out == queued_out
    return (queued_seq or 0) - (direct_seq or 0)


def config(mode: str, stimulus: dict) -> SimConfig:
    return SimConfig(mode=mode, clock=2000 if mode == "sync" else 0,
                     record_occupancy=True,
                     stimulus={k: list(v) for k, v in stimulus.items()})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("name", benchmark_names())
def test_shipped_runs_call_handlers_in_queue_order(monkeypatch, name,
                                                   policy, mode):
    spec = benchmark(name)
    net = spec.compiled()
    net = apply(net, POLICIES[policy](net, mode=mode))
    saved = sum(assert_same_calls(monkeypatch, net, config(mode, dataset))
                for dataset in spec.datasets)
    assert saved > 0   # direct calls were made


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("plan", ["unbuffered", *sorted(POLICIES)])
@pytest.mark.parametrize("program", ["wide0", "wide1", "wide2", "wide3"])
def test_corpus_runs_call_handlers_in_queue_order(monkeypatch, program,
                                                  plan, mode):
    net = compile_module(parse((DATA / f"{program}.csp").read_text()))
    if plan != "unbuffered":
        net = apply(net, POLICIES[plan](net, mode=mode))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    assert_same_calls(monkeypatch, net, config(mode, stimulus))


def id_chain(n: int, ascending: bool) -> Network:
    """a -> n `id` Operators -> z, their ids ascending or descending along
    the data path."""
    ids = [f"op{i if ascending else n - 1 - i:05}" for i in range(n)]
    comps = [Component(c, Kind.OPERATOR, {"fn": "id", "inputs": [8], "out": 8})
             for c in ids]
    ends = [None, *((c, 0) for c in ids)]
    links = [Link(f"l{i:05}", 8, ends[i], (ids[i], 0)) for i in range(n)]
    links.append(Link("lz", 8, (ids[-1], 0), None))
    return Network("chain", {c.id: c for c in comps},
                   {ln.id: ln for ln in links},
                   {"a": Port("a", "in", 8, "l00000"),
                    "z": Port("z", "out", 8, "lz")})


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ascending", [True, False])
def test_deep_chain_drains_without_recursion_error(monkeypatch, mode,
                                                    ascending):
    # Uncapped, three of these four runs nest a frame per stage.
    net = id_chain(3000, ascending)
    cfg = config(mode, {"a": [1, 2, 3]})
    report = run(net, cfg)
    assert report.completion == "drained"
    assert [v for v, _ in report.results["z"]] == [1, 2, 3]
    assert_same_calls(monkeypatch, net, cfg)


def test_refused_lowering_leaves_no_cyclic_garbage():
    # `a` is lowered, its acknowledge calling `$in.a`'s handler through
    # the tables, before `b` is refused.
    comps = [Component("a", Kind.OPERATOR, {"fn": "id", "inputs": [8],
                                            "out": 8}),
             Component("b", Kind.OPERATOR, {"fn": "pow", "inputs": [8],
                                            "out": 8})]
    links = [Link("l0", 8, None, ("a", 0)), Link("l1", 8, ("a", 0), ("b", 0)),
             Link("l2", 8, ("b", 0), None)]
    net = Network("refused", {c.id: c for c in comps},
                  {ln.id: ln for ln in links},
                  {"a": Port("a", "in", 8, "l0"),
                   "z": Port("z", "out", 8, "l2")})
    gc.collect()
    gc.disable()
    try:
        with pytest.raises(SimError, match="unknown operator function"):
            run(net, config("async", {"a": [1]}))
        assert gc.collect() == 0
    finally:
        gc.enable()


def fork_into_merge() -> Network:
    """x -> Fork b -> both inputs of Merge c -> Buffer a -> z.  The keys
    order a < b < c, so the Merge's consumer sorts below the Merge and its
    two inputs arrive at once."""
    comps = [Component("a", Kind.BUFFER, {"width": 8, "capacity": 1}),
             Component("b", Kind.FORK, {"input": 8, "outputs": [8, 8]}),
             Component("c", Kind.MERGE, {"width": 8, "inputs": 2})]
    links = [Link("lx", 8, None, ("b", 0)), Link("l0", 8, ("b", 0), ("c", 0)),
             Link("l1", 8, ("b", 1), ("c", 1)),
             Link("lc", 8, ("c", 0), ("a", 0)), Link("lz", 8, ("a", 0), None)]
    return Network("forkmerge", {c.id: c for c in comps},
                   {ln.id: ln for ln in links},
                   {"x": Port("x", "in", 8, "lx"),
                    "z": Port("z", "out", 8, "lz")})


def test_merge_acknowledge_sorts_before_the_next_grant(monkeypatch):
    # Clocked, the Merge has zero delay: the acknowledge it calls at once
    # must sort below the offer of the grant it queues next, not just
    # below the Merge's own key.
    net = fork_into_merge()
    cfg = SimConfig(mode="sync", clock=1000, stimulus={"x": [1, 2, 3]})
    report = run(net, cfg)
    assert report.completion == "drained"
    assert [v for v, _ in report.results["z"]] == [1, 1, 2, 2, 3, 3]
    assert_same_calls(monkeypatch, net, cfg)
