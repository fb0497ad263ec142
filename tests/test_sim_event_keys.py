"""No two queued simulator events share (time, key, port, phase).

Heap entries carry no sequence number, so the heap's order is total, and
independent of push order, only if this prefix is unique among the
queued events.  These tests wrap the engine's heap pushes and check every
new event against the queue, on every shipped benchmark x policy x mode
and dataset, and on the four ``tests/data`` corpus programs unbuffered
and under every policy x mode.
"""
from __future__ import annotations

import heapq
from pathlib import Path

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.sim import SimConfig, engine, parse_stimulus, run

DATA = Path(__file__).parent / "data"


@pytest.fixture
def checked(monkeypatch):
    """Wrap engine.heappush and engine.heappushpop; yields a dict that
    counts the events checked."""
    seen = {"events": 0}

    def check(heap, item):
        prefix = item[:4]
        clash = [e for e in heap if e[:4] == prefix]
        assert not clash, f"{item} ties {clash[0]} in the queue"
        seen["events"] += 1

    def push(heap, item):
        check(heap, item)
        heapq.heappush(heap, item)

    def pushpop(heap, item):
        check(heap, item)
        return heapq.heappushpop(heap, item)

    monkeypatch.setattr(engine, "heappush", push)
    monkeypatch.setattr(engine, "heappushpop", pushpop)
    return seen


def _run(net, mode: str, stimulus: dict) -> None:
    run(net, SimConfig(mode=mode, clock=2000 if mode == "sync" else 0,
                       stimulus={k: list(v) for k, v in stimulus.items()}))


@pytest.mark.parametrize("name", benchmark_names())
def test_shipped_runs_queue_unique_event_keys(checked, name):
    spec = benchmark(name)
    net = spec.compiled()
    for policy in POLICIES:
        for mode in ("async", "sync"):
            buffered = apply(net, POLICIES[policy](net, mode=mode))
            for dataset in spec.datasets:
                _run(buffered, mode, dataset)
    assert checked["events"] > 0


@pytest.mark.parametrize("program", ["wide0", "wide1", "wide2", "wide3"])
def test_corpus_runs_queue_unique_event_keys(checked, program):
    net = compile_module(parse((DATA / f"{program}.csp").read_text()))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    _run(net, "async", stimulus)
    for policy in POLICIES:
        for mode in ("async", "sync"):
            _run(apply(net, POLICIES[policy](net, mode=mode)), mode,
                 stimulus)
    assert checked["events"] > 0
