"""Clocked (forward-interlocked) simulation: the static cycle check,
clock-quantised timing, and the overclocking report."""
from __future__ import annotations

import gc

import pytest
from hypothesis import given, strategies as st

from conftest import (RING_LAP_PS, build_ring, digraph_to_net,
                      ring_arrival_gaps, ring_delays)
from elastika import ir
from elastika.bench import benchmark
from elastika.buffering import apply, policy_pac, policy_simple
from elastika.ir import Component, Kind, Link, Network, Port
from elastika.sim import (CombinationalCycle, ConfigError, DelayTable,
                          SimConfig, critical_path, run, run_sync)


def mknet(name, comps, links, ports):
    return Network(name, {c.id: c for c in comps},
                   {ln.id: ln for ln in links}, {p.name: p for p in ports})


def buffered_chain() -> Network:
    return mknet("chain",
                 [Component("op", Kind.OPERATOR,
                            {"fn": "id", "inputs": [8], "out": 8,
                             "delay_class": "default"}),
                  Component("buf", Kind.BUFFER, {"width": 8, "capacity": 1})],
                 [Link("la", 8, None, ("op", 0)),
                  Link("lb", 8, ("op", 0), ("buf", 0)),
                  Link("lz", 8, ("buf", 0), None)],
                 [Port("a", "in", 8, "la"), Port("z", "out", 8, "lz")])


def test_unbuffered_loop_is_rejected_statically():
    net = mknet("loop",
                [Component("init", Kind.INITIAL, {"width": 8, "value": 0}),
                 Component("op", Kind.OPERATOR,
                           {"fn": "id", "inputs": [8], "out": 8})],
                [Link("li", 8, ("init", 0), ("op", 0)),
                 Link("lo", 8, ("op", 0), ("init", 0))],
                [])
    with pytest.raises(CombinationalCycle):
        run_sync(net, SimConfig(mode="sync", clock=1000))


def test_unbuffered_compile_is_rejected_statically(elgcd_net):
    with pytest.raises(CombinationalCycle):
        run(elgcd_net, SimConfig(mode="sync", clock=1000,
                                 stimulus={"a": [12], "b": [18]}))


def test_buffered_loop_passes_the_static_check(ring_net):
    rep = run_sync(ring_net, SimConfig(
        mode="sync", clock=2000, delays=ring_delays(),
        stimulus={"go": []}, max_time=30_000))
    assert rep.completion == "horizon"
    # All logic settles within the period, so a lap costs exactly one
    # buffer traversal: one clock.
    assert set(ring_arrival_gaps(rep)) == {2000}
    # The long combinational chain still takes 4500 ps of real logic, so
    # this clock is a lie and the report says so.
    assert rep.critical_path == 4500
    assert rep.overclocked


def test_clocked_chain_times():
    rep = run_sync(buffered_chain(), SimConfig(
        mode="sync", clock=2000, stimulus={"a": [1, 2]}))
    assert rep.results["z"] == [(1, 2000), (2, 4000)]
    assert rep.completion == "drained"
    assert rep.gamma == pytest.approx(1.0)
    assert rep.mode == "sync"


def test_overclocked_is_strict():
    # Longest register-to-register chain: 1000 ps operator + 100 ps
    # buffer admission.
    for clock, flag in ((2000, False), (1100, False), (1099, True),
                        (1000, True)):
        rep = run_sync(buffered_chain(), SimConfig(
            mode="sync", clock=clock, stimulus={"a": [1]}))
        assert rep.critical_path == 1100
        assert rep.overclocked is flag, clock


def test_overclocking_does_not_change_function():
    rep = run_sync(buffered_chain(), SimConfig(
        mode="sync", clock=1000, stimulus={"a": [1, 2]}))
    assert rep.results["z"] == [(1, 1000), (2, 2000)]


def test_sync_matches_async_ring_tempo(ring_net):
    # Async: one 4400 ps lap per token.  Sync at a safe clock: one clock
    # per lap.  Both are the same network, only the protocol differs.
    rep = run_sync(ring_net, SimConfig(
        mode="sync", clock=4500, delays=ring_delays(),
        stimulus={"go": []}, max_time=50_000))
    assert not rep.overclocked
    assert set(ring_arrival_gaps(rep)) == {4500}
    assert RING_LAP_PS < 4500


def test_sync_gcd_computes_the_same_values(elgcd_net):
    net = apply(elgcd_net, policy_simple(elgcd_net))
    rep = run_sync(net, SimConfig(
        mode="sync", clock=2000,
        stimulus={"a": [12, 36, 63], "b": [18, 24, 56]}))
    assert [v for v, _ in rep.results["g"]] == [6, 12, 7]
    assert all(t % 2000 == 0 for _, t in rep.results["g"])
    # The control loop parks a token waiting for a fourth operand pair,
    # so the run ends for lack of stimulus rather than fully drained.
    assert rep.completion == "stimulus-exhausted"
    assert not rep.deadlock


def test_run_sync_builds_the_combinational_graph_once(graph_builds, ring_net):
    run_sync(ring_net, SimConfig(mode="sync", clock=2000,
                                 delays=ring_delays(), stimulus={"go": []},
                                 max_time=10_000))
    assert graph_builds == {"init": 1, "comb": 1}


def test_run_sync_leaves_no_cyclic_garbage():
    spec = benchmark("elgcd")
    net = spec.compiled()
    net = apply(net, policy_pac(net, mode="sync"))
    cfg = SimConfig(mode="sync", clock=2000, stimulus=spec.datasets[0])
    gc.collect()
    gc.disable()
    try:
        run_sync(net, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


STAGE_DELAYS = DelayTable(fork=30, merge=70, buffer=500,
                          operator={"default": 1000, "id": 300})


def dag_chain(net, succ, delays) -> int:
    """Longest combinational chain by plain recursion; acyclic nets only."""
    memo = {}

    def longest(lid):
        if lid not in memo:
            dst = net.links[lid].dst
            own = (0 if dst is None
                   else delays.component_delay(net.components[dst[0]]))
            memo[lid] = own + max(map(longest, succ[lid]), default=0)
        return memo[lid]
    return max(map(longest, net.links), default=0)


@given(graph=st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    unique=True, max_size=12))),
       buffered=st.lists(st.integers(0, 60), max_size=5))
def test_static_checks_match_the_link_id_graph(graph, buffered):
    net = digraph_to_net(*graph)
    ids = sorted(net.links)
    for lid in sorted({ids[i % len(ids)] for i in buffered}):
        ir.splice_buffer_in_place(net, lid)
    g = ir.FlowGraph(net)
    succ = g.comb
    loop = ir.combinational_cycle(g)
    # Clock 0 is refused only once the cycle check has passed.
    cfg = SimConfig(mode="sync", clock=0, delays=STAGE_DELAYS)
    if loop is not None:
        with pytest.raises(CombinationalCycle) as err:
            run_sync(net, cfg)
        assert err.value.cycle == loop
        assert str(err.value) == ("combinational cycle through links: "
                                  + " -> ".join(loop))
    else:
        with pytest.raises(ConfigError):
            run_sync(net, cfg)
        assert critical_path(net, STAGE_DELAYS) == dag_chain(
            net, succ, STAGE_DELAYS)


def test_cycle_is_named_before_any_config_error(elgcd_net):
    loop = ir.combinational_cycle(ir.FlowGraph(elgcd_net))
    with pytest.raises(CombinationalCycle) as err:
        run_sync(elgcd_net, SimConfig(mode="sync", clock=0, max_time=0,
                                      stimulus={"nowhere": [1]}))
    assert err.value.cycle == loop
