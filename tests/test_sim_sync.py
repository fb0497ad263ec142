"""Clocked (forward-interlocked) simulation: the static cycle check,
clock-quantised timing, and the overclocking report."""
from __future__ import annotations

import functools
import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import (RING_LAP_PS, build_ring, digraph_to_net,
                      ring_arrival_gaps, ring_delays)
from elastika import ir
from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply, policy_pac, policy_simple
from elastika.ir import Component, Kind, Link, Network, Port
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.sim import (CombinationalCycle, ConfigError, DelayTable,
                          Lowered, SimConfig, SimError, SteerMiss,
                          critical_path, run)


DATA = Path(__file__).parent / "data"


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
    with pytest.raises(CombinationalCycle) as err:
        run(net, SimConfig(mode="sync", clock=1000))
    # Named by a search from link "li", as the FlowGraph's search in
    # link-id order names it, though slot order (keys "init" then "op")
    # starts from "lo".
    assert err.value.cycle == ir.combinational_cycle(ir.FlowGraph(net))
    assert err.value.cycle == ["lo", "li"]


def test_cycle_is_named_through_a_fork_in_link_id_order():
    # Two cycles through Fork "f": slot order takes its outputs by
    # consumer key ("x" on link "b" first) and would name b -> d -> c;
    # link-id order takes link "a" first, as the FlowGraph's search does.
    op = {"fn": "id", "inputs": [8], "out": 8}
    net = mknet("forked",
                [Component("f", Kind.FORK, {"input": 8, "outputs": [8, 8]}),
                 Component("m", Kind.MERGE, {"width": 8, "inputs": 2}),
                 Component("x", Kind.OPERATOR, op),
                 Component("y", Kind.OPERATOR, op)],
                [Link("c", 8, ("m", 0), ("f", 0)),
                 Link("b", 8, ("f", 0), ("x", 0)),
                 Link("a", 8, ("f", 1), ("y", 0)),
                 Link("d", 8, ("x", 0), ("m", 0)),
                 Link("e", 8, ("y", 0), ("m", 1))],
                [])
    with pytest.raises(CombinationalCycle) as err:
        run(net, SimConfig(mode="sync", clock=1000))
    assert err.value.cycle == ir.combinational_cycle(ir.FlowGraph(net))
    assert err.value.cycle == ["e", "c", "a"]


def test_unbuffered_compile_is_rejected_statically(elgcd_net):
    with pytest.raises(CombinationalCycle):
        run(elgcd_net, SimConfig(mode="sync", clock=1000,
                                 stimulus={"a": [12], "b": [18]}))


def test_buffered_loop_passes_the_static_check(ring_net):
    rep = run(ring_net, SimConfig(
        mode="sync", clock=2000, delays=ring_delays(),
        stimulus={"go": []}, max_time=30_000, record_occupancy=True))
    assert rep.completion == "horizon"
    # All logic settles within the period, so a lap costs exactly one
    # buffer traversal: one clock.
    assert set(ring_arrival_gaps(rep)) == {2000}
    # The long combinational chain still takes 4500 ps of real logic, so
    # this clock is a lie and the report says so.
    assert rep.critical_path == 4500
    assert rep.overclocked


def test_clocked_chain_times():
    rep = run(buffered_chain(), SimConfig(
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
        rep = run(buffered_chain(), SimConfig(
            mode="sync", clock=clock, stimulus={"a": [1]}))
        assert rep.critical_path == 1100
        assert rep.overclocked is flag, clock


def test_overclocking_does_not_change_function():
    rep = run(buffered_chain(), SimConfig(
        mode="sync", clock=1000, stimulus={"a": [1, 2]}))
    assert rep.results["z"] == [(1, 1000), (2, 2000)]


def test_sync_matches_async_ring_tempo(ring_net):
    # Async: one 4400 ps lap per token.  Sync at a safe clock: one clock
    # per lap.  Both are the same network, only the protocol differs.
    rep = run(ring_net, SimConfig(
        mode="sync", clock=4500, delays=ring_delays(),
        stimulus={"go": []}, max_time=50_000, record_occupancy=True))
    assert not rep.overclocked
    assert set(ring_arrival_gaps(rep)) == {4500}
    assert RING_LAP_PS < 4500


def test_sync_gcd_computes_the_same_values(elgcd_net):
    net = apply(elgcd_net, policy_simple(elgcd_net))
    rep = run(net, SimConfig(
        mode="sync", clock=2000,
        stimulus={"a": [12, 36, 63], "b": [18, 24, 56]}))
    assert [v for v, _ in rep.results["g"]] == [6, 12, 7]
    assert all(t % 2000 == 0 for _, t in rep.results["g"])
    # The control loop parks a token waiting for a fourth operand pair,
    # so the run ends for lack of stimulus rather than fully drained.
    assert rep.completion == "stimulus-exhausted"
    assert not rep.deadlock


def test_run_sync_builds_no_flow_graph_on_a_wired_acyclic_net(graph_builds,
                                                              ring_net):
    # The cycle check and the critical path search the wired input slots;
    # a FlowGraph is built only to name a cycle.
    rep = run(ring_net, SimConfig(mode="sync", clock=2000,
                                  delays=ring_delays(), stimulus={"go": []},
                                  max_time=10_000))
    assert rep.critical_path == 4500
    assert graph_builds == {}


def test_run_sync_names_a_cycle_without_a_flow_graph(graph_builds, elgcd_net):
    # The unbuffered net has a combinational cycle: the slot search finds
    # it, and a second one in link-id order names it as the FlowGraph's
    # search does.
    with pytest.raises(CombinationalCycle) as err:
        run(elgcd_net, SimConfig(mode="sync", clock=2000))
    assert graph_builds == {}
    loop = ir.combinational_cycle(ir.FlowGraph(elgcd_net))
    assert err.value.cycle == loop
    assert str(err.value) == ("combinational cycle through links: "
                              + " -> ".join(loop))


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_run_sync_leaves_no_cyclic_garbage(mode):
    # The handlers reach each other through the handler tables, which the
    # run empties as it ends.
    spec = benchmark("elgcd")
    net = spec.compiled()
    net = apply(net, policy_pac(net, mode=mode))
    cfg = SimConfig(mode=mode, clock=2000 if mode == "sync" else 0,
                    stimulus=spec.datasets[0])
    gc.collect()
    gc.disable()
    try:
        run(net, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.mark.parametrize("name", benchmark_names())
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_async_runs_leave_no_cyclic_garbage(name, policy):
    # A run pauses the collector, so reference counting alone must free
    # everything it allocates.
    spec = benchmark(name)
    net = spec.compiled()
    net = apply(net, POLICIES[policy](net, mode="async"))
    cfg = SimConfig(stimulus=spec.datasets[0])
    gc.collect()
    gc.disable()
    try:
        run(net, cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


def steer_miss_net() -> Network:
    """a -> Steer with a route for select 0 only -> z."""
    return mknet("miss",
                 [Component("s", Kind.STEER,
                            {"input": 9, "select": 1, "outputs": 2,
                             "table": {"0": 0}})],
                 [Link("la", 9, None, ("s", 0)),
                  Link("l0", 8, ("s", 0), None),
                  Link("l1", 8, ("s", 1), None)],
                 [Port("a", "in", 9, "la"), Port("z0", "out", 8, "l0"),
                  Port("z1", "out", 8, "l1")])


def _sync_cfg(**kw) -> SimConfig:
    return SimConfig(mode="sync", clock=2000, **kw)


# Each call, and the exception it raises (None: it returns a report).
COLLECTOR_CASES = {
    "run-async": (lambda: run(buffered_chain(), SimConfig(
        stimulus={"a": [1, 2]})), None),
    "run-sync": (lambda: run(buffered_chain(), _sync_cfg(
        stimulus={"a": [1, 2]})), None),
    "run_async-steer-miss": (lambda: run(steer_miss_net(), SimConfig(
        stimulus={"a": [3]})), SteerMiss),
    "run_sync-steer-miss": (lambda: run(steer_miss_net(), _sync_cfg(
        stimulus={"a": [3]})), SteerMiss),
    "run_sync-combinational-cycle": (lambda: run(
        benchmark("elgcd").compiled(), _sync_cfg()), CombinationalCycle),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
def test_runs_leave_the_collector_as_they_found_it(case, enabled):
    call, raises = COLLECTOR_CASES[case]
    if enabled:
        gc.enable()
    else:
        gc.disable()
    try:
        if raises is None:
            call()
        else:
            with pytest.raises(raises):
                call()
        assert gc.isenabled() is enabled
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
    # Clock 0 is refused only once the cycle check has passed; a valid
    # clock runs, and reports the critical path.
    refused = SimConfig(mode="sync", clock=0, delays=STAGE_DELAYS)
    clocked = SimConfig(mode="sync", clock=2000, delays=STAGE_DELAYS)
    if loop is not None:
        for cfg in (refused, clocked):
            with pytest.raises(CombinationalCycle) as err:
                run(net, cfg)
            assert err.value.cycle == loop
            assert str(err.value) == ("combinational cycle through links: "
                                      + " -> ".join(loop))
    else:
        with pytest.raises(ConfigError):
            run(net, refused)
        chain = dag_chain(net, succ, STAGE_DELAYS)
        assert critical_path(net, STAGE_DELAYS) == chain
        assert run(net, clocked).critical_path == chain


def test_cycle_is_named_before_any_config_error(elgcd_net):
    loop = ir.combinational_cycle(ir.FlowGraph(elgcd_net))
    with pytest.raises(CombinationalCycle) as err:
        run(elgcd_net, SimConfig(mode="sync", clock=0, max_time=0,
                                 stimulus={"nowhere": [1]}))
    assert err.value.cycle == loop


def no_consumer(net: Network) -> None:
    lid, ln = sorted(net.links.items())[0]
    net.links[lid] = Link(lid, ln.width, ln.src, None)


def bound_twice(net: Network) -> None:
    ln = next(ln for _, ln in sorted(net.links.items())
              if ln.src is not None and ln.dst is not None)
    net.links["extra"] = Link("extra", ln.width, ln.src, ln.dst)


def no_join_inputs(net: Network) -> None:
    join = min(c.id for c in net.components.values() if c.kind is Kind.JOIN)
    del net.components[join].params["inputs"]


def refusal(net: Network, cfg: SimConfig) -> tuple[type, str]:
    with pytest.raises(Exception) as err:
        run(net, cfg)
    return err.type, str(err.value)


@pytest.mark.parametrize("edit", [no_consumer, bound_twice, no_join_inputs])
def test_sync_refuses_an_unwired_net_as_async_does(elgcd_net, edit):
    # Wiring refuses the net, or cannot read its params, so no cycle can
    # be searched for: a clocked run raises what an unclocked run raises,
    # a config error first.
    net = elgcd_net.copy()
    edit(net)
    with pytest.raises((SimError, KeyError)):
        Lowered(net).wiring
    assert ir.combinational_cycle(ir.FlowGraph(net)) is not None
    for stimulus in ({}, {"nowhere": [1]}):
        unclocked = refusal(net, SimConfig(stimulus=stimulus))
        assert unclocked[0] is not CombinationalCycle
        assert unclocked == refusal(net, SimConfig(mode="sync", clock=2000,
                                                   stimulus=stimulus))


@pytest.mark.parametrize("operator", [
    {"id": 100},   # elgcd's Operators have other classes
    {"const": 100, "gt": 300, "ne": 300, "sub": 800}])   # every class
def test_acyclic_net_with_no_default_operator_delay_is_refused(elgcd_net,
                                                               operator):
    # The cycle check passes, so the table is refused as an async run
    # refuses it.
    net = apply(elgcd_net, policy_pac(elgcd_net))
    delays = DelayTable(operator=operator)
    for mode in ("async", "sync"):
        with pytest.raises(ConfigError, match="^operator delay table needs "
                                              "a 'default' entry$"):
            run(net, SimConfig(mode=mode, clock=2000, delays=delays))
    # A class the table has is priced without its "default".
    assert delays.operator_delay(sorted(operator)[0]) == 100


def test_cycle_is_named_before_the_delay_table_is_read(elgcd_net):
    # An operator table with no "default" entry cannot price an Operator.
    loop = ir.combinational_cycle(ir.FlowGraph(elgcd_net))
    with pytest.raises(CombinationalCycle) as err:
        run(elgcd_net, SimConfig(mode="sync", clock=2000,
                                 delays=DelayTable(operator={})))
    assert err.value.cycle == loop


# A table that differs from the default in kind and operator-class delays.
SKEWED_DELAYS = DelayTable(join=30, fork=70, steer=250, merge=10, initial=0,
                           buffer=900, variable_write=1200, variable_read=40,
                           operator={"default": 700, "const": 5, "id": 60,
                                     "add": 1500, "mul": 4000})


# The shipped nets and the generated programs gen00-gen23 and
# wide0-wide3, each unbuffered and under each policy planned for clocked
# timing.
PROGRAMS = [f"gen{k:02}" for k in range(24)] + [f"wide{k}" for k in range(4)]
CLOCKED_NETS = [*benchmark_names(), *PROGRAMS]
CLOCKED_PLANS = ("unbuffered", *sorted(POLICIES))


@functools.lru_cache(maxsize=None)
def compiled(name: str) -> Network:
    if name in PROGRAMS:
        return compile_module(parse((DATA / f"{name}.csp").read_text()))
    return benchmark(name).compiled()


def clocked_net(name: str, plan: str) -> Network:
    net = compiled(name)
    if plan == "unbuffered":
        return net
    return apply(net, POLICIES[plan](net, mode="sync"))


@pytest.mark.parametrize("plan", CLOCKED_PLANS)
@pytest.mark.parametrize("name", CLOCKED_NETS)
def test_clocked_checks_match_the_flow_graph(name, plan):
    # A Lowered decides the cycle check and measures the critical path on
    # its wired input slots; the FlowGraph's cycle and a plain recursion
    # over its combinational graph are the reference.
    net = clocked_net(name, plan)
    g = ir.FlowGraph(net)
    loop = ir.combinational_cycle(g)
    low = Lowered(net)
    for delays in (DelayTable(), SKEWED_DELAYS):
        if loop is not None:
            with pytest.raises(CombinationalCycle) as err:
                low.critical_path(delays)
            assert err.value.cycle == loop
        else:
            assert low.critical_path(delays) == dag_chain(net, g.comb, delays)


# One sha256 over the 248 cases of test_clocked_checks_match_the_flow_graph
# (each net under each table): sim.critical_path, then the Lowered's
# critical path or the cycle it names.  Computed when sim.critical_path
# was still read from FlowGraph.comb_search's post-order, so the figures
# of that search, cyclic nets included, are held to.
CLOCKED_FIGURES_SHA256 = (
    "ae0635eaf54480cac2d4d82730ce07cf954edeffa22551d11ecd46f0b5541ac4")


def test_clocked_figures_match_the_flow_graph_search():
    digest = hashlib.sha256()
    for name in CLOCKED_NETS:
        for plan in CLOCKED_PLANS:
            net = clocked_net(name, plan)
            low = Lowered(net)
            for table, delays in enumerate((DelayTable(), SKEWED_DELAYS)):
                try:
                    figure = low.critical_path(delays)
                except CombinationalCycle as err:
                    figure = err.cycle
                line = [name, plan, table, critical_path(net, delays), figure]
                digest.update(f"{json.dumps(line)}\n".encode())
    assert digest.hexdigest() == CLOCKED_FIGURES_SHA256
