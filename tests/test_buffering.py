"""Buffer insertion policies: plan shapes, orderings, liveness, splicing."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import networkx as nx
import pytest

from elastika import depgraph as dg
from elastika import buffering, ir, netlist
from elastika.bench import benchmark
from elastika.buffering import (BufferPlan, apply, pac_mark, pac_retime,
                                policy_loop, policy_pac, policy_simple)
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import (Component, DoubleBuffer, FlowGraph, Kind, Link,
                         Network, Port, combinational_cycle,
                         splice_buffer_in_place, validate)
from elastika.sim import SimConfig, run

BENCHES = ["elgcd", "poly", "smul"]
CORPUS = ["wide0", "wide1", "wide2", "wide3"]
DATA = Path(__file__).parent / "data"
MODES = ["async", "sync"]


def net_for(request, bench):
    return request.getfixturevalue(f"{bench}_net")


def flow_cycles(net):
    g = nx.DiGraph()
    g.add_nodes_from(net.links)
    for lid, nxts in FlowGraph(net).flow.items():
        for nxt in nxts:
            g.add_edge(lid, nxt)
    return list(nx.simple_cycles(g))


# ---------------------------------------------------------------------------
# Plan shape

@pytest.mark.parametrize("bench", BENCHES)
def test_simple_plans_every_link(bench, request):
    net = net_for(request, bench)
    plan = policy_simple(net)
    assert plan.policy == "simple"
    assert len(plan) == len(net.links)
    assert set(plan.links) == set(net.links)


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("mode", MODES)
def test_plans_are_subsets_with_provenance(bench, mode, request):
    net = net_for(request, bench)
    for policy in (policy_simple, policy_loop, policy_pac):
        plan = policy(net, mode)
        assert set(plan.links) <= set(net.links)
        assert plan.links == tuple(sorted(plan.links))
        for lid in plan.links:
            reasons = plan.provenance[lid]
            assert reasons and all(isinstance(r, str) and r for r in reasons)


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("mode", MODES)
def test_policy_size_ordering(bench, mode, request):
    net = net_for(request, bench)
    n_simple = len(policy_simple(net, mode))
    n_loop = len(policy_loop(net, mode))
    n_pac = len(policy_pac(net, mode))
    assert n_pac <= n_loop <= n_simple


def test_exact_sizes_pinned_for_elgcd(elgcd_net):
    # Determinism pin: any change to these counts is a policy change and
    # must be deliberate.
    assert len(policy_simple(elgcd_net)) == 56
    assert len(policy_loop(elgcd_net)) == 35
    assert len(policy_pac(elgcd_net, "async")) == 16
    assert len(policy_pac(elgcd_net, "sync")) == 16


@pytest.mark.parametrize("bench", BENCHES)
def test_plans_deterministic(bench, request):
    net = net_for(request, bench)
    for policy in (policy_simple, policy_loop, policy_pac):
        assert policy(net, "async") == policy(net, "async")
        assert policy(net, "sync") == policy(net, "sync")


# ---------------------------------------------------------------------------
# Liveness: every token cycle ends up with >= 2 planned buffers

@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("policy", [policy_loop, policy_pac])
def test_every_flow_cycle_gets_two_buffers(bench, policy, request):
    net = net_for(request, bench)
    planned = set(policy(net, "async").links)
    for cyc in flow_cycles(net):
        assert len(planned & set(cyc)) >= 2


@pytest.mark.parametrize("bench", BENCHES)
def test_loop_policy_covers_back_edge_heads_and_carries(bench, request):
    net = net_for(request, bench)
    planned = set(policy_loop(net).links)
    heads = set()
    g = FlowGraph(net)
    for lid in g.back_edges:
        dst = net.links[lid].dst
        if dst is not None:
            heads.add(dst[0])
    for lid in g.loop_carry:
        dst = net.links[lid].dst
        if dst is not None:
            heads.add(dst[0])
    for cid in heads:
        for ln in net.links.values():
            if ln.dst is not None and ln.dst[0] == cid:
                assert ln.id in planned
            if ln.src is not None and ln.src[0] == cid:
                assert ln.id in planned


# ---------------------------------------------------------------------------
# PAC phases

def test_pac_marks_resolve_to_links(elgcd_net):
    g = FlowGraph(elgcd_net)
    marks = pac_mark(g, dg.build(g))
    assert set(marks) <= set(elgcd_net.links)
    assert marks, "dependency edges must mark something"
    assert all(marks.values()), "every mark records its reasons"


def test_pac_retime_moves_join_marks_to_join_output(elgcd_net):
    g = FlowGraph(elgcd_net)
    marks = pac_mark(g, dg.build(g))
    planned = pac_retime(g, marks)
    moved = 0
    for lid in marks:
        dst = elgcd_net.links[lid].dst
        if dst is None or elgcd_net.components[dst[0]].kind is not Kind.JOIN:
            continue
        moved += 1
        out = g.out_of[(dst[0], 0)]
        assert any("retimed past" in r for r in planned[out.id])
    assert moved, "the benchmark has marks landing on joins"


@pytest.mark.parametrize("policy, mode", [
    (policy_pac, "async"), (policy_pac, "sync"),
    (policy_loop, "async"), (policy_loop, "sync")])
def test_planners_build_one_graph(policy, mode, elgcd_net, graph_builds):
    policy(elgcd_net, mode)
    assert graph_builds["init"] == 1
    assert max(graph_builds.values()) == 1


@pytest.mark.parametrize("bench", BENCHES)
def test_pac_leaves_its_graph_views_unchanged(bench, request, monkeypatch):
    net = net_for(request, bench)
    graphs = []
    build = dg.build

    def kept(g):
        graphs.append(g)
        return build(g)
    monkeypatch.setattr(dg, "build", kept)
    policy_pac(net, "sync")
    [g] = graphs
    dg.build(g)
    fresh = FlowGraph(net)
    assert g.flow == fresh.flow
    assert g.back_edges == fresh.back_edges
    assert g.loop_carry == fresh.loop_carry


def test_pac_plans_around_initials(elgcd_net):
    plan = policy_pac(elgcd_net, "async")
    g = FlowGraph(elgcd_net)
    for cid, comp in elgcd_net.components.items():
        if comp.kind is not Kind.INITIAL:
            continue
        assert g.into[(cid, 0)].id in plan.links
        assert g.out_of[(cid, 0)].id in plan.links


@pytest.mark.parametrize("name", [*BENCHES, *CORPUS])
@pytest.mark.parametrize("policy", [policy_simple, policy_loop, policy_pac])
def test_plans_do_not_depend_on_mode(name, policy):
    # A Join waits for its late input under either timing mode, so no
    # policy pads paths for the clock, and a plan carries no mode.  The
    # policies still accept an unused ``mode``.
    if name in BENCHES:
        net = benchmark(name).compiled()
    else:
        net = compile_module(parse((DATA / f"{name}.csp").read_text()))
    plan = policy(net)
    assert policy(net, "sync") == policy(net, mode="async") == plan
    assert "mode" not in {f.name for f in dataclasses.fields(BufferPlan)}


@pytest.mark.parametrize("policy", [policy_loop, policy_pac])
@pytest.mark.parametrize("mode", MODES)
def test_planners_ignore_unbound_ports(policy, mode, elgcd_net, monkeypatch):
    # An unvalidated net may declare far more ports than it binds.  The
    # planners pair only the ports that links bind, so a loop-head Merge
    # declaring 2**40 inputs plans as the net does, and no walk over its
    # declared ports takes place: port_counts raises here, wherever it
    # was imported, instead of counting.
    g = FlowGraph(elgcd_net)
    heads = {elgcd_net.links[lid].dst[0]
             for lid in [*g.back_edges, *g.loop_carry]}
    head = min(cid for cid in heads
               if elgcd_net.components[cid].kind is Kind.MERGE)
    assert head == "m.b.2.merge"
    huge = netlist.loads(netlist.dumps(elgcd_net))
    huge.components[head].params["inputs"] = 2 ** 40
    expected = policy(elgcd_net, mode)

    def refuse(comp):
        raise AssertionError(f"walked the declared ports of {comp.id}")
    for module in (ir, buffering):
        monkeypatch.setattr(module, "port_counts", refuse, raising=False)
    assert policy(huge, mode) == expected


# ---------------------------------------------------------------------------
# Application

@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("policy", [policy_simple, policy_loop, policy_pac])
def test_apply_splices_exactly_the_plan(bench, policy, request):
    net = net_for(request, bench)
    plan = policy(net, "async")
    buffered = apply(net, plan)
    assert validate(buffered) == []
    assert buffered.buffer_count() == len(plan)
    assert net.buffer_count() == 0, "the input net is untouched"
    for lid in plan.links:
        buf = buffered.components[f"buf.{lid}"]
        assert buf.kind is Kind.BUFFER
        assert buf.params["capacity"] == 1


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("mode", MODES)
def test_apply_matches_folded_splice(bench, mode, request):
    net = net_for(request, bench)
    before = netlist.dumps(net)
    for policy in (policy_simple, policy_loop, policy_pac):
        plan = policy(net, mode)
        folded = net
        for lid in plan.links:   # a fresh copy per splice
            folded = folded.copy()
            splice_buffer_in_place(folded, lid)
        assert netlist.dumps(apply(net, plan)) == netlist.dumps(folded)
        assert netlist.dumps(net) == before, "apply must not touch its input"


def test_apply_copies_the_net_once(elgcd_net, monkeypatch):
    copies = []
    original = Network.copy

    def counting_copy(self):
        copies.append(self)
        return original(self)

    monkeypatch.setattr(Network, "copy", counting_copy)
    plan = policy_simple(elgcd_net)
    buffered = apply(elgcd_net, plan)
    assert len(copies) == 1
    assert buffered.buffer_count() == len(plan) > 1


def test_apply_capacity_parameter(elgcd_net):
    plan = policy_pac(elgcd_net, "async")
    buffered = apply(elgcd_net, plan, capacity=4)
    caps = {c.params["capacity"] for c in buffered.components.values()
            if c.kind is Kind.BUFFER}
    assert caps == {4}


def test_apply_capacity_below_one_rejected(elgcd_net):
    plan = policy_pac(elgcd_net, "async")
    before = netlist.dumps(elgcd_net)
    with pytest.raises(ir.IrError, match="capacity must be >= 1, got 0"):
        apply(elgcd_net, plan, capacity=0)
    assert netlist.dumps(elgcd_net) == before
    # The splice itself refuses before it touches the net it is given.
    net = elgcd_net.copy()
    with pytest.raises(ir.IrError, match="got 0"):
        splice_buffer_in_place(net, plan.links[0], capacity=0)
    assert netlist.dumps(net) == before


def test_apply_twice_rejected(elgcd_net):
    plan = policy_pac(elgcd_net, "async")
    buffered = apply(elgcd_net, plan)
    with pytest.raises(DoubleBuffer):
        apply(buffered, plan)


@pytest.mark.parametrize("bench", BENCHES)
@pytest.mark.parametrize("policy", [policy_simple, policy_loop, policy_pac])
def test_buffered_nets_have_no_storage_free_cycles(bench, policy, request):
    net = net_for(request, bench)
    buffered = apply(net, policy(net, "async"))
    assert combinational_cycle(FlowGraph(buffered)) is None


def test_plan_len_protocol():
    plan = BufferPlan("simple", ("a", "b"), {"a": ("x",), "b": ("y",)})
    assert len(plan) == 2


# ---------------------------------------------------------------------------
# Branches the shipped nets do not reach

# A `while` whose body is `skip`: no dependency edge marks a link on its
# cycle, so under pac only the coverage pass plans one there.
STUCK_LOOP = ("module t(in a: 1; out z: 1) "
              "{ var x: 1; x := a; while x == 1 { skip }; z ! x }")


def test_coverage_plans_a_cycle_nothing_else_marks():
    net = compile_module(parse(STUCK_LOOP))
    plan = policy_pac(net)
    assert [lid for lid in plan.links
            if "coverage" in plan.provenance[lid]] == ["w0010"]
    assert plan.provenance["w0010"] == ("coverage",)
    for policy in (policy_simple, policy_loop, policy_pac):
        buffered = apply(net, policy(net))
        assert combinational_cycle(FlowGraph(buffered)) is None
        for mode, clock in (("async", 0), ("sync", 2000)):
            report = run(buffered, SimConfig(mode=mode, clock=clock,
                                             stimulus={"a": [0, 0, 0]}))
            assert [v for v, _ in report.results["z"]] == [0, 0, 0]


def test_pac_marks_after_an_operator_producer():
    # a -> `id` Operator -> z: the PAC edge of port z has an Operator
    # producer, so the link after it is marked.
    op = Component("op", Kind.OPERATOR, {"fn": "id", "inputs": [8], "out": 8})
    net = Network("idop", {"op": op},
                  {"l0": Link("l0", 8, None, ("op", 0)),
                   "l1": Link("l1", 8, ("op", 0), None)},
                  {"a": Port("a", "in", 8, "l0"),
                   "z": Port("z", "out", 8, "l1")})
    assert validate(net) == []
    plan = policy_pac(net)
    assert plan.links == ("l1",)
    assert plan.provenance == {
        "l1": ("PAC a after consumer; PAC z after producer",)}
