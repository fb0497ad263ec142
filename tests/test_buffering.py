"""Buffer insertion policies: plan shapes, orderings, liveness, splicing."""
from __future__ import annotations

import networkx as nx
import pytest

from elastika import depgraph as dg
from elastika import netlist
from elastika.bench import benchmark
from elastika.buffering import (BufferPlan, apply, pac_mark, pac_retime,
                                policy_loop, policy_pac, policy_simple)
from elastika.ir import (DoubleBuffer, FlowGraph, Kind, Network,
                         combinational_cycle, splice_buffer_in_place,
                         validate)

BENCHES = ["elgcd", "poly", "smul"]
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
        assert plan.mode == mode
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
    assert len(policy_pac(elgcd_net, "sync")) == 17


@pytest.mark.parametrize("bench", BENCHES)
def test_plans_deterministic(bench, request):
    net = net_for(request, bench)
    for policy in (policy_simple, policy_loop, policy_pac):
        assert policy(net, "async") == policy(net, "async")
        assert policy(net, "sync") == policy(net, "sync")


@pytest.mark.parametrize("bench", BENCHES)
def test_sync_pac_plans_at_least_async_size(bench, request):
    net = net_for(request, bench)
    assert len(policy_pac(net, "sync")) >= len(policy_pac(net, "async"))


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
    plan = pac_retime(g, marks, mode="async")
    moved = 0
    for lid in marks:
        dst = elgcd_net.links[lid].dst
        if dst is None or elgcd_net.components[dst[0]].kind is not Kind.JOIN:
            continue
        moved += 1
        out = elgcd_net.link_out_of(dst[0], 0)
        assert out.id in plan.links
        assert any("retimed past" in r for r in plan.provenance[out.id])
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
    for cid, comp in elgcd_net.components.items():
        if comp.kind is not Kind.INITIAL:
            continue
        assert elgcd_net.link_into(cid, 0).id in plan.links
        assert elgcd_net.link_out_of(cid, 0).id in plan.links


def test_sync_balance_reasons_recorded(elgcd_net):
    plan = policy_pac(elgcd_net, "sync")
    extra = set(plan.links) - set(policy_pac(elgcd_net, "async").links)
    assert extra
    for lid in extra:
        reasons = " ".join(plan.provenance[lid])
        assert "sync balance" in reasons or "liveness" in reasons or \
            "coverage" in reasons


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
    plan = BufferPlan("simple", "async", ("a", "b"), {"a": ("x",), "b": ("y",)})
    assert len(plan) == 2
