"""Network representation: validation, buffer splicing, graph passes."""
from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from conftest import build_ring, digraph_to_net
from elastika import netlist
from elastika.buffering import apply, policy_pac, policy_simple
from elastika.ir import (Component, DoubleBuffer, Kind, Link, Network, Port,
                         UnknownLink, combinational_cycle,
                         combinational_successors, endpoints, find_back_edges,
                         flow_successors, loop_carry_links, splice_buffer,
                         splice_buffer_in_place, token_cycle_free, validate)


def small_graphs():
    """Digraphs as (node count, edge list); edges may repeat targets but
    each ordered pair appears once."""
    return st.integers(min_value=1, max_value=7).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                unique=True, max_size=12)))


# ---------------------------------------------------------------------------
# Port schemas

def test_component_port_widths():
    assert Component("j", Kind.JOIN, {"inputs": [1, 8]}).output_widths() == [9]
    assert Component("f", Kind.FORK,
                     {"input": 8, "outputs": [8, 1]}).input_widths() == [8]
    s = Component("s", Kind.STEER, {"input": 9, "select": 1, "outputs": 2,
                                    "table": {"0": 0, "1": 1}})
    assert s.output_widths() == [8, 8]
    v = Component("v", Kind.VARIABLE, {"width": 8, "reads": 2})
    assert v.input_widths() == [8, 0, 0]
    assert v.output_widths() == [0, 8, 8]


def test_variable_relays_are_isolated():
    # The stored value decouples the write side from the read side: write
    # go reaches only write done, each read go only its own read done.
    v = Component("v", Kind.VARIABLE, {"width": 8, "reads": 2})
    assert v.internal_edges() == [(0, 0), (1, 1), (2, 2)]


def test_transparent_kinds_relay_all_ports():
    s = Component("s", Kind.STEER, {"input": 9, "select": 1, "outputs": 2,
                                    "table": {"0": 0, "1": 1}})
    assert s.internal_edges() == [(0, 0), (0, 1)]


# ---------------------------------------------------------------------------
# Validation

def test_ring_validates_clean():
    assert validate(build_ring()) == []


def test_validate_flags_width_mismatch():
    net = build_ring()
    net.links["lm"].width = 4
    codes = {d.code for d in validate(net)}
    assert "width" in codes


def test_validate_flags_dangling_reference():
    net = build_ring()
    net.links["lm"].src = ("ghost", 0)
    codes = {d.code for d in validate(net)}
    assert "dangling" in codes


def test_validate_flags_unbound_port():
    net = build_ring()
    del net.links["lgo"]
    diags = validate(net)
    assert any(d.code == "connectivity" for d in diags)
    assert any(d.code == "dangling" for d in diags)


def test_validate_flags_adjacent_buffers():
    net = build_ring()
    net.components["b2"] = Component("b2", Kind.BUFFER,
                                     {"width": 8, "capacity": 1})
    # Splice b2 between b and m by hand, leaving b -> b2 adjacent.
    net.links["lb"].dst = ("b2", 0)
    net.links["lb2"] = Link("lb2", 8, ("b2", 0), ("m", 0))
    codes = {d.code for d in validate(net)}
    assert "double-buffer" in codes


def test_validate_flags_steer_table_out_of_range():
    net = build_ring()
    net.components["s"].params["table"] = {"0": 0, "1": 5}
    codes = {d.code for d in validate(net)}
    assert "bad-params" in codes


def test_validate_flags_fork_output_wider_than_input():
    net = build_ring()
    net.components["f"].params["outputs"] = [8, 16]
    codes = {d.code for d in validate(net)}
    assert "width" in codes


def test_validate_reports_missing_params():
    net = build_ring()
    net.components["j"].params = {}
    codes = {d.code for d in validate(net)}
    assert "bad-params" in codes


def test_diagnostic_renders_with_subject():
    net = build_ring()
    net.links["lm"].width = 4
    text = str(validate(net)[0])
    assert "lm" in text or "f" in text or "m" in text


# ---------------------------------------------------------------------------
# Buffer splicing

def test_splice_keeps_upstream_id_and_adds_post():
    net = build_ring()
    out = splice_buffer(net, "lm", capacity=3)
    assert out.links["lm"].dst == ("buf.lm", 0)
    assert out.links["lm.post"].src == ("buf.lm", 0)
    assert out.links["lm.post"].dst == ("f", 0)
    assert out.components["buf.lm"].params == {"width": 8, "capacity": 3}
    assert validate(out) == []
    # The original network is untouched.
    assert "buf.lm" not in net.components


def test_splice_retargets_output_port():
    net = build_ring()
    out = splice_buffer(net, "lout")
    assert out.ports["spill"].link == "lout.post"
    assert validate(out) == []


def test_splice_rejects_unknown_link():
    with pytest.raises(UnknownLink):
        splice_buffer(build_ring(), "nope")


def test_splice_rejects_buffer_adjacency():
    net = build_ring()
    with pytest.raises(DoubleBuffer):
        splice_buffer(net, "ls")  # dst is already the ring buffer
    with pytest.raises(DoubleBuffer):
        splice_buffer(net, "lb")  # src is the ring buffer


def test_splice_rejects_same_position_twice():
    out = splice_buffer(build_ring(), "lm")
    with pytest.raises(DoubleBuffer):
        splice_buffer(out, "lm")


def test_splice_in_place_checks_before_changing_the_net():
    net = build_ring()
    before = netlist.dumps(net)
    for lid, error in (("nope", UnknownLink), ("ls", DoubleBuffer),
                       ("lb", DoubleBuffer)):
        with pytest.raises(error):
            splice_buffer_in_place(net, lid)
        assert netlist.dumps(net) == before
    splice_buffer_in_place(net, "lout", capacity=3)
    assert netlist.dumps(net) == netlist.dumps(
        splice_buffer(build_ring(), "lout", capacity=3))


# ---------------------------------------------------------------------------
# Back-edge detection

def _component_multigraph(net: Network) -> nx.MultiDiGraph:
    g = nx.MultiDiGraph()
    g.add_nodes_from(net.components)
    for ln in net.links.values():
        if ln.src is not None and ln.dst is not None:
            g.add_edge(ln.src[0], ln.dst[0], key=ln.id)
    return g


def _acyclic_after_removal(net: Network, back: list[str]) -> bool:
    g = _component_multigraph(net)
    for lid in back:
        ln = net.links[lid]
        g.remove_edge(ln.src[0], ln.dst[0], key=lid)
    return nx.is_directed_acyclic_graph(g)


def test_back_edges_cover_ring_cycle():
    net = build_ring()
    back = find_back_edges(net)
    assert back
    assert _acyclic_after_removal(net, back)


def test_back_edges_deterministic(elgcd_net):
    assert find_back_edges(elgcd_net) == find_back_edges(elgcd_net)


@pytest.mark.parametrize("bench", ["elgcd", "poly", "smul"])
def test_back_edges_cover_all_benchmark_cycles(bench, request):
    net = request.getfixturevalue(f"{bench}_net")
    assert _acyclic_after_removal(net, find_back_edges(net))


def test_back_edges_found_without_any_ports():
    # A net unreachable from external ports still gets its cycles covered.
    comps = {
        "i": Component("i", Kind.INITIAL, {"width": 8, "value": 0}),
        "o": Component("o", Kind.OPERATOR,
                       {"fn": "id", "inputs": [8], "out": 8}),
        "b": Component("b", Kind.BUFFER, {"width": 8, "capacity": 2}),
    }
    links = {
        "a": Link("a", 8, ("i", 0), ("o", 0)),
        "c": Link("c", 8, ("o", 0), ("b", 0)),
        "d": Link("d", 8, ("b", 0), ("i", 0)),
    }
    net = Network("island", comps, links, {})
    back = find_back_edges(net)
    assert back and _acyclic_after_removal(net, back)


@given(small_graphs())
def test_back_edges_cover_arbitrary_digraphs(graph):
    n, edges = graph
    net = digraph_to_net(n, edges)
    assert validate(net) == []
    assert _acyclic_after_removal(net, find_back_edges(net))


# ---------------------------------------------------------------------------
# Flow-graph passes

def test_flow_successors_follow_ring():
    succ = flow_successors(build_ring())
    assert succ["lm"] == ["l2", "l3"]
    assert succ["ls"] == ["lb"]
    assert succ["lj"] == ["lout", "ls"]


def test_loop_carry_links_ring():
    # The initial's input link is always a carry point; the hand-built
    # merge carries no loop annotation, so it contributes nothing.
    assert loop_carry_links(build_ring()) == {"lgo"}


def test_loop_carry_links_cover_compiled_loops(elgcd_net):
    carries = loop_carry_links(elgcd_net)
    assert carries
    for lid in carries:
        cid, port = elgcd_net.links[lid].dst
        comp = elgcd_net.components[cid]
        assert (comp.kind is Kind.INITIAL and port == 0) or (
            comp.kind is Kind.MERGE and port == int(comp.params["loop"]))


def test_token_cycle_free_depends_on_buffer():
    net = build_ring()
    assert token_cycle_free(net)
    # Replace the buffer with a transparent operator: the ring becomes a
    # storage-free cycle.
    net.components["b"] = Component("b", Kind.OPERATOR,
                                    {"fn": "id", "inputs": [8], "out": 8})
    assert not token_cycle_free(net)
    # Cutting any ring link restores liveness of what remains.
    assert token_cycle_free(net, removed={"lb"})


def test_combinational_cycle_broken_by_buffer():
    net = build_ring()
    assert combinational_cycle(net) is None
    net.components["b"] = Component("b", Kind.OPERATOR,
                                    {"fn": "id", "inputs": [8], "out": 8})
    cyc = combinational_cycle(net)
    assert cyc is not None
    succ = combinational_successors(net)
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert b in succ[a]


def test_unbuffered_compiles_have_combinational_cycles(elgcd_net):
    assert combinational_cycle(elgcd_net) is not None


def test_network_copy_is_deep():
    net = build_ring()
    dup = net.copy()
    dup.components["b"].params["capacity"] = 9
    assert net.components["b"].params["capacity"] == 2


@pytest.mark.parametrize("bench", ["elgcd", "poly", "smul"])
def test_network_copy_is_structural(bench, request):
    net = request.getfixturevalue(f"{bench}_net")
    dup = net.copy()
    assert netlist.dumps(dup) == netlist.dumps(net)
    for table in ("components", "links", "ports"):
        mine = {id(obj) for obj in getattr(net, table).values()}
        assert not mine & {id(obj) for obj in getattr(dup, table).values()}
    shared = {id(c.params) for c in net.components.values()}
    assert not shared & {id(c.params) for c in dup.components.values()}


@pytest.mark.parametrize("bench", ["elgcd", "poly", "smul"])
def test_endpoints_agree_with_linear_scan(bench, request):
    compiled = request.getfixturevalue(f"{bench}_net")
    for net in (compiled, apply(compiled, policy_pac(compiled, "sync")),
                apply(compiled, policy_simple(compiled))):
        ends = endpoints(net)
        for cid, comp in net.components.items():
            for port in range(len(comp.input_widths()) + 1):
                assert ends.into.get((cid, port)) is net.link_into(cid, port)
            for port in range(len(comp.output_widths()) + 1):
                assert ends.out_of.get((cid, port)) is net.link_out_of(cid,
                                                                       port)


def test_link_lookups():
    net = build_ring()
    assert net.link_into("m", 0).id == "lb"
    assert net.link_out_of("s", 1).id == "lout"
    assert net.link_into("init", 0).id == "lgo"
    assert net.buffer_count() == 1
