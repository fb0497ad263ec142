"""Network representation: validation, buffer splicing, graph passes."""
from __future__ import annotations

import functools

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from conftest import build_ring, digraph_to_net
from elastika import netlist
from elastika.bench import benchmark, benchmark_names
from elastika.buffering import apply, policy_pac, policy_simple
from elastika.ir import (Component, Diagnostic, DoubleBuffer, IrError, Kind,
                         FlowGraph, Link, Network, Port, UnknownLink,
                         back_edges, combinational_cycle, port_counts,
                         splice_buffer_in_place, validate)


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


def test_every_kind_has_port_widths_and_a_delay():
    # Every per-kind table, so a kind cannot be half added or half removed.
    from elastika.ir import _INPUT_WIDTHS, _OUTPUT_WIDTHS, _PORT_COUNTS
    from elastika.netlist import _DOT_SHAPE
    from elastika.sim.config import _KIND_DELAYS
    from elastika.sim.engine import _HANDLERS
    for table in (_INPUT_WIDTHS, _OUTPUT_WIDTHS, _PORT_COUNTS, _KIND_DELAYS,
                  _HANDLERS, _DOT_SHAPE):
        assert set(table) == set(Kind)


@pytest.mark.parametrize("n", [-1, 0, 1, 3])
def test_port_counts_are_the_width_list_lengths(n):
    comps = [Component("m", Kind.MERGE, {"width": 8, "inputs": n}),
             Component("s", Kind.STEER, {"input": 9, "select": 1,
                                         "outputs": n, "table": {}}),
             Component("v", Kind.VARIABLE, {"width": 8, "reads": n}),
             Component("j", Kind.JOIN, {"inputs": [8] * max(n, 0)}),
             Component("f", Kind.FORK, {"input": 8,
                                        "outputs": [8] * max(n, 0)})]
    for comp in comps:
        assert port_counts(comp) == (len(comp.input_widths()),
                                     len(comp.output_widths()))


def test_unknown_kind_is_rejected():
    from elastika.sim import DelayTable
    comp = Component("x", "bogus", {})
    for call in (comp.input_widths, comp.output_widths,
                 lambda: DelayTable().component_delay(comp)):
        with pytest.raises(IrError, match="unhandled kind bogus"):
            call()


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


@functools.cache
def _shipped_net(name: str, buffered: bool) -> Network:
    """A shipped benchmark net, compiled once; the buffered form carries
    Buffer params too.  Callers edit a copy."""
    net = benchmark(name).compiled()
    return apply(net, policy_simple(net)) if buffered else net


_JUNK = st.one_of(
    st.text(max_size=3),
    st.lists(st.integers(-2, 9), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-2, 9), max_size=2))


@given(st.data())
def test_validate_never_raises_on_malformed_params(data):
    # Drop one param of one component, or replace it with a string, list
    # or dict; the edit may reach one level into a list or dict param.
    net = _shipped_net(data.draw(st.sampled_from(benchmark_names())),
                       data.draw(st.booleans())).copy()
    cid = data.draw(st.sampled_from(sorted(net.components)))
    holder = net.components[cid].params
    key = data.draw(st.sampled_from(sorted(holder)))
    inner = holder[key]
    if isinstance(inner, (dict, list)) and inner and data.draw(st.booleans()):
        holder = inner
        key = data.draw(st.sampled_from(
            sorted(inner) if isinstance(inner, dict) else range(len(inner))))
    if data.draw(st.booleans()):
        del holder[key]
    else:
        holder[key] = data.draw(_JUNK)
    diags = validate(net)
    assert isinstance(diags, list)
    assert all(isinstance(d, Diagnostic) for d in diags)


def test_diagnostic_renders_with_subject():
    net = build_ring()
    net.links["lm"].width = 4
    text = str(validate(net)[0])
    assert "lm" in text or "f" in text or "m" in text


# ---------------------------------------------------------------------------
# Buffer splicing

def test_splice_keeps_upstream_id_and_adds_post():
    net = build_ring()
    out = net.copy()
    splice_buffer_in_place(out, "lm", capacity=3)
    assert out.links["lm"].dst == ("buf.lm", 0)
    assert out.links["lm.post"].src == ("buf.lm", 0)
    assert out.links["lm.post"].dst == ("f", 0)
    assert out.components["buf.lm"].params == {"width": 8, "capacity": 3}
    assert validate(out) == []
    # The copy shares nothing the splice changes with the original.
    assert "buf.lm" not in net.components
    assert "lm.post" not in net.links
    assert net.links["lm"].dst == ("f", 0)


def test_splice_retargets_output_port():
    net = build_ring()
    out = net.copy()
    splice_buffer_in_place(out, "lout")
    assert out.ports["spill"].link == "lout.post"
    assert validate(out) == []
    assert net.ports["spill"].link == "lout"


def test_splice_rejects_unknown_link():
    with pytest.raises(UnknownLink):
        splice_buffer_in_place(build_ring().copy(), "nope")


def test_splice_rejects_buffer_adjacency():
    net = build_ring()
    with pytest.raises(DoubleBuffer):
        splice_buffer_in_place(net.copy(), "ls")  # dst is the ring buffer
    with pytest.raises(DoubleBuffer):
        splice_buffer_in_place(net.copy(), "lb")  # src is the ring buffer


def test_splice_rejects_same_position_twice():
    out = build_ring().copy()
    splice_buffer_in_place(out, "lm")
    with pytest.raises(DoubleBuffer):
        splice_buffer_in_place(out.copy(), "lm")


def test_splice_in_place_checks_before_changing_the_net():
    net = build_ring()
    before = netlist.dumps(net)
    for lid, error in (("nope", UnknownLink), ("ls", DoubleBuffer),
                       ("lb", DoubleBuffer)):
        with pytest.raises(error):
            splice_buffer_in_place(net, lid)
        assert netlist.dumps(net) == before
    copied = net.copy()
    splice_buffer_in_place(net, "lout", capacity=3)
    assert netlist.dumps(copied) == before
    splice_buffer_in_place(copied, "lout", capacity=3)
    assert netlist.dumps(net) == netlist.dumps(copied)


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
    back = FlowGraph(net).back_edges
    assert back
    assert _acyclic_after_removal(net, back)


def test_back_edges_deterministic(elgcd_net):
    assert FlowGraph(elgcd_net).back_edges == FlowGraph(elgcd_net).back_edges


@pytest.mark.parametrize("bench", ["elgcd", "poly", "smul"])
def test_back_edges_cover_all_benchmark_cycles(bench, request):
    net = request.getfixturevalue(f"{bench}_net")
    assert _acyclic_after_removal(net, FlowGraph(net).back_edges)


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
    back = FlowGraph(net).back_edges
    assert back and _acyclic_after_removal(net, back)


@given(small_graphs())
def test_back_edges_cover_arbitrary_digraphs(graph):
    n, edges = graph
    net = digraph_to_net(n, edges)
    assert validate(net) == []
    assert _acyclic_after_removal(net, FlowGraph(net).back_edges)


# ---------------------------------------------------------------------------
# Generic cycle search

def _adjacency(edges):
    """children() over an edge list of (edge id, source, target)."""
    out = {}
    for eid, src, dst in edges:
        out.setdefault(src, []).append((eid, dst))
    return lambda node: out.get(node, [])


def _yields(roots, children):
    return [(list(path), edge, target)
            for path, edge, target in back_edges(roots, children)]


def test_back_edges_dag_yields_nothing():
    dag = _adjacency([("ab", "a", "b"), ("ac", "a", "c"), ("bc", "b", "c"),
                      ("cd", "c", "d")])
    assert _yields("abcd", dag) == []
    assert _yields("dcba", dag) == []


def test_back_edges_leaves_nodes_in_post_order():
    dag = _adjacency([("ab", "a", "b"), ("ac", "a", "c"), ("bc", "b", "c"),
                      ("cd", "c", "d")])
    order = []
    assert list(back_edges("dcba", dag, order)) == []
    assert order == ["d", "c", "b", "a"]
    order = []
    assert list(back_edges("abcd", dag, order)) == []
    assert order == ["d", "c", "b", "a"]
    # On a cycle the order still holds every node once, each after all it
    # reaches except the path it closes into.
    ring = _adjacency([("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a"),
                       ("cd", "c", "d")])
    order = []
    assert [edge for _, edge, _ in back_edges("a", ring, order)] == ["ca"]
    assert order == ["d", "c", "b", "a"]


def test_back_edges_self_loop():
    assert _yields(["a"], _adjacency([("aa", "a", "a")])) == [(["a"], "aa", "a")]


def test_back_edges_skip_reached_roots():
    calls = []
    adj = _adjacency([("ab", "a", "b"), ("ba", "b", "a")])

    def children(node):
        calls.append(node)
        return adj(node)

    # b is reached from a, so the second root starts no new search and no
    # node is expanded twice.
    assert _yields(["a", "b"], children) == [(["a", "b"], "ba", "a")]
    assert calls == ["a", "b"]


def test_back_edges_discovery_order():
    # a -> b -> c -> a and b -> b, c -> b: children in listed order.
    edges = [("ab", "a", "b"), ("bc", "b", "c"), ("bb", "b", "b"),
             ("ca", "c", "a"), ("cb", "c", "b")]
    assert _yields(["a"], _adjacency(edges)) == [
        (["a", "b", "c"], "ca", "a"),
        (["a", "b", "c"], "cb", "b"),
        (["a", "b"], "bb", "b"),
    ]
    # Starting elsewhere changes which edges close the cycles.
    assert [e for _, e, _ in _yields(["c"], _adjacency(edges))] == ["bc", "bb"]


def test_back_edges_deep_chain_is_iterative():
    n = 5000
    edges = [(i, i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1, 0)]
    assert _yields([0], _adjacency(edges)) == [(list(range(n)), n - 1, 0)]


# ---------------------------------------------------------------------------
# Flow-graph passes

def test_flow_successors_follow_ring():
    succ = FlowGraph(build_ring()).flow
    assert succ["lm"] == ["l2", "l3"]
    assert succ["ls"] == ["lb"]
    assert succ["lj"] == ["lout", "ls"]


def test_loop_carry_links_ring():
    # The initial's input link is always a carry point; the hand-built
    # merge carries no loop annotation, so it contributes nothing.
    assert FlowGraph(build_ring()).loop_carry == {"lgo"}


def test_loop_carry_links_cover_compiled_loops(elgcd_net):
    carries = FlowGraph(elgcd_net).loop_carry
    assert carries
    for lid in carries:
        cid, port = elgcd_net.links[lid].dst
        comp = elgcd_net.components[cid]
        assert (comp.kind is Kind.INITIAL and port == 0) or (
            comp.kind is Kind.MERGE and port == int(comp.params["loop"]))


def test_combinational_cycle_broken_by_buffer():
    net = build_ring()
    assert combinational_cycle(FlowGraph(net)) is None
    net.components["b"] = Component("b", Kind.OPERATOR,
                                    {"fn": "id", "inputs": [8], "out": 8})
    cyc = combinational_cycle(FlowGraph(net))
    assert cyc is not None
    succ = FlowGraph(net).comb
    for a, b in zip(cyc, cyc[1:] + cyc[:1]):
        assert b in succ[a]
    # The search starts at the smallest link id, l2, and closes back into
    # it from lm; the cycle runs from the link after l2 round to l2.
    assert cyc == ["lc2", "lj", "ls", "lb", "lm", "l2"]


def test_unbuffered_compiles_have_combinational_cycles(elgcd_net):
    assert combinational_cycle(FlowGraph(elgcd_net)) is not None


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
        g = FlowGraph(net)
        for cid, comp in net.components.items():
            for port in range(len(comp.input_widths()) + 1):
                assert g.into.get((cid, port)) is net.link_into(cid, port)
            for port in range(len(comp.output_widths()) + 1):
                assert g.out_of.get((cid, port)) is net.link_out_of(cid,
                                                                    port)


def test_link_lookups():
    net = build_ring()
    assert net.link_into("m", 0).id == "lb"
    assert net.link_out_of("s", 1).id == "lout"
    assert net.link_into("init", 0).id == "lgo"
    assert net.buffer_count() == 1
