"""Network representation: validation, buffer splicing, graph passes."""
from __future__ import annotations

import functools
import json
from pathlib import Path

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from conftest import build_ring, digraph_to_net
from elastika import netlist
from elastika.bench import benchmark, benchmark_names
from elastika.buffering import apply, policy_pac, policy_simple
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import (MAX_WIDTH, PARAMS, REQUIRED, Component, Diagnostic,
                         DoubleBuffer, IrError, Kind, FlowGraph, Link,
                         Network, Port, UnknownLink, back_edges,
                         combinational_cycle, param_problem, port_counts,
                         splice_buffer_in_place, validate, walk)
from elastika.sim import Lowered, SimError


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
                  _HANDLERS, _DOT_SHAPE, PARAMS):
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


def _relay_net(comp: Component) -> Network:
    """``comp`` with every port bound: input i is fed by link ``i<i>`` and
    output o drains to link ``o<o>``, all from and to the environment."""
    n_in, n_out = port_counts(comp)
    links = [Link(f"i{i}", 8, None, (comp.id, i)) for i in range(n_in)]
    links += [Link(f"o{o}", 8, (comp.id, o), None) for o in range(n_out)]
    return Network("relay", {comp.id: comp}, {ln.id: ln for ln in links}, {})


def test_variable_relays_are_isolated():
    # The stored value decouples the write side from the read side: write
    # go reaches only write done, each read go only its own read done.
    g = FlowGraph(_relay_net(Component("v", Kind.VARIABLE,
                                       {"width": 8, "reads": 2})))
    relays = {"i0": ["o0"], "i1": ["o1"], "i2": ["o2"],
              "o0": [], "o1": [], "o2": []}
    assert g.flow == relays
    assert g.comb == relays


def test_transparent_kinds_relay_all_ports():
    s = Component("s", Kind.STEER, {"input": 9, "select": 1, "outputs": 2,
                                    "table": {"0": 0, "1": 1}})
    g = FlowGraph(_relay_net(s))
    assert g.flow == g.comb == {"i0": ["o0", "o1"], "o0": [], "o1": []}
    # A Buffer relays on the flow view only: it breaks combinational paths.
    g = FlowGraph(_relay_net(Component("b", Kind.BUFFER,
                                       {"width": 8, "capacity": 1})))
    assert g.flow == {"i0": ["o0"], "o0": []}
    assert g.comb == {"i0": [], "o0": []}


# ---------------------------------------------------------------------------
# Validation

def test_ring_validates_clean():
    assert validate(build_ring()) == []


def test_validate_flags_width_mismatch():
    net = build_ring()
    net.links["lm"].width = 4
    codes = {d.code for d in validate(net)}
    assert "width" in codes


@pytest.mark.parametrize("width", [MAX_WIDTH, MAX_WIDTH + 1, 2 ** 40])
def test_validate_stops_widths_at_max_width(width):
    # A wire with no component, and an Operator between two links: each
    # port is as wide as its link, so the link check covers the ports.
    wire = Network("w", {}, {"l": Link("l", width, None, None)},
                   {"a": Port("a", "in", width, "l"),
                    "z": Port("z", "out", width, "l")})
    op = Network("o", {"op": Component("op", Kind.OPERATOR,
                                       {"fn": "id", "inputs": [width],
                                        "out": width})},
                 {"la": Link("la", width, None, ("op", 0)),
                  "lz": Link("lz", width, ("op", 0), None)},
                 {"a": Port("a", "in", width, "la"),
                  "z": Port("z", "out", width, "lz")})
    if width <= MAX_WIDTH:
        assert validate(wire) == validate(op) == []
        return
    wide = f"link width {width} outside 0..{MAX_WIDTH}"
    assert validate(wire) == [Diagnostic("width", "l", wide)]
    assert validate(op) == [Diagnostic("width", "la", wide),
                            Diagnostic("width", "lz", wide)]


def test_validate_flags_dangling_reference():
    net = build_ring()
    net.links["lm"].src = ("ghost", 0)
    codes = {d.code for d in validate(net)}
    assert "dangling" in codes


def test_validate_flags_unbound_port():
    net = build_ring()
    del net.links["lgo"]
    # The wiring pass refuses the first slot no link binds, and only it.
    assert validate(net) == [Diagnostic("connectivity", "init",
                                        "init input 0 is bound by no link")]


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


@pytest.mark.parametrize("target", [0.9, 0.0, "0", True, None, [0]],
                         ids=repr)
def test_validate_refuses_a_steer_target_that_is_no_int(target):
    # Each was read as int(target); 0.9, "0" and true passed and routed.
    net = _shipped_net("elgcd", False).copy()
    net.components["m.b.2.b.steer"].params["table"]["1"] = target
    assert validate(net) == [Diagnostic(
        "bad-params", "m.b.2.b.steer",
        f"steer table entry 1 targets missing output {target!r}")]


@pytest.mark.parametrize("key", ["01", "+1", " 1", "1.0", "\u0661",
                                 "1" * 156])
def test_validate_refuses_a_steer_key_that_is_no_select_value(key):
    # Each is a select value's digits in no spelling the simulator reads;
    # a key of 5,000 digits passed, and int() of it ended `sim` with a
    # ValueError.
    net = _shipped_net("elgcd", False).copy()
    net.components["m.b.2.b.steer"].params["table"][key] = 0
    message = ("steer table must be a map from decimal strings to output "
               "ports")
    assert validate(net) == [Diagnostic("bad-params", "m.b.2.b.steer",
                                        message)]
    with pytest.raises(SimError, match=f"^m.b.2.b.steer: {message}$"):
        Lowered(net).wiring


@pytest.mark.parametrize("kind, key, message", [
    (Kind.OPERATOR, "value", "operator value must be an integer"),
    (Kind.INITIAL, "value", "initial value must be an integer"),
    (Kind.VARIABLE, "init", "variable init must be an integer"),
    (Kind.MERGE, "loop", "merge loop must be an input port number"),
    (Kind.BUFFER, "capacity", "buffer capacity must be an integer >= 1"),
])
def test_validate_refuses_a_bool_for_an_int_param(kind, key, message):
    # isinstance(True, int) holds, so true passed as 1.
    net = _shipped_net("elgcd", kind is Kind.BUFFER).copy()
    comp = next(c for _, c in sorted(net.components.items())
                if c.kind is kind)
    comp.params[key] = True
    assert validate(net) == [Diagnostic("bad-params", comp.id, message)]


@pytest.mark.parametrize("cid, width, value", [
    *((cid, width, value) for cid, width in [("m.b.0.tag", 1), ("m.i", 0)]
      for value in [-1, 2, 2**40, 2**600]),
    *(("var.x", 32, value) for value in [-1, 2**40, 2**600])])
def test_validate_refuses_a_value_that_does_not_fit_its_output(cid, width,
                                                               value):
    # The simulator offered the value masked to the port, so -1 on the
    # 1-bit write-site tag sent site 0's write done to site 1; it read a
    # Variable's init masked too.
    net = _shipped_net("elgcd", False).copy()
    comp = net.components[cid]
    key = "init" if comp.kind is Kind.VARIABLE else "value"
    comp.params[key] = value
    assert validate(net) == [Diagnostic(
        "bad-params", cid,
        f"{comp.kind.value} {key} does not fit its {width}-bit output")]
    comp.params[key] = (1 << width) - 1
    assert validate(net) == []


@pytest.mark.parametrize("loop", [-1, 2, 5])
def test_validate_refuses_a_merge_loop_that_is_no_input_port(loop):
    # It passed, and the loop policy planned 31 links on poly instead of
    # 34, a plan that deadlocks.
    net = _shipped_net("poly", False).copy()
    net.components["m.b.3.merge"].params["loop"] = loop
    message = "merge loop must be an input port number"
    assert validate(net) == [Diagnostic("bad-params", "m.b.3.merge", message)]
    with pytest.raises(SimError, match=f"^m.b.3.merge: {message}$"):
        Lowered(net).wiring


_DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("source", [
    *(benchmark(name).source for name in benchmark_names()),
    *sorted(_DATA.glob("*.csp"))], ids=lambda path: path.stem)
def test_params_declare_what_the_compiler_emits(source):
    net = compile_module(parse(source.read_text()))
    for comp in net.components.values():
        declared = PARAMS[comp.kind]
        assert set(comp.params) <= set(declared), comp.id
        assert {name for name, p in declared.items()
                if p.default is REQUIRED} <= set(comp.params), comp.id
        assert param_problem(comp) is None, comp.id


def render_params() -> str:
    """README's list of each kind's params, from ``PARAMS``."""
    lines = []
    for kind, params in PARAMS.items():
        lines.append(f"* {kind.value.capitalize()}\n")
        for name, p in params.items():
            how = ("required" if p.default is REQUIRED else "optional"
                   if p.default is None else f"default {json.dumps(p.default)}")
            lines.append(f"  - `{name}` ({how}): {p.text}\n")
    return "".join(lines)


def test_readme_lists_the_params_of_every_kind():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    assert f"\n\n{render_params()}\n" in readme


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


# a -> b -> d, a -> c -> d, d -> a: a diamond closed into a ring.
DIAMOND = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["a"]}


def test_walk_discovery_order_and_parents():
    reach = walk(DIAMOND, ["a"])
    assert list(reach.items()) == [
        ("a", None), ("b", "a"), ("c", "a"), ("d", "b")]
    # Reached in one or more steps: a start only when a path returns to it.
    assert list(walk(DIAMOND, DIAMOND["a"])) == ["b", "c", "d", "a"]


def test_walk_records_a_blocked_link_without_expanding_it():
    reach = walk(DIAMOND, ["a"], blocked={"b"})
    assert reach == {"a": None, "b": "a", "c": "a", "d": "c"}
    assert walk(DIAMOND, ["a"], blocked={"b", "c"}) == {
        "a": None, "b": "a", "c": "a"}


def test_walk_returns_on_reaching_stop():
    assert walk(DIAMOND, ["a"], stop="c") == {"a": None, "b": "a", "c": "a"}
    # A blocked stop is still recorded, which is how a return path to a
    # planned link is found past other planned links.
    assert walk(DIAMOND, DIAMOND["d"], blocked={"a", "b"}, stop="a") == {
        "a": None}
    assert walk(DIAMOND, DIAMOND["a"], blocked={"a", "b"}, stop="a") == {
        "b": None, "c": None, "d": "c", "a": "d"}


def test_walk_start_equal_to_stop_ends_at_once():
    # The self-loop case: succ[x] holds x itself.
    succ = {"x": ["y", "x"], "y": ["x"]}
    assert walk(succ, succ["x"], blocked={"x"}, stop="x") == {
        "y": None, "x": None}


def test_one_pass_cuts_loop_carry_links(elgcd_net):
    g = FlowGraph(elgcd_net)
    for lid in g.loop_carry:
        assert g.flow[lid]
        assert g.one_pass[lid] == []


def test_one_pass_makes_each_write_funnel_opaque(elgcd_net):
    g = FlowGraph(elgcd_net)
    sites = g.write_sites["var.x"]
    assert len(sites) == 2
    for entry, tag, done in sites:
        assert g.one_pass[entry] == g.one_pass[tag] == [done]
        # The kind-blind relay of flow also leads to the other site's done.
        others = {d for _, _, d in sites if d != done}
        assert others & set(walk(g.flow, [entry]))


def test_write_sites_of_a_directly_driven_variable_have_no_tag():
    net = compile_module(parse(
        "module t(in a: 8; out z: 8) { var x: 8; x := a ; z ! x }"))
    g = FlowGraph(net)
    [(entry, tag, done)] = g.write_sites["var.x"]
    assert tag is None
    assert net.links[entry].dst == ("var.x", 0)
    assert net.links[done].src == ("var.x", 0)
    [(go, data)] = g.read_sites["var.x"]
    assert net.links[go].dst == net.links[data].src == ("var.x", 1)


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

        def scan(side: str, end: tuple):
            return next((ln for ln in net.links.values()
                         if getattr(ln, side) == end), None)
        for cid, comp in net.components.items():
            for port in range(len(comp.input_widths()) + 1):
                assert g.into.get((cid, port)) is scan("dst", (cid, port))
            for port in range(len(comp.output_widths()) + 1):
                assert g.out_of.get((cid, port)) is scan("src", (cid, port))


def test_link_lookups():
    net = build_ring()
    g = FlowGraph(net)
    assert g.into[("m", 0)].id == "lb"
    assert g.out_of[("s", 1)].id == "lout"
    assert g.into[("init", 0)].id == "lgo"
    assert net.buffer_count() == 1
