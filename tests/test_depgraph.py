"""Dependency extraction: WAR/RAW ordering constraints and channel
producer/consumer (PAC) constraints.

The golden sets below are derived from the benchmark program text, not
from the extractor.  For the subtraction-gcd program::

    x := a ; y := b ;
    while x != y { if x > y { x := x - y } else { y := y - x } } ;
    g ! x

read sites number in program order.  x is read by the while condition
(rd0), the comparison x > y (rd1), the subtraction x - y (rd2), the
subtraction y - x (rd3) and the final send (rd4); y is read by the
condition (rd0), the comparison (rd1), x - y (rd2) and y - x (rd3).
Writes are the preamble stores (wr0) and the loop-body stores (wr1).

A WAR edge orders a read before a *later write of the same activation
pass*.  Only the loop-body writes have same-pass earlier reads: for
``x := x - y`` those are the condition, the comparison and its own
x operand; the read of x inside ``y := y - x`` sits on the other branch
of the if, and the final send runs after the loop, so neither precedes a
write in its own pass.  RAW edges connect every write to every read that
a later pass can observe — here all of them, in both variables.
"""
from __future__ import annotations

import pytest

from elastika import depgraph as dg
from elastika.ir import FlowGraph


GOLDEN_ELGCD_WAR = {
    ("var.x", "var.x/rd0", "var.x/wr1"),
    ("var.x", "var.x/rd1", "var.x/wr1"),
    ("var.x", "var.x/rd2", "var.x/wr1"),
    ("var.y", "var.y/rd0", "var.y/wr1"),
    ("var.y", "var.y/rd1", "var.y/wr1"),
    ("var.y", "var.y/rd3", "var.y/wr1"),
}

GOLDEN_ELGCD_RAW = {
    ("var.x", f"var.x/wr{w}", f"var.x/rd{r}")
    for w in range(2) for r in range(5)
} | {
    ("var.y", f"var.y/wr{w}", f"var.y/rd{r}")
    for w in range(2) for r in range(4)
}


@pytest.fixture(scope="module")
def elgcd_graph(elgcd_net):
    return dg.build(FlowGraph(elgcd_net))


def test_elgcd_war_edges_exact(elgcd_graph):
    war = {(e.subject, e.u, e.v) for e in elgcd_graph.edges if e.kind == "WAR"}
    assert war == GOLDEN_ELGCD_WAR


def test_elgcd_raw_edges_exact(elgcd_graph):
    raw = {(e.subject, e.u, e.v) for e in elgcd_graph.edges if e.kind == "RAW"}
    assert raw == GOLDEN_ELGCD_RAW


def test_elgcd_pac_edges(elgcd_graph):
    pac = {(e.subject, e.u, e.v, e.tag)
           for e in elgcd_graph.edges if e.kind == "PAC"}
    subjects = {s for s, _, _, _ in pac}
    assert subjects == {"a", "b", "g"}
    # Input ports produce into the network; the output port consumes.
    by_subject = {s: (u, v, tag) for s, u, v, tag in pac}
    assert by_subject["a"][0] == "a"
    assert by_subject["b"][0] == "b"
    assert by_subject["g"][1] == "g"
    assert all(tag == "" for _, _, _, tag in pac)


def test_edge_counts_all_benchmarks(elgcd_net, poly_net, smul_net):
    from collections import Counter

    for net, expect in (
        (elgcd_net, {"WAR": 6, "RAW": 18, "PAC": 3}),
        (poly_net, {"WAR": 4, "RAW": 13, "PAC": 9}),
        (smul_net, {"WAR": 6, "RAW": 14, "PAC": 3}),
    ):
        g = dg.build(FlowGraph(net))
        counts = dict(Counter(e.kind for e in g.edges))
        assert counts == expect, net.name


def test_internal_channels_get_backward_edges(poly_net):
    # A rendezvous between two in-network sites constrains both
    # directions; an external port only constrains the forward one.
    g = dg.build(FlowGraph(poly_net))
    pac = [e for e in g.edges if e.kind == "PAC"]
    internal = {e.subject for e in pac if e.tag == "backward"}
    assert internal == {"temp", "addRes"}
    for subject in internal:
        tags = sorted(e.tag for e in pac if e.subject == subject)
        assert tags == ["", "backward"]


def test_channels_cover_external_ports(elgcd_net):
    chans = dg.channels(FlowGraph(elgcd_net))
    by_name = {c.name: c for c in chans}
    assert set(by_name) == {"a", "b", "g"}
    assert by_name["a"].producer == "a"
    assert by_name["a"].producer_comp is None
    assert by_name["g"].consumer == "g"
    assert by_name["g"].consumer_comp is None
    for ch in chans:
        assert ch.link in elgcd_net.links


def test_site_lookups_agree_with_graph(elgcd_net):
    # One (entry link, done link) pair per program write site of x and
    # one (go link, data link) pair per read site, in program order.
    g = FlowGraph(elgcd_net)
    writes = dg.variable_write_sites(g, "var.x")
    reads = dg.variable_read_sites(g, "var.x")
    assert len(writes) == 2
    assert len(reads) == 5
    for entry, done in writes + reads:
        assert entry in elgcd_net.links
        assert done in elgcd_net.links


def test_build_nodes_cover_edges(elgcd_graph):
    nodes = set(elgcd_graph.nodes)
    for e in elgcd_graph.edges:
        assert e.u in nodes
        assert e.v in nodes


def test_build_deterministic(elgcd_net):
    a = dg.build(FlowGraph(elgcd_net))
    b = dg.build(FlowGraph(elgcd_net))
    assert a.nodes == b.nodes
    assert a.edges == b.edges


def test_edge_str_shows_backward_tag(elgcd_graph):
    e = dg.DepEdge("PAC", "c", "u", "v", tag="backward")
    assert str(e).endswith("[backward]")
    assert "WAR var.x: var.x/rd0 -> var.x/wr1" in map(str, elgcd_graph.edges)


def test_to_dot_well_formed(elgcd_graph):
    dot = dg.to_dot(elgcd_graph)
    assert dot.startswith("digraph")
    assert dot.rstrip().endswith("}")
    for node in elgcd_graph.nodes:
        assert f'"{node}"' in dot
    assert '"var.x/rd0" -> "var.x/wr1"' in dot


def test_extractors_compose_into_build(elgcd_net, elgcd_graph):
    g = FlowGraph(elgcd_net)
    var_edges = dg.extract_variable_constraints(g)
    pac_edges = dg.extract_pac_constraints(g)
    assert sorted(map(str, var_edges + pac_edges)) == \
        sorted(map(str, elgcd_graph.edges))
