"""Shared fixtures and builders for the test suite.

Two hand-built nets anchor the timing tests:

* ``build_ring()`` is a closed single-loop net with one slow stage whose
  traversal time is knowable on paper: the circulating token crosses
  merge -> fork -> body operator -> join -> steer -> buffer, and with the
  delay table from ``ring_delays()`` (body 4000 ps, everything else
  100 ps, buffer 0) one lap takes exactly 4400 ps.
* ``build_loop_net(op_delays, ...)`` generalises it to a plain cycle of
  operators for randomised single-loop checks: the lap time is just the
  sum of the per-hop delays.

``digraph_to_net`` turns an arbitrary small digraph into a valid network
(merge/fork pairs per node), which gives property tests on structural
passes real topologies without hand-wiring.  ``two_chains(fn)`` puts an
Operator of any ``fn`` beside a plain chain, for runs that leave it
unfired.
"""
from __future__ import annotations

import functools
from collections import Counter

import pytest
from hypothesis import settings

from elastika.bench import benchmark
from elastika.ir import Component, FlowGraph, Kind, Link, Network, Port
from elastika.sim.config import DelayTable

settings.register_profile("suite", deadline=None, max_examples=40,
                          derandomize=True)
settings.load_profile("suite")


# ---------------------------------------------------------------------------
# Worked single-loop timing net

def build_ring() -> Network:
    """Closed ring with one token: initial -> merge -> fork -> {flag const,
    body operator} -> join -> steer -> buffer -> back to the merge.  The
    steer's select is the constant flag 1, so the token always takes the
    loop branch and the spill port never fires."""
    comps = [
        Component("init", Kind.INITIAL, {"width": 8, "value": 0}),
        Component("m", Kind.MERGE, {"width": 8, "inputs": 2}),
        Component("f", Kind.FORK, {"input": 8, "outputs": [8, 8]}),
        Component("c2", Kind.OPERATOR, {"fn": "const", "inputs": [8], "out": 1,
                                        "delay_class": "flag", "value": 1}),
        Component("c3", Kind.OPERATOR, {"fn": "id", "inputs": [8], "out": 8,
                                        "delay_class": "body"}),
        Component("j", Kind.JOIN, {"inputs": [1, 8]}),
        Component("s", Kind.STEER, {"input": 9, "select": 1, "outputs": 2,
                                    "table": {"1": 0, "0": 1}}),
        Component("b", Kind.BUFFER, {"width": 8, "capacity": 2}),
    ]
    links = [
        Link("li", 8, ("init", 0), ("m", 1)),
        Link("lm", 8, ("m", 0), ("f", 0)),
        Link("l2", 8, ("f", 0), ("c2", 0)),
        Link("l3", 8, ("f", 1), ("c3", 0)),
        Link("lc2", 1, ("c2", 0), ("j", 0)),
        Link("lc3", 8, ("c3", 0), ("j", 1)),
        Link("lj", 9, ("j", 0), ("s", 0)),
        Link("ls", 8, ("s", 0), ("b", 0)),
        Link("lb", 8, ("b", 0), ("m", 0)),
        Link("lout", 8, ("s", 1), None),
        Link("lgo", 8, None, ("init", 0)),
    ]
    ports = [Port("spill", "out", 8, "lout"), Port("go", "in", 8, "lgo")]
    return Network("ring", {c.id: c for c in comps},
                   {ln.id: ln for ln in links}, {p.name: p for p in ports})


def ring_delays() -> DelayTable:
    """Delay table that makes one ring lap exactly 4400 ps: the token pays
    join 100 + steer 100 + buffer 0 + merge 100 + fork 100 + body 4000."""
    return DelayTable(operator={"default": 1000, "const": 100, "id": 100,
                                "flag": 100, "body": 4000}, buffer=0)


RING_LAP_PS = 4400


def ring_arrival_gaps(report) -> list[int]:
    """Gaps between the times the circulating token re-enters the ring
    buffer (occupancy rising to 1); each gap is one lap."""
    arrivals = [t for t, b, occ in report.occupancy_series
                if b == "b" and occ == 1]
    return [y - x for x, y in zip(arrivals, arrivals[1:])]


# ---------------------------------------------------------------------------
# Plain operator loops for randomised single-loop timing

def build_loop_net(op_delay_classes: list[str], capacity: int = 2) -> Network:
    """A cycle: initial -> op_1 -> ... -> op_k -> buffer -> initial.
    No external ports; the initial's seed token circulates forever."""
    comps = {"init": Component("init", Kind.INITIAL, {"width": 8, "value": 1})}
    links = {}
    prev = ("init", 0)
    for i, cls in enumerate(op_delay_classes):
        cid = f"op{i}"
        comps[cid] = Component(cid, Kind.OPERATOR,
                               {"fn": "id", "inputs": [8], "out": 8,
                                "delay_class": cls})
        lid = f"l{i}"
        links[lid] = Link(lid, 8, prev, (cid, 0))
        prev = (cid, 0)
    comps["buf"] = Component("buf", Kind.BUFFER,
                             {"width": 8, "capacity": capacity})
    links["lin"] = Link("lin", 8, prev, ("buf", 0))
    links["lback"] = Link("lback", 8, ("buf", 0), ("init", 0))
    return Network("loopnet", comps, links, {})


def loop_arrival_gaps(report) -> list[int]:
    arrivals = [t for t, b, occ in report.occupancy_series
                if b == "buf" and occ == 1]
    return [y - x for x, y in zip(arrivals, arrivals[1:])]


# ---------------------------------------------------------------------------
# Arbitrary digraph -> valid network

def two_chains(fn: str) -> Network:
    """a -> id operator -> z beside b -> operator ``fn`` -> y, so a run
    can leave the second Operator unfired."""
    comps = [Component("op", Kind.OPERATOR,
                       {"fn": "id", "inputs": [8], "out": 8}),
             Component("odd", Kind.OPERATOR,
                       {"fn": fn, "inputs": [8], "out": 8})]
    links = [Link("la", 8, None, ("op", 0)), Link("lz", 8, ("op", 0), None),
             Link("lb", 8, None, ("odd", 0)),
             Link("ly", 8, ("odd", 0), None)]
    ports = [Port("a", "in", 8, "la"), Port("z", "out", 8, "lz"),
             Port("b", "in", 8, "lb"), Port("y", "out", 8, "ly")]
    return Network("two", {c.id: c for c in comps},
                   {ln.id: ln for ln in links}, {p.name: p for p in ports})


def digraph_to_net(n_nodes: int, edges: list[tuple[int, int]]) -> Network:
    """Each graph node becomes a 1-output stage (merge when its in-degree
    is >= 2, else an id operator) followed by a fork when its out-degree
    is >= 2.  Nodes with no predecessor are fed from an input port, nodes
    with no successor drain to an output port, so the net validates."""
    indeg = {v: 0 for v in range(n_nodes)}
    outdeg = {v: 0 for v in range(n_nodes)}
    for u, v in edges:
        outdeg[u] += 1
        indeg[v] += 1
    comps: dict[str, Component] = {}
    links: dict[str, Link] = {}
    ports: dict[str, Port] = {}
    entry: dict[int, tuple[str, int]] = {}
    exits: dict[int, list[tuple[str, int]]] = {}
    for v in range(n_nodes):
        head = f"n{v}"
        if indeg[v] >= 2:
            comps[head] = Component(head, Kind.MERGE,
                                    {"width": 8, "inputs": indeg[v]})
        else:
            comps[head] = Component(head, Kind.OPERATOR,
                                    {"fn": "id", "inputs": [8], "out": 8})
        entry[v] = (head, 0)
        src = (head, 0)
        if outdeg[v] >= 2:
            fid = f"n{v}f"
            comps[fid] = Component(fid, Kind.FORK,
                                   {"input": 8, "outputs": [8] * outdeg[v]})
            lid = f"l{v}.fork"
            links[lid] = Link(lid, 8, src, (fid, 0))
            exits[v] = [(fid, k) for k in range(outdeg[v])]
        else:
            exits[v] = [src]
        if indeg[v] == 0:
            lid = f"l{v}.in"
            links[lid] = Link(lid, 8, None, entry[v])
            ports[f"i{v}"] = Port(f"i{v}", "in", 8, lid)
        if outdeg[v] == 0:
            lid = f"l{v}.out"
            links[lid] = Link(lid, 8, exits[v][0], None)
            ports[f"o{v}"] = Port(f"o{v}", "out", 8, lid)
    next_in: dict[int, int] = {v: 0 for v in range(n_nodes)}
    next_out: dict[int, int] = {v: 0 for v in range(n_nodes)}
    for k, (u, v) in enumerate(edges):
        src = exits[u][next_out[u]]
        next_out[u] += 1
        lid = f"e{k}"
        links[lid] = Link(lid, 8, src, (entry[v][0], next_in[v]))
        next_in[v] += 1
    return Network("gnet", comps, links, ports)


# ---------------------------------------------------------------------------
# Compiled benchmarks (session scope: compiling is pure)

@pytest.fixture(scope="session")
def elgcd_net() -> Network:
    return benchmark("elgcd").compiled()


@pytest.fixture(scope="session")
def poly_net() -> Network:
    return benchmark("poly").compiled()


@pytest.fixture(scope="session")
def smul_net() -> Network:
    return benchmark("smul").compiled()


@pytest.fixture()
def ring_net() -> Network:
    return build_ring()


@pytest.fixture()
def graph_builds(monkeypatch) -> Counter:
    """Counts, while the test runs, the ``FlowGraph``s built ("init") and
    the ``flow``, ``comb``, ``back_edges`` and ``comb_search`` views
    computed."""
    counts: Counter = Counter()
    init, successors = FlowGraph.__init__, FlowGraph._successors

    def counted_init(self, net):
        counts["init"] += 1
        init(self, net)

    def counted_successors(self, through_buffers):
        counts["flow" if through_buffers else "comb"] += 1
        return successors(self, through_buffers)

    def count_view(name):
        compute = getattr(FlowGraph, name).func

        def counted(self):
            counts[name] += 1
            return compute(self)
        view = functools.cached_property(counted)
        view.__set_name__(FlowGraph, name)
        monkeypatch.setattr(FlowGraph, name, view)
    monkeypatch.setattr(FlowGraph, "__init__", counted_init)
    monkeypatch.setattr(FlowGraph, "_successors", counted_successors)
    count_view("back_edges")
    count_view("comb_search")
    return counts
