"""Data-dependency constraints over a compiled network.

Three constraint kinds are extracted:

* WAR (write after read): on a shared variable, a write site that can be
  reached from a read site within one traversal of the enclosing loop body
  must not overtake the read.  Reachability is computed on
  ``FlowGraph.one_pass``, the token-flow graph with loop-carry links cut,
  so constraints across iterations are carried by the loop structure
  instead of being duplicated here.
* RAW (read after write): every (write site, read site) pair of a variable;
  the stored value couples all writes to all reads regardless of which loop
  iteration performs them.
* PAC (produce after consume): every channel couples its producer to its
  consumer; when the flow graph loops from the consumer back to the
  producer, a second edge tagged ``backward`` records that the producer
  must also wait for the consume before producing again.

This module only extracts constraints: the read and write sites and the
one-pass map are ``FlowGraph`` views, and every reachability question is
one ``ir.walk``.  The graph is independent of buffer placement: Buffers
relay tokens transparently, so adding them changes neither site
resolution nor reachability.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ir import FlowGraph, Kind, walk
from .netlist import dot_escape


@dataclass(frozen=True)
class DepEdge:
    """One ordering constraint between two sites of a variable or channel."""
    kind: str     # "WAR" | "RAW" | "PAC"
    subject: str  # variable component id, or channel/port name
    u: str        # source node: the side that is read / consumed first
    v: str        # destination node: the writer / producer being delayed
    tag: str = ""  # "" or "backward"

    def __str__(self) -> str:
        suffix = f" [{self.tag}]" if self.tag else ""
        return f"{self.kind} {self.subject}: {self.u} -> {self.v}{suffix}"


@dataclass(frozen=True)
class Channel:
    """A producer/consumer pair: an external port link or an internal
    rendezvous link created by lowering a send."""
    name: str
    link: str
    producer: str  # node name; component id, or the port name for external
    consumer: str
    producer_comp: Optional[str]
    consumer_comp: Optional[str]


@dataclass
class DependencyGraph:
    """The edges and their nodes, with the sites the edges name as the
    extraction resolved them: ``reads`` maps each read-site node
    (``var.x/rd2``) to its site number and data link, and ``channels``
    each channel name to its first channel."""
    nodes: list[str] = field(default_factory=list)
    edges: list[DepEdge] = field(default_factory=list)
    reads: dict[str, tuple[int, str]] = field(default_factory=dict)
    channels: dict[str, Channel] = field(default_factory=dict)


def channels(g: FlowGraph) -> list[Channel]:
    """All channels of the net: external port links first (by port name),
    then internal send links (by channel name, then producing component)."""
    net = g.net
    out: list[Channel] = []
    for name in sorted(net.ports):
        port = net.ports[name]
        ln = net.links[port.link]
        if port.dir == "in":
            if ln.dst is None:
                continue
            out.append(Channel(name, ln.id, name, ln.dst[0], None, ln.dst[0]))
        else:
            if ln.src is None:
                continue
            out.append(Channel(name, ln.id, ln.src[0], name, ln.src[0], None))
    internal: list[Channel] = []
    for cid in sorted(net.components):
        comp = net.components[cid]
        chan = comp.param("channel") if comp.kind is Kind.FORK else None
        if chan is not None:
            data = g.out_of.get((cid, 0))
            if data is None or data.dst is None:
                continue
            internal.append(Channel(chan, data.id,
                                    cid, data.dst[0], cid, data.dst[0]))
    internal.sort(key=lambda ch: (ch.name, ch.producer))
    return out + internal


def extract_variable_constraints(g: FlowGraph, deps: DependencyGraph
                                 ) -> None:
    """Adds the WAR and RAW edges of every Variable, and its read sites, to
    ``deps``.  A read orders a write site its data reaches in
    ``g.one_pass``."""
    succ = g.one_pass
    for vid, wsites in g.write_sites.items():
        rsites = g.read_sites[vid]
        for r, (_, rdata) in enumerate(rsites):
            deps.reads[f"{vid}/rd{r}"] = (r, rdata)
            reach = walk(succ, succ[rdata])
            for w, (entry, _, _) in enumerate(wsites):
                if entry in reach:
                    deps.edges.append(DepEdge("WAR", vid, f"{vid}/rd{r}",
                                              f"{vid}/wr{w}"))
        for w in range(len(wsites)):
            for r in range(len(rsites)):
                deps.edges.append(DepEdge("RAW", vid, f"{vid}/wr{w}",
                                          f"{vid}/rd{r}"))


def extract_pac_constraints(g: FlowGraph, deps: DependencyGraph) -> None:
    """Adds the PAC edges of every channel, and the first channel of each
    name, to ``deps``."""
    for ch in channels(g):
        deps.channels.setdefault(ch.name, ch)
        deps.edges.append(DepEdge("PAC", ch.name, ch.producer, ch.consumer))
        if ch.link in walk(g.flow, g.flow[ch.link], stop=ch.link):
            deps.edges.append(DepEdge("PAC", ch.name, ch.consumer,
                                      ch.producer, tag="backward"))


def build(g: FlowGraph) -> DependencyGraph:
    deps = DependencyGraph()
    extract_variable_constraints(g, deps)
    extract_pac_constraints(g, deps)
    deps.edges.sort(key=lambda e: (e.subject, e.kind, e.u, e.v, e.tag))
    deps.nodes = sorted({n for e in deps.edges for n in (e.u, e.v)})
    return deps


def to_dot(dg: DependencyGraph) -> str:
    out = ["digraph deps {", "  rankdir=LR;"]
    for n in dg.nodes:
        out.append(f'  "{dot_escape(n)}";')
    style = {"WAR": "solid", "RAW": "dashed", "PAC": "bold"}
    for e in dg.edges:
        label = e.kind if not e.tag else f"{e.kind}/{e.tag}"
        out.append(f'  "{dot_escape(e.u)}" -> "{dot_escape(e.v)}" '
                   f'[label="{label}" style={style[e.kind]}];')
    out.append("}")
    return "\n".join(out) + "\n"
