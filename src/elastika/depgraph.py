"""Data-dependency constraints over a compiled network.

Three constraint kinds are extracted:

* WAR (write after read): on a shared variable, a write site that can be
  reached from a read site within one traversal of the enclosing loop body
  must not overtake the read.  Reachability is computed on the token-flow
  graph with back-edge links removed, so constraints across iterations are
  carried by the loop structure instead of being duplicated here.
* RAW (read after write): every (write site, read site) pair of a variable;
  the stored value couples all writes to all reads regardless of which loop
  iteration performs them.
* PAC (produce after consume): every channel couples its producer to its
  consumer; when the flow graph loops from the consumer back to the
  producer, a second edge tagged ``backward`` records that the producer
  must also wait for the consume before producing again.

The graph is independent of buffer placement: Buffers relay tokens
transparently, so adding them changes neither site resolution nor
reachability.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .ir import FlowGraph, Kind, reachable_links


@dataclass(frozen=True)
class DepEdge:
    kind: str     # "WAR" | "RAW" | "PAC"
    subject: str  # variable component id, or channel/port name
    u: str        # source node: the side that is read / consumed first
    v: str        # destination node: the writer / producer being delayed
    tag: str = ""  # "" or "backward"

    def __str__(self) -> str:
        suffix = f" [{self.tag}]" if self.tag else ""
        return f"{self.kind} {self.subject}: {self.u} -> {self.v}{suffix}"


@dataclass
class DependencyGraph:
    nodes: list[str] = field(default_factory=list)
    edges: list[DepEdge] = field(default_factory=list)


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


def _write_funnel(g: FlowGraph, comp_id: str
                  ) -> Optional[list[tuple[str, str, str]]]:
    """(entry, tag entry, done) link triples when the Variable's write port
    is fed through a multi-site funnel, else None.

    The funnel shape is a Merge into the write port, the write-done into
    port 0 of a two-input Join whose other port takes a site tag through a
    second Merge, and a Steer on the joined pair with one done per site.
    Recognition is by shape, not by component naming.
    """
    net = g.net
    wg = g.into.get((comp_id, 0))
    wd = g.out_of.get((comp_id, 0))
    if wg is None or wd is None or wg.src is None or wd.dst is None:
        return None
    m = net.components[wg.src[0]]
    j = net.components[wd.dst[0]]
    if not (m.kind is Kind.MERGE and j.kind is Kind.JOIN
            and wd.dst[1] == 0 and len(j.input_widths()) == 2):
        return None
    jout = g.out_of.get((j.id, 0))
    tagin = g.into.get((j.id, 1))
    if jout is None or jout.dst is None or tagin is None or tagin.src is None:
        return None
    s = net.components[jout.dst[0]]
    t = net.components[tagin.src[0]]
    if not (s.kind is Kind.STEER and t.kind is Kind.MERGE
            and len(s.output_widths()) == m.params["inputs"]
            and t.params["inputs"] == m.params["inputs"]):
        return None
    sites = []
    for i in range(m.params["inputs"]):
        entry = g.into.get((m.id, i))
        tag = g.into.get((t.id, i))
        done = g.out_of.get((s.id, i))
        if entry is None or tag is None or done is None:
            return None
        sites.append((entry.id, tag.id, done.id))
    return sites


def variable_write_sites(g: FlowGraph, comp_id: str
                         ) -> list[tuple[str, str]]:
    """(entry link, done link) per write site of a Variable, in site order.

    A variable with one write site is driven directly; several sites are
    funnelled through a Merge, with completion routed back per site by a
    tag/Join/Steer loop on the write-done.
    """
    funnel = _write_funnel(g, comp_id)
    if funnel is not None:
        return [(entry, done) for entry, _, done in funnel]
    wg = g.into.get((comp_id, 0))
    wd = g.out_of.get((comp_id, 0))
    if wg is None or wd is None:
        return []
    return [(wg.id, wd.id)]


def variable_read_sites(g: FlowGraph, comp_id: str
                        ) -> list[tuple[str, str]]:
    """(go link, data link) per read site of a Variable, in site order."""
    comp = g.net.components[comp_id]
    sites = []
    for i in range(comp.params["reads"]):
        go = g.into.get((comp_id, 1 + i))
        data = g.out_of.get((comp_id, 1 + i))
        if go is None or data is None:
            return []
        sites.append((go.id, data.id))
    return sites


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
        if comp.kind is Kind.FORK and "channel" in comp.params:
            data = g.out_of.get((cid, 0))
            if data is None or data.dst is None:
                continue
            internal.append(Channel(comp.params["channel"], data.id,
                                    cid, data.dst[0], cid, data.dst[0]))
    internal.sort(key=lambda ch: (ch.name, ch.producer))
    return out + internal


def _same_pass_successors(g: FlowGraph) -> dict[str, list[str]]:
    """Flow successors restricted to one traversal of each loop body.

    Loop-carry links are dropped, and every multi-site write funnel is made
    opaque: entering at site i continues at site i's done, never at another
    site's, which the kind-blind Steer relay would otherwise allow.
    """
    succ = dict(g.flow)
    for lid in g.loop_carry:
        succ[lid] = []
    for vid in sorted(g.net.components):
        if g.net.components[vid].kind is not Kind.VARIABLE:
            continue
        funnel = _write_funnel(g, vid)
        if funnel is not None:
            for entry, tag, done in funnel:
                succ[entry] = [done]
                succ[tag] = [done]
    return succ


def extract_variable_constraints(g: FlowGraph) -> list[DepEdge]:
    edges: list[DepEdge] = []
    succ = _same_pass_successors(g)
    for vid in sorted(g.net.components):
        comp = g.net.components[vid]
        if comp.kind is not Kind.VARIABLE:
            continue
        wsites = variable_write_sites(g, vid)
        rsites = variable_read_sites(g, vid)
        for r, (_, rdata) in enumerate(rsites):
            reach = reachable_links(succ, [rdata])
            for w, (entry, _) in enumerate(wsites):
                if entry in reach:
                    edges.append(DepEdge("WAR", vid, f"{vid}/rd{r}",
                                         f"{vid}/wr{w}"))
        for w in range(len(wsites)):
            for r in range(len(rsites)):
                edges.append(DepEdge("RAW", vid, f"{vid}/wr{w}",
                                     f"{vid}/rd{r}"))
    return edges


def extract_pac_constraints(g: FlowGraph) -> list[DepEdge]:
    edges: list[DepEdge] = []
    succ = g.flow
    for ch in channels(g):
        edges.append(DepEdge("PAC", ch.name, ch.producer, ch.consumer))
        if ch.link in reachable_links(succ, [ch.link]):
            edges.append(DepEdge("PAC", ch.name, ch.consumer, ch.producer,
                                 tag="backward"))
    return edges


def build(g: FlowGraph) -> DependencyGraph:
    edges = extract_variable_constraints(g) + extract_pac_constraints(g)
    edges.sort(key=lambda e: (e.subject, e.kind, e.u, e.v, e.tag))
    nodes = sorted({n for e in edges for n in (e.u, e.v)})
    return DependencyGraph(nodes, edges)


def to_dot(dg: DependencyGraph) -> str:
    out = ["digraph deps {", "  rankdir=LR;"]
    for n in dg.nodes:
        out.append(f'  "{n}";')
    style = {"WAR": "solid", "RAW": "dashed", "PAC": "bold"}
    for e in dg.edges:
        label = e.kind if not e.tag else f"{e.kind}/{e.tag}"
        out.append(f'  "{e.u}" -> "{e.v}" '
                   f'[label="{label}" style={style[e.kind]}];')
    out.append("}")
    return "\n".join(out) + "\n"
