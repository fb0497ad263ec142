"""Core intermediate representation for elastic dataflow networks.

A network is a set of components joined by point-to-point links.  Links
carry words of a fixed width (0 is legal and means a pure control token).
Buffers are the only components that store tokens; everything else is
transparent to the handshake.  External ports bind the dangling side of a
link to a named channel of the environment.
"""
from __future__ import annotations

import copy
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import Callable, Iterable, Iterator, Optional


class Kind(str, Enum):
    JOIN = "join"
    FORK = "fork"
    STEER = "steer"
    MERGE = "merge"
    VARIABLE = "variable"
    OPERATOR = "operator"
    INITIAL = "initial"
    BUFFER = "buffer"


# Components counted as combinational logic by the area model; Variable and
# Buffer are the memory side.
LOGIC_KINDS = (
    Kind.JOIN, Kind.FORK, Kind.STEER, Kind.MERGE,
    Kind.OPERATOR, Kind.INITIAL,
)


class IrError(Exception):
    pass


class UnknownLink(IrError):
    pass


class DoubleBuffer(IrError):
    pass


@dataclass
class Component:
    id: str
    kind: Kind
    params: dict = field(default_factory=dict)

    # Port model: ordered input widths and output widths derived from the
    # kind and params.  Port indices are positions in these lists.

    def input_widths(self) -> list[int]:
        widths = _INPUT_WIDTHS.get(self.kind)
        if widths is None:
            raise IrError(f"unhandled kind {self.kind}")
        return widths(self.params)

    def output_widths(self) -> list[int]:
        widths = _OUTPUT_WIDTHS.get(self.kind)
        if widths is None:
            raise IrError(f"unhandled kind {self.kind}")
        return widths(self.params)

    def internal_edges(self) -> list[tuple[int, int]]:
        """Token-flow edges (input port index, output port index) inside the
        component.  Variables relay only write->write-done and per-site
        read-go->read-done; every other kind relays any input to any output."""
        if self.kind is Kind.VARIABLE:
            edges = [(0, 0)]
            for i in range(self.params["reads"]):
                edges.append((1 + i, 1 + i))
            return edges
        n_in, n_out = port_counts(self)
        return [(i, o) for i in range(n_in) for o in range(n_out)]


# Port widths per kind, as functions of the component's params; dict
# dispatch keeps the enum member lookups out of these hot calls.
_INPUT_WIDTHS: dict[Kind, Callable[[dict], list[int]]] = {
    Kind.JOIN: lambda p: list(p["inputs"]),
    Kind.FORK: lambda p: [p["input"]],
    Kind.STEER: lambda p: [p["input"]],
    Kind.MERGE: lambda p: [p["width"]] * p["inputs"],
    Kind.VARIABLE: lambda p: [p["width"]] + [0] * p["reads"],
    Kind.OPERATOR: lambda p: list(p["inputs"]),
    Kind.INITIAL: lambda p: [p.get("width", 0)],
    Kind.BUFFER: lambda p: [p["width"]],
}

_OUTPUT_WIDTHS: dict[Kind, Callable[[dict], list[int]]] = {
    Kind.JOIN: lambda p: [sum(p["inputs"])],
    Kind.FORK: lambda p: list(p["outputs"]),
    Kind.STEER: lambda p: [p["input"] - p["select"]] * p["outputs"],
    Kind.MERGE: lambda p: [p["width"]],
    Kind.VARIABLE: lambda p: [0] + [p["width"]] * p["reads"],
    Kind.OPERATOR: lambda p: [p["out"]],
    Kind.INITIAL: lambda p: [p.get("width", 0)],
    Kind.BUFFER: lambda p: [p["width"]],
}

# Port counts per kind: the lengths of the width lists above, read straight
# from the params so that no list is built (a list repeated a negative
# number of times is empty).
_PORT_COUNTS: dict[Kind, Callable[[dict], tuple[int, int]]] = {
    Kind.JOIN: lambda p: (len(p["inputs"]), 1),
    Kind.FORK: lambda p: (1, len(p["outputs"])),
    Kind.STEER: lambda p: (1, max(p["outputs"], 0)),
    Kind.MERGE: lambda p: (max(p["inputs"], 0), 1),
    Kind.VARIABLE: lambda p: (1 + max(p["reads"], 0), 1 + max(p["reads"], 0)),
    Kind.OPERATOR: lambda p: (len(p["inputs"]), 1),
    Kind.INITIAL: lambda p: (1, 1),
    Kind.BUFFER: lambda p: (1, 1),
}


def port_counts(comp: Component) -> tuple[int, int]:
    """(input ports, output ports) of ``comp``: the lengths of its
    input_widths() and output_widths(), without building either list."""
    counts = _PORT_COUNTS.get(comp.kind)
    if counts is None:
        raise IrError(f"unhandled kind {comp.kind}")
    return counts(comp.params)


@dataclass
class Link:
    id: str
    width: int
    src: Optional[tuple[str, int]]  # (component id, output port index); None = environment
    dst: Optional[tuple[str, int]]  # (component id, input port index); None = environment


@dataclass
class Port:
    name: str
    dir: str  # "in" | "out"
    width: int
    link: str


def _copy_value(value):
    """A JSON-like value with its dicts and lists rebuilt (see Network.copy)."""
    kind = type(value)
    if kind is str or kind is int:
        return value
    if kind is dict:
        return {k: _copy_value(v) for k, v in value.items()}
    if kind is list:
        return [_copy_value(v) for v in value]
    return copy.deepcopy(value)


@dataclass
class Network:
    name: str
    components: dict[str, Component] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    ports: dict[str, Port] = field(default_factory=dict)

    def copy(self) -> "Network":
        """Structural copy: fresh Component, Link and Port objects.  Params
        are copied by a walk over their JSON values: dicts and lists are
        rebuilt, str and int leaves shared, and any other value goes to
        ``copy.deepcopy``, so a tuple is copied as before.  Unlike a
        deepcopy of the whole dict, a list held twice becomes two lists.
        Endpoint tuples are immutable and shared."""
        return Network(
            self.name,
            {cid: Component(c.id, c.kind, _copy_value(c.params))
             for cid, c in self.components.items()},
            {lid: Link(ln.id, ln.width, ln.src, ln.dst)
             for lid, ln in self.links.items()},
            {name: Port(p.name, p.dir, p.width, p.link)
             for name, p in self.ports.items()})

    def buffer_count(self) -> int:
        return sum(1 for c in self.components.values() if c.kind is Kind.BUFFER)

    def link_into(self, comp_id: str, port: int) -> Optional[Link]:
        for ln in self.links.values():
            if ln.dst == (comp_id, port):
                return ln
        return None

    def link_out_of(self, comp_id: str, port: int) -> Optional[Link]:
        for ln in self.links.values():
            if ln.src == (comp_id, port):
                return ln
        return None


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.message}"


def _param_problems(comp: Component) -> list[tuple[str, str]]:
    """(code, message) for each per-kind parameter problem of ``comp``.
    Params too malformed to check raise KeyError, TypeError, ValueError or
    AttributeError, which ``validate`` reports as one bad-params."""
    out: list[tuple[str, str]] = []
    ins, outs = comp.input_widths(), comp.output_widths()
    n_in, n_out = len(ins), len(outs)
    k, p = comp.kind, comp.params
    if k is Kind.JOIN and n_in < 2:
        out.append(("arity", "join needs at least 2 inputs"))
    if k is Kind.FORK:
        if n_out < 2:
            out.append(("arity", "fork needs at least 2 outputs"))
        for i, w in enumerate(p["outputs"]):
            if w > p["input"]:
                out.append(("width", f"fork output {i} wider than input"))
    if k is Kind.STEER:
        if n_out < 2:
            out.append(("arity", "steer needs at least 2 outputs"))
        if p["select"] < 0 or p["select"] > p["input"]:
            out.append(("width", "steer select field outside input word"))
        for val, target in p["table"].items():
            if not (0 <= int(target) < n_out):
                out.append(("bad-params", f"steer table entry {val} targets "
                                          f"missing output {target}"))
    if k is Kind.MERGE and n_in < 2:
        out.append(("arity", "merge needs at least 2 inputs"))
    if k is Kind.OPERATOR and n_in < 1:
        out.append(("arity", "operator needs at least 1 input"))
    # Optional params read by the simulator, the bound and the planners.
    if k in (Kind.OPERATOR, Kind.INITIAL) and not isinstance(
            p.get("value", 0), int):
        out.append(("bad-params", f"{k.value} value must be an integer"))
    if k is Kind.OPERATOR and not isinstance(p.get("delay_class", ""), str):
        out.append(("bad-params", "operator delay_class must be a string"))
    if k is Kind.MERGE and not isinstance(p.get("loop", 0), int):
        out.append(("bad-params", "merge loop must be an input port number"))
    if k is Kind.FORK and not isinstance(p.get("channel", ""), str):
        out.append(("bad-params", "fork channel must be a string"))
    if k is Kind.VARIABLE and p["reads"] < 1:
        out.append(("arity", "variable needs at least 1 read port"))
    if k is Kind.BUFFER and p.get("capacity", 1) < 1:
        out.append(("bad-params", "buffer capacity must be >= 1"))
    for w in ins + outs:
        if w < 0:
            out.append(("width", "negative port width"))
    return out


def validate(net: Network) -> list[Diagnostic]:
    """Structural checks. Returns an empty list for a well-formed network."""
    diags: list[Diagnostic] = []

    def err(code: str, subject: str, msg: str) -> None:
        diags.append(Diagnostic(code, subject, msg))

    # Kind-level parameter sanity first; port bookkeeping assumes it.
    comps_ok: dict[str, Component] = {}
    for cid, comp in net.components.items():
        if cid != comp.id:
            err("id-mismatch", cid, "component table key differs from component id")
        try:
            # Every port needs a link of its own, so a port count above the
            # net's link count cannot be valid; it is checked before any
            # width list of that length is built.
            n_in, n_out = port_counts(comp)
            if max(n_in, n_out) > len(net.links):
                err("connectivity", cid,
                    f"{n_in} input and {n_out} output ports, but the net "
                    f"has {len(net.links)} links")
                continue
            problems = _param_problems(comp)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            err("bad-params", cid, f"missing or malformed params for {comp.kind.value}: {exc}")
            continue
        for code, msg in problems:
            err(code, cid, msg)
        comps_ok[cid] = comp

    # Link endpoint resolution and per-port occupancy.
    in_bound: dict[tuple[str, int], list[str]] = {}
    out_bound: dict[tuple[str, int], list[str]] = {}
    for lid, ln in net.links.items():
        if lid != ln.id:
            err("id-mismatch", lid, "link table key differs from link id")
        for side, ep in (("src", ln.src), ("dst", ln.dst)):
            if ep is None:
                continue
            cid, pidx = ep
            comp = comps_ok.get(cid)
            if comp is None:
                err("dangling", lid, f"{side} references missing component {cid}")
                continue
            widths = comp.output_widths() if side == "src" else comp.input_widths()
            if not (0 <= pidx < len(widths)):
                err("dangling", lid, f"{side} port {pidx} out of range for {cid}")
                continue
            if widths[pidx] != ln.width:
                err("width", lid,
                    f"link width {ln.width} != {side} port width {widths[pidx]} on {cid}")
            table = out_bound if side == "src" else in_bound
            table.setdefault((cid, pidx), []).append(lid)
        if ln.src is not None and ln.dst is not None:
            sc = comps_ok.get(ln.src[0])
            dc = comps_ok.get(ln.dst[0])
            if sc is not None and dc is not None:
                if sc.kind is Kind.BUFFER and dc.kind is Kind.BUFFER:
                    err("double-buffer", lid, "two buffers adjacent on one link position")

    for cid, comp in comps_ok.items():
        n_in, n_out = port_counts(comp)
        for pidx in range(n_in):
            n = len(in_bound.get((cid, pidx), []))
            if n != 1:
                err("connectivity", cid, f"input port {pidx} bound by {n} links (need 1)")
        for pidx in range(n_out):
            n = len(out_bound.get((cid, pidx), []))
            if n != 1:
                err("connectivity", cid, f"output port {pidx} bound by {n} links (need 1)")

    # External ports claim every dangling endpoint exactly once.
    claimed_src: dict[str, str] = {}
    claimed_dst: dict[str, str] = {}
    for name, port in net.ports.items():
        if name != port.name:
            err("id-mismatch", name, "port table key differs from port name")
        if port.dir not in ("in", "out"):
            err("bad-params", name, f"port dir {port.dir!r} not in/out")
            continue
        ln = net.links.get(port.link)
        if ln is None:
            err("dangling", name, f"port references missing link {port.link}")
            continue
        if ln.width != port.width:
            err("width", name, f"port width {port.width} != link width {ln.width}")
        if port.dir == "in":
            if ln.src is not None:
                err("connectivity", name, "input port bound to a driven link")
            elif port.link in claimed_src:
                err("connectivity", name, f"link {port.link} claimed by two input ports")
            else:
                claimed_src[port.link] = name
        else:
            if ln.dst is not None:
                err("connectivity", name, "output port bound to a consumed link")
            elif port.link in claimed_dst:
                err("connectivity", name, f"link {port.link} claimed by two output ports")
            else:
                claimed_dst[port.link] = name
    for lid, ln in net.links.items():
        if ln.src is None and lid not in claimed_src:
            err("dangling", lid, "undriven link not claimed by any input port")
        if ln.dst is None and lid not in claimed_dst:
            err("dangling", lid, "unconsumed link not claimed by any output port")

    return diags


def splice_buffer_in_place(net: Network, link_id: str, capacity: int = 1) -> None:
    """Splice a Buffer into ``link_id`` of ``net`` itself.

    The upstream half keeps the link id; the downstream half gets
    ``<id>.post``.  Splicing a link that already touches a Buffer raises
    DoubleBuffer, which also catches a second splice on the same original
    link position.  Every check runs before the net is changed.
    """
    ln = net.links.get(link_id)
    if ln is None:
        raise UnknownLink(link_id)
    for ep in (ln.src, ln.dst):
        if ep is not None and net.components[ep[0]].kind is Kind.BUFFER:
            raise DoubleBuffer(f"link {link_id} already adjacent to buffer {ep[0]}")
    buf_id = f"buf.{link_id}"
    post_id = f"{link_id}.post"
    if buf_id in net.components or post_id in net.links:
        raise DoubleBuffer(f"link {link_id} was already spliced")
    net.components[buf_id] = Component(
        buf_id, Kind.BUFFER, {"width": ln.width, "capacity": capacity})
    post = Link(post_id, ln.width, src=(buf_id, 0), dst=ln.dst)
    ln.dst = (buf_id, 0)
    net.links[post_id] = post
    # Keep an output port pointing at the tail half of its link.
    for port in net.ports.values():
        if port.link == link_id and port.dir == "out":
            port.link = post_id


def back_edges(roots: Iterable, children: Callable[[object], Iterable[tuple]],
               finished: Optional[list] = None
               ) -> Iterator[tuple[list, object, object]]:
    """Iterative white/grey/black depth-first search.

    Visits ``roots`` in order, skipping any already reached, and each
    node's ``children(node)``, a sequence of ``(edge, target)`` pairs, in
    order; ``children`` is called once per node, when the search first
    reaches it.  Yields ``(path, edge, target)`` for every edge that
    closes into a node on the current search path, in discovery order.
    ``path`` runs from the root to the node the edge leaves; it is the
    live search stack, so copy it before resuming the generator if it
    must be kept.  Every directed cycle reachable from ``roots`` contains
    at least one yielded edge (Tarjan 1972).  Each node is appended to
    ``finished``, when given, as the search leaves it: once the generator
    is exhausted, that list is the post-order of the whole search.
    """
    GREY, BLACK = 1, 2
    color: dict = {}
    for root in roots:
        if root in color:
            continue
        color[root] = GREY
        path = [root]
        stack = [iter(children(root))]
        while stack:
            for edge, target in stack[-1]:
                state = color.get(target)
                if state == GREY:
                    yield path, edge, target
                elif state is None:
                    color[target] = GREY
                    path.append(target)
                    stack.append(iter(children(target)))
                    break
            else:
                node = path.pop()
                color[node] = BLACK
                stack.pop()
                if finished is not None:
                    finished.append(node)


# ---------------------------------------------------------------------------
# The link graph.  The token-flow graph respects each kind's internal relay
# edges (a Variable does not connect its write side to its read side), which
# is what liveness, deadlock and timing analyses need.

class FlowGraph:
    """One net's link graph: links by endpoint and the views derived from
    them, each built once, on first use.

    ``into[(cid, port)]`` is the link feeding that input and
    ``out_of[(cid, port)]`` the link leaving that output; on a doubly bound
    port the first link in table order wins, as with
    ``Network.link_into``/``link_out_of``.  The graph is a snapshot: build
    a new one after the net is mutated.  The views are shared by every
    reader, so a caller that edits one copies it first.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self.into: dict[tuple[str, int], Link] = {}
        self.out_of: dict[tuple[str, int], Link] = {}
        for ln in net.links.values():
            if ln.dst is not None:
                self.into.setdefault(ln.dst, ln)
            if ln.src is not None:
                self.out_of.setdefault(ln.src, ln)

    @cached_property
    def flow(self) -> dict[str, list[str]]:
        """Link id -> sorted ids of the links a token can continue onto."""
        return self._successors(through_buffers=True)

    @cached_property
    def comb(self) -> dict[str, list[str]]:
        """Flow graph for same-cycle signal propagation: Buffers break paths
        and a Variable's stored value breaks write->read, but write-go to
        write-done and read-go to read-done ripple through, as does Initial
        in wire mode."""
        return self._successors(through_buffers=False)

    def _successors(self, through_buffers: bool) -> dict[str, list[str]]:
        """Link id -> sorted ids of the links each component's internal
        edges relay it onto; Buffers relay only when ``through_buffers``."""
        succ: dict[str, list[str]] = {lid: [] for lid in self.net.links}
        for cid, comp in self.net.components.items():
            if not through_buffers and comp.kind is Kind.BUFFER:
                continue
            for i, o in comp.internal_edges():
                a = self.into.get((cid, i))
                b = self.out_of.get((cid, o))
                if a is not None and b is not None:
                    succ[a.id].append(b.id)
        for nxts in succ.values():
            nxts.sort()
        return succ

    @cached_property
    def back_edges(self) -> list[str]:
        """Deterministic DFS over the component graph, blind to kinds.

        Roots: components fed by external input ports, then Initial
        components, then any still-unvisited component, each group in
        ascending id order.  Children follow outgoing links in declared
        port order.  Lists the links that close into an on-stack component;
        every directed cycle of the component graph contains at least one.
        """
        net = self.net
        # (link id, target) per component, in port then link id order.
        outgoing: dict[str, list[tuple[str, str]]] = {
            cid: [] for cid in net.components}
        inner = [ln for ln in net.links.values()
                 if ln.src is not None and ln.dst is not None]
        for ln in sorted(inner, key=lambda ln: (ln.src[1], ln.id)):
            outgoing[ln.src[0]].append((ln.id, ln.dst[0]))
        port_fed = set()
        for port in net.ports.values():
            if port.dir == "in" and net.links[port.link].dst is not None:
                port_fed.add(net.links[port.link].dst[0])
        initials = [c.id for c in net.components.values()
                    if c.kind is Kind.INITIAL]
        roots = sorted(port_fed) + sorted(initials) + sorted(net.components)
        return [lid for _, lid, _ in back_edges(roots, outgoing.__getitem__)]

    @cached_property
    def loop_carry(self) -> set[str]:
        """Links that hand a token to the next traversal of a loop body.

        Two shapes qualify: the input link of every Initial (the outer
        repeat ring closes there) and, for Merges annotated with a ``loop``
        parameter, the input link on that port (a compiled while loop marks
        its body-done feedback this way).  Every other link belongs to a
        single pass.
        """
        out: set[str] = set()
        for cid, comp in self.net.components.items():
            port = None
            if comp.kind is Kind.INITIAL:
                port = 0
            elif comp.kind is Kind.MERGE and "loop" in comp.params:
                port = int(comp.params["loop"])
            if port is None:
                continue
            ln = self.into.get((cid, port))
            if ln is not None:
                out.add(ln.id)
        return out


def reachable_links(succ: dict[str, list[str]], starts: Iterable[str]) -> set[str]:
    """Links reachable in one or more steps from ``starts`` in a successor
    map such as ``FlowGraph.flow``; a start itself only when a path
    returns to it.
    """
    seen: set[str] = set()
    frontier = list(starts)
    while frontier:
        lid = frontier.pop()
        for nxt in succ.get(lid, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def combinational_cycle(graph: FlowGraph) -> Optional[list[str]]:
    """Return one buffer-free combinational cycle as a link list, or None.

    The list starts after the link the search closed into and ends with it.
    """
    succ = graph.comb
    for path, _, target in back_edges(
            sorted(succ), lambda lid: [(nxt, nxt) for nxt in succ[lid]]):
        return path[path.index(target) + 1:] + [target]
    return None
