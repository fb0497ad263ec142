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
from typing import Iterable, NamedTuple, Optional


class Kind(str, Enum):
    JOIN = "join"
    FORK = "fork"
    STEER = "steer"
    MERGE = "merge"
    VARIABLE = "variable"
    OPERATOR = "operator"
    INITIAL = "initial"
    BUFFER = "buffer"
    ARBITER = "arbiter"


# Components counted as combinational logic by the area model; Variable and
# Buffer are the memory side.
LOGIC_KINDS = (
    Kind.JOIN, Kind.FORK, Kind.STEER, Kind.MERGE,
    Kind.OPERATOR, Kind.INITIAL, Kind.ARBITER,
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
        p = self.params
        k = self.kind
        if k is Kind.JOIN:
            return list(p["inputs"])
        if k is Kind.FORK:
            return [p["input"]]
        if k is Kind.STEER:
            return [p["input"]]
        if k is Kind.MERGE or k is Kind.ARBITER:
            return [p["width"]] * p["inputs"]
        if k is Kind.VARIABLE:
            return [p["width"]] + [0] * p["reads"]
        if k is Kind.OPERATOR:
            return list(p["inputs"])
        if k is Kind.INITIAL:
            return [p.get("width", 0)]
        if k is Kind.BUFFER:
            return [p["width"]]
        raise IrError(f"unhandled kind {k}")

    def output_widths(self) -> list[int]:
        p = self.params
        k = self.kind
        if k is Kind.JOIN:
            return [sum(p["inputs"])]
        if k is Kind.FORK:
            return list(p["outputs"])
        if k is Kind.STEER:
            w = p["input"] - p["select"]
            return [w] * p["outputs"]
        if k is Kind.MERGE or k is Kind.ARBITER:
            return [p["width"]]
        if k is Kind.VARIABLE:
            return [0] + [p["width"]] * p["reads"]
        if k is Kind.OPERATOR:
            return [p["out"]]
        if k is Kind.INITIAL:
            return [p.get("width", 0)]
        if k is Kind.BUFFER:
            return [p["width"]]
        raise IrError(f"unhandled kind {k}")

    def internal_edges(self) -> list[tuple[int, int]]:
        """Token-flow edges (input port index, output port index) inside the
        component.  Variables relay only write->write-done and per-site
        read-go->read-done; every other kind relays any input to any output."""
        if self.kind is Kind.VARIABLE:
            edges = [(0, 0)]
            for i in range(self.params["reads"]):
                edges.append((1 + i, 1 + i))
            return edges
        n_in = len(self.input_widths())
        n_out = len(self.output_widths())
        return [(i, o) for i in range(n_in) for o in range(n_out)]


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


@dataclass
class Network:
    name: str
    components: dict[str, Component] = field(default_factory=dict)
    links: dict[str, Link] = field(default_factory=dict)
    ports: dict[str, Port] = field(default_factory=dict)

    def copy(self) -> "Network":
        """Structural copy: fresh Component, Link and Port objects, with
        params deep-copied; endpoint tuples are immutable and shared."""
        return Network(
            self.name,
            {cid: Component(c.id, c.kind, copy.deepcopy(c.params))
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


class Endpoints(NamedTuple):
    """Links by the component port they attach to: ``into[(cid, port)]`` is
    the link feeding that input, ``out_of[(cid, port)]`` the link leaving
    that output."""
    into: dict[tuple[str, int], Link]
    out_of: dict[tuple[str, int], Link]


def endpoints(net: Network) -> Endpoints:
    """Index every link by its endpoints in one pass over the links.

    Agrees with ``Network.link_into``/``link_out_of``, first link in table
    order on a doubly bound port included.  The index is a snapshot: build
    a new one after the net is mutated.
    """
    into: dict[tuple[str, int], Link] = {}
    out_of: dict[tuple[str, int], Link] = {}
    for ln in net.links.values():
        if ln.dst is not None:
            into.setdefault(ln.dst, ln)
        if ln.src is not None:
            out_of.setdefault(ln.src, ln)
    return Endpoints(into, out_of)


@dataclass(frozen=True)
class Diagnostic:
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.message}"


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
            n_in = len(comp.input_widths())
            n_out = len(comp.output_widths())
        except (KeyError, TypeError) as exc:
            err("bad-params", cid, f"missing or malformed params for {comp.kind.value}: {exc}")
            continue
        k, p = comp.kind, comp.params
        if k is Kind.JOIN and n_in < 2:
            err("arity", cid, "join needs at least 2 inputs")
        if k is Kind.FORK:
            if n_out < 2:
                err("arity", cid, "fork needs at least 2 outputs")
            for i, w in enumerate(p["outputs"]):
                if w > p["input"]:
                    err("width", cid, f"fork output {i} wider than input")
        if k is Kind.STEER:
            if n_out < 2:
                err("arity", cid, "steer needs at least 2 outputs")
            if p["select"] < 0 or p["select"] > p["input"]:
                err("width", cid, "steer select field outside input word")
            for val, out in p["table"].items():
                if not (0 <= int(out) < n_out):
                    err("bad-params", cid, f"steer table entry {val} targets missing output {out}")
        if k in (Kind.MERGE, Kind.ARBITER) and n_in < 2:
            err("arity", cid, f"{k.value} needs at least 2 inputs")
        if k is Kind.OPERATOR and n_in < 1:
            err("arity", cid, "operator needs at least 1 input")
        if k is Kind.VARIABLE and p["reads"] < 1:
            err("arity", cid, "variable needs at least 1 read port")
        if k is Kind.BUFFER and p.get("capacity", 1) < 1:
            err("bad-params", cid, "buffer capacity must be >= 1")
        for w in comp.input_widths() + comp.output_widths():
            if w < 0:
                err("width", cid, "negative port width")
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
        for pidx in range(len(comp.input_widths())):
            n = len(in_bound.get((cid, pidx), []))
            if n != 1:
                err("connectivity", cid, f"input port {pidx} bound by {n} links (need 1)")
        for pidx in range(len(comp.output_widths())):
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


def splice_buffer(net: Network, link_id: str, capacity: int = 1) -> Network:
    """Return a new network with a Buffer spliced into ``link_id``; ``net``
    itself is left untouched.  See ``splice_buffer_in_place``."""
    out = net.copy()
    splice_buffer_in_place(out, link_id, capacity)
    return out


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


def find_back_edges(net: Network) -> list[str]:
    """Deterministic DFS over the component graph, blind to component kinds.

    Roots: components fed by external input ports, then Initial components,
    then any still-unvisited component, each group in ascending id order.
    Children follow outgoing links in declared port order.  Returns the links
    that close into an on-stack component; every directed cycle of the
    component graph contains at least one returned link.
    """
    # (output port, link id, target) per component, in port then id order.
    outgoing: dict[str, list[tuple[int, str, str]]] = {cid: [] for cid in net.components}
    for ln in net.links.values():
        if ln.src is not None and ln.dst is not None:
            outgoing[ln.src[0]].append((ln.src[1], ln.id, ln.dst[0]))
    for edges in outgoing.values():
        edges.sort()

    roots: list[str] = []
    seen_root = set()
    port_fed = set()
    for name in sorted(net.ports):
        port = net.ports[name]
        if port.dir == "in":
            ln = net.links[port.link]
            if ln.dst is not None:
                port_fed.add(ln.dst[0])
    for group in (
        sorted(port_fed),
        sorted(c.id for c in net.components.values() if c.kind is Kind.INITIAL),
        sorted(net.components),
    ):
        for cid in group:
            if cid not in seen_root:
                seen_root.add(cid)
                roots.append(cid)

    WHITE, GREY, BLACK = 0, 1, 2
    color = {cid: WHITE for cid in net.components}
    back: list[str] = []
    for root in roots:
        if color[root] != WHITE:
            continue
        stack: list[tuple[str, int]] = [(root, 0)]
        color[root] = GREY
        while stack:
            cid, idx = stack[-1]
            if idx < len(outgoing[cid]):
                stack[-1] = (cid, idx + 1)
                _, lid, target = outgoing[cid][idx]
                if color[target] == GREY:
                    back.append(lid)
                elif color[target] == WHITE:
                    color[target] = GREY
                    stack.append((target, 0))
            else:
                color[cid] = BLACK
                stack.pop()
    return back


# ---------------------------------------------------------------------------
# Port-level flow graph helpers.  The token-flow graph respects each kind's
# internal relay edges (a Variable does not connect its write side to its
# read side), which is what liveness, deadlock and timing analyses need.

def loop_carry_links(net: Network) -> set[str]:
    """Links that hand a token to the next traversal of a loop body.

    Two shapes qualify: the input link of every Initial (the outer repeat
    ring closes there) and, for Merges annotated with a ``loop`` parameter,
    the input link on that port (a compiled while loop marks its body-done
    feedback this way).  Every other link belongs to a single pass.
    """
    into = endpoints(net).into
    out: set[str] = set()
    for cid, comp in net.components.items():
        port = None
        if comp.kind is Kind.INITIAL:
            port = 0
        elif comp.kind is Kind.MERGE and "loop" in comp.params:
            port = int(comp.params["loop"])
        if port is None:
            continue
        ln = into.get((cid, port))
        if ln is not None:
            out.add(ln.id)
    return out


def flow_successors(net: Network) -> dict[str, list[str]]:
    """Map each link id to the link ids a token can continue onto."""
    return _successors(net, through_buffers=True)


def _successors(net: Network, through_buffers: bool) -> dict[str, list[str]]:
    """Link id -> sorted ids of the links each component's internal edges
    relay it onto; Buffers relay only when ``through_buffers``."""
    ends = endpoints(net)
    succ: dict[str, list[str]] = {lid: [] for lid in net.links}
    for cid, comp in net.components.items():
        if not through_buffers and comp.kind is Kind.BUFFER:
            continue
        for i, o in comp.internal_edges():
            a = ends.into.get((cid, i))
            b = ends.out_of.get((cid, o))
            if a is not None and b is not None:
                succ[a.id].append(b.id)
    for lid in succ:
        succ[lid].sort()
    return succ


def token_cycle_free(net: Network, removed: Iterable[str] = ()) -> bool:
    """True when every token-flow cycle is cut by a Buffer or a ``removed`` link.

    Buffers are where tokens may rest, so a cycle that passes through one is
    live; the toposort therefore drops Buffer relays and checks the rest.
    """
    removed = set(removed)
    succ = combinational_successors(net)
    indeg = {lid: 0 for lid in succ if lid not in removed}
    for lid, nxts in succ.items():
        if lid in removed:
            continue
        for nxt in nxts:
            if nxt not in removed:
                indeg[nxt] += 1
    queue = [lid for lid, d in sorted(indeg.items()) if d == 0]
    done = 0
    while queue:
        lid = queue.pop()
        done += 1
        for nxt in succ[lid]:
            if nxt in removed:
                continue
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return done == len(indeg)


def reachable_links(succ: dict[str, list[str]], start: str) -> set[str]:
    """Links reachable from ``start`` in a successor map such as
    ``flow_successors(net)``; ``start`` itself only when a cycle returns to it.
    """
    seen: set[str] = set()
    frontier = [start]
    while frontier:
        lid = frontier.pop()
        for nxt in succ.get(lid, ()):
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def combinational_successors(net: Network) -> dict[str, list[str]]:
    """Flow graph for same-cycle signal propagation: Buffers break paths and
    a Variable's stored value breaks write->read, but write-go to write-done
    and read-go to read-done ripple through, as does Initial in wire mode."""
    return _successors(net, through_buffers=False)


def combinational_cycle(net: Network) -> Optional[list[str]]:
    """Return one buffer-free combinational cycle as a link list, or None."""
    succ = combinational_successors(net)
    WHITE, GREY, BLACK = 0, 1, 2
    color = {lid: WHITE for lid in succ}
    parent: dict[str, str] = {}
    for root in sorted(succ):
        if color[root] != WHITE:
            continue
        stack = [(root, iter(succ[root]))]
        color[root] = GREY
        while stack:
            lid, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == GREY:
                    cycle = [nxt, lid]
                    cur = lid
                    while cur != nxt:
                        cur = parent[cur]
                        cycle.append(cur)
                    cycle.pop()
                    cycle.reverse()
                    return cycle
                if color[nxt] == WHITE:
                    color[nxt] = GREY
                    parent[nxt] = lid
                    stack.append((nxt, iter(succ[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[lid] = BLACK
                stack.pop()
    return None
