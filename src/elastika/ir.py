"""Core intermediate representation for elastic dataflow networks.

A network is a set of components joined by point-to-point links.  Links
carry words of a fixed width (0 is legal and means a pure control token).
Buffers are the only components that store tokens; everything else is
transparent to the handshake.  External ports bind the dangling side of a
link to a named channel of the environment.
"""
from __future__ import annotations

import copy
import itertools
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import (Callable, Container, Iterable, Iterator, NamedTuple,
                    Optional)


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


# The widest port or link, the source language's cap on a declared width.
MAX_WIDTH = 512

# The functions an Operator may compute: `validate` refuses any other `fn`,
# and the simulator resolves each of these once per Operator.
OPERATOR_FNS = ("const", "id", "neg", "not", "add", "sub", "mul", "and",
                "or", "xor", "eq", "ne", "lt", "gt", "le", "ge", "shl",
                "shr")


class IrError(Exception):
    pass


class UnknownLink(IrError):
    pass


class DoubleBuffer(IrError):
    pass


@dataclass
class Component:
    """One node of the net: its kind and the params that size its ports."""
    id: str
    kind: Kind
    params: dict = field(default_factory=dict)

    # Port model: ordered input widths and output widths derived from the
    # kind and params.  Port indices are positions in these lists.

    def input_widths(self) -> list[int]:
        widths = _INPUT_WIDTHS.get(self.kind)
        if widths is None:
            raise IrError(f"unhandled kind {self.kind}")
        return widths(self)

    def output_widths(self) -> list[int]:
        widths = _OUTPUT_WIDTHS.get(self.kind)
        if widths is None:
            raise IrError(f"unhandled kind {self.kind}")
        return widths(self)

    def param(self, name: str):
        """The param ``name``, or the default its kind declares in
        ``PARAMS`` (None for an optional param with no default)."""
        return self.params.get(name, PARAMS[self.kind][name].default)


# Port widths per kind, as functions of the component; dict dispatch keeps
# the enum member lookups out of these hot calls.
_INPUT_WIDTHS: dict[Kind, Callable[[Component], list[int]]] = {
    Kind.JOIN: lambda c: list(c.params["inputs"]),
    Kind.FORK: lambda c: [c.params["input"]],
    Kind.STEER: lambda c: [c.params["input"]],
    Kind.MERGE: lambda c: [c.params["width"]] * c.params["inputs"],
    Kind.VARIABLE: lambda c: [c.params["width"]] + [0] * c.params["reads"],
    Kind.OPERATOR: lambda c: list(c.params["inputs"]),
    Kind.INITIAL: lambda c: [c.param("width")],
    Kind.BUFFER: lambda c: [c.params["width"]],
}

_OUTPUT_WIDTHS: dict[Kind, Callable[[Component], list[int]]] = {
    Kind.JOIN: lambda c: [sum(c.params["inputs"])],
    Kind.FORK: lambda c: list(c.params["outputs"]),
    Kind.STEER: lambda c: ([c.params["input"] - c.params["select"]]
                           * c.params["outputs"]),
    Kind.MERGE: lambda c: [c.params["width"]],
    Kind.VARIABLE: lambda c: [0] + [c.params["width"]] * c.params["reads"],
    Kind.OPERATOR: lambda c: [c.params["out"]],
    Kind.INITIAL: lambda c: [c.param("width")],
    Kind.BUFFER: lambda c: [c.params["width"]],
}

# Port counts per kind: the lengths of the width lists above, read straight
# from the params so that no list is built (a list repeated a negative
# number of times is empty).
_PORT_COUNTS: dict[Kind, Callable[[Component], tuple[int, int]]] = {
    Kind.JOIN: lambda c: (len(c.params["inputs"]), 1),
    Kind.FORK: lambda c: (1, len(c.params["outputs"])),
    Kind.STEER: lambda c: (1, max(c.params["outputs"], 0)),
    Kind.MERGE: lambda c: (max(c.params["inputs"], 0), 1),
    Kind.VARIABLE: lambda c: (1 + max(c.params["reads"], 0),
                              1 + max(c.params["reads"], 0)),
    Kind.OPERATOR: lambda c: (len(c.params["inputs"]), 1),
    Kind.INITIAL: lambda c: (1, 1),
    Kind.BUFFER: lambda c: (1, 1),
}


def port_counts(comp: Component) -> tuple[int, int]:
    """(input ports, output ports) of ``comp``: the lengths of its
    input_widths() and output_widths(), without building either list."""
    counts = _PORT_COUNTS.get(comp.kind)
    if counts is None:
        raise IrError(f"unhandled kind {comp.kind}")
    return counts(comp)


@dataclass
class Link:
    """A wire from an output port to an input port."""
    id: str
    width: int
    src: Optional[tuple[str, int]]  # (component id, output port index); None = environment
    dst: Optional[tuple[str, int]]  # (component id, input port index); None = environment


@dataclass
class Port:
    """A port of the net, bound to the link it feeds or drains."""
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
    """An elastic net: components, links and ports, each by id."""
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


@dataclass(frozen=True)
class Diagnostic:
    """One problem ``validate`` found, with a stable code."""
    code: str
    subject: str
    message: str

    def __str__(self) -> str:
        return f"{self.code}: {self.subject}: {self.message}"


# ---------------------------------------------------------------------------
# Component params, declared once per kind in ``PARAMS``.  ``validate``
# checks every component against it before anything else reads its params,
# ``wiring`` does so for a net nobody validated, and every reader takes
# an absent param's default from it through ``Component.param``.

REQUIRED = object()   # the default of a param that must be present


class Param(NamedTuple):
    """One param type: its wording in README, a test of a value, the
    message for a value that fails it, and the default.  The test is
    called as (value, component) and may read the params declared before
    its own; the message as (value, component, name)."""
    text: str
    ok: Callable[[object, Component], bool]
    why: Callable[[object, Component, str], str]
    default: object = REQUIRED

    def optional(self, default=None) -> "Param":
        """This type with a default; None means that absence means unset."""
        return self._replace(default=default)


def _nat(v) -> bool:
    return type(v) is int and v >= 0


def _must(text: str, ok: Callable[[object, Component], bool]) -> Param:
    """A type whose one message says that a value must be ``text``."""
    return Param(text, ok, lambda v, comp, name:
                 f"{comp.kind.value} {name} must be {text}")


def _word(width: str) -> Param:
    """An int offered as it is on the output whose width is the param
    ``width``, so it must fit there."""
    def why(v, comp: Component, name: str) -> str:
        if type(v) is not int:
            return f"{comp.kind.value} {name} must be an integer"
        return (f"{comp.kind.value} {name} does not fit its "
                f"{comp.param(width)}-bit output")
    return Param(f"an integer 0 .. 2^`{width}` - 1",
                 lambda v, comp: type(v) is int and v >= 0
                 and v.bit_length() <= comp.param(width), why)


# A Steer routes a select value by the key written as its decimal digits;
# no select field is wider than MAX_WIDTH bits, so no key has more digits.
_DECIMAL = re.compile(f"0|[1-9][0-9]{{0,{len(str(1 << MAX_WIDTH)) - 1}}}")


def _routes_ok(v, comp: Component) -> bool:
    n_out = port_counts(comp)[1]
    return type(v) is dict and all(
        type(key) is str and _DECIMAL.fullmatch(key) is not None
        and type(t) is int and 0 <= t < n_out for key, t in v.items())


def _routes_why(v, comp: Component, name: str) -> str:
    if type(v) is not dict or not all(
            type(key) is str and _DECIMAL.fullmatch(key) for key in v):
        return f"{comp.kind.value} {name} must be {ROUTES.text}"
    n_out = port_counts(comp)[1]
    return next(f"steer table entry {key} targets missing output {t!r}"
                for key, t in v.items() if not (_nat(t) and t < n_out))


NAT = _must("an integer >= 0", lambda v, comp: type(v) is int and v >= 0)
POSITIVE = _must("an integer >= 1", lambda v, comp: type(v) is int and v >= 1)
WIDTHS = _must("a list of integers >= 0",
               lambda v, comp: type(v) is list and all(map(_nat, v)))
STRING = _must("a string", lambda v, comp: type(v) is str)
INPUT_PORT = _must("an input port number", lambda v, comp:
                   type(v) is int and 0 <= v < port_counts(comp)[0])
FUNCTION = Param("one of `ir.OPERATOR_FNS`",
                 lambda v, comp: type(v) is str and v in OPERATOR_FNS,
                 lambda v, comp, name: f"unknown operator function {v!r}")
ROUTES = Param("a map from decimal strings to output ports", _routes_ok,
               _routes_why)

PARAMS: dict[Kind, dict[str, Param]] = {
    Kind.JOIN: {"inputs": WIDTHS, "channel": STRING.optional()},
    Kind.FORK: {"input": NAT, "outputs": WIDTHS, "channel": STRING.optional()},
    Kind.STEER: {"input": NAT, "select": NAT, "outputs": NAT, "table": ROUTES},
    Kind.MERGE: {"width": NAT, "inputs": NAT, "loop": INPUT_PORT.optional()},
    Kind.VARIABLE: {"width": NAT, "reads": NAT,
                    "init": _word("width").optional(0)},
    Kind.OPERATOR: {"fn": FUNCTION, "inputs": WIDTHS, "out": NAT,
                    "value": _word("out").optional(0),
                    "delay_class": STRING.optional("default")},
    Kind.INITIAL: {"width": NAT.optional(0),
                   "value": _word("width").optional(0)},
    Kind.BUFFER: {"width": NAT, "capacity": POSITIVE.optional(1)},
}


def param_problem(comp: Component) -> Optional[str]:
    """The first way ``comp``'s params break its kind's ``PARAMS``, or
    None: a param the table does not declare, then in table order a
    required param missing, or a param present with a value of another
    type."""
    params = comp.params
    if type(params) is not dict:
        return f"{comp.kind.value} params must be a map"
    table = PARAMS[comp.kind]
    if not params.keys() <= table.keys():
        name = next(name for name in params if name not in table)
        return f"{comp.kind.value} has no param {name!r}"
    for name, (_, ok, why, default) in table.items():
        if name in params:
            v = params[name]
            if not ok(v, comp):
                return why(v, comp, name)
        elif default is REQUIRED:
            return f"{comp.kind.value} {name} is missing"
    return None


# The fewest ports each kind works with: (side, count, wording), side 0
# for inputs and 1 for outputs.
_ARITY = {Kind.JOIN: (0, 2, "2 inputs"), Kind.FORK: (1, 2, "2 outputs"),
          Kind.STEER: (1, 2, "2 outputs"), Kind.MERGE: (0, 2, "2 inputs"),
          Kind.OPERATOR: (0, 1, "1 input"),
          Kind.VARIABLE: (0, 2, "1 read port")}


class NotWired(IrError):
    """``wiring``'s refusal: its text, and the ``validate`` code and
    subject it is reported under."""

    def __init__(self, code: str, subject: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.subject = subject


class Wiring(NamedTuple):
    """``wiring``: keys in sorted order and their numbers, the
    environment keys' port names, port counts and slot bases per key, the
    far end (key, port) of every input and output slot, and the id of the
    link that binds each input slot."""
    names: list[str]
    ids: dict[str, int]
    env: dict[str, str]
    n_in: list[int]
    n_out: list[int]
    in_base: list[int]
    out_base: list[int]
    in_src: list[tuple[int, int]]
    out_dst: list[tuple[int, int]]
    in_link: list[str]


def wiring(net: Network) -> Wiring:
    """The fully-wired rule as one binding pass: component ids and the
    environment keys `$in.<port>` and `$out.<port>` are numbered in
    sorted order, each key owns a run of input and output slots, and each
    slot is bound to the (key, port) at the far end of its link.

    Raises ``NotWired`` for the first problem, under the ``validate``
    code given: a port dir other than in or out (bad-params); a component
    failing ``PARAMS`` (bad-params), with more ports than the net has
    links (connectivity) or with no input or no output (arity), before
    any slot list is built; then per link a port its component lacks
    (dangling), a port another link already binds (connectivity) or a
    missing end (dangling); last a slot no link binds (connectivity).
    The subject is the port, the component, the link or the slot's key."""
    # Environment keys, and the environment end of each port's link.
    env: dict[str, str] = {}
    link_in: dict[str, tuple[str, int]] = {}
    link_out: dict[str, tuple[str, int]] = {}
    for name in sorted(net.ports):
        port = net.ports[name]
        if port.dir == "in":
            key = f"$in.{name}"
            link_in[port.link] = (key, 0)
        elif port.dir == "out":
            key = f"$out.{name}"
            link_out[port.link] = (key, 0)
        else:
            raise NotWired("bad-params", name,
                           f"port {name} dir {port.dir!r} not in/out")
        env[key] = name

    names = sorted([*net.components, *env])
    ids = {name: k for k, name in enumerate(names)}
    # Port counts per key.  Each key's slots follow those of the key
    # before it, so in_base[k + 1] is where key k's inputs end.
    n_in, n_out = [0] * len(names), [0] * len(names)
    for key in env:
        if key.startswith("$in."):
            n_out[ids[key]] = 1
        else:
            n_in[ids[key]] = 1
    n_links = len(net.links)
    for cid, comp in net.components.items():
        k = ids[cid]
        problem = param_problem(comp)
        if problem is not None:
            raise NotWired("bad-params", cid, f"{cid}: {problem}")
        # Refused before anything is built per port: each needs a link.
        a, b = n_in[k], n_out[k] = _PORT_COUNTS[comp.kind](comp)
        if a > n_links or b > n_links:
            raise NotWired("connectivity", cid,
                           f"{cid} has {a} input and {b} output ports, "
                           f"but the net has {n_links} links")
        if a < 1 or b < 1:
            raise NotWired("arity", cid,
                           f"{cid} has {a} input and {b} output ports, "
                           f"but needs at least one of each")
    in_base = [0, *itertools.accumulate(n_in)]
    out_base = [0, *itertools.accumulate(n_out)]
    # Input slot: the producer (key, port) to acknowledge.  Output
    # slot: the consumer (key, port) to offer to.  None until bound.
    in_src: list = [None] * in_base[-1]
    out_dst: list = [None] * out_base[-1]
    # The link bound to each input and output slot so far.
    in_link: list = [None] * in_base[-1]
    out_link: list = [None] * out_base[-1]
    for lid, ln in net.links.items():
        src = ln.src or link_in.get(lid)
        dst = ln.dst or link_out.get(lid)
        if src is not None:
            sk, sp = ids.get(src[0]), src[1]
            if sk is None or not 0 <= sp < n_out[sk]:
                raise NotWired("dangling", lid, f"link {lid} leaves {src[0]}, "
                               f"which has no output {sp}")
            o = out_base[sk] + sp
            if out_link[o] is not None:
                raise NotWired("connectivity", lid,
                               f"link {lid} leaves {src[0]} output {sp}, "
                               f"which link {out_link[o]} already binds")
            out_link[o] = lid
        if dst is not None:
            dk, dp = ids.get(dst[0]), dst[1]
            if dk is None or not 0 <= dp < n_in[dk]:
                raise NotWired("dangling", lid, f"link {lid} enters {dst[0]}, "
                               f"which has no input {dp}")
            i = in_base[dk] + dp
            if in_link[i] is not None:
                raise NotWired("connectivity", lid,
                               f"link {lid} enters {dst[0]} input {dp}, "
                               f"which link {in_link[i]} already binds")
            in_link[i] = lid
        if src is None or dst is None:
            raise NotWired("dangling", lid, f"link {lid} has no "
                           f"{'producer' if src is None else 'consumer'}")
        in_src[i] = (sk, sp)
        out_dst[o] = (dk, dp)
    # Last, a slot that no link binds, named by its key and port.
    for slots, base, side in ((in_src, in_base, "input"),
                              (out_dst, out_base, "output")):
        if None in slots:
            slot = slots.index(None)
            k = bisect_right(base, slot) - 1
            raise NotWired("connectivity", names[k], f"{names[k]} {side} "
                           f"{slot - base[k]} is bound by no link")
    return Wiring(names, ids, env, n_in, n_out, in_base, out_base, in_src,
                  out_dst, in_link)


def validate(net: Network) -> list[Diagnostic]:
    """Structural checks. Returns an empty list for a well-formed network:
    every problem of ids, params, arity, widths and adjacent Buffers,
    then ``wiring``'s refusal, its text the message."""
    diags: list[Diagnostic] = []

    def err(code: str, subject: str, msg: str) -> None:
        diags.append(Diagnostic(code, subject, msg))

    # Each component's params against its table first; port widths
    # assume them, so the links of a component reported here are not
    # checked below.
    comps_ok: dict[str, Component] = {}
    for cid, comp in net.components.items():
        if cid != comp.id:
            err("id-mismatch", cid, "component table key differs from component id")
        problem = param_problem(comp)
        if problem is not None:
            err("bad-params", cid, problem)
            continue
        # Every port needs a link of its own, so a port count above the
        # net's link count cannot be valid; it is checked before any width
        # list of that length is built.
        n_in, n_out = port_counts(comp)
        if max(n_in, n_out) > len(net.links):
            err("connectivity", cid,
                f"{n_in} input and {n_out} output ports, but the net "
                f"has {len(net.links)} links")
            continue
        # Then the checks that relate params or ports to each other.
        k, p = comp.kind, comp.params
        arity = _ARITY.get(k)
        if arity is not None and (n_in, n_out)[arity[0]] < arity[1]:
            err("arity", cid, f"{k.value} needs at least {arity[2]}")
        if k is Kind.FORK:
            for i, w in enumerate(p["outputs"]):
                if w > p["input"]:
                    err("width", cid, f"fork output {i} wider than input")
        if k is Kind.STEER and p["select"] > p["input"]:
            err("width", cid, "steer select field outside input word")
        comps_ok[cid] = comp

    for lid, ln in net.links.items():
        if lid != ln.id:
            err("id-mismatch", lid, "link table key differs from link id")
        # Every port is bound to a link of its own width, or is reported,
        # so this is also the check on port widths.
        if not 0 <= ln.width <= MAX_WIDTH:
            err("width", lid, f"link width {ln.width} outside 0..{MAX_WIDTH}")
        for side, ep in (("src", ln.src), ("dst", ln.dst)):
            if ep is None:
                continue
            cid, pidx = ep
            comp = comps_ok.get(cid)
            if comp is None:   # missing or refused: ``wiring``'s to report
                continue
            widths = comp.output_widths() if side == "src" else comp.input_widths()
            if 0 <= pidx < len(widths) and widths[pidx] != ln.width:
                err("width", lid,
                    f"link width {ln.width} != {side} port width {widths[pidx]} on {cid}")
        if ln.src is not None and ln.dst is not None:
            sc = comps_ok.get(ln.src[0])
            dc = comps_ok.get(ln.dst[0])
            if sc is not None and dc is not None:
                if sc.kind is Kind.BUFFER and dc.kind is Kind.BUFFER:
                    err("double-buffer", lid, "two buffers adjacent on one link position")

    for name, port in net.ports.items():
        if name != port.name:
            err("id-mismatch", name, "port table key differs from port name")
        if port.dir not in ("in", "out"):
            err("bad-params", name, f"port {name} dir {port.dir!r} not in/out")
            continue
        ln = net.links.get(port.link)
        if ln is not None and ln.width != port.width:
            err("width", name, f"port width {port.width} != link width {ln.width}")

    # A component refused above would be refused again by ``wiring``.
    if len(comps_ok) == len(net.components):
        try:
            wiring(net)
        except NotWired as exc:
            refusal = Diagnostic(exc.code, exc.subject, str(exc))
            if refusal not in diags:   # a port dir, reported above
                diags.append(refusal)
    return diags


def splice_buffer_in_place(net: Network, link_id: str, capacity: int = 1) -> None:
    """Splice a Buffer into ``link_id`` of ``net`` itself.

    The upstream half keeps the link id; the downstream half gets
    ``<id>.post``.  Splicing a link that already touches a Buffer raises
    DoubleBuffer, which also catches a second splice on the same original
    link position, and a capacity below 1 raises IrError.  Every check
    runs before the net is changed.
    """
    if capacity < 1:
        raise IrError(f"buffer capacity must be >= 1, got {capacity}")
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
    port the first link in table order wins.  The graph is a snapshot:
    build a new one after the net is mutated.  The views are shared by
    every reader, so a caller that edits one copies it first.
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

    @cached_property
    def comb_search(self) -> Optional[list[str]]:
        """The first cycle that a search of ``comb`` from each link in
        sorted id order closes, or None.  The cycle runs from after the
        link the search closed into and ends with it."""
        succ = self.comb
        found = next(back_edges(
            sorted(succ), lambda lid: zip(succ[lid], succ[lid])), None)
        if found is None:
            return None
        path, _, target = found
        return path[path.index(target) + 1:] + [target]

    def _successors(self, through_buffers: bool) -> dict[str, list[str]]:
        """Link id -> sorted ids of the links each component relays it onto,
        pairing only the ports that links bind: a Variable relays port i to
        port i (write go to write done, each read go to its read done), a
        Buffer relays only when ``through_buffers``, and every other kind
        relays each bound input to each bound output."""
        comps = self.net.components
        outs: dict[str, list[str]] = {}
        for (cid, _), ln in self.out_of.items():
            outs.setdefault(cid, []).append(ln.id)
        succ: dict[str, list[str]] = {lid: [] for lid in self.net.links}
        for (cid, port), ln in self.into.items():
            comp = comps.get(cid)
            if comp is None or (comp.kind is Kind.BUFFER and not through_buffers):
                continue
            if comp.kind is Kind.VARIABLE:
                out = self.out_of.get((cid, port))
                if out is not None:
                    succ[ln.id].append(out.id)
            else:
                succ[ln.id] += outs.get(cid, ())
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
        carry = {cid: 0 if comp.kind is Kind.INITIAL else comp.param("loop")
                 for cid, comp in self.net.components.items()
                 if comp.kind in (Kind.INITIAL, Kind.MERGE)}
        return {ln.id for (cid, port), ln in self.into.items()
                if carry.get(cid) == port}

    @cached_property
    def write_sites(self) -> dict[str, list[tuple[str, Optional[str], str]]]:
        """Variable id -> (entry, tag entry, done) link ids per write site,
        in site order; the tag entry is None when the Variable is driven
        directly.

        Several write sites are funnelled through a Merge into the write
        port, the write-done into port 0 of a two-input Join whose other port
        takes a site tag through a second Merge, and a Steer on the joined
        pair with one done per site.  Recognition is by shape, not by
        component naming.
        """
        return {cid: self._write_links(cid) for cid in sorted(self.net.components)
                if self.net.components[cid].kind is Kind.VARIABLE}

    def _write_links(self, comp_id: str
                     ) -> list[tuple[str, Optional[str], str]]:
        comps = self.net.components
        wg = self.into.get((comp_id, 0))
        wd = self.out_of.get((comp_id, 0))
        if wg is None or wd is None:
            return []
        direct = [(wg.id, None, wd.id)]
        if wg.src is None or wd.dst is None:
            return direct
        m = comps[wg.src[0]]
        j = comps[wd.dst[0]]
        if not (m.kind is Kind.MERGE and j.kind is Kind.JOIN
                and wd.dst[1] == 0 and len(j.input_widths()) == 2):
            return direct
        jout = self.out_of.get((j.id, 0))
        tagin = self.into.get((j.id, 1))
        if jout is None or jout.dst is None or tagin is None or tagin.src is None:
            return direct
        s = comps[jout.dst[0]]
        t = comps[tagin.src[0]]
        if not (s.kind is Kind.STEER and t.kind is Kind.MERGE
                and len(s.output_widths()) == m.params["inputs"]
                and t.params["inputs"] == m.params["inputs"]):
            return direct
        sites = []
        for i in range(m.params["inputs"]):
            entry = self.into.get((m.id, i))
            tag = self.into.get((t.id, i))
            done = self.out_of.get((s.id, i))
            if entry is None or tag is None or done is None:
                return direct
            sites.append((entry.id, tag.id, done.id))
        return sites

    @cached_property
    def read_sites(self) -> dict[str, list[tuple[str, str]]]:
        """Variable id -> (go, data) link ids per read site, in site order;
        empty when a read port is unbound."""
        return {cid: self._read_links(cid) for cid in sorted(self.net.components)
                if self.net.components[cid].kind is Kind.VARIABLE}

    def _read_links(self, comp_id: str) -> list[tuple[str, str]]:
        sites = []
        for port in range(1, 1 + self.net.components[comp_id].params["reads"]):
            go = self.into.get((comp_id, port))
            data = self.out_of.get((comp_id, port))
            if go is None or data is None:
                return []
            sites.append((go.id, data.id))
        return sites

    @cached_property
    def one_pass(self) -> dict[str, list[str]]:
        """``flow`` within one traversal of each loop body: loop-carry links
        lead nowhere, and every multi-site write funnel is opaque, so a
        site's entry and tag lead only to that site's done, never to
        another site's, which the kind-blind Steer relay would allow."""
        succ = dict(self.flow)
        for lid in self.loop_carry:
            succ[lid] = []
        for sites in self.write_sites.values():
            for entry, tag, done in sites:
                if tag is not None:
                    succ[entry] = succ[tag] = [done]
        return succ


def walk(succ: dict[str, list[str]], starts: Iterable[str],
         blocked: Container[str] = (), stop: Optional[str] = None
         ) -> dict[str, Optional[str]]:
    """Breadth-first search of a successor map such as ``FlowGraph.flow``.

    Returns every link reached, in discovery order, with the link it was
    reached from (None for one of ``starts``).  A link in ``blocked`` is
    recorded but not expanded.  The search returns as soon as it records
    ``stop``, blocked or not, so a start equal to ``stop`` ends it at once.
    """
    parent: dict[str, Optional[str]] = {}
    # A queue read while it grows; None stands for the parent of the starts.
    frontier: list[Optional[str]] = [None]
    for cur in frontier:
        for nxt in starts if cur is None else succ[cur]:
            if nxt not in parent:
                parent[nxt] = cur
                if nxt == stop:
                    return parent
                if nxt not in blocked:
                    frontier.append(nxt)
    return parent


def combinational_cycle(graph: FlowGraph) -> Optional[list[str]]:
    """One buffer-free combinational cycle as a link list, or None: the
    first that ``graph.comb_search`` closes."""
    return graph.comb_search
