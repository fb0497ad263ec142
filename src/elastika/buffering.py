"""Buffer insertion policies.

Three policies produce a BufferPlan over a compiled (buffer-free) network:

* simple: every link gets a buffer.
* loop: the links around each back edge's head component and around each
  loop carry point (Initial components and loop-closing Merges).
* pac: dependency-driven two-phase placement.  Phase 1 marks candidate
  links from the WAR/RAW/PAC constraint edges; Phase 2 retimes marks whose
  consumer is a Join onto the Join's output and adds the links around each
  Initial (top-level nets have no external go).

A plan depends only on the net and the policy, as a Join waits for its
late input under either timing mode.

All policies finish with the same two completion passes over
``FlowGraph.flow``.  Coverage plans the closing link of any cycle that has
no planned buffer at all, one ``ir.back_edges`` search of the unplanned
links per link it plans.  Liveness then raises every cycle to at least two
planned links: a circulating token frees its buffer slot only once the
token has been accepted somewhere downstream, so a ring with a single
buffer wedges after one lap.  In one round, in id order, it walks
(``ir.walk``) each planned link L back to itself past no other planned
link until no such chain is left.  One round is enough: coverage leaves a
planned link on every cycle and liveness only adds more, so a cycle left
with L as its one planned link would have been found at L.
"""
from __future__ import annotations

from dataclasses import dataclass

from . import depgraph as dg
from .ir import (FlowGraph, IrError, Kind, Network, back_edges,
                 splice_buffer_in_place, walk)


class UnresolvedSite(IrError):
    """A dependency edge names a site that cannot be located on the net."""


@dataclass(frozen=True)
class BufferPlan:
    """The links one policy buffers, each with the reasons it gives."""
    policy: str  # "simple" | "loop" | "pac"
    links: tuple[str, ...]
    provenance: dict  # link id -> tuple of reasons

    def __len__(self) -> int:
        return len(self.links)


def _mkplan(policy: str, planned: dict[str, list[str]]) -> BufferPlan:
    links = tuple(sorted(planned))
    prov = {lid: tuple(planned[lid]) for lid in links}
    return BufferPlan(policy, links, prov)


# Each policy takes an unused ``mode`` so callers that still pass one work.

def policy_simple(net: Network, mode: str = "async") -> BufferPlan:
    planned = {lid: ["all links"] for lid in sorted(net.links)}
    return _mkplan("simple", planned)


def policy_loop(net: Network, mode: str = "async") -> BufferPlan:
    g = FlowGraph(net)
    planned: dict[str, list[str]] = {}
    # Component id -> (side, link id) per bound port, inputs first, each
    # side in port order.
    bound: dict[str, list[tuple[str, str]]] = {}
    for side, ends in (("into", g.into), ("out of", g.out_of)):
        for (cid, _), ln in sorted(ends.items(), key=lambda e: e[0][1]):
            bound.setdefault(cid, []).append((side, ln.id))

    def around(head_id: str, why: str) -> None:
        for side, lid in bound[head_id]:
            planned.setdefault(lid, []).append(f"{side} {head_id}: {why}")

    for lid in g.back_edges:
        around(net.links[lid].dst[0], f"head of back edge {lid}")
    # DFS can anchor a back edge anywhere on its cycle, so the links where a
    # loop actually carries its token between iterations may stay unplanned.
    # Buffering around every carry point keeps one iteration's completion
    # handshakes from wedging against the next iteration's activation.
    for lid in sorted(g.loop_carry):
        around(net.links[lid].dst[0], f"loop carry {lid}")
    _complete(g, planned)
    return _mkplan("loop", planned)


def policy_pac(net: Network, mode: str = "async") -> BufferPlan:
    g = FlowGraph(net)
    return _mkplan("pac", pac_retime(g, pac_mark(g, dg.build(g))))


# ---------------------------------------------------------------------------
# PAC phase 1: marking

def pac_mark(g: FlowGraph, deps: dg.DependencyGraph
             ) -> dict[str, list[str]]:
    """Candidate links per dependency edge, each with its reasons: the
    link after the read side, and the link after the production side
    (specialised by what produces).  Sites and channels are the ones
    ``deps`` resolved."""
    net = g.net
    marks: dict[str, list[str]] = {}

    def note(lid: str, why: str) -> None:
        marks.setdefault(lid, []).append(why)

    for e in deps.edges:
        if e.kind in ("WAR", "RAW"):
            vid = e.subject
            site, data = deps.reads[e.u if e.kind == "WAR" else e.v]
            note(data, f"{e.kind} {vid} after rd{site}")
            note(g.out_of[(vid, 0)].id, f"{e.kind} {vid} after write done")
        else:  # PAC
            ch = deps.channels[e.subject]
            if ch.consumer_comp is not None:
                after = g.out_of.get((ch.consumer_comp, 0))
                if after is not None:
                    note(after.id, f"PAC {ch.name} after consumer")
            if ch.producer_comp is not None:
                comp = net.components[ch.producer_comp]
                if comp.kind is Kind.FORK:
                    note(ch.link, f"PAC {ch.name} channel link")
                elif comp.kind in (Kind.OPERATOR, Kind.VARIABLE):
                    # An Operator's output, or a Variable's write done.
                    out = g.out_of.get((comp.id, 0))
                    if out is None:
                        raise UnresolvedSite(f"{e}: producer has no output 0")
                    note(out.id, f"PAC {ch.name} after producer")
                else:
                    act = g.into.get((comp.id, 0))
                    if act is not None:
                        note(act.id, f"PAC {ch.name} producer activation")
    return marks


# ---------------------------------------------------------------------------
# PAC phase 2: retiming

def pac_retime(g: FlowGraph, marks: dict[str, list[str]]
               ) -> dict[str, list[str]]:
    """Planned links and their reasons: the marks, each moved past a Join it
    feeds, the links around each Initial, and what completion adds."""
    net = g.net
    planned: dict[str, list[str]] = {}

    def note(lid: str, why: str) -> None:
        planned.setdefault(lid, []).append(why)

    for lid in sorted(marks):
        if lid not in net.links:
            raise UnresolvedSite(f"marked link {lid} does not exist")
        ln = net.links[lid]
        target = lid
        why = "; ".join(marks[lid])
        if ln.dst is not None:
            comp = net.components[ln.dst[0]]
            if comp.kind is Kind.JOIN:
                out = g.out_of.get((comp.id, 0))
                if out is not None:
                    target = out.id
                    why = f"retimed past {comp.id} ({why})"
        note(target, why)

    for cid in sorted(net.components):
        if net.components[cid].kind is not Kind.INITIAL:
            continue
        before = g.into.get((cid, 0))
        after = g.out_of.get((cid, 0))
        if before is not None:
            note(before.id, f"before initial {cid}")
        if after is not None:
            note(after.id, f"after initial {cid}")

    _complete(g, planned)
    return planned


def apply(net: Network, plan: BufferPlan, capacity: int = 1) -> Network:
    """Splice a buffer into every planned link; returns the buffered net.

    ``net`` is copied once and the copy spliced in place, so the cost is
    linear in the net size rather than in buffers times size.
    """
    out = net.copy()
    for lid in plan.links:
        splice_buffer_in_place(out, lid, capacity=capacity)
    return out


# ---------------------------------------------------------------------------
# Completion passes shared by loop and pac

def _complete(g: FlowGraph, planned: dict[str, list[str]]) -> None:
    succ = g.flow
    while True:
        closing = _unplanned_cycle_edge(succ, planned)
        if closing is None:
            break
        planned.setdefault(closing, []).append("coverage")
    # Liveness: while a cycle holds lid as its only planned link, plan the
    # least link of the unplanned chain that a walk finds from lid's
    # successors back to lid.
    for lid in sorted(planned):
        while True:
            reach = walk(succ, succ[lid], blocked=planned, stop=lid)
            path = []
            cur = reach.get(lid)
            while cur is not None:
                path.append(cur)
                cur = reach[cur]
            if not path:
                break
            planned.setdefault(min(path), []).append(f"liveness of {lid}")


def _unplanned_cycle_edge(succ: dict[str, list[str]],
                          planned: dict[str, list[str]]) -> str | None:
    """One link that closes a cycle consisting purely of unplanned links,
    found by deterministic DFS; None when the unplanned subgraph is acyclic."""
    unplanned = [lid for lid in sorted(succ) if lid not in planned]
    for path, _, _ in back_edges(
            unplanned,
            lambda lid: [(n, n) for n in succ[lid] if n not in planned]):
        return path[-1]
    return None
