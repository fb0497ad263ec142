"""Buffer insertion policies.

Three policies produce a BufferPlan over a compiled (buffer-free) network:

* simple: every link gets a buffer.
* loop: the links around each back edge's head component and around each
  loop carry point (Initial components and loop-closing Merges).
* pac: dependency-driven two-phase placement.  Phase 1 marks candidate
  links from the WAR/RAW/PAC constraint edges; Phase 2 retimes marks whose
  consumer is a Join onto the Join's output, adds the links around each
  Initial (top-level nets have no external go), and in synchronous-elastic
  mode pads reconvergent branch regions so both arms of a choice carry the
  same number of planned buffers.

All policies finish with the same two completion passes.  Coverage plans
the closing link of any cycle that has no planned buffer at all.  The
liveness pass then raises every cycle to at least two planned links: a
circulating token frees its buffer slot only once the token has been
accepted somewhere downstream, so a ring with a single buffer wedges after
one lap.  Both passes are deterministic fixpoints.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from . import depgraph as dg
from .ir import (FlowGraph, IrError, Kind, Link, Network, back_edges,
                 reachable_links, splice_buffer_in_place)


class UnresolvedSite(IrError):
    """A dependency edge names a site that cannot be located on the net."""


@dataclass(frozen=True)
class BufferPlan:
    policy: str  # "simple" | "loop" | "pac"
    mode: str    # "async" | "sync"
    links: tuple[str, ...]
    provenance: dict  # link id -> tuple of reasons

    def __len__(self) -> int:
        return len(self.links)


def _mkplan(policy: str, mode: str, planned: dict[str, list[str]]) -> BufferPlan:
    links = tuple(sorted(planned))
    prov = {lid: tuple(planned[lid]) for lid in links}
    return BufferPlan(policy, mode, links, prov)


def policy_simple(net: Network, mode: str = "async") -> BufferPlan:
    planned = {lid: ["all links"] for lid in sorted(net.links)}
    return _mkplan("simple", mode, planned)


def policy_loop(net: Network, mode: str = "async") -> BufferPlan:
    g = FlowGraph(net)
    planned: dict[str, list[str]] = {}

    def note(lid: str, why: str) -> None:
        planned.setdefault(lid, []).append(why)

    # Links touching each component, in link id order.
    touching: dict[str, list[Link]] = {}
    for ln in sorted(net.links.values(), key=lambda l: l.id):
        for cid in {ep[0] for ep in (ln.src, ln.dst) if ep is not None}:
            touching.setdefault(cid, []).append(ln)

    def around(head_id: str, why: str) -> None:
        for ln in touching.get(head_id, ()):
            if ln.dst is not None and ln.dst[0] == head_id:
                note(ln.id, f"into {head_id}: {why}")
            if ln.src is not None and ln.src[0] == head_id:
                note(ln.id, f"out of {head_id}: {why}")

    for lid in g.back_edges:
        head = net.links[lid].dst
        if head is None:
            note(lid, f"back edge {lid}")
            continue
        around(head[0], f"head of back edge {lid}")
    # DFS can anchor a back edge anywhere on its cycle, so the links where a
    # loop actually carries its token between iterations may stay unplanned.
    # Buffering around every carry point keeps one iteration's completion
    # handshakes from wedging against the next iteration's activation.
    for lid in sorted(g.loop_carry):
        head = net.links[lid].dst
        if head is not None:
            around(head[0], f"loop carry {lid}")
    _complete(g, planned)
    return _mkplan("loop", mode, planned)


def policy_pac(net: Network, mode: str = "async") -> BufferPlan:
    g = FlowGraph(net)
    return pac_retime(g, pac_mark(g, dg.build(g)), mode=mode)


# ---------------------------------------------------------------------------
# PAC phase 1: marking

def pac_mark(g: FlowGraph, deps: dg.DependencyGraph
             ) -> dict[str, list[str]]:
    """Candidate links per dependency edge, each with its reasons: the
    link after the read side, and the link after the production side
    (specialised by what produces)."""
    net = g.net
    marks: dict[str, list[str]] = {}

    def note(lid: str, why: str) -> None:
        marks.setdefault(lid, []).append(why)

    chan_by_name: dict[str, dg.Channel] = {}
    for ch in dg.channels(g):
        chan_by_name.setdefault(ch.name, ch)

    for e in deps.edges:
        if e.kind in ("WAR", "RAW"):
            vid = e.subject
            if vid not in net.components:
                raise UnresolvedSite(f"{e}: no variable {vid}")
            rnode = e.u if e.kind == "WAR" else e.v
            try:
                site = int(rnode.rsplit("/rd", 1)[1])
            except (IndexError, ValueError):
                raise UnresolvedSite(f"{e}: malformed read site {rnode}")
            rsites = dg.variable_read_sites(g, vid)
            if site >= len(rsites):
                raise UnresolvedSite(f"{e}: read site {site} out of range")
            note(rsites[site][1], f"{e.kind} {vid} after rd{site}")
            wd = g.out_of.get((vid, 0))
            if wd is None:
                raise UnresolvedSite(f"{e}: variable {vid} has no write done")
            note(wd.id, f"{e.kind} {vid} after write done")
        else:  # PAC
            ch = chan_by_name.get(e.subject)
            if ch is None:
                raise UnresolvedSite(f"{e}: no channel {e.subject}")
            if ch.consumer_comp is not None:
                after = g.out_of.get((ch.consumer_comp, 0))
                if after is not None:
                    note(after.id, f"PAC {ch.name} after consumer")
            if ch.producer_comp is not None:
                comp = net.components[ch.producer_comp]
                if comp.kind is Kind.FORK:
                    note(ch.link, f"PAC {ch.name} channel link")
                elif comp.kind is Kind.OPERATOR:
                    out = g.out_of.get((comp.id, 0))
                    if out is None:
                        raise UnresolvedSite(f"{e}: producer has no output")
                    note(out.id, f"PAC {ch.name} after producer")
                elif comp.kind is Kind.VARIABLE:
                    out = g.out_of.get((comp.id, 0))
                    if out is None:
                        raise UnresolvedSite(f"{e}: producer has no write done")
                    note(out.id, f"PAC {ch.name} after producer")
                else:
                    act = g.into.get((comp.id, 0))
                    if act is not None:
                        note(act.id, f"PAC {ch.name} producer activation")
    return marks


# ---------------------------------------------------------------------------
# PAC phase 2: retiming

def pac_retime(g: FlowGraph, marks: dict[str, list[str]],
               mode: str = "async") -> BufferPlan:
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

    if mode == "sync":
        _sync_balance(g, planned)
    _complete(g, planned)
    return _mkplan("pac", mode, planned)


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
    changed = True
    while changed:
        changed = False
        for lid in sorted(planned):
            while True:
                path = _unplanned_return_path(succ, planned, lid)
                if path is None or not path:
                    break
                pick = min(path)
                planned.setdefault(pick, []).append(f"liveness of {lid}")
                changed = True


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


def _unplanned_return_path(succ: dict[str, list[str]],
                           planned: dict[str, list[str]], lid: str):
    """A chain of unplanned links leading from lid's successors back to lid,
    i.e. a cycle on which lid is the only planned link.  Returns the chain
    (possibly [] for a direct self loop), or None when no such cycle exists."""
    parent: dict[str, str] = {}
    queue = deque()
    for nxt in succ[lid]:
        if nxt == lid:
            return []
        if nxt not in planned and nxt not in parent:
            parent[nxt] = ""
            queue.append(nxt)
    while queue:
        cur = queue.popleft()
        for nxt in succ[cur]:
            if nxt == lid:
                path = [cur]
                while parent[path[-1]]:
                    path.append(parent[path[-1]])
                path.reverse()
                return path
            if nxt not in planned and nxt not in parent:
                parent[nxt] = cur
                queue.append(nxt)
    return None


# ---------------------------------------------------------------------------
# Synchronous-elastic branch balancing

def _sync_balance(g: FlowGraph, planned: dict[str, list[str]]) -> None:
    """Equalize planned buffers between each Steer's control and data feeds.

    A Steer's select bits and payload arrive through one Join.  Under the
    clocked protocol both must present in the same cycle, so the path that
    computes the select and the path that carries the payload, measured
    from the Fork where the two diverge, need the same number of buffers.
    The side with fewer planned buffers gets extra links planned until the
    counts match (or it runs out of unplanned links).
    """
    net = g.net
    removed = set(g.back_edges)
    fwd = {lid: [n for n in nxts if n not in removed]
           for lid, nxts in g.flow.items() if lid not in removed}
    back: dict[str, list[str]] = {lid: [] for lid in fwd}
    for lid, nxts in fwd.items():
        for n in nxts:
            back[n].append(lid)

    def reach(starts: list[str], adj: dict[str, list[str]]) -> set[str]:
        return {s for s in starts if s in adj} | reachable_links(adj, starts)

    # A Fork's forward reach is the same for every Steer; found on first use.
    reach_by_fork: dict[str, set[str]] = {}

    def reach_of_fork(fid: str) -> set[str]:
        if fid not in reach_by_fork:
            outs = []
            for i in range(len(net.components[fid].output_widths())):
                ln = g.out_of.get((fid, i))
                if ln is not None:
                    outs.append(ln.id)
            reach_by_fork[fid] = reach(outs, fwd)
        return reach_by_fork[fid]

    for cid in sorted(net.components):
        comp = net.components[cid]
        if comp.kind is not Kind.STEER:
            continue
        in_ln = g.into.get((cid, 0))
        if in_ln is None or in_ln.src is None:
            continue
        join_id = in_ln.src[0]
        join = net.components[join_id]
        if join.kind is not Kind.JOIN:
            continue
        select = int(comp.params["select"])
        ctrl: list[str] = []
        data: list[str] = []
        offset = 0
        complete = True
        for pi, w in enumerate(join.input_widths()):
            ln = g.into.get((join_id, pi))
            if ln is None:
                complete = False
                break
            # low `select` bits of the joined word do the steering
            (ctrl if w > 0 and offset < select else data).append(ln.id)
            offset += w
        if not complete or not ctrl or not data:
            continue
        best: tuple[int, str, set[str]] | None = None
        for fid in sorted(net.components):
            if net.components[fid].kind is not Kind.FORK:
                continue
            rs = reach_of_fork(fid)
            if all(c in rs for c in ctrl) and all(d in rs for d in data):
                if best is None or len(rs) < best[0]:
                    best = (len(rs), fid, rs)
        if best is None:
            continue
        fork_reach = best[2]
        region_c = fork_reach & reach(ctrl, back)
        region_d = fork_reach & reach(data, back)
        n_c = sum(1 for l in region_c if l in planned)
        n_d = sum(1 for l in region_d if l in planned)
        if n_c == n_d:
            continue
        short = region_d if n_d < n_c else region_c
        need = abs(n_c - n_d)
        for lid in sorted(short):
            if need == 0:
                break
            if lid not in planned:
                planned.setdefault(lid, []).append(f"sync balance at {cid}")
                need -= 1
