"""Analytic cost models for elastic networks.

Three estimators, all in relative (unitless) terms with proportionality
constants of one:

* cell area = logic component count + storage bits,
* dynamic power = activity * frequency * capacitance * supply^2 * weight,
  leakage power = leak_per_area * area * supply,
* throughput = the tightest token-per-traversal ratio over the net's
  directed cycles (the binding loop of a repeating computation).

The throughput bound takes a token marking (which links hold resting
tokens) and a delay table; a clocked variant charges one clock period per
buffer on the cycle instead of summing component delays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterator

from .ir import FlowGraph, Kind, LOGIC_KINDS, Network
from .sim.config import DelayTable
from .sim.report import SimReport


class TooManyCycles(Exception):
    """The net has more directed cycles than the caller allowed."""

    def __init__(self, limit: int):
        super().__init__(f"cycle enumeration exceeded {limit} cycles")
        self.limit = limit


@dataclass(frozen=True)
class PowerParams:
    """Knobs of the power estimators.

    activity is the fraction of capacitance switched per cycle and must
    lie in [0.5, 1]; the remaining knobs are finite positive scale factors
    (frequency in Hz, supply in volts, capacitance and leak_per_area
    relative per unit area).
    """

    activity: float = 0.5
    frequency: float = 1e9
    capacitance: float = 1.0
    supply: float = 1.0
    leak_per_area: float = 1.0

    def __post_init__(self) -> None:
        if not 0.5 <= self.activity <= 1.0:
            raise ValueError(f"activity {self.activity} outside [0.5, 1]")
        for name in ("frequency", "capacitance", "supply", "leak_per_area"):
            value = getattr(self, name)
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")


def power_from_config(cfg: dict) -> PowerParams:
    """PowerParams from flat config keys (power.activity, power.supply, ...);
    an unknown ``power.*`` key raises ValueError."""
    names = {f.name for f in fields(PowerParams)}
    overrides = {}
    for key in sorted(cfg):
        if key.startswith("power."):
            name = key[len("power."):]
            if name not in names:
                raise ValueError(f"unknown power key {name!r}")
            overrides[name] = float(cfg[key])
    return PowerParams(**overrides)


@dataclass(frozen=True)
class CycleRate:
    """Throughput bound of one binding cycle: theta = tokens/(gamma*delta)."""

    theta: float          # results per picosecond
    tokens: int           # resting tokens on the cycle
    gamma: int            # delta units per traversal
    delta: int            # picoseconds per unit
    links: tuple[str, ...]  # in flow order, from the smallest link id


@dataclass(frozen=True)
class CostReport:
    """Area and, when asked for, power of one net."""
    comp_count: int
    mem_units: int
    cell_area: int
    dynamic_power: float | None = None
    leakage_power: float | None = None


def _mem_units(net: Network) -> int:
    total = 0
    for comp in net.components.values():
        if comp.kind is Kind.VARIABLE:
            total += comp.params["width"]
        elif comp.kind is Kind.BUFFER:
            total += comp.params["width"] * comp.param("capacity")
    return total


def area(net: Network) -> CostReport:
    """Relative cell area: logic component count plus storage bits.

    Storage is counted per held bit (width times capacity for buffers).
    """
    comp_count = sum(1 for c in net.components.values()
                     if c.kind in LOGIC_KINDS)
    mem = _mem_units(net)
    return CostReport(comp_count=comp_count, mem_units=mem,
                      cell_area=comp_count + mem)


def power(net: Network, params: PowerParams,
          activity: float | SimReport | None = None) -> CostReport:
    """Area report extended with dynamic and leakage power.

    The dynamic term scales with a switching weight: the full cell area
    by default, an explicit number, or a weight derived from a simulation
    report (logic plus variables at full weight, each buffer scaled by
    its mean occupancy, idle slots switching nothing).
    """
    base = area(net)
    if activity is None:
        weight: float = base.cell_area
    elif isinstance(activity, SimReport):
        weight = base.comp_count
        for comp in net.components.values():
            if comp.kind is Kind.VARIABLE:
                weight += comp.params["width"]
            elif comp.kind is Kind.BUFFER:
                held = activity.occupancy_time.get(comp.id, {})
                span = sum(held.values())
                mean = (sum(level * t for level, t in held.items()) / span
                        if span else 0.0)
                cap = comp.param("capacity")
                weight += comp.params["width"] * cap * (mean / cap)
    else:
        weight = float(activity)
    dynamic = (params.activity * params.frequency * params.capacitance
               * params.supply * params.supply * weight)
    leakage = params.leak_per_area * base.cell_area * params.supply
    return CostReport(comp_count=base.comp_count, mem_units=base.mem_units,
                      cell_area=base.cell_area, dynamic_power=dynamic,
                      leakage_power=leakage)


def initial_marking(net: Network) -> dict[str, int]:
    """One resting token on the output link of every Initial component."""
    return _initial_marking(FlowGraph(net))


def _initial_marking(g: FlowGraph) -> dict[str, int]:
    marking: dict[str, int] = {}
    for cid in sorted(g.net.components):
        if g.net.components[cid].kind is not Kind.INITIAL:
            continue
        ln = g.out_of.get((cid, 0))
        if ln is not None:
            marking[ln.id] = marking.get(ln.id, 0) + 1
    return marking


def analytic_throughput(net: Network, delays: DelayTable,
                        marking: dict[str, int] | None = None,
                        mode: str = "async", clock: int = 0,
                        cycle_limit: int = 10_000) -> CycleRate | None:
    """Token-limited repeat-rate bound: min over cycles of m/(gamma*delta).

    Each directed cycle that holds tokens caps the rate at which those
    tokens can circulate: tokens on the cycle, divided by one traversal.
    A traversal sums the component delays along the cycle (each link is
    charged its consumer's delay); under the clocked protocol it is the
    number of buffers on the cycle times the clock period, since every
    other component settles combinationally within the cycle's edges.

    Returns the binding cycle's rate, or None when no cycle holds tokens
    (nothing circulates, so no loop limits the repeat rate).  Cycles with
    no tokens are inert and never bind; clocked cycles with no buffer are
    rejected by the clocked simulator up front and are skipped here.

    Raises TooManyCycles when the net has at least one and more than
    ``cycle_limit`` elementary cycles, token-free ones included; that
    count is taken on the series-parallel skeleton (`_cycle_count`)
    before any cycle is enumerated.
    """
    if mode not in ("async", "sync"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sync" and clock <= 0:
        raise ValueError("clocked throughput needs a positive clock period")
    g = FlowGraph(net)
    if marking is None:
        marking = _initial_marking(g)
    # Links numbered in sorted id order, so each cycle is found starting
    # at its smallest link id.
    ids = sorted(net.links)
    index = {lid: i for i, lid in enumerate(ids)}
    adj = [sorted({index[nxt] for nxt in g.flow[lid]}) for lid in ids]
    tok = [marking.get(lid, 0) for lid in ids]
    # Per-link share of a traversal: the consumer's delay (async) or one
    # clock period per buffer (sync).  Links without successors lie on no
    # cycle and are not charged.
    cost = [0] * len(ids)
    for i, lid in enumerate(ids):
        dst = net.links[lid].dst
        if adj[i] and dst is not None:
            comp = net.components[dst[0]]
            if mode == "async":
                cost[i] = delays.component_delay(comp)
            elif comp.kind is Kind.BUFFER:
                cost[i] = 1
    # Refused iff the net has at least one cycle and more than the limit.
    if _cycle_count(adj, cycle_limit) > max(cycle_limit, 0):
        raise TooManyCycles(cycle_limit)
    best: CycleRate | None = None
    best_key: tuple[str, ...] = ()
    for path, tokens, spent in _circuits(adj, tok, cost):
        if tokens == 0:
            continue
        if mode == "async":
            gamma, delta = 1, spent
        else:
            gamma, delta = spent, clock
        if gamma * delta == 0:
            continue
        theta = tokens / (gamma * delta)
        if best is not None and theta > best.theta:
            continue
        cycle = tuple(ids[i] for i in path)
        key = tuple(sorted(cycle))
        if best is None or theta < best.theta or key < best_key:
            best = CycleRate(theta=theta, tokens=tokens, gamma=gamma,
                             delta=delta, links=cycle)
            best_key = key
    return best


def _cycle_count(adj: list[list[int]], limit: int) -> int:
    """The number of elementary cycles of the graph with successor lists
    ``adj``, or some number above ``limit`` once the count passes it.

    Two rules shrink the graph to its series-parallel skeleton (Valdes,
    Tarjan & Lawler, SIAM J. Comput. 1982); each skeleton node carries
    the number of distinct paths through the nodes it stands for:

    * series: an edge x->w where x has one successor and w one
      predecessor (w != x) folds w into x.  A cycle through either runs
      through both, so their counts multiply.
    * parallel: nodes with the same single predecessor and the same
      single successor merge.  An elementary cycle runs through at most
      one of them, so their counts add.

    Each elementary cycle of the skeleton then stands for the product of
    its nodes' counts of elementary cycles of the graph.
    """
    n = len(adj)
    succ = [set(nxts) for nxts in adj]
    pred: list[set[int]] = [set() for _ in range(n)]
    for v, nxts in enumerate(adj):
        for w in nxts:
            pred[w].add(v)
    count = [1] * n
    alive = [True] * n
    # A node is queued whenever its predecessor or successor set changes,
    # and both rules are tried on it when it is popped; so neither rule
    # applies anywhere once the queue is empty.
    work = list(range(n))

    def fold(x: int, w: int) -> None:
        count[x] *= count[w]
        alive[w] = False
        succ[x] = succ[w]
        for u in succ[w]:
            pred[u].remove(w)
            pred[u].add(x)
            work.append(u)
        work.append(x)

    while work:
        v = work.pop()
        if not alive[v]:
            continue
        if len(succ[v]) == 1:
            (w,) = succ[v]
            if w != v and len(pred[w]) == 1:
                fold(v, w)
                continue
        if len(pred[v]) != 1:
            continue
        (p,) = pred[v]
        if p != v and len(succ[p]) == 1:
            fold(p, v)
            continue
        if len(succ[v]) != 1:
            continue
        twins = [u for u in succ[p] if u != v and len(pred[u]) == 1
                 and succ[u] == succ[v]]
        if twins:
            (q,) = succ[v]
            for u in twins:
                count[v] += count[u]
                alive[u] = False
                succ[p].remove(u)
                pred[q].remove(u)
            work += (p, q)
    nodes = [v for v in range(n) if alive[v]]
    rank = {v: i for i, v in enumerate(nodes)}
    skeleton = [[rank[w] for w in succ[v]] for v in nodes]
    counts = [count[v] for v in nodes]
    zero = [0] * len(nodes)
    total = 0
    for path, _, _ in _circuits(skeleton, zero, zero):
        total += math.prod(counts[v] for v in path)
        if total > limit:
            break
    return total


def _circuits(adj: list[list[int]], tok: list[int], cost: list[int]
              ) -> Iterator[tuple[list[int], int, int]]:
    """Every elementary cycle of the graph with successor lists ``adj``.

    Johnson's search (SIAM J. Comput. 1975): the cycles whose smallest
    node is s, for each s in turn, each from s in edge order.  Yields
    ``(path, tokens, cost)``: the cycle's nodes and its sums of ``tok``
    and ``cost``, kept as running sums along the path.  ``path`` is the
    live search stack; copy it before resuming the generator if it must
    be kept.
    """
    n = len(adj)
    pred: list[list[int]] = [[] for _ in range(n)]
    for v, nxts in enumerate(adj):
        for w in nxts:
            pred[w].append(v)
    for s in range(n):
        # Nodes above s that cannot reach s start blocked and stay so.
        blocked = [True] * n
        frontier = [s]
        while frontier:
            for u in pred[frontier.pop()]:
                if u > s and blocked[u]:
                    blocked[u] = False
                    frontier.append(u)
        waiting: dict[int, set[int]] = {}
        path = [s]
        found = [False]
        stack = [iter(adj[s])]
        tokens, spent = tok[s], cost[s]
        while stack:
            for w in stack[-1]:
                if w == s:
                    found[-1] = True
                    yield path, tokens, spent
                elif not blocked[w]:
                    blocked[w] = True
                    path.append(w)
                    found.append(False)
                    stack.append(iter(adj[w]))
                    tokens += tok[w]
                    spent += cost[w]
                    break
            else:
                stack.pop()
                v = path.pop()
                tokens -= tok[v]
                spent -= cost[v]
                if found.pop():
                    if found:
                        found[-1] = True
                    free = [v]
                    while free:
                        u = free.pop()
                        if blocked[u]:
                            blocked[u] = False
                            free.extend(waiting.pop(u, ()))
                else:
                    for w in adj[v]:
                        if w > s:
                            waiting.setdefault(w, set()).add(v)
