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

from dataclasses import dataclass, fields, replace

import networkx as nx

from .ir import Kind, LOGIC_KINDS, Network, endpoints, flow_successors
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
    lie in [0.5, 1]; the remaining knobs are positive scale factors
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
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


def power_from_config(cfg: dict, base: PowerParams | None = None) -> PowerParams:
    """PowerParams from flat config keys (power.activity, power.supply, ...)."""
    overrides = {f.name: float(cfg[f"power.{f.name}"])
                 for f in fields(PowerParams)
                 if f"power.{f.name}" in cfg}
    return replace(base or PowerParams(), **overrides)


@dataclass(frozen=True)
class CycleRate:
    """Throughput bound of one binding cycle: theta = tokens/(gamma*delta)."""

    theta: float          # results per picosecond
    tokens: int           # resting tokens on the cycle
    gamma: int            # delta units per traversal
    delta: int            # picoseconds per unit
    links: tuple[str, ...]


@dataclass(frozen=True)
class CostReport:
    comp_count: int
    mem_units: int
    cell_area: int
    dynamic_power: float | None = None
    leakage_power: float | None = None
    throughput: CycleRate | None = None


def _mem_units(net: Network, bit_floor: int) -> int:
    total = 0
    for comp in net.components.values():
        if comp.kind is Kind.VARIABLE:
            total += max(int(comp.params["width"]), bit_floor)
        elif comp.kind is Kind.BUFFER:
            width = max(int(comp.params["width"]), bit_floor)
            total += width * int(comp.params["capacity"])
    return total


def area(net: Network, bit_floor: int = 0) -> CostReport:
    """Relative cell area: logic component count plus storage bits.

    Storage is counted per held bit (width times capacity for buffers);
    bit_floor > 0 makes even 0-width activation storage cost that many
    bits, for exploring alternative weightings.
    """
    comp_count = sum(1 for c in net.components.values()
                     if c.kind in LOGIC_KINDS)
    mem = _mem_units(net, bit_floor)
    return CostReport(comp_count=comp_count, mem_units=mem,
                      cell_area=comp_count + mem)


def power(net: Network, params: PowerParams,
          activity: float | SimReport | None = None,
          bit_floor: int = 0) -> CostReport:
    """Area report extended with dynamic and leakage power.

    The dynamic term scales with a switching weight: the full cell area
    by default, an explicit number, or a weight derived from a simulation
    report (logic plus variables at full weight, each buffer scaled by
    its mean occupancy, idle slots switching nothing).
    """
    base = area(net, bit_floor)
    if activity is None:
        weight: float = base.cell_area
    elif isinstance(activity, SimReport):
        weight = base.comp_count
        for comp in net.components.values():
            if comp.kind is Kind.VARIABLE:
                weight += max(int(comp.params["width"]), bit_floor)
            elif comp.kind is Kind.BUFFER:
                held = activity.occupancy_time.get(comp.id, {})
                span = sum(held.values())
                mean = (sum(level * t for level, t in held.items()) / span
                        if span else 0.0)
                cap = int(comp.params["capacity"])
                weight += (max(int(comp.params["width"]), bit_floor)
                           * cap * (mean / cap))
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
    out_of = endpoints(net).out_of
    marking: dict[str, int] = {}
    for cid in sorted(net.components):
        if net.components[cid].kind is not Kind.INITIAL:
            continue
        ln = out_of.get((cid, 0))
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
    """
    if mode not in ("async", "sync"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sync" and clock <= 0:
        raise ValueError("clocked throughput needs a positive clock period")
    if marking is None:
        marking = initial_marking(net)
    graph = nx.DiGraph()
    graph.add_nodes_from(net.links)
    for lid, nxts in flow_successors(net).items():
        for nxt in nxts:
            graph.add_edge(lid, nxt)
    best: CycleRate | None = None
    seen = 0
    for cycle in nx.simple_cycles(graph):
        seen += 1
        if seen > cycle_limit:
            raise TooManyCycles(cycle_limit)
        tokens = sum(marking.get(lid, 0) for lid in cycle)
        if tokens == 0:
            continue
        if mode == "async":
            gamma = 1
            delta = 0
            for lid in cycle:
                dst = net.links[lid].dst
                if dst is not None:
                    delta += delays.component_delay(net.components[dst[0]])
        else:
            gamma = sum(1 for lid in cycle
                        if net.links[lid].dst is not None
                        and net.components[net.links[lid].dst[0]].kind
                        is Kind.BUFFER)
            delta = clock
        if gamma * delta == 0:
            continue
        theta = tokens / (gamma * delta)
        key = tuple(sorted(cycle))
        if (best is None or theta < best.theta
                or (theta == best.theta and key < tuple(sorted(best.links)))):
            best = CycleRate(theta=theta, tokens=tokens, gamma=gamma,
                             delta=delta, links=tuple(cycle))
    return best
