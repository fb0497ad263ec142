"""Benchmark harness: shipped programs, software references, policy sweeps.

Each benchmark pairs a source program with two stimulus datasets and a
plain-software reference.  A sweep runs every (policy, mode, clock) cell,
checks the simulated outputs against the reference per dataset, and
collects one comparison row per cell: buffer counts, reduction against
the everything-buffered baseline, measured throughput, per-dataset
latency, and the analytic power figures.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .buffering import BufferPlan, apply, policy_loop, policy_pac, policy_simple
from .frontend import compile as compile_module
from .frontend import parse
from .ir import Network
from .metrics import PowerParams, power
from .sim import SimConfig, SimReport, run
from .sim.config import DelayTable

WORD = 1 << 32

POLICIES: dict[str, Callable[..., BufferPlan]] = {
    "simple": policy_simple,
    "loop": policy_loop,
    "pac": policy_pac,
}
_POLICY_ORDER = {"simple": 0, "loop": 1, "pac": 2}


class EquivalenceError(Exception):
    """A sweep cell produced outputs that disagree with the reference."""

    def __init__(self, bench: str, policy: str, mode: str, clock: int,
                 dataset: int, detail: str):
        self.cell = (bench, policy, mode, clock, dataset)
        super().__init__(
            f"{bench}/{policy}/{mode}"
            + (f"@{clock}" if mode == "sync" else "")
            + f" dataset {dataset}: {detail}")


@dataclass(frozen=True)
class BenchmarkSpec:
    name: str
    source: Path
    datasets: tuple[dict[str, list[int]], ...]
    reference: Callable[[dict[str, list[int]]], dict[str, list[int]]]
    policies: tuple[str, ...] = ("simple", "loop", "pac")
    modes: tuple[str, ...] = ("async", "sync")
    clocks: tuple[int, ...] = (2000,)

    def compiled(self) -> Network:
        return compile_module(parse(self.source.read_text()))


@dataclass(frozen=True)
class SweepRow:
    policy: str
    mode: str
    clock: int          # 0 for the unclocked protocol
    buffers: int
    reduction: float    # percent fewer buffers than the simple plan
    throughput: float   # results per nanosecond, steady state
    latency1: float     # first-input-to-first-output, nanoseconds
    latency2: float
    dynamic: float
    leakage: float


def gcd_reference(stim: dict[str, list[int]]) -> dict[str, list[int]]:
    return {"g": [math.gcd(a, b) for a, b in zip(stim["a"], stim["b"])]}


def poly_reference(stim: dict[str, list[int]]) -> dict[str, list[int]]:
    out = []
    for x, c0, c1, c2 in zip(stim["x"], stim["coefs[0]"],
                             stim["coefs[1]"], stim["coefs[2]"]):
        out.append((c2 * x * x + c1 * x + c0) % WORD)
    return {"res": out}


def product_reference(stim: dict[str, list[int]]) -> dict[str, list[int]]:
    # Products agree modulo 2^32 whether the words are read as signed or
    # unsigned, so one residue covers both interpretations.
    return {"p": [(a * b) % WORD for a, b in zip(stim["a"], stim["b"])]}


_SOURCES = Path(__file__).parent / "benchmarks"

_SPECS: dict[str, BenchmarkSpec] = {
    "elgcd": BenchmarkSpec(
        name="elgcd",
        source=_SOURCES / "elgcd.csp",
        datasets=(
            {"a": [12, 36, 63], "b": [18, 24, 56]},
            {"a": [270, 17, 99], "b": [192, 5, 11]},
        ),
        reference=gcd_reference,
    ),
    "poly": BenchmarkSpec(
        name="poly",
        source=_SOURCES / "poly.csp",
        datasets=(
            {"x": [3, 5, 2], "coefs[0]": [7, 1, 0],
             "coefs[1]": [11, 2, 3], "coefs[2]": [2, 3, 1]},
            {"x": [10, 65536, 1], "coefs[0]": [1, 9, 4],
             "coefs[1]": [0, 5, 4], "coefs[2]": [6, 2, 4]},
        ),
        reference=poly_reference,
    ),
    "smul": BenchmarkSpec(
        name="smul",
        source=_SOURCES / "smul.csp",
        datasets=(
            {"a": [7, 1000003, 9], "b": [9, 77, 12]},
            {"a": [WORD - 1, 123456, 31], "b": [3, 654321, 33]},
        ),
        reference=product_reference,
    ),
}


def benchmark(name: str) -> BenchmarkSpec:
    try:
        return _SPECS[name]
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; "
                       f"have {', '.join(sorted(_SPECS))}") from None


def benchmark_names() -> list[str]:
    return sorted(_SPECS)


def _steady_rate(rep: SimReport, port: str) -> float:
    """Results per picosecond once the pipeline is warm."""
    times = [t for _, t in rep.results.get(port, [])]
    if len(times) >= 2 and times[-1] > times[0]:
        return (len(times) - 1) / (times[-1] - times[0])
    return rep.throughput


def run_cell(spec: BenchmarkSpec, policy: str, mode: str, clock: int,
             delays: DelayTable | None = None,
             params: PowerParams | None = None) -> SweepRow:
    """One sweep cell: plan, buffer, simulate both datasets, verify, cost."""
    delays = delays if delays is not None else DelayTable()
    params = params if params is not None else PowerParams()
    net = spec.compiled()
    plan = POLICIES[policy](net, mode=mode)
    buffered = apply(net, plan)
    reports: list[SimReport] = []
    out_port = ""
    for idx, dataset in enumerate(spec.datasets, start=1):
        cfg = SimConfig(mode=mode, clock=clock if mode == "sync" else 0,
                        delays=delays, stimulus={k: list(v)
                                                 for k, v in dataset.items()})
        rep = run(buffered, cfg)
        expected = spec.reference(dataset)
        for port in sorted(expected):
            out_port = port
            got = [v for v, _ in rep.results.get(port, [])]
            if rep.deadlock:
                raise EquivalenceError(spec.name, policy, mode, clock, idx,
                                       "deadlocked: "
                                       + "; ".join(rep.diagnosis[:1]))
            if got != expected[port]:
                raise EquivalenceError(
                    spec.name, policy, mode, clock, idx,
                    f"port {port}: got {got}, want {expected[port]}")
        reports.append(rep)
    cost = power(buffered, params)
    nlinks = len(net.links)
    lat = [r.latencies[0] / 1000.0 if r.latencies else 0.0 for r in reports]
    return SweepRow(
        policy=policy, mode=mode, clock=clock if mode == "sync" else 0,
        buffers=len(plan),
        reduction=100.0 * (nlinks - len(plan)) / nlinks,
        throughput=_steady_rate(reports[0], out_port) * 1000.0,
        latency1=lat[0], latency2=lat[1],
        dynamic=cost.dynamic_power, leakage=cost.leakage_power)


def sweep(spec: BenchmarkSpec, delays: DelayTable | None = None,
          params: PowerParams | None = None) -> list[SweepRow]:
    """All cells of one benchmark, one after another, in row order.

    Rows come sorted by (mode, clock, policy); the first failing cell in
    that order aborts the sweep.
    """
    cells = []
    for mode in spec.modes:
        clocks = spec.clocks if mode == "sync" else (0,)
        for clock in clocks:
            for policy in spec.policies:
                cells.append((policy, mode, clock))

    def key(cell: tuple[str, str, int]):
        policy, mode, clock = cell
        return (mode, clock, _POLICY_ORDER.get(policy, 99))

    return [run_cell(spec, p, m, c, delays, params)
            for p, m, c in sorted(cells, key=key)]


def format_table(rows: list[SweepRow]) -> str:
    """Fixed-format CSV; identical input rows give identical bytes."""
    lines = ["policy,mode,clock,buffers,reduction_pct,throughput_per_ns,"
             "latency1_ns,latency2_ns,dynamic,leakage"]
    for r in rows:
        lines.append(",".join([
            r.policy, r.mode, str(r.clock), str(r.buffers),
            f"{r.reduction:.2f}", f"{r.throughput:.6g}",
            f"{r.latency1:.6g}", f"{r.latency2:.6g}",
            f"{r.dynamic:.6g}", f"{r.leakage:.6g}",
        ]))
    return "\n".join(lines) + "\n"
