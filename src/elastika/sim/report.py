"""Simulation result container and emitters.

A SimReport is plain data: what came out of each output port and when,
the derived rates, how the run ended, and what the buffers did.  Times
are integer picoseconds throughout; rates are results per picosecond.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional


@dataclass
class SimReport:
    """What one simulation run produced and how it ended."""
    mode: str
    # Per output port, the produced (value, timestamp) pairs in order.
    results: dict[str, list[tuple[int, int]]] = field(default_factory=dict)
    # Timestamp of the last produced result (0 when none were produced).
    elapsed: int = 0
    # result count / elapsed, over the port with the most results.
    throughput: float = 0.0
    # Mean gap between consecutive results on the busiest port.
    cycle_time: float = 0.0
    # Per-dataset first-input-to-output delay, index-aligned with stimulus.
    latencies: list[int] = field(default_factory=list)
    # Clocked runs: cycles per result (elapsed / clock / results).
    gamma: float = 0.0
    clock: int = 0
    deadlock: bool = False
    diagnosis: list[str] = field(default_factory=list)
    # One of "drained", "stimulus-exhausted", "deadlock", "horizon".
    completion: str = "drained"
    truncated: bool = False
    # Clocked runs: the combinational critical path and whether the clock
    # undercuts it (results then carry no timing guarantee).
    critical_path: int = 0
    overclocked: bool = False
    # Buffer occupancy: peak per buffer, time spent at each level, and the
    # full (time, buffer, level) change series for CSV export, which is
    # kept only when SimConfig.record_occupancy is set.
    occupancy_max: dict[str, int] = field(default_factory=dict)
    occupancy_time: dict[str, dict[int, int]] = field(default_factory=dict)
    occupancy_series: list[tuple[int, str, int]] = field(default_factory=list)
    # Token accounting: accepted stimulus values, Initial seeds, results.
    tokens_in: int = 0
    seeded: int = 0
    tokens_out: int = 0

    def primary_port(self) -> Optional[str]:
        """The output port with the most results (ties by name)."""
        best = None
        for name in sorted(self.results):
            if best is None or len(self.results[name]) > len(self.results[best]):
                best = name
        return best


def to_json(report: SimReport) -> str:
    obj = {
        "mode": report.mode,
        "results": {name: [[v, t] for v, t in vals]
                    for name, vals in sorted(report.results.items())},
        "elapsed": report.elapsed,
        "throughput": report.throughput,
        "cycle_time": report.cycle_time,
        "latencies": report.latencies,
        "gamma": report.gamma,
        "clock": report.clock,
        "deadlock": report.deadlock,
        "diagnosis": report.diagnosis,
        "completion": report.completion,
        "truncated": report.truncated,
        "critical_path": report.critical_path,
        "overclocked": report.overclocked,
        "occupancy_max": dict(sorted(report.occupancy_max.items())),
        "occupancy_time": {
            buf: {str(level): span for level, span in sorted(hist.items())}
            for buf, hist in sorted(report.occupancy_time.items())},
        "tokens_in": report.tokens_in,
        "seeded": report.seeded,
        "tokens_out": report.tokens_out,
    }
    return json.dumps(obj, indent=2, sort_keys=False) + "\n"


def occupancy_csv(report: SimReport) -> str:
    lines = ["time,buffer,occupancy"]
    for t, buf, occ in report.occupancy_series:
        lines.append(f"{t},{buf},{occ}")
    return "\n".join(lines) + "\n"
