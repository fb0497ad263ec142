"""Token-flow simulation of elastic networks (async and clocked)."""
from .config import (ConfigError, DelayTable, SimConfig, delays_from_config,
                     format_stimulus, parse_stimulus, read_config)
from .engine import (CombinationalCycle, Lowered, SimError, SteerMiss,
                     Simulation, critical_path, detect_deadlock, run)
from .report import SimReport, occupancy_csv, to_json

__all__ = [
    "CombinationalCycle", "ConfigError", "DelayTable", "Lowered",
    "SimConfig", "SimError", "SimReport", "SteerMiss", "Simulation", "critical_path",
    "delays_from_config", "detect_deadlock", "format_stimulus",
    "occupancy_csv", "parse_stimulus", "read_config", "run", "to_json",
]
