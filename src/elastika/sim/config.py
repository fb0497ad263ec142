"""Simulation configuration: delay tables, stimulus, run limits.

All times are integer picoseconds so runs are exactly reproducible and
measured periods can be compared with ==.  The delay table carries one
entry per component kind plus a per-class table for operators; the same
table feeds the asynchronous event engine and the synchronous critical
path check.

Config files are flat `key = value` text with dotted sections, e.g.::

    delay.operator.mul = 3000
    power.activity = 0.8

Stimulus files hold one channel per line: `name: v1 v2 ...`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Callable, Union

from ..ir import Component, IrError, Kind, Network


class ConfigError(Exception):
    pass


@dataclass(frozen=True)
class DelayTable:
    """Per-kind firing delays in picoseconds.

    Operators are looked up by their `delay_class` param with a `default`
    fallback; `const` and `id` ship cheap because they do no arithmetic.
    """
    join: int = 100
    fork: int = 100
    steer: int = 100
    merge: int = 100
    initial: int = 100
    buffer: int = 100
    variable_write: int = 500
    variable_read: int = 100
    operator: dict = field(default_factory=lambda: {
        "default": 1000, "const": 100, "id": 100})

    def validate(self) -> None:
        for name in _SCALAR_KEYS:
            if getattr(self, name) < 0:
                raise ConfigError(f"delay.{name} must be >= 0")
        if "default" not in self.operator:
            raise ConfigError("operator delay table needs a 'default' entry")
        for cls, d in self.operator.items():
            if d < 0:
                raise ConfigError(f"delay.operator.{cls} must be >= 0")

    def operator_delay(self, delay_class: str) -> int:
        ops = self.operator
        return ops[delay_class] if delay_class in ops else ops["default"]

    def component_delay(self, comp: Component) -> int:
        """Firing delay of one component.  Variables are asymmetric; this
        returns the write delay, which is also the conservative choice for
        path analysis (reads are cheaper by default)."""
        delay = _KIND_DELAYS.get(comp.kind)
        if delay is None:
            raise IrError(f"unhandled kind {comp.kind}")
        return delay(self, comp)

    def zeroed(self, buffer_delay: int) -> "DelayTable":
        """The clocked view: combinational components settle within the
        cycle (delay 0) and only Buffers advance time, by one period."""
        zero = dict.fromkeys(_SCALAR_KEYS, 0)
        return DelayTable(**dict(zero, buffer=buffer_delay),
                          operator={cls: 0 for cls in self.operator})


# The `delay.<key>` config keys that set one DelayTable field each.
_SCALAR_KEYS = tuple(f.name for f in fields(DelayTable) if f.name != "operator")


# Firing delay per kind, read from a DelayTable for one component.
_KIND_DELAYS: dict[Kind, Callable[[DelayTable, Component], int]] = {
    Kind.JOIN: lambda t, c: t.join,
    Kind.FORK: lambda t, c: t.fork,
    Kind.STEER: lambda t, c: t.steer,
    Kind.MERGE: lambda t, c: t.merge,
    Kind.INITIAL: lambda t, c: t.initial,
    Kind.BUFFER: lambda t, c: t.buffer,
    Kind.VARIABLE: lambda t, c: t.variable_write,
    Kind.OPERATOR: lambda t, c: t.operator_delay(c.param("delay_class")),
}


def _set_delay(table: DelayTable, key: str, value: int) -> DelayTable:
    if key.startswith("operator."):
        ops = dict(table.operator)
        ops[key.split(".", 1)[1]] = value
        return replace(table, operator=ops)
    if key == "operator":
        ops = dict(table.operator, default=value)
        return replace(table, operator=ops)
    if key in _SCALAR_KEYS:
        return replace(table, **{key: value})
    raise ConfigError(f"unknown delay key {key!r}")


def delays_from_config(cfg: dict) -> DelayTable:
    """Apply every `delay.*` entry of a parsed config onto the defaults."""
    table = DelayTable()
    for key in sorted(cfg):
        if key.startswith("delay."):
            value = cfg[key]
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigError(f"{key} must be an integer (ps)")
            table = _set_delay(table, key[len("delay."):], value)
    table.validate()
    return table


def read_config(text: str) -> dict[str, Union[int, float, str]]:
    """Parse flat `key = value` config text.

    Values become int when possible, else float, else a bare string.
    Blank lines and `#` comments are skipped.
    """
    out: dict[str, Union[int, float, str]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not key or not val:
            raise ConfigError(f"line {lineno}: empty key or value")
        try:
            out[key] = int(val, 0)
        except ValueError:
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = val
    return out


def parse_stimulus(text: str) -> dict[str, list[int]]:
    """Parse `name: v1 v2 ...` lines into per-channel value sequences."""
    out: dict[str, list[int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise ConfigError(f"line {lineno}: expected 'name: values'")
        name, _, rest = line.partition(":")
        name = name.strip()
        if not name:
            raise ConfigError(f"line {lineno}: empty channel name")
        if name in out:
            raise ConfigError(f"line {lineno}: duplicate channel {name}")
        try:
            out[name] = [int(tok, 0) for tok in rest.split()]
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    return out


def format_stimulus(stim: dict[str, list[int]]) -> str:
    return "".join(f"{name}: {' '.join(str(v) for v in vals)}\n"
                   for name, vals in sorted(stim.items()))


def check_clock(mode: str, clock: int) -> None:
    """A clocked run needs a positive period; an unclocked one ignores it."""
    if mode == "sync" and clock <= 0:
        raise ConfigError("sync mode needs clock > 0")


@dataclass
class SimConfig:
    """One simulation run's knobs.

    mode is "async" or "sync"; clock is the period in ps and must be
    positive in sync mode.  The horizon stops free-running nets: the run
    is cut at max_time or once any output port has max_results values.
    record_occupancy keeps the report's occupancy_series, one (time,
    buffer, level) tuple per buffer level change, which only the CSV
    export reads; without it the series stays empty.
    """
    mode: str = "async"
    clock: int = 0
    delays: DelayTable = field(default_factory=DelayTable)
    stimulus: dict[str, list[int]] = field(default_factory=dict)
    max_time: int = 10**12
    max_results: int = 10**6
    record_occupancy: bool = False

    def validate(self, net: Network) -> None:
        if self.mode not in ("async", "sync"):
            raise ConfigError(f"mode {self.mode!r} not async/sync")
        check_clock(self.mode, self.clock)
        if self.max_time <= 0:
            raise ConfigError("horizon must be positive")
        if self.max_results <= 0:
            raise ConfigError("max-results must be positive")
        self.delays.validate()
        for name, values in self.stimulus.items():
            port = net.ports.get(name)
            if port is None or port.dir != "in":
                raise ConfigError(f"stimulus channel {name!r} is not an "
                                  f"input port of {net.name}")
            limit = 1 << port.width
            for v in values:
                if not (0 <= v < limit):
                    raise ConfigError(
                        f"stimulus {name}: value {v} does not fit in "
                        f"{port.width} bits")
