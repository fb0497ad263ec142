"""Command-line entry point wiring the whole pipeline.

Subcommands mirror the pipeline stages: compile a source program to a
netlist, extract its dependency graph, choose and splice buffers, run a
simulation, evaluate the cost models, or sweep every policy/mode cell of
a shipped benchmark and print the comparison table.

Exit codes: 0 success; 1 failed equivalence in a sweep; 2 malformed
input (source, netlist, config, stimulus, --freq-sweep, a sweep clock),
a net that buffer cannot plan or splice, a throughput bound refused for
too many cycles, a simulation error, or an output file that cannot be
written; 3 simulated deadlock.  A sweep checks its benchmark names, sync
clocks and output path before it runs the first cell.
"""
from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys

from . import bench, depgraph, netlist
from .buffering import apply as apply_plan
from .frontend import FrontendError, LowerError
from .frontend import compile as compile_module
from .frontend import parse as parse_source
from .ir import FlowGraph, IrError, Network, validate
from .metrics import (TooManyCycles, analytic_throughput, area, power,
                      power_from_config)
from .sim import (CombinationalCycle, ConfigError, SimConfig, SimError,
                  occupancy_csv, parse_stimulus, read_config, run, to_json)
from .sim.config import check_clock, delays_from_config

EXIT_OK = 0
EXIT_EQUIVALENCE = 1
EXIT_BAD_INPUT = 2
EXIT_DEADLOCK = 3

_EPILOG = """\
exit codes:
  0  success
  1  a sweep cell's outputs disagreed with the software reference
  2  malformed input: source, netlist, config, or stimulus; buffer
     could not plan or splice the net (such as a net whose links
     already hold buffers); a --freq-sweep value or power knob that is
     not a finite positive number; a sweep --clocks value that is not
     positive; report refused the throughput bound of a net with more
     than 10,000 directed cycles; sim stopped on a simulation error (a
     steer select value with no route, an unknown operator function, a
     combinational cycle under clocked timing); or an output file could
     not be written
  3  the simulated net deadlocked
"""


def _fail(message: str, code: int = EXIT_BAD_INPUT) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


class _WriteError(Exception):
    """An output file could not be written."""


def _write(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _WriteError(str(exc)) from exc


def _check_writable(path: str | None) -> None:
    """Raise _WriteError now if _write could not create ``path`` later.
    Creates and truncates nothing, so a run that fails later leaves an
    existing file as it was."""
    if path is None or path == "-":
        return
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOENT if not os.path.exists(parent) else errno.ENOTDIR
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise _WriteError(str(OSError(code, os.strerror(code), path)))


def _load_net(path: str) -> Network:
    with open(path, encoding="utf-8") as fh:
        net = netlist.loads(fh.read())
    problems = validate(net)
    if problems:
        raise netlist.NetlistError(
            "; ".join(f"{d.code} {d.subject}: {d.message}" for d in problems))
    return net


def _read_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path, encoding="utf-8") as fh:
        return read_config(fh.read())


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        with open(args.source, encoding="utf-8") as fh:
            module = parse_source(fh.read())
        net = compile_module(module)
    except OSError as exc:
        return _fail(str(exc))
    except (FrontendError, LowerError) as exc:
        return _fail(f"{args.source}: {exc}")
    problems = validate(net)
    if problems:
        for d in problems:
            print(f"error: {d.code} {d.subject}: {d.message}", file=sys.stderr)
        return EXIT_BAD_INPUT
    _write(netlist.dumps(net), args.output)
    if args.emit_dot:
        _write(netlist.to_dot(net), args.emit_dot)
    return EXIT_OK


def cmd_depgraph(args: argparse.Namespace) -> int:
    try:
        net = _load_net(args.netlist)
    except (OSError, netlist.NetlistError) as exc:
        return _fail(str(exc))
    graph = depgraph.build(FlowGraph(net))
    obj = {
        "nodes": graph.nodes,
        "edges": [{"kind": e.kind, "subject": e.subject, "u": e.u,
                   "v": e.v, "tag": e.tag} for e in graph.edges],
    }
    _write(json.dumps(obj, indent=2, sort_keys=True), args.output)
    if args.emit_dot:
        _write(depgraph.to_dot(graph), args.emit_dot)
    return EXIT_OK


def cmd_buffer(args: argparse.Namespace) -> int:
    try:
        net = _load_net(args.netlist)
    except (OSError, netlist.NetlistError) as exc:
        return _fail(str(exc))
    try:
        plan = bench.POLICIES[args.policy](net, mode=args.mode)
        buffered = apply_plan(net, plan, capacity=args.capacity)
    except IrError as exc:
        return _fail(str(exc))
    _write(netlist.dumps(buffered), args.output)
    if args.plan:
        records = [f"{lid}\t{'; '.join(plan.provenance[lid])}"
                   for lid in plan.links]
        _write("\n".join(records) + ("\n" if records else ""), args.plan)
    if args.emit_dot:
        _write(netlist.to_dot(buffered, highlight=set(plan.links)),
               args.emit_dot)
    return EXIT_OK


def cmd_sim(args: argparse.Namespace) -> int:
    try:
        net = _load_net(args.netlist)
        stimulus = {}
        if args.stimulus:
            with open(args.stimulus, encoding="utf-8") as fh:
                stimulus = parse_stimulus(fh.read())
        delays = delays_from_config(_read_config_file(args.delays))
        cfg = SimConfig(mode=args.mode, clock=args.clock, delays=delays,
                        stimulus=stimulus, max_time=args.horizon,
                        max_results=args.max_results)
        report = run(net, cfg)
    except CombinationalCycle as exc:
        return _fail(f"combinational cycle under clocked timing: {exc}")
    except (OSError, netlist.NetlistError, ConfigError, SimError) as exc:
        return _fail(str(exc))
    _write(to_json(report), args.output)
    if args.occupancy:
        _write(occupancy_csv(report), args.occupancy)
    if report.deadlock:
        for line in report.diagnosis:
            print(line, file=sys.stderr)
        return EXIT_DEADLOCK
    return EXIT_OK


def cmd_report(args: argparse.Namespace) -> int:
    try:
        net = _load_net(args.netlist)
        cfg = _read_config_file(args.config)
        params = power_from_config(cfg)
        delays = delays_from_config(cfg)
    except (OSError, netlist.NetlistError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    sections = [name for name in ("area", "power", "throughput")
                if getattr(args, name)]
    if not sections:
        sections = ["area", "power", "throughput"]
    if args.freq_sweep:
        try:
            freqs = [float(f) for f in args.freq_sweep.split(",") if f]
            swept = [dataclasses.replace(params, frequency=f) for f in freqs]
        except ValueError as exc:
            return _fail(f"bad --freq-sweep: {exc}")
        lines = ["frequency,dynamic,leakage"]
        for freq, at_freq in zip(freqs, swept):
            cost = power(net, at_freq)
            lines.append(f"{freq:.6g},{cost.dynamic_power:.6g},"
                         f"{cost.leakage_power:.6g}")
        _write("\n".join(lines) + "\n", args.output)
        return EXIT_OK
    obj: dict = {}
    if "area" in sections:
        cost = area(net)
        obj["area"] = {"comp_count": cost.comp_count,
                       "mem_units": cost.mem_units,
                       "cell_area": cost.cell_area}
    if "power" in sections:
        cost = power(net, params)
        obj["power"] = {"dynamic": cost.dynamic_power,
                        "leakage": cost.leakage_power,
                        "params": dataclasses.asdict(params)}
    if "throughput" in sections:
        try:
            rate = analytic_throughput(net, delays, mode=args.mode,
                                       clock=args.clock)
        except TooManyCycles as exc:
            return _fail(str(exc))
        except ValueError as exc:
            return _fail(str(exc))
        obj["throughput"] = (None if rate is None else {
            "theta_per_ps": rate.theta, "tokens": rate.tokens,
            "gamma": rate.gamma, "delta": rate.delta,
            "cycle": list(rate.links)})
    _write(json.dumps(obj, indent=2, sort_keys=True), args.output)
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    names = args.bench or bench.benchmark_names()
    try:
        cfg = _read_config_file(args.config)
        params = power_from_config(cfg)
        delays = delays_from_config(cfg)
    except (OSError, ConfigError, ValueError) as exc:
        return _fail(str(exc))
    # Every check that needs no cell runs before the first cell does.
    specs = []
    for name in names:
        try:
            spec = bench.benchmark(name)
        except KeyError as exc:
            return _fail(str(exc))
        spec = dataclasses.replace(
            spec,
            policies=tuple(args.policies) if args.policies else spec.policies,
            modes=tuple(args.modes) if args.modes else spec.modes,
            clocks=tuple(args.clocks) if args.clocks else spec.clocks)
        try:
            for mode in spec.modes:
                for clock in spec.clocks:
                    check_clock(mode, clock)
        except ConfigError as exc:
            return _fail(str(exc))
        specs.append(spec)
    _check_writable(args.output)
    sections = []
    for name, spec in zip(names, specs):
        try:
            rows = bench.sweep(spec, delays=delays, params=params)
        except bench.EquivalenceError as exc:
            return _fail(str(exc), EXIT_EQUIVALENCE)
        except ConfigError as exc:
            return _fail(str(exc))
        table = bench.format_table(rows)
        sections.append(f"# {name}\n{table}")
    _write("\n".join(sections), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="elastika",
        description="Elastic dataflow toolkit: compile, buffer, simulate, "
                    "and cost CSP-style programs.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a source program to a netlist")
    p.add_argument("source", help="source program (.csp)")
    p.add_argument("-o", "--output", help="netlist file (default stdout)")
    p.add_argument("--emit-dot", metavar="FILE",
                   help="also write a DOT rendering of the net")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("depgraph",
                       help="extract variable and channel dependencies")
    p.add_argument("netlist", help="netlist file from `compile`")
    p.add_argument("-o", "--output", help="edge list file (default stdout)")
    p.add_argument("--emit-dot", metavar="FILE",
                   help="also write the dependency graph as DOT")
    p.set_defaults(func=cmd_depgraph)

    p = sub.add_parser("buffer", help="plan and splice buffers")
    p.add_argument("netlist")
    p.add_argument("--policy", required=True,
                   choices=("simple", "loop", "pac"))
    p.add_argument("--mode", default="async", choices=("async", "sync"),
                   help="protocol the plan is tuned for (default async)")
    p.add_argument("--capacity", type=int, default=1,
                   help="tokens per spliced buffer (default 1)")
    p.add_argument("-o", "--output", help="buffered netlist (default stdout)")
    p.add_argument("--plan", metavar="FILE",
                   help="write the plan: one `link<TAB>reasons` line each")
    p.add_argument("--emit-dot", metavar="FILE",
                   help="DOT rendering with planned links highlighted")
    p.set_defaults(func=cmd_buffer)

    p = sub.add_parser("sim", help="simulate a netlist")
    p.add_argument("netlist")
    p.add_argument("--mode", default="async", choices=("async", "sync"))
    p.add_argument("--clock", type=int, default=0,
                   help="clock period in ps (sync mode)")
    p.add_argument("--delays", metavar="FILE",
                   help="config file with delay.* entries")
    p.add_argument("--stimulus", metavar="FILE",
                   help="per-channel values, one `name: v1 v2 ...` line each")
    p.add_argument("--horizon", type=int, default=10**12,
                   help="stop the run at this time in ps")
    p.add_argument("--max-results", type=int, default=10**6,
                   help="stop once any output port has this many values")
    p.add_argument("-o", "--output", help="report file (default stdout)")
    p.add_argument("--occupancy", metavar="FILE",
                   help="write buffer occupancy time series as CSV")
    p.set_defaults(func=cmd_sim)

    p = sub.add_parser("report", help="evaluate the analytic cost models")
    p.add_argument("netlist")
    p.add_argument("--area", action="store_true")
    p.add_argument("--power", action="store_true")
    p.add_argument("--throughput", action="store_true")
    p.add_argument("--mode", default="async", choices=("async", "sync"),
                   help="protocol for the throughput bound")
    p.add_argument("--clock", type=int, default=0,
                   help="clock period in ps for the clocked bound")
    p.add_argument("--config", metavar="FILE",
                   help="config file with power.* and delay.* entries")
    p.add_argument("--freq-sweep", metavar="F1,F2,...",
                   help="emit dynamic/leakage CSV across frequencies instead")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep",
                       help="benchmark comparison across policies and modes")
    p.add_argument("bench", nargs="*",
                   help="benchmarks to run (default: all shipped)")
    p.add_argument("--policies", nargs="+",
                   choices=("simple", "loop", "pac"))
    p.add_argument("--modes", nargs="+", choices=("async", "sync"))
    p.add_argument("--clocks", nargs="+", type=int,
                   help="clock periods in ps for sync cells")
    p.add_argument("--config", metavar="FILE",
                   help="config file with power.* and delay.* entries")
    p.add_argument("-o", "--output", help="table file (default stdout)")
    p.set_defaults(func=cmd_sweep)
    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _WriteError as exc:
        return _fail(str(exc))


if __name__ == "__main__":
    sys.exit(main())
