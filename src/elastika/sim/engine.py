"""Deterministic event-driven execution of elastic networks.

The machine is a two-phase handshake: a component that fires emits an
*offer* (value on a link) after its delay, and the offer stands until the
consumer *acknowledges* it.  Transparent components hold their input
offers unacknowledged until their own output is taken, so a chain between
two Buffers behaves like one rigid transfer, and tokens only ever rest
inside Buffers, the stimulus queues, and the output sinks.  Acknowledge
edges take no time.

Both protocols run on this one machine.  Asynchronous mode charges every
component its delay-table latency.  Synchronous-elastic mode zeroes the
combinational delays and charges each Buffer exactly one clock period, so
tokens advance one stage per cycle under forward interlock; the clocked
wrapper also rejects buffer-free cycles and flags overclocking against
the combinational critical path.

Determinism: simultaneous events are delivered in (time, component id,
port, phase) order, with acknowledges first, internal firings second and
offers last.  No two queued events share that key: an output slot has at
most one offer standing and so at most one acknowledge queued, an input
slot at most one offer queued, and a firing port at most one firing.  The
heap's order is therefore total and does not depend on the order in
which events were pushed.  All times are integer picoseconds.

Each Simulation lowers its net once into int-indexed tables.  Component
ids and the environment keys `$in.<port>` and `$out.<port>` are numbered
in sorted string order, so int keys tie exactly as the strings would.
Every key owns a run of flat input slots (the standing offer's value)
and output slots (whether an offer stands), every slot knows the key and
port at the far end of its link, and every key has its own offer,
acknowledge and fire handler with its parameters, delay and far ends
resolved (an Operator's function too).  A handler returns one of the
events it causes (taking an input causes the producer's acknowledge,
firing the consumer's offer) and pushes any others itself.  The run loop
hands the returned event to ``heappushpop``, which queues it and pops the
next event in one call (and skips the heap when it is the smallest), and
calls the handler of that event's phase and key; one sentinel event past
the horizon ends it.  A Buffer whose consumer's key sorts after its own
queues the consumer's offer directly instead of an internal firing that
would only forward it (see ``_buffer``).  Lowering refuses a component
with more input or output ports than the net has links before it builds
any slot list, a link to a port the component lacks, and a link to a port
another link already binds.

``run_async`` and ``run_sync`` pause the cyclic collector for the whole
run, lowering included (see ``_collector_paused``).
"""
from __future__ import annotations

import gc
import itertools
import operator
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from heapq import heappop, heappush, heappushpop
from typing import Callable, Optional

from ..ir import (Component, FlowGraph, Kind, Network, back_edges,
                  combinational_cycle, port_counts)
from .config import SimConfig
from .report import SimReport

# Phase ranks: acknowledges free capacity before internal firings commit
# state, and offers are delivered into the freshest state.
_ACK, _FIRE, _OFFER = 0, 1, 2
# Keys of the two events that end a run.  The sentinel sits one past the
# horizon; a sink at its cap returns a stop event at the current time,
# which sorts before every queued event, the sentinel included.
_END, _STOP = -1, -2


class SimError(Exception):
    pass


class CombinationalCycle(SimError):
    """A buffer-free cycle cannot settle in clocked mode."""

    def __init__(self, cycle: list[str]):
        super().__init__(f"combinational cycle through links: "
                         f"{' -> '.join(cycle)}")
        self.cycle = cycle


class SteerMiss(SimError):
    """A Steer received a select value its routing table does not map."""


def _mask(width: int) -> int:
    return (1 << width) - 1


def eval_operator(fn: str, params: dict, ins: list[int],
                  in_widths: list[int], out_width: int) -> int:
    """Unsigned word arithmetic modulo the output width."""
    m = _mask(out_width)
    if fn == "const":
        return params["value"] & m
    if fn == "id":
        return ins[0] & m
    if fn == "neg":
        return (-ins[0]) & m
    if fn == "not":
        return (~ins[0]) & m
    a = ins[0]
    b = ins[1] if len(ins) > 1 else 0
    if fn == "add":
        return (a + b) & m
    if fn == "sub":
        return (a - b) & m
    if fn == "mul":
        return (a * b) & m
    if fn == "and":
        return (a & b) & m
    if fn == "or":
        return (a | b) & m
    if fn == "xor":
        return (a ^ b) & m
    if fn in ("eq", "ne", "lt", "gt", "le", "ge"):
        hit = {"eq": a == b, "ne": a != b, "lt": a < b,
               "gt": a > b, "le": a <= b, "ge": a >= b}[fn]
        return 1 if hit else 0
    if fn == "shl":
        return 0 if b >= out_width else (a << b) & m
    if fn == "shr":
        return 0 if b >= in_widths[0] else (a >> b) & m
    raise SimError(f"unknown operator function {fn!r}")


def _concat(widths: list[int]) -> Callable[[list[int]], int]:
    """A Join's output word: its inputs concatenated, low bits first."""
    fields = []
    shift = 0
    for w in widths:
        fields.append((_mask(w), shift))
        shift += w

    def concat(vals: list[int]) -> int:
        out = 0
        for v, (m, s) in zip(vals, fields):
            out |= (v & m) << s
        return out
    return concat


# Operators of two words (a, b) that _operator_fn resolves; a comparison
# gives 0 or 1 unmasked, like eval_operator.
_WORD_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "and": operator.and_, "or": operator.or_, "xor": operator.xor}
_COMPARE_OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
                "gt": operator.gt, "le": operator.le, "ge": operator.ge}


def _operator_fn(params: dict, in_widths: list[int]
                 ) -> Callable[[list[int]], int]:
    """eval_operator(params["fn"], params, ins, in_widths, params["out"])
    as a function of the input words alone, resolved once per Operator.
    An unknown or missing ``fn``, or an output width that is no
    non-negative int, resolves to eval_operator itself, so it raises when
    the Operator first fires, not before."""
    fn, out_width = params.get("fn"), params.get("out")
    if not isinstance(fn, str) or not isinstance(out_width, int) \
            or out_width < 0:
        fn = None   # unknown, and perhaps not hashable
    m = 0 if fn is None else _mask(out_width)
    if fn == "const":
        return lambda ins: params["value"] & m
    if fn == "id":
        return lambda ins: ins[0] & m
    if fn == "neg":
        return lambda ins: -ins[0] & m
    if fn == "not":
        return lambda ins: ~ins[0] & m
    if fn in _WORD_OPS:
        op = _WORD_OPS[fn]
        f = lambda ins: op(ins[0], ins[1]) & m   # noqa: E731
    elif fn in _COMPARE_OPS:
        test = _COMPARE_OPS[fn]
        f = lambda ins: 1 if test(ins[0], ins[1]) else 0   # noqa: E731
    elif fn == "shl":
        f = lambda ins: (0 if ins[1] >= out_width   # noqa: E731
                         else (ins[0] << ins[1]) & m)
    elif fn == "shr":
        f = lambda ins: (0 if ins[1] >= in_widths[0]   # noqa: E731
                         else (ins[0] >> ins[1]) & m)
    else:
        return lambda ins: eval_operator(params["fn"], params, ins,
                                         in_widths, params["out"])
    # A one-input Operator reads its missing second word as 0.
    return f if len(in_widths) > 1 else (lambda ins: f([ins[0], 0]))


def _port_counts(net: Network, cid: str, comp: Component) -> tuple[int, int]:
    """``port_counts(comp)``, or SimError when either count exceeds the
    net's links: every port needs a link of its own, the rule of
    ``ir.validate``.  Checked before anything is built per port."""
    n_in, n_out = port_counts(comp)
    if max(n_in, n_out) > len(net.links):
        raise SimError(f"{cid} has {n_in} input and {n_out} output ports, "
                       f"but the net has {len(net.links)} links")
    return n_in, n_out


class Simulation:
    """One run's mutable state.  Use run_async/run_sync; this class is
    exposed so deadlock diagnosis can be inspected on a quiesced net."""

    def __init__(self, net: Network, cfg: SimConfig):
        cfg.validate(net)
        self.net = net
        self.cfg = cfg
        self.heap: list[tuple] = []
        self.seq = 0    # events pushed, set when the run ends
        self.now = 0

        # Environment.
        self.offer_times: dict[str, list[int]] = {}
        self.accepted: dict[str, int] = {}    # stimulus values taken
        self.results: dict[str, list[tuple[int, int]]] = {}
        self.seeds: list[str] = []            # Initials that fired a seed

        self.buf_slots: dict[str, deque] = {}
        self.occupancy_series: list[tuple[int, str, int]] = []
        self.occupancy_max: dict[str, int] = {}
        self.occupancy_time: dict[str, dict[int, int]] = {}
        self._tails: list[Callable[[int], None]] = []
        self._lower()

    # -- lowering ---------------------------------------------------------

    def _lower(self) -> None:
        net = self.net
        # Environment keys, and the environment end of each port's link.
        env: dict[str, str] = {}
        link_in: dict[str, tuple[str, int]] = {}
        link_out: dict[str, tuple[str, int]] = {}
        for name in sorted(net.ports):
            port = net.ports[name]
            if port.dir == "in":
                key = f"$in.{name}"
                link_in[port.link] = (key, 0)
            else:
                key = f"$out.{name}"
                link_out[port.link] = (key, 0)
            env[key] = name

        self.names = names = sorted([*net.components, *env])
        self.ids = ids = {name: k for k, name in enumerate(names)}
        # Port counts per key.  Each key's slots follow those of the key
        # before it, so in_base[k + 1] is where key k's inputs end.
        n_in, n_out = [0] * len(names), [0] * len(names)
        for key in env:
            if key.startswith("$in."):
                n_out[ids[key]] = 1
            else:
                n_in[ids[key]] = 1
        initials = []
        for cid, comp in net.components.items():
            k = ids[cid]
            n_in[k], n_out[k] = _port_counts(net, cid, comp)
            if comp.kind is Kind.INITIAL:
                initials.append(k)
        self._initials = sorted(initials)
        self.n_in, self.n_out = n_in, n_out
        self.in_base = in_base = [0, *itertools.accumulate(n_in)]
        self.out_base = out_base = [0, *itertools.accumulate(n_out)]
        # Input slot: the standing value (None when empty), and the
        # producer (key, port) to acknowledge (key -1: none).
        self.in_val: list[Optional[int]] = [None] * in_base[-1]
        self.in_src = in_src = [(-1, 0)] * in_base[-1]
        # Output slot: whether an offer stands, and the consumer (key,
        # port) to offer to (key -1: none) with whether an offer from the
        # slot stands.  Without a link, firing offers nothing; on a link
        # with no consumer, the offer stands forever.
        self.out_standing = out_standing = [False] * out_base[-1]
        self.out_dst = out_dst = [(-1, 0, False)] * out_base[-1]
        # The link bound to each input and output slot so far.
        in_link: dict[int, str] = {}
        out_link: dict[int, str] = {}
        for lid, ln in net.links.items():
            src, dst = ln.src, ln.dst
            if src is None:
                src = link_in.get(lid)
            if dst is None:
                dst = link_out.get(lid)
            if src is not None:
                sk, sp = ids[src[0]], src[1]
                if not 0 <= sp < n_out[sk]:
                    raise SimError(f"link {lid} leaves {src[0]}, which has "
                                   f"no output {sp}")
                other = out_link.setdefault(out_base[sk] + sp, lid)
                if other != lid:
                    raise SimError(f"link {lid} leaves {src[0]} output {sp}, "
                                   f"which link {other} already binds")
            if dst is not None:
                dk, dp = ids[dst[0]], dst[1]
                if not 0 <= dp < n_in[dk]:
                    raise SimError(f"link {lid} enters {dst[0]}, which has "
                                   f"no input {dp}")
                other = in_link.setdefault(in_base[dk] + dp, lid)
                if other != lid:
                    raise SimError(f"link {lid} enters {dst[0]} input {dp}, "
                                   f"which link {other} already binds")
                if src is not None:
                    in_src[in_base[dk] + dp] = (sk, sp)
            if src is not None:
                out_dst[out_base[sk] + sp] = (
                    (-1, 0, True) if dst is None else (dk, dp, True))

        self.on_offer = on_offer = [None] * len(names)
        self.on_ack = on_ack = [None] * len(names)
        self.on_fire = on_fire = [None] * len(names)
        for key, name in env.items():
            k = ids[key]
            if key.startswith("$in."):
                on_ack[k] = _stimulus(self, k, name)
            else:
                on_offer[k] = _sink(self, k, name)
        for cid, comp in net.components.items():
            k = ids[cid]
            on_offer[k], on_ack[k], on_fire[k] = _HANDLERS[comp.kind](
                self, k, comp)

    # -- run loop ---------------------------------------------------------

    def run(self) -> SimReport:
        self._setup()
        heap, pop, pushpop = self.heap, heappop, heappushpop
        handlers = (self.on_ack, self.on_fire, self.on_offer)   # by phase
        # One sentinel past the horizon sorts after every event within it
        # and before every event beyond it, so popping it is the only
        # horizon (and empty heap) test the loop needs.
        heappush(heap, (self.cfg.max_time + 1, _END, 0, _ACK, None))
        t = self.now
        nxt = None   # the event the last handler returned, not yet queued
        n = key = 0
        try:
            for n in itertools.count(1):   # pops, this one included
                te, key, port, phase, payload = (
                    pop(heap) if nxt is None else pushpop(heap, nxt))
                if key < 0:
                    break
                t = te
                nxt = handlers[phase][key](port, payload, t)
        finally:
            self.now = t
            # Events pushed: the events popped (the current one too when a
            # handler raised) and those still queued, less the sentinel
            # unless it was popped.
            self.seq = n - 1 + len(heap) - (key != _END) + (key >= 0)
        # Events left queued, or a stop event (the sentinel is still
        # queued then), cut the run short.
        return self._finish(bool(heap))

    def _setup(self) -> None:
        heap, out_standing = self.heap, self.out_standing
        for name, times in self.offer_times.items():
            values = self.cfg.stimulus.get(name, [])
            if values:
                times.append(0)
                slot = self.out_base[self.ids[f"$in.{name}"]]
                k, port, stands = self.out_dst[slot]
                out_standing[slot] = stands
                if k >= 0:
                    heappush(heap, (0, k, port, _OFFER, values[0]))
        for k in self._initials:
            heappush(heap, (0, k, 0, _FIRE, None))

    # -- wrap-up ----------------------------------------------------------

    def _in_flight(self) -> bool:
        return (self.in_val.count(None) < len(self.in_val)
                or any(self.buf_slots.values()))

    def _finish(self, truncated: bool) -> SimReport:
        report = SimReport(mode=self.cfg.mode, clock=self.cfg.clock)
        report.results = self.results
        report.truncated = truncated
        if truncated:
            report.completion = "horizon"
        elif not self._in_flight():
            report.completion = "drained"
        else:
            flag, diagnosis = detect_deadlock(self)
            if flag:
                report.completion = "deadlock"
                report.deadlock = True
                report.diagnosis = diagnosis
            else:
                report.completion = "stimulus-exhausted"

        primary = report.primary_port()
        if primary is not None and self.results[primary]:
            times = [t for _, t in self.results[primary]]
            report.elapsed = times[-1]
            report.throughput = len(times) / times[-1] if times[-1] else 0.0
            if len(times) > 1:
                gaps = [b - a for a, b in zip(times, times[1:])]
                report.cycle_time = sum(gaps) / len(gaps)
            if self.cfg.mode == "sync" and self.cfg.clock:
                report.gamma = (times[-1] / self.cfg.clock) / len(times)
            marks = []
            i = 0
            while True:
                stamp = [seq[i] for seq in self.offer_times.values()
                         if len(seq) > i]
                if not stamp:
                    break
                marks.append(min(stamp))
                i += 1
            for i, (_, out_t) in enumerate(self.results[primary]):
                if i < len(marks):
                    report.latencies.append(out_t - marks[i])

        report.tokens_in = sum(self.accepted.values())
        report.tokens_out = sum(len(got) for got in self.results.values())
        report.seeded = len(self.seeds)
        report.occupancy_series = self.occupancy_series
        report.occupancy_max = dict(self.occupancy_max)
        end = max(self.now, report.elapsed)
        for tail in self._tails:
            tail(end)
        report.occupancy_time = self.occupancy_time
        return report


# -- per-kind handlers ----------------------------------------------------
#
# Each builder takes one key whose slots are already wired (port counts as
# in ir.port_counts) and returns its (offer, acknowledge, fire) handlers,
# closed over its slots, the far ends of its links, its parameters and its
# resolved delay.  Every handler is called as (port, payload, t), keeps
# its own slots and returns one event it causes, or None; it pushes any
# further events itself:
#
# * an offer handler gets the offered value; it stores it in the input
#   slot unless it takes the value at once;
# * taking an input empties its slot and causes the producer's
#   acknowledge (t, key, port, _ACK, None), if there is a producer;
# * an acknowledge handler clears its output slot;
# * emitting marks the output slot standing (not on an output with no
#   link) and causes (t, key, port, _OFFER, value) at the consumer, if
#   there is one.
#
# A handler that causes several events returns the earliest, which is
# most often the heap's next event, so that heappushpop hands it straight
# back.  The run loop queues the returned event as it pops the next one,
# and stops at a key below 0: the sentinel, or a sink's stop event.

def _stimulus(sim: Simulation, k: int, name: str):
    slot = sim.out_base[k]
    values = sim.cfg.stimulus.get(name, [])
    times = sim.offer_times[name] = []
    accepted = sim.accepted
    accepted[name] = 0
    out_standing = sim.out_standing
    dk, dp, stands = sim.out_dst[slot]

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        out_standing[slot] = False
        taken = accepted[name] = accepted[name] + 1
        if taken < len(values):
            times.append(t)
            out_standing[slot] = stands
            if dk >= 0:
                return (t, dk, dp, _OFFER, values[taken])
        return None
    return on_ack


def _sink(sim: Simulation, k: int, name: str):
    sk, sp = sim.in_src[sim.in_base[k]]
    got = sim.results[name] = []
    cap = sim.cfg.max_results
    heap = sim.heap

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        """Record the result and acknowledge it; once the port reached the
        cap, queue the acknowledge and return a stop event."""
        got.append((value, t))
        ack = (t, sk, sp, _ACK, None) if sk >= 0 else None
        if len(got) < cap:
            return ack
        if ack is not None:
            heappush(heap, ack)
        return (t, _STOP, 0, _ACK, None)
    return on_offer


def _combinational(sim: Simulation, k: int, n: int, delay: int,
                   compute: Callable[[list[int]], int]):
    """Join and Operator: fire once every input stands, hold the inputs
    until the output is taken."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    end = ib + n
    heap = sim.heap
    in_val, out_standing = sim.in_val, sim.out_standing
    # The producers to acknowledge, the smallest key first: it is returned.
    srcs = sorted(src for src in sim.in_src[ib:end] if src[0] >= 0)
    first = srcs[0] if srcs else None
    rest = srcs[1:]
    cleared = [None] * n
    dk, dp, stands = sim.out_dst[ob]
    have = 0    # inputs standing; none arrives while the output stands

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        nonlocal have
        in_val[ib + port] = value
        have += 1
        if have < n:
            return None
        out = compute(in_val[ib:end])
        out_standing[ob] = stands
        return (t + delay, dk, dp, _OFFER, out) if dk >= 0 else None

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal have
        out_standing[ob] = False
        have = 0
        in_val[ib:end] = cleared
        for sk, sp in rest:
            heappush(heap, (t, sk, sp, _ACK, None))
        if first is None:
            return None
        return (t, first[0], first[1], _ACK, None)
    return on_offer, on_ack, None


def _join(sim: Simulation, k: int, comp: Component):
    widths = comp.params["inputs"]
    return _combinational(sim, k, len(widths), sim.cfg.delays.join,
                          _concat(widths))


def _operator(sim: Simulation, k: int, comp: Component):
    p = comp.params
    delay = sim.cfg.delays.operator_delay(p.get("delay_class", "default"))
    return _combinational(sim, k, len(p["inputs"]), delay,
                          _operator_fn(p, p["inputs"]))


def _fork(sim: Simulation, k: int, comp: Component):
    masks = [_mask(w) for w in comp.params["outputs"]]
    n = len(masks)
    ib, ob = sim.in_base[k], sim.out_base[k]
    delay = sim.cfg.delays.fork
    heap = sim.heap
    in_val, out_standing = sim.in_val, sim.out_standing
    sk, sp = sim.in_src[ib]
    dsts = sim.out_dst[ob:ob + n]
    standing = [stands for _, _, stands in dsts]   # each output's, once fired
    # The consumers to offer to, the smallest key first: it is returned.
    offers = sorted((dk, dp, m) for (dk, dp, _), m in zip(dsts, masks)
                    if dk >= 0)
    first = offers[0] if offers else None
    rest = offers[1:]
    pending = 0   # outputs not yet taken

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        nonlocal pending
        in_val[ib] = value
        pending = n
        out_standing[ob:ob + n] = standing
        t += delay
        for dk, dp, m in rest:
            heappush(heap, (t, dk, dp, _OFFER, value & m))
        if first is None:
            return None
        dk, dp, m = first
        return (t, dk, dp, _OFFER, value & m)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal pending
        out_standing[ob + port] = False
        pending -= 1
        if pending:
            return None
        in_val[ib] = None
        return (t, sk, sp, _ACK, None) if sk >= 0 else None
    return on_offer, on_ack, None


def _steer(sim: Simulation, k: int, comp: Component):
    p = comp.params
    ib, ob = sim.in_base[k], sim.out_base[k]
    name = sim.names[k]
    sel_w = p["select"]
    sel_mask = _mask(sel_w)
    routes = {}   # select value -> (output slot, consumer, stands)
    for sel, target in p["table"].items():
        if not 0 <= int(target) < p["outputs"]:
            raise SimError(f"{name}: steer table entry {sel} targets "
                           f"missing output {target}")
        # A select value matches the entry written as its decimal digits;
        # no value matches any other spelling.
        if isinstance(sel, str) and sel.isdecimal() and str(int(sel)) == sel:
            slot = ob + int(target)
            routes[int(sel)] = (slot, *sim.out_dst[slot])
    delay = sim.cfg.delays.steer
    in_val, out_standing = sim.in_val, sim.out_standing
    sk, sp = sim.in_src[ib]

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib] = value
        sel = value & sel_mask
        route = routes.get(sel)
        if route is None:
            raise SteerMiss(f"{name}: select value {sel} has no route")
        slot, dk, dp, stands = route
        out_standing[slot] = stands
        if dk >= 0:
            return (t + delay, dk, dp, _OFFER, value >> sel_w)
        return None

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        out_standing[ob + port] = False
        in_val[ib] = None
        return (t, sk, sp, _ACK, None) if sk >= 0 else None
    return on_offer, on_ack, None


def _initial(sim: Simulation, k: int, comp: Component):
    """Offers its seed once at start, then relays its input like a wire."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    p = comp.params
    seed = p.get("value", 0) & _mask(p.get("width", 0))
    delay = sim.cfg.delays.initial
    name, fired = sim.names[k], sim.seeds
    in_val, out_standing = sim.in_val, sim.out_standing
    sk, sp = sim.in_src[ib]
    dk, dp, wired = sim.out_dst[ob]
    seeded = False
    # True while the standing offer was relayed from the input; the seed
    # offer consumes no input when it is taken.
    relaying = False

    def relay(t: int) -> Optional[tuple]:
        nonlocal relaying
        if not seeded or out_standing[ob] or not wired:
            return None
        v = in_val[ib]
        if v is None:
            return None
        relaying = out_standing[ob] = True
        return (t + delay, dk, dp, _OFFER, v) if dk >= 0 else None

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib] = value
        return relay(t)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal relaying
        out_standing[ob] = False
        if not relaying:
            return relay(t)
        # The relayed input is taken, so there is nothing left to relay.
        relaying = False
        in_val[ib] = None
        return (t, sk, sp, _ACK, None) if sk >= 0 else None

    def on_fire(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal seeded
        seeded = True
        fired.append(name)
        out_standing[ob] = wired
        return (t + delay, dk, dp, _OFFER, seed) if dk >= 0 else None
    return on_offer, on_ack, on_fire


def _variable(sim: Simulation, k: int, comp: Component):
    """Port 0 writes (fires a commit after the write delay, then offers
    write-done); port 1 + i samples for read site i after the read delay.
    Each port holds its input until its own output is taken, so an offer
    never finds its port busy."""
    p = comp.params
    n = 1 + p["reads"]
    ib, ob = sim.in_base[k], sim.out_base[k]
    mask = _mask(p["width"])
    write, read = sim.cfg.delays.variable_write, sim.cfg.delays.variable_read
    in_val, out_standing = sim.in_val, sim.out_standing
    srcs = sim.in_src[ib:ib + n]
    dsts = sim.out_dst[ob:ob + n]
    store = p.get("init", 0)

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib + port] = value
        if port:
            return (t + read, k, port, _FIRE, None)
        return (t + write, k, 0, _FIRE, value)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        out_standing[ob + port] = False
        in_val[ib + port] = None
        sk, sp = srcs[port]
        return (t, sk, sp, _ACK, None) if sk >= 0 else None

    def on_fire(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal store
        if port:
            value = store & mask
        else:
            store = payload
            value = 0
        dk, dp, stands = dsts[port]
        out_standing[ob + port] = stands
        return (t, dk, dp, _OFFER, value) if dk >= 0 else None
    return on_offer, on_ack, on_fire


def _merge(sim: Simulation, k: int, comp: Component):
    """Grants the earliest waiting input, then the lowest port."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    delay = sim.cfg.delays.merge
    heap = sim.heap
    in_val, out_standing = sim.in_val, sim.out_standing
    srcs = sim.in_src[ib:sim.in_base[k + 1]]
    dk, dp, stands = sim.out_dst[ob]
    # Inputs wait only while another is granted, so an offer that finds
    # no grant finds the queue empty and the output free.
    queue: list[tuple[int, int]] = []   # waiting (arrival time, port)
    grant: Optional[int] = None

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        nonlocal grant
        in_val[ib + port] = value
        if grant is not None:
            queue.append((t, port))
            return None
        grant = port
        out_standing[ob] = stands
        return (t + delay, dk, dp, _OFFER, value) if dk >= 0 else None

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal grant
        out_standing[ob] = False
        in_val[ib + grant] = None
        sk, sp = srcs[grant]
        ack = (t, sk, sp, _ACK, None) if sk >= 0 else None
        if not queue:
            grant = None
            return ack
        chosen = min(queue)
        queue.remove(chosen)
        grant = chosen[1]
        out_standing[ob] = stands
        if dk < 0:
            return ack
        offer = (t + delay, dk, dp, _OFFER, in_val[ib + grant])
        if ack is None:
            return offer
        heappush(heap, offer)
        return ack
    return on_offer, on_ack, None


def _buffer(sim: Simulation, k: int, comp: Component):
    """Takes while below capacity; the head token is offered one buffer
    delay after it arrived.  The time spent at each level is added up as
    the run goes, and every level change is logged when the run records
    the occupancy series.

    The head's offer is due at ``due``.  When the consumer's key sorts
    after this Buffer's (``dk > k``, so the output is linked), the offer
    is queued at once, at ``due``, and the output marked standing then;
    otherwise a firing (due, k, 0, _FIRE) is queued and pushes the offer
    when it is popped, at the same time.  Folding cannot change the pop
    order: every event that pops before the firing would is smaller than
    the firing, and so smaller than the offer, whose key sorts after the
    firing's at the same time; and once the firing would have popped, the
    queue holds the same events either way.  Nothing reads this output's
    standing flag before then but deadlock diagnosis, which runs only on
    a quiesced net.  A Buffer draining into a `$out.*` sink, or into any
    consumer whose key sorts first, keeps the firing."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    name = sim.names[k]
    cap = comp.params["capacity"]
    delay = sim.cfg.delays.buffer
    heap = sim.heap
    in_val, out_standing = sim.in_val, sim.out_standing
    sk, sp = sim.in_src[ib]
    dk, dp, stands = sim.out_dst[ob]
    fold = dk > k
    slots = sim.buf_slots[name] = deque()   # (value, arrival time)
    record, log = sim.cfg.record_occupancy, sim.occupancy_series.append
    peak = sim.occupancy_max
    peak[name] = top = 0
    hist = sim.occupancy_time[name] = {}
    level = since = 0   # level is len(slots)
    # True from scheduling the head's offer until it is taken: the output
    # is then firing or standing, and nothing else is scheduled.
    busy = False

    def tail(end: int) -> None:
        if end > since:
            hist[level] = hist.get(level, 0) + (end - since)
    sim._tails.append(tail)

    def schedule(t: int, ack: Optional[tuple]) -> Optional[tuple]:
        """Schedules the head's offer, folded or as a firing, beside the
        acknowledge ``ack`` made at ``t``; returns one of the two for the
        loop to queue and pushes the other."""
        head, arrived = slots[0]
        due = arrived + delay
        if due < t:
            due = t
        if fold:
            out_standing[ob] = True
            nxt = (due, dk, dp, _OFFER, head)
        else:
            nxt = (due, k, 0, _FIRE, None)
        if ack is None:
            return nxt
        heappush(heap, nxt)
        return ack

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        nonlocal level, since, top, busy
        if level >= cap:
            in_val[ib] = value   # stands until a slot frees
            return None
        slots.append((value, t))
        if t > since:
            hist[level] = hist.get(level, 0) + (t - since)
            since = t
        level += 1
        if record:
            log((t, name, level))
        if level > top:
            peak[name] = top = level
        ack = (t, sk, sp, _ACK, None) if sk >= 0 else None
        if busy:
            return ack
        busy = True
        return schedule(t, ack)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal level, since, busy
        out_standing[ob] = False
        slots.popleft()
        if t > since:
            hist[level] = hist.get(level, 0) + (t - since)
            since = t
        level -= 1
        if record:
            log((t, name, level))
        ack = None
        value = in_val[ib]
        if value is not None:    # take the waiting offer: back to the peak
            in_val[ib] = None
            if sk >= 0:
                ack = (t, sk, sp, _ACK, None)
            slots.append((value, t))
            level += 1
            if record:
                log((t, name, level))
        busy = level > 0
        return schedule(t, ack) if busy else ack

    def on_fire(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal busy
        busy = out_standing[ob] = stands
        return (t, dk, dp, _OFFER, slots[0][0]) if dk >= 0 else None
    return on_offer, on_ack, on_fire


# The handler builder per kind.
_HANDLERS = {
    Kind.JOIN: _join,
    Kind.OPERATOR: _operator,
    Kind.FORK: _fork,
    Kind.STEER: _steer,
    Kind.INITIAL: _initial,
    Kind.VARIABLE: _variable,
    Kind.MERGE: _merge,
    Kind.BUFFER: _buffer,
}


def detect_deadlock(sim: Simulation) -> tuple[bool, list[str]]:
    """Waits-on cycle search over a quiesced simulation.

    Producer-side edges: a standing unconsumed offer makes its producer
    wait on the consumer.  Consumer-side edges: an all-inputs component
    holding some inputs while missing others waits on the producers of
    the missing ones.  A cycle means no firing can ever be enabled; a
    blocked chain that only ends at the exhausted environment is normal
    starvation, not deadlock.
    """
    net, names = sim.net, sim.names
    in_val, in_src, in_base = sim.in_val, sim.in_src, sim.in_base
    edges: dict[str, set[str]] = {}

    def edge(a: str, b: str) -> None:
        edges.setdefault(a, set()).add(b)

    # Only standing offers make edges; key k owns the slots from
    # in_base[k] up to in_base[k + 1].
    holders = set()
    for slot, value in enumerate(in_val):
        if value is None:
            continue
        k = bisect_right(in_base, slot) - 1
        holders.add(k)
        src = in_src[slot][0]
        if src >= 0 and not names[k].startswith("$out."):
            edge(names[src], names[k])
    for k in holders:
        comp = net.components.get(names[k])
        if comp is None or comp.kind not in (Kind.JOIN, Kind.OPERATOR):
            continue
        for slot in range(in_base[k], in_base[k + 1]):
            src = in_src[slot][0]
            if in_val[slot] is None and src >= 0:
                edge(names[k], names[src])

    def waits_on(node: str) -> list[tuple[str, str]]:
        return [(n, n) for n in sorted(edges.get(node, ()))]

    found = next(back_edges(sorted(edges), waits_on), None)
    if found is None:
        return False, []
    path, _, target = found
    cycle = path[path.index(target):] + [target]
    lines = ["blocked cycle: " + " -> ".join(cycle)]
    for node in cycle[:-1]:
        if node.startswith("$"):
            continue
        kind = net.components[node].kind.value
        k = sim.ids[node]
        ib, ob = sim.in_base[k], sim.out_base[k]
        held = [i - ib for i in range(ib, ib + sim.n_in[k])
                if sim.in_val[i] is not None]
        out = [i - ob for i in range(ob, ob + sim.n_out[k])
               if sim.out_standing[i]]
        lines.append(f"{node} ({kind}): holding inputs {held}, "
                     f"unacknowledged outputs {out}")
    return True, lines


def critical_path(net: Network, delays) -> int:
    """Longest combinational component-delay chain between storage points.

    One post-order search of ``FlowGraph.comb`` from each link in sorted id
    order; on a cyclic net an edge back into the search path adds nothing.
    """
    succ = FlowGraph(net).comb
    order: list[str] = []
    for _ in back_edges(sorted(succ), lambda lid: zip(succ[lid], succ[lid]),
                        order):
        pass
    return _longest_chain(net, delays, succ, order)


def _longest_chain(net: Network, delays, succ: dict[str, list[str]],
                   order: list[str]) -> int:
    """critical_path from the post-order of the search: a successor that
    the search left before this link adds its chain, one it left later
    closed a cycle back into the path and adds nothing."""
    chain: dict[str, int] = {}
    for lid in order:
        best = 0
        for nxt in succ[lid]:
            c = chain.get(nxt, 0)
            if c > best:
                best = c
        dst = net.links[lid].dst
        chain[lid] = best + (0 if dst is None else
                             delays.component_delay(net.components[dst[0]]))
    return max(chain.values(), default=0)


@contextmanager
def _collector_paused():
    """Keeps CPython's cyclic collector off for one run, and on again
    afterwards only if it was on before.  A run creates no reference
    cycles, so reference counting frees all it allocates; the collector
    would only walk the lowering's closures and cells while they live."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run_async(net: Network, cfg: SimConfig) -> SimReport:
    """Event-driven run with the full delay table."""
    if cfg.mode != "async":
        raise SimError(f"run_async needs mode async, got {cfg.mode!r}")
    with _collector_paused():
        return Simulation(net, cfg).run()


def run_sync(net: Network, cfg: SimConfig) -> SimReport:
    """Clocked (forward-interlocked) run: combinational components settle
    within a cycle, Buffers advance tokens one period per cycle.  One
    search of the ``comb`` view of one ``FlowGraph`` serves the cycle check
    and the critical path; a cycle found is named by
    ``combinational_cycle``.  Port counts are checked first, since the
    search walks each component's (input, output) port pairs."""
    if cfg.mode != "sync":
        raise SimError(f"run_sync needs mode sync, got {cfg.mode!r}")
    with _collector_paused():
        for cid, comp in net.components.items():
            _port_counts(net, cid, comp)
        g = FlowGraph(net)
        succ = g.comb
        order: list[str] = []
        if next(back_edges(sorted(succ),
                           lambda lid: zip(succ[lid], succ[lid]), order),
                None) is not None:
            raise CombinationalCycle(combinational_cycle(g))
        # No back edge: the search ran to its end and ``order`` is complete.
        crit = _longest_chain(net, cfg.delays, succ, order)
        inner = replace(cfg, delays=cfg.delays.zeroed(buffer_delay=cfg.clock))
        report = Simulation(net, inner).run()
    report.mode = "sync"
    report.critical_path = crit
    report.overclocked = cfg.clock < crit
    return report


def run(net: Network, cfg: SimConfig) -> SimReport:
    return run_sync(net, cfg) if cfg.mode == "sync" else run_async(net, cfg)
