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
port, phase) order, with acknowledges first, internal firings second,
offers last, and a global sequence number as the final tiebreak.  All
times are integer picoseconds.

Each Simulation lowers its net once into int-indexed tables.  Component
ids and the environment keys `$in.<port>` and `$out.<port>` are numbered
in sorted string order, so int keys tie exactly as the strings would.
Every key owns a run of flat input slots (the standing offer's value)
and output slots (whether an offer stands), every slot knows the key and
port at the far end of its link, and every key has its own offer,
acknowledge and fire handler with its parameters and delay resolved.
"""
from __future__ import annotations

import heapq
import itertools
from collections import deque
from dataclasses import replace
from typing import Callable, Optional

from ..ir import (Component, Kind, Network, back_edges, combinational_cycle,
                  combinational_successors)
from .config import SimConfig
from .report import SimReport

# Phase ranks: acknowledges free capacity before internal firings commit
# state, and offers are delivered into the freshest state.
_ACK, _FIRE, _OFFER = 0, 1, 2

# Far-end key of an output slot with no link (firing it offers nothing);
# -1 is a link with no consumer, where the offer stands forever.
_NO_LINK = -2


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
            if net.ports[name].dir == "in":
                key = f"$in.{name}"
                link_in[net.ports[name].link] = (key, 0)
            else:
                key = f"$out.{name}"
                link_out[net.ports[name].link] = (key, 0)
            env[key] = name

        self.names = names = sorted([*net.components, *env])
        self.ids = ids = {name: k for k, name in enumerate(names)}
        # Per key: first slot and slot count on each side, set by _slots
        # as each key's handlers are built.
        self.in_base, self.n_in = [0] * len(names), [0] * len(names)
        self.out_base, self.n_out = [0] * len(names), [0] * len(names)
        # Input slot: the standing value (None when empty), and the
        # producer (key, port) to acknowledge (key -1: none).
        in_val: list[Optional[int]] = []
        in_src: list[int] = []
        in_src_port: list[int] = []
        # Output slot: whether an offer stands, and the consumer (key,
        # port) to offer to (-1 or _NO_LINK when there is none).
        out_standing: list[bool] = []
        out_dst: list[int] = []
        out_dst_port: list[int] = []
        self.in_val, self.in_src = in_val, in_src
        self.out_standing, self.out_dst = out_standing, out_dst

        heap, tick = self.heap, itertools.count(1).__next__
        self._tick = tick

        def push(t: int, k: int, port: int, payload) -> None:
            """Schedule an internal firing of key k."""
            heapq.heappush(heap, (t, k, port, _FIRE, tick(), payload))

        def offer(slot: int, value: int, t: int) -> None:
            """The producer's output slot emits: the offer is delivered to
            the link's consumer at t and stands until acknowledged."""
            k = out_dst[slot]
            if k == _NO_LINK:
                return
            out_standing[slot] = True
            if k >= 0:
                heapq.heappush(heap, (t, k, out_dst_port[slot], _OFFER,
                                      tick(), value))

        def consume(slot: int, t: int) -> None:
            """The consumer takes the standing offer on its input slot: the
            value leaves the link and the producer is acknowledged."""
            in_val[slot] = None
            k = in_src[slot]
            if k >= 0:
                heapq.heappush(heap, (t, k, in_src_port[slot], _ACK, tick(),
                                      None))

        self._push, self._offer, self._consume = push, offer, consume
        self.on_offer: list = [None] * len(names)
        self.on_ack: list = [None] * len(names)
        self.on_fire: list = [None] * len(names)
        for key, name in env.items():
            k = ids[key]
            if key.startswith("$in."):
                self.on_ack[k] = self._stimulus(k, name)
            else:
                self.on_offer[k] = self._sink(k, name)
        for cid, comp in net.components.items():
            k = ids[cid]
            handlers = _HANDLERS[comp.kind](self, k, comp)
            self.on_offer[k], self.on_ack[k], self.on_fire[k] = handlers

        in_src.extend([-1] * len(in_val))
        in_src_port.extend([0] * len(in_val))
        out_dst.extend([_NO_LINK] * len(out_standing))
        out_dst_port.extend([0] * len(out_standing))
        for lid, ln in net.links.items():
            src = ln.src if ln.src is not None else link_in.get(lid)
            dst = ln.dst if ln.dst is not None else link_out.get(lid)
            if src is not None:
                k, p = ids[src[0]], src[1]
                if not 0 <= p < self.n_out[k]:
                    raise SimError(f"link {lid} leaves {src[0]}, which has "
                                   f"no output {p}")
                slot = self.out_base[k] + p
                out_dst[slot], out_dst_port[slot] = (
                    (-1, 0) if dst is None else (ids[dst[0]], dst[1]))
            if dst is not None:
                k, p = ids[dst[0]], dst[1]
                if not 0 <= p < self.n_in[k]:
                    raise SimError(f"link {lid} enters {dst[0]}, which has "
                                   f"no input {p}")
                slot = self.in_base[k] + p
                in_src[slot], in_src_port[slot] = (
                    (-1, 0) if src is None else (ids[src[0]], src[1]))

    def _slots(self, k: int, n_in: int, n_out: int) -> tuple[int, int]:
        """Give key k its input and output slots, all empty; returns the
        first of each.  They are wired once every key has its slots."""
        ib, ob = len(self.in_val), len(self.out_standing)
        self.in_base[k], self.n_in[k] = ib, n_in
        self.out_base[k], self.n_out[k] = ob, n_out
        self.in_val.extend([None] * n_in)
        self.out_standing.extend([False] * n_out)
        return ib, ob

    def _stimulus(self, k: int, name: str):
        _, slot = self._slots(k, 0, 1)
        values = self.cfg.stimulus.get(name, [])
        times = self.offer_times[name] = []
        accepted = self.accepted
        accepted[name] = 0
        offer = self._offer

        def on_ack(port: int, t: int) -> None:
            accepted[name] += 1
            if accepted[name] < len(values):
                times.append(t)
                offer(slot, values[accepted[name]], t)
        return on_ack

    def _sink(self, k: int, name: str):
        slot, _ = self._slots(k, 1, 0)
        got = self.results[name] = []
        cap = self.cfg.max_results
        in_val, consume = self.in_val, self._consume

        def on_offer(port: int, t: int) -> bool:
            """Record the result; True once the port reached the cap."""
            got.append((in_val[slot], t))
            consume(slot, t)
            return len(got) >= cap
        return on_offer

    # -- run loop ---------------------------------------------------------

    def run(self) -> SimReport:
        self._setup()
        heap, pop = self.heap, heapq.heappop
        in_val, out_standing = self.in_val, self.out_standing
        in_base, out_base = self.in_base, self.out_base
        on_offer, on_ack, on_fire = self.on_offer, self.on_ack, self.on_fire
        max_time = self.cfg.max_time
        truncated = False
        t = self.now
        try:
            while heap:
                if heap[0][0] > max_time:
                    truncated = True
                    break
                t, key, port, phase, _, payload = pop(heap)
                if phase == _OFFER:
                    in_val[in_base[key] + port] = payload
                    if on_offer[key](port, t):
                        truncated = True
                        break
                elif phase == _ACK:
                    out_standing[out_base[key] + port] = False
                    on_ack[key](port, t)
                else:
                    on_fire[key](port, payload, t)
        finally:
            self.now = t
            self.seq = self._tick() - 1
        return self._finish(truncated)

    def _setup(self) -> None:
        for name, times in self.offer_times.items():
            values = self.cfg.stimulus.get(name, [])
            if values:
                times.append(0)
                self._offer(self.out_base[self.ids[f"$in.{name}"]],
                            values[0], 0)
        for cid in sorted(cid for cid, c in self.net.components.items()
                          if c.kind is Kind.INITIAL):
            self._push(0, self.ids[cid], 0, None)

    # -- wrap-up ----------------------------------------------------------

    def _in_flight(self) -> bool:
        return (any(v is not None for v in self.in_val)
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
# Each builder takes the slots of one component (port counts as in
# Component.input_widths/output_widths) and returns its (offer,
# acknowledge, fire) handlers, closed over those slots, its parameters
# and its resolved delay.  An offer handler runs after the value is
# stored in its input slot, an acknowledge handler after its output slot
# is cleared.

def _combinational(sim: Simulation, k: int, n: int, delay: int,
                   compute: Callable[[list[int]], int]):
    """Join and Operator: fire once every input stands, hold the inputs
    until the output is taken."""
    ib, ob = sim._slots(k, n, 1)
    end = ib + n
    in_val, out_standing = sim.in_val, sim.out_standing
    offer, consume = sim._offer, sim._consume

    def try_fire(port: int, t: int) -> None:
        if out_standing[ob]:
            return
        vals = in_val[ib:end]
        if None in vals:
            return
        offer(ob, compute(vals), t + delay)

    def on_ack(port: int, t: int) -> None:
        for slot in range(ib, end):
            consume(slot, t)
        try_fire(port, t)
    return try_fire, on_ack, None


def _join(sim: Simulation, k: int, comp: Component):
    widths = comp.params["inputs"]
    return _combinational(sim, k, len(widths), sim.cfg.delays.join,
                          _concat(widths))


def _operator(sim: Simulation, k: int, comp: Component):
    p = comp.params
    delay = sim.cfg.delays.operator_delay(p.get("delay_class", "default"))
    return _combinational(
        sim, k, len(p["inputs"]), delay,
        lambda vals: eval_operator(p["fn"], p, vals, p["inputs"], p["out"]))


def _fork(sim: Simulation, k: int, comp: Component):
    masks = [_mask(w) for w in comp.params["outputs"]]
    ib, ob = sim._slots(k, 1, len(masks))
    delay = sim.cfg.delays.fork
    in_val, offer, consume = sim.in_val, sim._offer, sim._consume
    pending: Optional[int] = None   # outputs not yet taken

    def try_fire(port: int, t: int) -> None:
        nonlocal pending
        if pending is not None:
            return
        v = in_val[ib]
        if v is None:
            return
        pending = len(masks)
        for i, m in enumerate(masks):
            offer(ob + i, v & m, t + delay)

    def on_ack(port: int, t: int) -> None:
        nonlocal pending
        if pending is None:
            return
        pending -= 1
        if not pending:
            pending = None
            consume(ib, t)
            try_fire(port, t)
    return try_fire, on_ack, None


def _steer(sim: Simulation, k: int, comp: Component):
    p = comp.params
    ib, ob = sim._slots(k, 1, p["outputs"])
    name = sim.names[k]
    sel_w = p["select"]
    sel_mask = _mask(sel_w)
    routes = {}   # select value as written in the table -> output slot
    for sel, target in p["table"].items():
        if not 0 <= int(target) < p["outputs"]:
            raise SimError(f"{name}: steer table entry {sel} targets "
                           f"missing output {target}")
        routes[sel] = ob + int(target)
    delay = sim.cfg.delays.steer
    in_val, out_standing = sim.in_val, sim.out_standing
    offer, consume = sim._offer, sim._consume

    def try_fire(port: int, t: int) -> None:
        v = in_val[ib]
        if v is None:
            return
        sel = v & sel_mask
        slot = routes.get(str(sel))
        if slot is None:
            raise SteerMiss(f"{name}: select value {sel} has no route")
        if out_standing[slot]:
            return
        offer(slot, v >> sel_w, t + delay)

    def on_ack(port: int, t: int) -> None:
        consume(ib, t)
        try_fire(port, t)
    return try_fire, on_ack, None


def _initial(sim: Simulation, k: int, comp: Component):
    """Offers its seed once at start, then relays its input like a wire."""
    ib, ob = sim._slots(k, 1, 1)
    p = comp.params
    seed = p.get("value", 0) & _mask(p.get("width", 0))
    delay = sim.cfg.delays.initial
    name, fired = sim.names[k], sim.seeds
    in_val, out_standing, out_dst = sim.in_val, sim.out_standing, sim.out_dst
    offer, consume = sim._offer, sim._consume
    seeded = False
    # True while the standing offer was relayed from the input; the seed
    # offer consumes no input when it is taken.
    relaying = False

    def try_fire(port: int, t: int) -> None:
        nonlocal relaying
        if not seeded or out_standing[ob]:
            return
        v = in_val[ib]
        if v is None or out_dst[ob] == _NO_LINK:
            return
        relaying = True
        offer(ob, v, t + delay)

    def on_ack(port: int, t: int) -> None:
        nonlocal relaying
        if relaying:
            relaying = False
            consume(ib, t)
        try_fire(port, t)

    def on_fire(port: int, payload, t: int) -> None:
        nonlocal seeded
        seeded = True
        fired.append(name)
        offer(ob, seed, t + delay)
    return try_fire, on_ack, on_fire


def _variable(sim: Simulation, k: int, comp: Component):
    """Port 0 writes (fires a commit after the write delay, then offers
    write-done); port 1 + i samples for read site i after the read delay."""
    p = comp.params
    n = 1 + p["reads"]
    ib, ob = sim._slots(k, n, n)
    mask = _mask(p["width"])
    d = sim.cfg.delays
    in_val, out_standing = sim.in_val, sim.out_standing
    push, offer, consume = sim._push, sim._offer, sim._consume
    store = p.get("init", 0)
    busy = [False] * n

    def attempt(q: int, t: int) -> None:
        if busy[q]:
            return
        v = in_val[ib + q]
        if v is None or out_standing[ob + q]:
            return
        busy[q] = True
        if q == 0:
            push(t + d.variable_write, k, 0, v)
        else:
            push(t + d.variable_read, k, q, None)

    def on_offer(port: int, t: int) -> None:
        for q in range(n):
            attempt(q, t)

    def on_ack(port: int, t: int) -> None:
        busy[port] = False
        consume(ib + port, t)
        attempt(port, t)

    def on_fire(port: int, payload, t: int) -> None:
        nonlocal store
        if port == 0:
            store = payload
            offer(ob, 0, t)
        else:
            offer(ob + port, store & mask, t)
    return on_offer, on_ack, on_fire


def _merge(sim: Simulation, k: int, comp: Component):
    """Merge grants the earliest waiting input (then the lowest port);
    Arbiter grants round-robin from the port after the last grant."""
    n = comp.params["inputs"]
    ib, ob = sim._slots(k, n, 1)
    arbiter = comp.kind is Kind.ARBITER
    delay = sim.cfg.delays.arbiter if arbiter else sim.cfg.delays.merge
    in_val, out_standing = sim.in_val, sim.out_standing
    offer, consume = sim._offer, sim._consume
    queue: list[tuple[int, int]] = []   # waiting (arrival time, port)
    grant: Optional[int] = None
    ptr = 0

    def attempt(t: int) -> None:
        nonlocal grant
        if grant is not None or not queue or out_standing[ob]:
            return
        if arbiter:
            chosen = min(queue,
                         key=lambda tp: ((tp[1] - ptr) % n, tp[0], tp[1]))
        else:
            chosen = min(queue)
        queue.remove(chosen)
        grant = chosen[1]
        offer(ob, in_val[ib + grant], t + delay)

    def on_offer(port: int, t: int) -> None:
        queue.append((t, port))
        attempt(t)

    def on_ack(port: int, t: int) -> None:
        nonlocal grant, ptr
        q, grant = grant, None
        if q is not None:
            consume(ib + q, t)
            if arbiter:
                ptr = (q + 1) % n
        attempt(t)
    return on_offer, on_ack, None


def _buffer(sim: Simulation, k: int, comp: Component):
    """Takes while below capacity; the head token is offered one buffer
    delay after it arrived.  Every level change is logged, and the time
    spent at each level is added up as the run goes."""
    ib, ob = sim._slots(k, 1, 1)
    name = sim.names[k]
    cap = comp.params["capacity"]
    delay = sim.cfg.delays.buffer
    in_val, out_standing = sim.in_val, sim.out_standing
    push, offer, consume = sim._push, sim._offer, sim._consume
    slots = sim.buf_slots[name] = deque()   # (value, arrival time)
    series, peak = sim.occupancy_series, sim.occupancy_max
    peak[name] = top = 0
    hist = sim.occupancy_time[name] = {}
    level = since = 0
    scheduled = False

    def occ(t: int) -> None:
        nonlocal level, since, top
        if t > since:
            hist[level] = hist.get(level, 0) + (t - since)
            since = t
        level = len(slots)
        series.append((t, name, level))
        if level > top:
            peak[name] = top = level

    def tail(end: int) -> None:
        if end > since:
            hist[level] = hist.get(level, 0) + (end - since)
    sim._tails.append(tail)

    def emit(t: int) -> None:
        nonlocal scheduled
        if not slots or out_standing[ob] or scheduled:
            return
        scheduled = True
        push(max(slots[0][1] + delay, t), k, 0, None)

    def take(port: int, t: int) -> None:
        v = in_val[ib]
        if v is None or len(slots) >= cap:
            return
        consume(ib, t)
        slots.append((v, t))
        occ(t)
        emit(t)

    def on_ack(port: int, t: int) -> None:
        slots.popleft()
        occ(t)
        take(0, t)
        emit(t)

    def on_fire(port: int, payload, t: int) -> None:
        nonlocal scheduled
        scheduled = False
        if slots and not out_standing[ob]:
            offer(ob, slots[0][0], t)
    return take, on_ack, on_fire


_HANDLERS = {
    Kind.JOIN: _join,
    Kind.OPERATOR: _operator,
    Kind.FORK: _fork,
    Kind.STEER: _steer,
    Kind.INITIAL: _initial,
    Kind.VARIABLE: _variable,
    Kind.MERGE: _merge,
    Kind.ARBITER: _merge,
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
    edges: dict[str, set[str]] = {}

    def edge(a: str, b: str) -> None:
        edges.setdefault(a, set()).add(b)

    for k, key in enumerate(names):
        if key.startswith("$out."):
            continue
        ib = sim.in_base[k]
        for slot in range(ib, ib + sim.n_in[k]):
            if sim.in_val[slot] is not None and sim.in_src[slot] >= 0:
                edge(names[sim.in_src[slot]], key)
    for cid in sorted(net.components):
        comp = net.components[cid]
        if comp.kind not in (Kind.JOIN, Kind.OPERATOR):
            continue
        k = sim.ids[cid]
        ib, n = sim.in_base[k], sim.n_in[k]
        present = [i for i in range(n) if sim.in_val[ib + i] is not None]
        if not present or len(present) == n:
            continue
        for i in range(n):
            if i not in present and sim.in_src[ib + i] >= 0:
                edge(cid, names[sim.in_src[ib + i]])

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
    """Longest combinational component-delay chain between storage points."""
    succ = combinational_successors(net)
    memo: dict[str, int] = {}
    on_stack: set[str] = set()

    def weight(lid: str) -> int:
        dst = net.links[lid].dst
        if dst is None:
            return 0
        return delays.component_delay(net.components[dst[0]])

    def longest(lid: str) -> int:
        if lid in memo:
            return memo[lid]
        if lid in on_stack:
            return 0
        on_stack.add(lid)
        best = 0
        for nxt in succ.get(lid, ()):
            cand = longest(nxt)
            if cand > best:
                best = cand
        on_stack.discard(lid)
        memo[lid] = weight(lid) + best
        return memo[lid]

    return max((longest(lid) for lid in sorted(net.links)), default=0)


def run_async(net: Network, cfg: SimConfig) -> SimReport:
    """Event-driven run with the full delay table."""
    if cfg.mode != "async":
        raise SimError(f"run_async needs mode async, got {cfg.mode!r}")
    return Simulation(net, cfg).run()


def run_sync(net: Network, cfg: SimConfig) -> SimReport:
    """Clocked (forward-interlocked) run: combinational components settle
    within a cycle, Buffers advance tokens one period per cycle."""
    if cfg.mode != "sync":
        raise SimError(f"run_sync needs mode sync, got {cfg.mode!r}")
    loop = combinational_cycle(net)
    if loop is not None:
        raise CombinationalCycle(loop)
    crit = critical_path(net, cfg.delays)
    inner = replace(cfg, delays=cfg.delays.zeroed(buffer_delay=cfg.clock))
    report = Simulation(net, inner).run()
    report.mode = "sync"
    report.critical_path = crit
    report.overclocked = cfg.clock < crit
    return report


def run(net: Network, cfg: SimConfig) -> SimReport:
    return run_sync(net, cfg) if cfg.mode == "sync" else run_async(net, cfg)
