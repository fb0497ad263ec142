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
"""
from __future__ import annotations

import heapq
from collections import deque
from dataclasses import replace
from typing import Optional

from ..ir import (Kind, Network, back_edges, combinational_cycle,
                  combinational_successors)
from .config import SimConfig
from .report import SimReport

# Phase ranks: acknowledges free capacity before internal firings commit
# state, and offers are delivered into the freshest state.
_ACK, _FIRE, _OFFER = 0, 1, 2


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


class Simulation:
    """One run's mutable state.  Use run_async/run_sync; this class is
    exposed so deadlock diagnosis can be inspected on a quiesced net."""

    def __init__(self, net: Network, cfg: SimConfig):
        cfg.validate(net)
        self.net = net
        self.cfg = cfg
        self.heap: list[tuple] = []
        self.seq = 0
        self.now = 0
        self.stop = False

        # Standing offers as seen by the consumer: (comp key, port) -> value.
        self.in_val: dict[tuple[str, int], int] = {}
        self.in_time: dict[tuple[str, int], int] = {}
        # Standing offers as seen by the producer: (comp key, port).
        self.out_standing: set[tuple[str, int]] = set()

        # Kind-specific state.
        self.fork_wait: dict[str, set[int]] = {}
        self.merge_queue: dict[str, list[tuple[int, int]]] = {}
        self.merge_grant: dict[str, Optional[int]] = {}
        self.arb_ptr: dict[str, int] = {}
        self.var_store: dict[str, int] = {}
        self.var_busy: dict[tuple[str, int], bool] = {}
        self.init_seeded: dict[str, bool] = {}
        # True while the Initial's standing offer was relayed from its
        # input (wire mode); the seed offer consumes no input on ack.
        self.init_relaying: dict[str, bool] = {}
        self.buf_slots: dict[str, deque] = {}
        self.buf_emit_at: dict[str, Optional[int]] = {}

        # Environment.
        self.stim_idx: dict[str, int] = {}
        self.offer_times: dict[str, list[int]] = {}
        self.results: dict[str, list[tuple[int, int]]] = {}
        self.tokens_in = 0
        self.tokens_out = 0
        self.seeded = 0

        self.occupancy_series: list[tuple[int, str, int]] = []
        self.occupancy_max: dict[str, int] = {}

        # Precomputed wiring: (comp id, port) -> link for both directions,
        # and per-link consumer/producer keys for event addressing.
        self.into: dict[tuple[str, int], str] = {}
        self.outof: dict[tuple[str, int], str] = {}
        for lid, ln in net.links.items():
            if ln.dst is not None:
                self.into[ln.dst] = lid
            if ln.src is not None:
                self.outof[ln.src] = lid
        self.link_dst: dict[str, tuple[str, int]] = {}
        self.link_src: dict[str, tuple[str, int]] = {}
        for name in sorted(net.ports):
            port = net.ports[name]
            if port.dir == "in":
                self.link_src[port.link] = (f"$in.{name}", 0)
            else:
                self.link_dst[port.link] = (f"$out.{name}", 0)
                self.results[name] = []
        for lid, ln in net.links.items():
            if ln.dst is not None:
                self.link_dst[lid] = ln.dst
            if ln.src is not None:
                self.link_src[lid] = ln.src

        for cid in net.components:
            comp = net.components[cid]
            if comp.kind is Kind.MERGE:
                self.merge_queue[cid] = []
                self.merge_grant[cid] = None
            elif comp.kind is Kind.ARBITER:
                self.merge_queue[cid] = []
                self.merge_grant[cid] = None
                self.arb_ptr[cid] = 0
            elif comp.kind is Kind.VARIABLE:
                self.var_store[cid] = comp.params.get("init", 0)
            elif comp.kind is Kind.INITIAL:
                self.init_seeded[cid] = False
                self.init_relaying[cid] = False
            elif comp.kind is Kind.BUFFER:
                self.buf_slots[cid] = deque()
                self.buf_emit_at[cid] = None
                self.occupancy_max[cid] = 0

    # -- scheduling -------------------------------------------------------

    def _push(self, t: int, key: str, port: int, phase: int, payload) -> None:
        self.seq += 1
        heapq.heappush(self.heap, (t, key, port, phase, self.seq, payload))

    def _offer(self, lid: str, value: int, t: int) -> None:
        """Producer emits: the offer is delivered to the link's consumer at
        t and stands until acknowledged."""
        src = self.link_src.get(lid)
        if src is not None:
            self.out_standing.add(src)
        dst = self.link_dst.get(lid)
        if dst is None:
            return
        self._push(t, dst[0], dst[1], _OFFER, (lid, value))

    def _consume(self, key: str, port: int, t: int) -> None:
        """Consumer takes the standing offer on its input: the value leaves
        the link and the producer is acknowledged at the same instant."""
        self.in_val.pop((key, port), None)
        self.in_time.pop((key, port), None)
        lid = self.into.get((key, port))
        if lid is None and key.startswith("$out."):
            lid = self.net.ports[key[5:]].link
        if lid is None:
            return
        src = self.link_src.get(lid)
        if src is None:
            return
        self._push(t, src[0], src[1], _ACK, lid)

    # -- run loop ---------------------------------------------------------

    def run(self) -> SimReport:
        self._setup()
        truncated = False
        while self.heap:
            if self.heap[0][0] > self.cfg.max_time:
                truncated = True
                break
            t, key, port, phase, _, payload = heapq.heappop(self.heap)
            self.now = t
            if phase == _OFFER:
                lid, value = payload
                self.in_val[(key, port)] = value
                self.in_time[(key, port)] = t
                self._on_offer(key, port, t)
            elif phase == _ACK:
                self.out_standing.discard((key, port))
                self._on_ack(key, port, t)
            else:
                self._on_fire(key, port, payload, t)
            if self.stop:
                truncated = True
                break
        return self._finish(truncated)

    def _setup(self) -> None:
        for name in sorted(self.net.ports):
            port = self.net.ports[name]
            if port.dir != "in":
                continue
            self.stim_idx[name] = 0
            self.offer_times[name] = []
            values = self.cfg.stimulus.get(name, [])
            if values:
                self.offer_times[name].append(0)
                self._offer(port.link, values[0], 0)
        for cid in sorted(self.init_seeded):
            self._push(0, cid, 0, _FIRE, ("seed",))

    # -- event handlers ---------------------------------------------------

    def _on_offer(self, key: str, port: int, t: int) -> None:
        if key.startswith("$out."):
            name = key[5:]
            value = self.in_val[(key, port)]
            self.results[name].append((value, t))
            self.tokens_out += 1
            self._consume(key, port, t)
            if len(self.results[name]) >= self.cfg.max_results:
                self.stop = True
            return
        comp = self.net.components[key]
        kind = comp.kind
        if kind is Kind.MERGE or kind is Kind.ARBITER:
            self.merge_queue[key].append((t, port))
            self._merge_try(key, t)
        elif kind is Kind.BUFFER:
            self._buffer_take(key, t)
        else:
            self._try_fire(key, t)

    def _on_ack(self, key: str, port: int, t: int) -> None:
        if key.startswith("$in."):
            name = key[4:]
            self.tokens_in += 1
            self.stim_idx[name] += 1
            values = self.cfg.stimulus.get(name, [])
            if self.stim_idx[name] < len(values):
                self.offer_times[name].append(t)
                self._offer(self.net.ports[name].link,
                            values[self.stim_idx[name]], t)
            return
        comp = self.net.components[key]
        kind = comp.kind
        if kind is Kind.JOIN or kind is Kind.OPERATOR:
            for i in range(len(comp.input_widths())):
                self._consume(key, i, t)
            self._try_fire(key, t)
        elif kind is Kind.FORK:
            wait = self.fork_wait.get(key)
            if wait is not None:
                wait.discard(port)
                if not wait:
                    del self.fork_wait[key]
                    self._consume(key, 0, t)
                    self._try_fire(key, t)
        elif kind is Kind.STEER:
            self._consume(key, 0, t)
            self._try_fire(key, t)
        elif kind is Kind.INITIAL:
            if self.init_relaying[key]:
                self.init_relaying[key] = False
                self._consume(key, 0, t)
            self._try_fire(key, t)
        elif kind is Kind.MERGE or kind is Kind.ARBITER:
            p = self.merge_grant[key]
            self.merge_grant[key] = None
            if p is not None:
                self._consume(key, p, t)
                if kind is Kind.ARBITER:
                    self.arb_ptr[key] = (p + 1) % comp.params["inputs"]
            self._merge_try(key, t)
        elif kind is Kind.VARIABLE:
            self.var_busy[(key, port)] = False
            self._consume(key, port, t)
            self._var_try(key, port, t)
        elif kind is Kind.BUFFER:
            slots = self.buf_slots[key]
            slots.popleft()
            self._occ(key, t)
            self._buffer_take(key, t)
            self._buffer_emit(key, t)

    def _on_fire(self, key: str, port: int, payload: tuple, t: int) -> None:
        tag = payload[0]
        if tag == "seed":
            comp = self.net.components[key]
            value = comp.params.get("value", 0) & _mask(comp.params.get("width", 0))
            self.init_seeded[key] = True
            self.seeded += 1
            lid = self.outof.get((key, 0))
            if lid is not None:
                self._offer(lid, value, t + self.cfg.delays.initial)
        elif tag == "commit":
            self.var_store[key] = payload[1]
            lid = self.outof.get((key, 0))
            if lid is not None:
                self._offer(lid, 0, t)
        elif tag == "sample":
            i = payload[1]
            comp = self.net.components[key]
            lid = self.outof.get((key, 1 + i))
            if lid is not None:
                value = self.var_store[key] & _mask(comp.params["width"])
                self._offer(lid, value, t)
        elif tag == "emit":
            self.buf_emit_at[key] = None
            slots = self.buf_slots[key]
            if slots and (key, 0) not in self.out_standing:
                lid = self.outof.get((key, 0))
                if lid is not None:
                    self._offer(lid, slots[0][0], t)
        else:
            raise SimError(f"unknown internal event {tag!r}")

    # -- per-kind firing --------------------------------------------------

    def _try_fire(self, key: str, t: int) -> None:
        comp = self.net.components[key]
        kind = comp.kind
        d = self.cfg.delays
        if kind is Kind.JOIN or kind is Kind.OPERATOR:
            if (key, 0) in self.out_standing:
                return
            n = len(comp.input_widths())
            vals = []
            for i in range(n):
                v = self.in_val.get((key, i))
                if v is None:
                    return
                vals.append(v)
            if kind is Kind.JOIN:
                out = 0
                shift = 0
                for v, w in zip(vals, comp.params["inputs"]):
                    out |= (v & _mask(w)) << shift
                    shift += w
                delay = d.join
            else:
                out = eval_operator(comp.params["fn"], comp.params, vals,
                                    comp.params["inputs"], comp.params["out"])
                delay = d.operator_delay(
                    comp.params.get("delay_class", "default"))
            lid = self.outof.get((key, 0))
            if lid is not None:
                self._offer(lid, out, t + delay)
        elif kind is Kind.FORK:
            if key in self.fork_wait:
                return
            v = self.in_val.get((key, 0))
            if v is None:
                return
            outs = comp.params["outputs"]
            self.fork_wait[key] = set(range(len(outs)))
            for i, w in enumerate(outs):
                lid = self.outof.get((key, i))
                if lid is not None:
                    self._offer(lid, v & _mask(w), t + d.fork)
        elif kind is Kind.STEER:
            v = self.in_val.get((key, 0))
            if v is None:
                return
            sel_w = comp.params["select"]
            sel = v & _mask(sel_w)
            target = comp.params["table"].get(str(sel))
            if target is None:
                raise SteerMiss(f"{key}: select value {sel} has no route")
            target = int(target)
            if (key, target) in self.out_standing:
                return
            lid = self.outof.get((key, target))
            if lid is not None:
                self._offer(lid, v >> sel_w, t + d.steer)
        elif kind is Kind.INITIAL:
            if not self.init_seeded[key] or (key, 0) in self.out_standing:
                return
            v = self.in_val.get((key, 0))
            if v is None:
                return
            lid = self.outof.get((key, 0))
            if lid is not None:
                self.init_relaying[key] = True
                self._offer(lid, v, t + d.initial)
        elif kind is Kind.VARIABLE:
            for port in range(len(comp.input_widths())):
                self._var_try(key, port, t)

    def _var_try(self, key: str, port: int, t: int) -> None:
        comp = self.net.components[key]
        d = self.cfg.delays
        if self.var_busy.get((key, port)):
            return
        v = self.in_val.get((key, port))
        if v is None or (key, port) in self.out_standing:
            return
        self.var_busy[(key, port)] = True
        if port == 0:
            self._push(t + d.variable_write, key, 0, _FIRE, ("commit", v))
        else:
            self._push(t + d.variable_read, key, port, _FIRE,
                       ("sample", port - 1))

    def _merge_try(self, key: str, t: int) -> None:
        comp = self.net.components[key]
        if self.merge_grant[key] is not None or not self.merge_queue[key]:
            return
        if (key, 0) in self.out_standing:
            return
        queue = self.merge_queue[key]
        if comp.kind is Kind.MERGE:
            chosen = min(queue)
        else:
            n = comp.params["inputs"]
            ptr = self.arb_ptr[key]
            chosen = min(queue,
                         key=lambda tp: ((tp[1] - ptr) % n, tp[0], tp[1]))
        queue.remove(chosen)
        port = chosen[1]
        self.merge_grant[key] = port
        delay = (self.cfg.delays.merge if comp.kind is Kind.MERGE
                 else self.cfg.delays.arbiter)
        lid = self.outof.get((key, 0))
        if lid is not None:
            self._offer(lid, self.in_val[(key, port)], t + delay)

    def _buffer_take(self, key: str, t: int) -> None:
        comp = self.net.components[key]
        v = self.in_val.get((key, 0))
        if v is None or len(self.buf_slots[key]) >= comp.params["capacity"]:
            return
        self._consume(key, 0, t)
        self.buf_slots[key].append((v, t))
        self._occ(key, t)
        self._buffer_emit(key, t)

    def _buffer_emit(self, key: str, t: int) -> None:
        slots = self.buf_slots[key]
        if (not slots or (key, 0) in self.out_standing
                or self.buf_emit_at[key] is not None):
            return
        te = max(slots[0][1] + self.cfg.delays.buffer, t)
        self.buf_emit_at[key] = te
        self._push(te, key, 0, _FIRE, ("emit",))

    def _occ(self, key: str, t: int) -> None:
        occ = len(self.buf_slots[key])
        self.occupancy_series.append((t, key, occ))
        if occ > self.occupancy_max[key]:
            self.occupancy_max[key] = occ

    # -- wrap-up ----------------------------------------------------------

    def _in_flight(self) -> bool:
        return bool(self.in_val) or any(self.buf_slots.values())

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

        report.tokens_in = self.tokens_in
        report.tokens_out = self.tokens_out
        report.seeded = self.seeded
        report.occupancy_series = self.occupancy_series
        report.occupancy_max = dict(self.occupancy_max)
        end = max(self.now, report.elapsed)
        per_buf: dict[str, list[tuple[int, int]]] = {
            b: [(0, 0)] for b in self.occupancy_max}
        for t, b, occ in self.occupancy_series:
            per_buf[b].append((t, occ))
        for b, series in per_buf.items():
            hist: dict[int, int] = {}
            for (t0, occ), (t1, _) in zip(series, series[1:]):
                if t1 > t0:
                    hist[occ] = hist.get(occ, 0) + (t1 - t0)
            last_t, last_occ = series[-1]
            if end > last_t:
                hist[last_occ] = hist.get(last_occ, 0) + (end - last_t)
            report.occupancy_time[b] = hist
        return report


def detect_deadlock(sim: Simulation) -> tuple[bool, list[str]]:
    """Waits-on cycle search over a quiesced simulation.

    Producer-side edges: a standing unconsumed offer makes its producer
    wait on the consumer.  Consumer-side edges: an all-inputs component
    holding some inputs while missing others waits on the producers of
    the missing ones.  A cycle means no firing can ever be enabled; a
    blocked chain that only ends at the exhausted environment is normal
    starvation, not deadlock.
    """
    net = sim.net
    edges: dict[str, set[str]] = {}

    def edge(a: str, b: str) -> None:
        edges.setdefault(a, set()).add(b)

    for (key, port) in sim.in_val:
        if key.startswith("$out."):
            continue
        lid = sim.into.get((key, port))
        if lid is None:
            continue
        src = sim.link_src.get(lid)
        if src is not None:
            edge(src[0], key)
    for cid in sorted(net.components):
        comp = net.components[cid]
        if comp.kind not in (Kind.JOIN, Kind.OPERATOR):
            continue
        n = len(comp.input_widths())
        present = [i for i in range(n) if (cid, i) in sim.in_val]
        if not present or len(present) == n:
            continue
        for i in range(n):
            if i in present:
                continue
            lid = sim.into.get((cid, i))
            src = sim.link_src.get(lid) if lid else None
            if src is not None:
                edge(cid, src[0])

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
        held = sorted(p for (k, p) in sim.in_val if k == node)
        out = sorted(p for (k, p) in sim.out_standing if k == node)
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
