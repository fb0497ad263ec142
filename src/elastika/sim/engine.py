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
tokens advance one stage per cycle under forward interlock; a clocked
``run`` also rejects buffer-free cycles and flags overclocking against
the combinational critical path.

Determinism: simultaneous events are delivered in (time, component id,
port, phase) order, with acknowledges first, internal firings second and
offers last.  No two queued events share that key: an output slot has at
most one offer standing and so at most one acknowledge queued, an input
slot at most one offer queued, and a firing port at most one firing.  The
heap's order is therefore total and does not depend on the order in
which events were pushed.  All times are integer picoseconds.

Lowering turns a net into int-indexed tables in two halves.  The half
that depends only on the net is a ``Lowered``, which every run given it
shares: component ids and the environment keys `$in.<port>` and
`$out.<port>` are numbered in sorted string order, so int keys tie
exactly as the strings would; every key owns a run of flat input and
output slots, and every slot knows the key and port at the far end of
its link.  A clocked run's cycle check and critical path are one
search of the combinational graph on the input slots, the simulator's
only such search (``Lowered.critical_path``).  A Lowered is a snapshot:
build a new one after the net is mutated.  Each Simulation adds the
per-run half: each input slot's standing value (no output slot keeps a
flag; only deadlock diagnosis asks which offers stand, on a quiesced
net), and an offer, acknowledge and fire handler per key with its
parameters, delay and far ends resolved (an Operator's function too).

A handler returns one of the events it causes (taking an input causes
the producer's acknowledge, firing the consumer's offer) and pushes any
others itself.  The run loop hands the returned event to
``heappushpop``, which queues it and pops the next event in one call
(and skips the heap when it is the smallest), and calls the handler of
that event's phase and key; one sentinel event past the horizon ends
it.  Handlers are specialised at lowering: a Buffer carries its head
token's value on the offer or firing that forwards it, queues the
consumer's offer directly when the consumer's key sorts after its own,
and at capacity 1 keeps no queue at all (see ``_buffer``); an Operator
or a Join of one or two inputs reads its input slots directly.

A handler calls the handler of an event it causes directly, through the
``on_ack``/``on_offer``/``on_fire`` tables, instead of returning it,
when the event is due at the handler's own time and sorts before the
event being handled and before anything the handler queued.  The rule
is static, read from the keys and the delay table, never from the
queue: an acknowledge to a smaller key, and, where the delay is zero
(every combinational delay in clocked mode), an offer to a smaller key
or a Variable's firing, which sorts before the offer that causes it.
A Merge's acknowledge at zero delay must also sort before the next
grant's offer, which it queues first.  The event being handled
sorted before every queued event, so the direct event does too, and
the queue would have handed it straight back: handlers run in the
same order, on the same events, as if it had been queued.  A Buffer's
firing offers to a smaller key at its own time, so it calls too; an
Initial's seed, the stimuli and the sinks never do.  Such calls nest,
one or two frames per key, along ever smaller keys; ``Lowered.direct``
caps each chain on a large net (``_DIRECT_DEPTH``).  ``Simulation.seq``
counts only the events queued.

Only fully wired nets are lowered, as every elastic channel is one
handshake between one producer and one consumer: every link has both
ends, each a component port or an environment port; every input and
output slot is bound by exactly one link; and every component has at
least one input and one output.  ``Lowered.wiring`` refuses any other
net with a ``SimError`` naming the link, or the key and port, so no
handler has a missing far end to guard against.  It refuses a component
with more input or output ports than the net has links, or with no
input or no output, before it builds any slot list; then a link to a
port the component lacks, a link to a port another link already binds
and a link with a missing end; and last a slot no link binds.

``run`` pauses the cyclic collector for the whole run, lowering included
(see ``_collector_paused``).  The handlers reach each other through the
tables, a reference cycle that ``Simulation.run`` breaks as it ends, and
a refused lowering as it raises, by emptying them.
"""
from __future__ import annotations

import gc
import itertools
import operator
from bisect import bisect_right
from collections import deque
from contextlib import contextmanager
from dataclasses import replace
from functools import cached_property
from heapq import heappop, heappush, heappushpop
from typing import Callable, NamedTuple, Optional

from ..ir import (_PORT_COUNTS, OPERATOR_FNS, Component, Kind, Network,
                  back_edges)
from .config import SimConfig
from .report import SimReport

# Phase ranks: acknowledges free capacity before internal firings commit
# state, and offers are delivered into the freshest state.
_ACK, _FIRE, _OFFER = 0, 1, 2
# Keys of the two events that end a run.  The sentinel sits one past the
# horizon; a sink at its cap returns a stop event at the current time,
# which sorts before every queued event, the sentinel included.
_END, _STOP = -1, -2
# The most keys one chain of direct calls may pass through (see
# ``Lowered.direct``); each key adds at most two frames to the stack.
_DIRECT_DEPTH = 100


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


def _concat(widths: list[int]) -> Callable:
    """A Join's output word: its inputs concatenated, low bits first.  For
    at most two inputs a function of two words (a, b), a missing one read
    as 0; for more, of the list of words."""
    fields = []
    shift = 0
    for w in widths:
        fields.append((_mask(w), shift))
        shift += w
    if len(fields) <= 2:
        (m0, _), (m1, s1) = [*fields, (0, 0), (0, 0)][:2]
        return lambda a, b: (a & m0) | (b & m1) << s1

    def concat(vals: list[int]) -> int:
        out = 0
        for v, (m, s) in zip(vals, fields):
            out |= (v & m) << s
        return out
    return concat


# Operators of two words (a, b) that _operator_fn resolves; a comparison
# gives 0 or 1 unmasked.
_WORD_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
             "and": operator.and_, "or": operator.or_, "xor": operator.xor}
_COMPARE_OPS = {"eq": operator.eq, "ne": operator.ne, "lt": operator.lt,
                "gt": operator.gt, "le": operator.le, "ge": operator.ge}


def _operator_fn(comp: Component) -> Callable[[int, int], int]:
    """The Operator ``comp`` as a function of two words (a, b), resolved
    once at lowering: unsigned word arithmetic modulo the output width.
    A one-input Operator is called with b = 0, and one with more inputs
    reads only its first two.  A shift by at least the width it shifts
    within gives 0.  A ``fn`` outside ``ir.OPERATOR_FNS``, or an output
    width that is no int >= 0, raises SimError; ``validate`` refuses
    both."""
    params, in_widths = comp.params, comp.params["inputs"]
    fn, out_width = params.get("fn"), params.get("out")
    if fn not in OPERATOR_FNS:
        raise SimError(f"{comp.id}: unknown operator function {fn!r}")
    if not isinstance(out_width, int) or out_width < 0:
        raise SimError(f"{comp.id}: operator output width {out_width!r} "
                       f"is not an integer >= 0")
    m = _mask(out_width)
    if fn == "const":
        value = params.get("value", 0)
        return lambda a, b: value & m
    if fn == "id":
        return lambda a, b: a & m
    if fn == "neg":
        return lambda a, b: -a & m
    if fn == "not":
        return lambda a, b: ~a & m
    if fn in _WORD_OPS:
        op = _WORD_OPS[fn]
        return lambda a, b: op(a, b) & m
    if fn in _COMPARE_OPS:
        test = _COMPARE_OPS[fn]
        return lambda a, b: 1 if test(a, b) else 0
    if fn == "shl":
        return lambda a, b: 0 if b >= out_width else (a << b) & m
    return lambda a, b: 0 if b >= in_widths[0] else (a >> b) & m   # shr


class _Wiring(NamedTuple):
    """``Lowered.wiring``: keys in sorted order and their numbers, the
    environment keys' port names, the Initials' keys, port counts and
    slot bases per key, the far end (key, port) of every input and output
    slot, and the id of the link that binds each input slot."""
    names: list[str]
    ids: dict[str, int]
    env: dict[str, str]
    initials: list[int]
    n_in: list[int]
    n_out: list[int]
    in_base: list[int]
    out_base: list[int]
    in_src: list[tuple[int, int]]
    out_dst: list[tuple[int, int]]
    in_link: list[str]


class Lowered:
    """The half of lowering that depends only on the net, shared by every
    run of it.

    ``wiring`` numbers the keys, counts each key's ports, lays out the
    slot bases and wires every slot to the far end of its link, refusing
    a net that is not fully wired (see the module docstring).
    ``critical_path`` gives a clocked run its cycle check and critical
    path from one search of the combinational graph on the wired input
    slots (``_slots``); it keeps the cycle it named, and the last delay
    table it was given with its answer, so runs of one delay table
    measure the path once.  Views are built on first use, and a refusal
    is raised again on every use.  A Lowered is a snapshot: build a new
    one after the net is mutated.  Nothing in it changes during a run.
    """

    def __init__(self, net: Network) -> None:
        self.net = net
        self._crit: Optional[tuple] = None   # (delays, critical path)
        self._cycle: Optional[list[str]] = None   # the cycle a search named

    def critical_path(self, delays) -> int:
        """The longest combinational chain under ``delays``, searched in
        slot order.  A combinational cycle raises ``CombinationalCycle``
        before any error of the delay table, named by a second search in
        link-id order: the cycle ``ir.combinational_cycle`` names."""
        if self._cycle is not None:
            raise CombinationalCycle(self._cycle)
        if self._crit is None or self._crit[0] != delays:
            # A copy, so a later change to the caller's table is noticed.
            kept = replace(delays, operator=dict(delays.operator))
            self._crit = kept, self._measure(delays)
        return self._crit[1]

    def _measure(self, delays) -> int:
        succ, failed = self._slots, None
        try:
            delay = self._slot_delays(delays)
        except KeyError as exc:   # an operator table with no "default"
            delay, failed = [0] * len(succ), exc
        crit, cycle = _slot_chain(succ, range(len(succ)), delay)
        if cycle is not None:
            cycle = _slot_chain(*self._by_link, delay)[1]
            self._cycle = [self.wiring.in_link[s] for s in cycle]
            raise CombinationalCycle(self._cycle)
        if failed is not None:
            raise failed
        return crit

    def _slot_delays(self, delays) -> list[int]:
        """Each input slot's delay under ``delays``: its key's
        ``component_delay``, 0 for an environment key."""
        w = self.wiring
        return _per_slot([0 if c is None else delays.component_delay(c)
                          for c in map(self.net.components.get, w.names)],
                         w.n_in)

    @cached_property
    def _by_link(self) -> tuple[list, list[int]]:
        """``_slots`` in link-id order: each slot's successors, and all
        slots as roots, ordered by the id of the link binding each."""
        key = self.wiring.in_link.__getitem__
        return ([sorted(nxts, key=key) for nxts in self._slots],
                sorted(range(len(self._slots)), key=key))

    @cached_property
    def _slots(self) -> list[tuple[int, ...]]:
        """The combinational graph on the wired input slots: the input
        slots each slot's key relays it onto.  A Buffer or an ``$out`` key
        relays nothing, a Variable each input to the output of its port,
        any other key each input to every output; an output leads to its
        consumer's input slot."""
        w, comps = self.wiring, self.net.components
        in_base, out_base = w.in_base, w.out_base
        consumer = [in_base[k] + p for k, p in w.out_dst]
        relay: list = [()] * len(w.names)
        variables = []
        for k, comp in enumerate(map(comps.get, w.names)):
            if comp is None or comp.kind is Kind.BUFFER:
                continue
            relay[k] = outs = tuple(consumer[out_base[k]:out_base[k + 1]])
            if comp.kind is Kind.VARIABLE:
                variables.append((k, outs))
        succ = _per_slot(relay, w.n_in)
        for k, outs in variables:
            succ[in_base[k]:in_base[k + 1]] = [(c,) for c in outs]
        return succ

    @cached_property
    def wiring(self) -> _Wiring:
        """The keys, port counts, slot bases and far ends (``_Wiring``),
        or a ``SimError`` for a net that is not fully wired, raised in
        the order the module docstring gives.  Port counts are read from
        ``ir._PORT_COUNTS``, and a slot keeps the id of the link that
        binds it, so a second link to it is named with the first."""
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

        names = sorted([*net.components, *env])
        ids = {name: k for k, name in enumerate(names)}
        # Port counts per key.  Each key's slots follow those of the key
        # before it, so in_base[k + 1] is where key k's inputs end.
        n_in, n_out = [0] * len(names), [0] * len(names)
        for key in env:
            if key.startswith("$in."):
                n_out[ids[key]] = 1
            else:
                n_in[ids[key]] = 1
        initials = []
        n_links = len(net.links)
        for cid, comp in net.components.items():
            k = ids[cid]
            # Refused before anything is built per port: each needs a link.
            a, b = n_in[k], n_out[k] = _PORT_COUNTS[comp.kind](comp.params)
            if a > n_links or b > n_links:
                raise SimError(f"{cid} has {a} input and {b} output ports, "
                               f"but the net has {n_links} links")
            if a < 1 or b < 1:
                raise SimError(f"{cid} has {a} input and {b} output ports, "
                               f"but needs at least one of each")
            if comp.kind is Kind.INITIAL:
                initials.append(k)
        in_base = [0, *itertools.accumulate(n_in)]
        out_base = [0, *itertools.accumulate(n_out)]
        # Input slot: the producer (key, port) to acknowledge.  Output
        # slot: the consumer (key, port) to offer to.  None until bound.
        in_src: list = [None] * in_base[-1]
        out_dst: list = [None] * out_base[-1]
        # The link bound to each input and output slot so far.
        in_link: list = [None] * in_base[-1]
        out_link: list = [None] * out_base[-1]
        for lid, ln in net.links.items():
            src = ln.src or link_in.get(lid)
            dst = ln.dst or link_out.get(lid)
            if src is not None:
                sk, sp = ids.get(src[0]), src[1]
                if sk is None or not 0 <= sp < n_out[sk]:
                    raise SimError(f"link {lid} leaves {src[0]}, which has "
                                   f"no output {sp}")
                o = out_base[sk] + sp
                if out_link[o] is not None:
                    raise SimError(f"link {lid} leaves {src[0]} output {sp}, "
                                   f"which link {out_link[o]} already binds")
                out_link[o] = lid
            if dst is not None:
                dk, dp = ids.get(dst[0]), dst[1]
                if dk is None or not 0 <= dp < n_in[dk]:
                    raise SimError(f"link {lid} enters {dst[0]}, which has "
                                   f"no input {dp}")
                i = in_base[dk] + dp
                if in_link[i] is not None:
                    raise SimError(f"link {lid} enters {dst[0]} input {dp}, "
                                   f"which link {in_link[i]} already binds")
                in_link[i] = lid
            if src is None or dst is None:
                raise SimError(f"link {lid} has no "
                               f"{'producer' if src is None else 'consumer'}")
            in_src[i] = (sk, sp)
            out_dst[o] = (dk, dp)
        # Last, a slot that no link binds, named by its key and port.
        for slots, base, side in ((in_src, in_base, "input"),
                                  (out_dst, out_base, "output")):
            if None in slots:
                slot = slots.index(None)
                k = bisect_right(base, slot) - 1
                raise SimError(f"{names[k]} {side} {slot - base[k]} "
                               f"is bound by no link")
        return _Wiring(names, ids, env, sorted(initials), n_in, n_out,
                       in_base, out_base, in_src, out_dst, in_link)

    @cached_property
    def direct(self) -> list[bool]:
        """Whether each key's handlers may call a handler directly.  A
        direct call goes to a smaller key, or from a Variable's offer to
        its own firing, so a chain of them visits ever smaller keys, and
        on a net of at most ``_DIRECT_DEPTH`` keys none can be longer.  On
        a larger net a key may call directly only while the longest chain
        from it, through the smaller keys at the far ends of its links,
        stays within ``_DIRECT_DEPTH`` keys."""
        w = self.wiring
        n = len(w.names)
        if n <= _DIRECT_DEPTH:
            return [True] * n
        in_src, out_dst, in_base, out_base = (w.in_src, w.out_dst,
                                              w.in_base, w.out_base)
        direct = [False] * n
        depth = [1] * n   # keys on the longest chain from each key
        for k in range(n):
            d = 0
            for j, _ in in_src[in_base[k]:in_base[k + 1]]:
                if j < k and depth[j] > d:
                    d = depth[j]
            for j, _ in out_dst[out_base[k]:out_base[k + 1]]:
                if j < k and depth[j] > d:
                    d = depth[j]
            if d < _DIRECT_DEPTH:
                direct[k], depth[k] = True, d + 1
        return direct


def _lowered(net: Network | Lowered) -> Lowered:
    return net if isinstance(net, Lowered) else Lowered(net)


class Simulation:
    """One run's mutable state, on a net or on a Lowered whose wiring it
    shares.  Use run; this class is exposed so deadlock diagnosis can be
    inspected on a quiesced net."""

    def __init__(self, net: Network | Lowered, cfg: SimConfig):
        low = _lowered(net)
        cfg.validate(low.net)
        self.net = low.net
        self.cfg = cfg
        self.heap: list[tuple] = []
        self.seq = 0    # events pushed, set when the run ends
        self.now = 0

        # Environment.
        self.offer_times: dict[str, list[int]] = {}
        self.accepted: dict[str, int] = {}    # stimulus values taken
        self.results: dict[str, list[tuple[int, int]]] = {}
        self.seeds: list[str] = []            # Initials that fired a seed

        self.occupancy_series: list[tuple[int, str, int]] = []
        self.occupancy_max: dict[str, int] = {}
        self.occupancy_time: dict[str, dict[int, int]] = {}
        self._tails: list[Callable[[int], int]] = []
        w = low.wiring
        self.direct = low.direct   # per key: may its handlers call directly
        try:
            self._lower(w)
        except BaseException:   # a refused component, say
            self._drop_handlers()
            raise

    # -- lowering ---------------------------------------------------------

    def _lower(self, w: _Wiring) -> None:
        """The per-run half: the run's slot state and a handler per key,
        built on the shared wiring ``w``."""
        (self.names, self.ids, env, self._initials, self.n_in, self.n_out,
         self.in_base, self.out_base, self.in_src, self.out_dst, _) = w
        # The standing value of each input slot (None when empty).
        self.in_val: list[Optional[int]] = [None] * w.in_base[-1]
        ids = w.ids
        self.on_offer = on_offer = [None] * len(w.names)
        self.on_ack = on_ack = [None] * len(w.names)
        self.on_fire = on_fire = [None] * len(w.names)
        for key, name in env.items():
            k = ids[key]
            if key.startswith("$in."):
                on_ack[k] = _stimulus(self, k, name)
            else:
                on_offer[k] = _sink(self, k, name)
        for cid, comp in self.net.components.items():
            k = ids[cid]
            on_offer[k], on_ack[k], on_fire[k] = _HANDLERS[comp.kind](
                self, k, comp)

    def _drop_handlers(self) -> None:
        """Empties the handler tables.  The handlers reach each other
        through them, the one reference cycle a Simulation makes, so
        reference counting frees the closures once they are empty."""
        for table in (self.on_ack, self.on_fire, self.on_offer):
            table.clear()

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
            self._drop_handlers()
            self.now = t
            # Events pushed: the events popped (the current one too when a
            # handler raised) and those still queued, less the sentinel
            # unless it was popped.
            self.seq = n - 1 + len(heap) - (key != _END) + (key >= 0)
        # Events left queued, or a stop event (the sentinel is still
        # queued then), cut the run short.
        return self._finish(bool(heap))

    def _setup(self) -> None:
        heap = self.heap
        for name, times in self.offer_times.items():
            values = self.cfg.stimulus.get(name, [])
            if values:
                times.append(0)
                k, port = self.out_dst[self.out_base[self.ids[f"$in.{name}"]]]
                heappush(heap, (0, k, port, _OFFER, values[0]))
        for k in self._initials:
            heappush(heap, (0, k, 0, _FIRE, None))

    # -- wrap-up ----------------------------------------------------------

    def _finish(self, truncated: bool) -> SimReport:
        report = SimReport(mode=self.cfg.mode, clock=self.cfg.clock)
        report.results = self.results
        report.truncated = truncated
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
            # The i-th mark is the earliest i-th offer of any input port.
            marks = map(min, itertools.zip_longest(
                *self.offer_times.values(), fillvalue=float("inf")))
            report.latencies = [out_t - mark for (_, out_t), mark
                                in zip(self.results[primary], marks)]

        report.tokens_in = sum(self.accepted.values())
        report.tokens_out = sum(len(got) for got in self.results.values())
        report.seeded = len(self.seeds)
        report.occupancy_series = self.occupancy_series
        end = max(self.now, report.elapsed)
        held = [tail(end) for tail in self._tails]   # tokens in each Buffer
        report.occupancy_max = self.occupancy_max
        report.occupancy_time = self.occupancy_time
        if truncated:
            report.completion = "horizon"
        elif self.in_val.count(None) == len(self.in_val) and not any(held):
            report.completion = "drained"
        else:
            flag, diagnosis = detect_deadlock(self)
            if flag:
                report.completion = "deadlock"
                report.deadlock = True
                report.diagnosis = diagnosis
            else:
                report.completion = "stimulus-exhausted"
        return report


# -- per-kind handlers ----------------------------------------------------
#
# Each builder takes one key whose slots are already wired (port counts as
# in ir.port_counts; every slot has a far end, see the module docstring)
# and returns its (offer, acknowledge, fire) handlers, closed over its
# slots, the far ends of its links, its parameters and its resolved
# delay.  Every handler is called as (port, payload, t), keeps its own
# slots and returns one event it causes, or None; it pushes any further
# events itself:
#
# * an offer handler gets the offered value; it stores it in the input
#   slot unless it takes the value at once;
# * taking an input empties its slot and causes the producer's
#   acknowledge (t, key, port, _ACK, None);
# * emitting causes (t, key, port, _OFFER, value) at the consumer, and
#   the offer stands until the consumer's acknowledge arrives.
#
# A handler that causes several events returns the earliest, which is
# most often the heap's next event, so that heappushpop hands it straight
# back.  The run loop queues the returned event as it pops the next one,
# and stops at a key below 0: the sentinel, or a sink's stop event.
#
# Where the module docstring's rule holds, a handler returns what the
# handler of the caused event returns, called through ``acks``,
# ``offers`` or ``fires``: each is the run's handler table where the rule
# can hold, and None where it cannot.  Where the far end varies (a
# Variable's port, a Steer's route, a Merge's grant), the handler also
# compares its key with the far end's.

def _stimulus(sim: Simulation, k: int, name: str):
    values = sim.cfg.stimulus.get(name, [])
    times = sim.offer_times[name] = []
    accepted = sim.accepted
    accepted[name] = 0
    dk, dp = sim.out_dst[sim.out_base[k]]

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        taken = accepted[name] = accepted[name] + 1
        if taken < len(values):   # the next value's offer stands at once
            times.append(t)
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
        if len(got) < cap:
            return (t, sk, sp, _ACK, None)
        heappush(heap, (t, sk, sp, _ACK, None))
        return (t, _STOP, 0, _ACK, None)
    return on_offer


def _combinational(sim: Simulation, k: int, n: int, delay: int,
                   compute: Callable):
    """Join and Operator: fire once every input stands, hold the inputs
    until the output is taken.  With one or two inputs ``compute`` takes
    two words (a, b), b = 0 for one input, and the offer handler reads the
    slots directly; with more it takes the list of the input words."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    end = ib + n
    heap = sim.heap
    in_val = sim.in_val
    # The producers to acknowledge, the smallest key first: it is returned.
    (fk, fp), *rest = sorted(sim.in_src[ib:end])
    cleared = [None] * n
    dk, dp = sim.out_dst[ob]
    direct = sim.direct[k]
    acks = sim.on_ack if direct and fk < k else None
    offers = sim.on_offer if direct and dk < k and not delay else None

    if n == 1:
        def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
            in_val[ib] = value
            if offers:
                return offers[dk](dp, compute(value, 0), t)
            return (t + delay, dk, dp, _OFFER, compute(value, 0))

        def on_ack(port: int, payload, t: int) -> Optional[tuple]:
            in_val[ib] = None
            if acks:
                return acks[fk](fp, None, t)
            return (t, fk, fp, _ACK, None)
        return on_offer, on_ack, None
    if n == 2:
        def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
            in_val[ib + port] = value
            a, b = in_val[ib], in_val[ib + 1]
            if a is None or b is None:
                return None
            if offers:
                return offers[dk](dp, compute(a, b), t)
            return (t + delay, dk, dp, _OFFER, compute(a, b))
    else:
        def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
            in_val[ib + port] = value
            vals = in_val[ib:end]
            if None in vals:
                return None
            if offers:
                return offers[dk](dp, compute(vals), t)
            return (t + delay, dk, dp, _OFFER, compute(vals))

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        in_val[ib:end] = cleared
        for sk, sp in rest:
            heappush(heap, (t, sk, sp, _ACK, None))
        if acks:
            return acks[fk](fp, None, t)
        return (t, fk, fp, _ACK, None)
    return on_offer, on_ack, None


def _join(sim: Simulation, k: int, comp: Component):
    widths = comp.params["inputs"]
    return _combinational(sim, k, len(widths), sim.cfg.delays.join,
                          _concat(widths))


def _operator(sim: Simulation, k: int, comp: Component):
    p = comp.params
    delay = sim.cfg.delays.operator_delay(p.get("delay_class", "default"))
    n, f = len(p["inputs"]), _operator_fn(comp)
    return _combinational(sim, k, n, delay,
                          f if n <= 2 else lambda vals: f(vals[0], vals[1]))


def _fork(sim: Simulation, k: int, comp: Component):
    masks = [_mask(w) for w in comp.params["outputs"]]
    n = len(masks)
    ib, ob = sim.in_base[k], sim.out_base[k]
    delay = sim.cfg.delays.fork
    heap = sim.heap
    in_val = sim.in_val
    sk, sp = sim.in_src[ib]
    # The consumers to offer to, the smallest key first: it is returned.
    (fk, fp, fm), *rest = sorted(
        (dk, dp, m) for (dk, dp), m in zip(sim.out_dst[ob:ob + n], masks))
    direct = sim.direct[k]
    acks = sim.on_ack if direct and sk < k else None
    offers = sim.on_offer if direct and fk < k and not delay else None
    pending = 0   # outputs not yet taken

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        nonlocal pending
        in_val[ib] = value
        pending = n
        t += delay
        for dk, dp, m in rest:
            heappush(heap, (t, dk, dp, _OFFER, value & m))
        if offers:
            return offers[fk](fp, value & fm, t)
        return (t, fk, fp, _OFFER, value & fm)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal pending
        pending -= 1
        if pending:
            return None
        in_val[ib] = None
        if acks:
            return acks[sk](sp, None, t)
        return (t, sk, sp, _ACK, None)
    return on_offer, on_ack, None


def _steer(sim: Simulation, k: int, comp: Component):
    p = comp.params
    ib, ob = sim.in_base[k], sim.out_base[k]
    name = sim.names[k]
    sel_w = p["select"]
    sel_mask = _mask(sel_w)
    routes = {}   # select value -> (consumer key, port)
    for sel, target in p["table"].items():
        if type(target) is not int or not 0 <= target < p["outputs"]:
            raise SimError(f"{name}: steer table entry {sel} targets "
                           f"missing output {target!r}")
        # A select value matches the entry written as its decimal digits;
        # no value matches any other spelling.
        if isinstance(sel, str) and sel.isdecimal() and str(int(sel)) == sel:
            routes[int(sel)] = sim.out_dst[ob + target]
    delay = sim.cfg.delays.steer
    in_val = sim.in_val
    sk, sp = sim.in_src[ib]
    acks = sim.on_ack if sim.direct[k] and sk < k else None
    offers = sim.on_offer if sim.direct[k] and not delay else None

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib] = value
        sel = value & sel_mask
        route = routes.get(sel)
        if route is None:
            raise SteerMiss(f"{name}: select value {sel} has no route")
        dk, dp = route
        if offers and dk < k:
            return offers[dk](dp, value >> sel_w, t)
        return (t + delay, dk, dp, _OFFER, value >> sel_w)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        in_val[ib] = None
        if acks:
            return acks[sk](sp, None, t)
        return (t, sk, sp, _ACK, None)
    return on_offer, on_ack, None


def _initial(sim: Simulation, k: int, comp: Component):
    """Offers its seed once at start, then relays its input like a wire."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    p = comp.params
    seed = p.get("value", 0) & _mask(p.get("width", 0))
    delay = sim.cfg.delays.initial
    name, fired = sim.names[k], sim.seeds
    in_val = sim.in_val
    sk, sp = sim.in_src[ib]
    dk, dp = sim.out_dst[ob]
    direct = sim.direct[k]
    acks = sim.on_ack if direct and sk < k else None
    offers = sim.on_offer if direct and dk < k and not delay else None
    # What the output offers until it is taken: the seed from the start,
    # so nothing is relayed before the seed is taken, then relayed inputs.
    offering: Optional[str] = "seed"

    def relay(t: int) -> Optional[tuple]:
        nonlocal offering
        v = in_val[ib]
        if offering or v is None:
            return None
        offering = "input"
        if offers:
            return offers[dk](dp, v, t)
        return (t + delay, dk, dp, _OFFER, v)

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib] = value
        return relay(t)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal offering
        taken, offering = offering, None
        if taken == "seed":   # the seed consumes no input
            return relay(t)
        in_val[ib] = None   # the relayed input is taken
        if acks:
            return acks[sk](sp, None, t)
        return (t, sk, sp, _ACK, None)

    def on_fire(port: int, payload, t: int) -> Optional[tuple]:
        fired.append(name)
        return (t + delay, dk, dp, _OFFER, seed)
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
    in_val = sim.in_val
    srcs = sim.in_src[ib:ib + n]
    dsts = sim.out_dst[ob:ob + n]
    direct = sim.direct[k]
    acks, offers = (sim.on_ack, sim.on_offer) if direct else (None, None)
    # A firing sorts before the offer that causes it at the same time.
    reads = sim.on_fire if direct and not read else None
    writes = sim.on_fire if direct and not write else None
    store = p.get("init", 0)

    def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
        in_val[ib + port] = value
        if port:
            if reads:
                return reads[k](port, None, t)
            return (t + read, k, port, _FIRE, None)
        if writes:
            return writes[k](0, value, t)
        return (t + write, k, 0, _FIRE, value)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        in_val[ib + port] = None
        sk, sp = srcs[port]
        if acks and sk < k:
            return acks[sk](sp, None, t)
        return (t, sk, sp, _ACK, None)

    def on_fire(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal store
        if port:
            value = store & mask
        else:
            store = payload
            value = 0
        dk, dp = dsts[port]
        if offers and dk < k:
            return offers[dk](dp, value, t)
        return (t, dk, dp, _OFFER, value)
    return on_offer, on_ack, on_fire


def _merge(sim: Simulation, k: int, comp: Component):
    """Grants the earliest waiting input, then the lowest port."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    delay = sim.cfg.delays.merge
    heap = sim.heap
    in_val = sim.in_val
    srcs = sim.in_src[ib:sim.in_base[k + 1]]
    dk, dp = sim.out_dst[ob]
    direct = sim.direct[k]
    offers = sim.on_offer if direct and dk < k and not delay else None
    acks = sim.on_ack if direct else None
    # An acknowledge called at once must also sort before the next grant's
    # offer, queued first at the same time when the delay is zero.
    below = k if delay else min(k, dk)
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
        if offers:
            return offers[dk](dp, value, t)
        return (t + delay, dk, dp, _OFFER, value)

    def on_ack(port: int, payload, t: int) -> Optional[tuple]:
        nonlocal grant
        in_val[ib + grant] = None
        sk, sp = srcs[grant]
        if queue:   # the next grant's offer keeps the output standing
            chosen = min(queue)
            queue.remove(chosen)
            grant = chosen[1]
            heappush(heap, (t + delay, dk, dp, _OFFER, in_val[ib + grant]))
        else:
            grant = None
        if acks and sk < below:
            return acks[sk](sp, None, t)
        return (t, sk, sp, _ACK, None)
    return on_offer, on_ack, None


def _buffer(sim: Simulation, k: int, comp: Component):
    """Takes while below capacity.  The head token's value rides on its
    offer, or on the firing that pushes it; at capacity 2 or more the
    tokens behind the head queue in a deque.  Capacity 1 gets its own
    pair of handlers, with no deque and no level tests beyond whether the
    head is held.  Either acknowledge hands a waiting offer to its offer
    handler.  A new head's offer is due one buffer delay after it
    arrived, or at once if that is past.  Time at each level is summed in
    a list indexed by level, each level change is logged when the run
    records the occupancy series, and wrap-up reports the peak level and
    the levels with positive time.

    When the consumer's key sorts after this Buffer's (``dk > k``), the
    head's offer is queued at once, at its due time; otherwise a firing
    (due, k, 0, _FIRE) is queued and pushes the offer when it is popped.
    Folding cannot change the pop order: every event that pops before the
    firing would is smaller than the firing, and so smaller than the
    offer, whose key sorts after the firing's at the same time; and once
    the firing would have popped, the queue holds the same events either
    way."""
    ib, ob = sim.in_base[k], sim.out_base[k]
    name = sim.names[k]
    cap = comp.params["capacity"]
    delay = sim.cfg.delays.buffer
    heap = sim.heap
    in_val = sim.in_val
    sk, sp = sim.in_src[ib]
    dk, dp = sim.out_dst[ob]
    fold = dk > k
    # Whatever an offer queues goes to this key or a larger one.
    acks = sim.on_ack if sim.direct[k] and sk < k else None
    # Where a new head goes: its offer, or the firing that carries it.
    to_k, to_p, to_phase = (dk, dp, _OFFER) if fold else (k, 0, _FIRE)
    # Logs a level change, when the run records the occupancy series.
    log = sim.occupancy_series.append if sim.cfg.record_occupancy else None
    peak, occupancy = sim.occupancy_max, sim.occupancy_time
    spent = [0, 0]   # time at each level up to top + 1; top is the peak
    level = since = top = 0   # level counts the head and the tokens behind it

    def tail(end: int) -> int:
        """Closes the occupancy at ``end``; returns the tokens held."""
        spent[level] += end - since
        peak[name] = top
        occupancy[name] = dict(itertools.compress(enumerate(spent), spent))
        return level
    sim._tails.append(tail)

    if cap == 1:
        def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
            nonlocal level, since, top
            if level:
                in_val[ib] = value   # stands until the head is taken
                return None
            spent[0] += t - since
            since = t
            level = top = 1
            if log:
                log((t, name, 1))
            heappush(heap, (t + delay, to_k, to_p, to_phase, value))
            if acks:
                return acks[sk](sp, None, t)
            return (t, sk, sp, _ACK, None)

        def on_ack(port: int, payload, t: int) -> Optional[tuple]:
            nonlocal level, since
            spent[1] += t - since
            since = t
            level = 0
            if log:
                log((t, name, 0))
            value = in_val[ib]
            if value is None:
                return None
            in_val[ib] = None   # take the waiting offer
            return on_offer(port, value, t)
    else:
        behind: deque = deque()   # (value, arrival time) behind the head

        def on_offer(port: int, value: int, t: int) -> Optional[tuple]:
            nonlocal level, since, top
            if level >= cap:
                in_val[ib] = value   # stands until a slot frees
                return None
            spent[level] += t - since
            since = t
            level += 1
            if log:
                log((t, name, level))
            if level > top:
                top = level
                spent.append(0)
            if level > 1:
                behind.append((value, t))
            else:   # the output was free: offer it
                heappush(heap, (t + delay, to_k, to_p, to_phase, value))
            if acks:
                return acks[sk](sp, None, t)
            return (t, sk, sp, _ACK, None)

        def on_ack(port: int, payload, t: int) -> Optional[tuple]:
            nonlocal level, since
            spent[level] += t - since
            since = t
            level -= 1
            if log:
                log((t, name, level))
            nxt = None
            if level:   # the next token becomes the head
                head, due = behind.popleft()
                nxt = (max(due + delay, t), to_k, to_p, to_phase, head)
            value = in_val[ib]
            if value is None:
                return nxt
            in_val[ib] = None   # take the waiting offer
            if nxt:
                heappush(heap, nxt)
            return on_offer(port, value, t)

    if fold:
        return on_offer, on_ack, None

    offers = sim.on_offer if sim.direct[k] and dk < k else None

    def on_fire(port: int, head: int, t: int) -> Optional[tuple]:
        if offers:
            return offers[dk](dp, head, t)
        return (t, dk, dp, _OFFER, head)
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
    starvation, not deadlock.  No output keeps a standing flag: with no
    event queued, an offer stands exactly while its value waits in the
    consumer's input slot, and the unacknowledged outputs of each
    component on the cycle are read from there.
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
        edge(names[in_src[slot][0]], names[k])
    for k in holders:
        comp = net.components.get(names[k])
        if comp is None or comp.kind not in (Kind.JOIN, Kind.OPERATOR):
            continue
        for slot in range(in_base[k], in_base[k + 1]):
            if in_val[slot] is None:
                edge(names[k], names[in_src[slot][0]])

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
        dsts = sim.out_dst[ob:ob + sim.n_out[k]]
        out = [p for p, (dk, dp) in enumerate(dsts)
               if in_val[in_base[dk] + dp] is not None]
        lines.append(f"{node} ({kind}): holding inputs {held}, "
                     f"unacknowledged outputs {out}")
    return True, lines


def critical_path(net: Network, delays) -> int:
    """Longest combinational component-delay chain between storage points.

    One search of the wired input slots in link-id order, the order
    ``ir.combinational_cycle`` searches in; on a cyclic net a slot still
    on the search path adds nothing.  A net that is not fully wired is
    refused as ``Lowered.wiring`` refuses it.
    """
    low = Lowered(net)
    return _slot_chain(*low._by_link, low._slot_delays(delays))[0]


def _per_slot(per_key: list, n_in: list[int]) -> list:
    """A per-key list spread over the keys' input slots."""
    return list(itertools.chain.from_iterable(
        map(itertools.repeat, per_key, n_in)))


def _slot_chain(succ: list, roots, delay: list[int]
                ) -> tuple[int, Optional[list[int]]]:
    """The search behind the clocked checks, on ``Lowered._slots``: one
    iterative depth-first search from each of ``roots`` in turn, each
    slot's chain its own ``delay`` plus the longest chain it is relayed
    onto.  Gives the longest chain and the first cycle the search closes,
    as slots from after the one it closed into and ending with it, or
    None.  A slot still on the search path adds nothing."""
    # The mark of a slot on the search path; it is below every chain.
    grey = float("-inf")
    chain: list = [None] * len(succ)
    cycle = None
    for root in roots:
        if chain[root] is not None:
            continue
        chain[root] = grey
        path, stack = [root], [iter(succ[root])]
        while stack:
            for s in stack[-1]:
                c = chain[s]
                if c is None:
                    chain[s] = grey
                    path.append(s)
                    stack.append(iter(succ[s]))
                    break
                if c is grey and cycle is None:
                    cycle = path[path.index(s) + 1:] + [s]
            else:
                stack.pop()
                s = path.pop()
                best = 0
                for c in succ[s]:
                    if chain[c] > best:
                        best = chain[c]
                chain[s] = best + delay[s]
    return max(chain, default=0), cycle


@contextmanager
def _collector_paused():
    """Keeps CPython's cyclic collector off for one run, and on again
    afterwards only if it was on before.  The only reference cycles a run
    creates run through its handler tables, which ``Simulation.run``
    empties as it ends, so reference counting frees all it allocates; the
    collector would only walk the lowering's closures and cells while
    they live."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def run(net: Network | Lowered, cfg: SimConfig) -> SimReport:
    """One run of ``net`` under ``cfg``.  Runs given the same Lowered share
    its per-net half of lowering.

    A sync run refuses a combinational cycle before any ``ConfigError``,
    then measures the critical path (once per Lowered and delay table),
    then runs on the zeroed delay table; ``Lowered.critical_path`` does
    both checks in one search of the wired input slots.  A net that
    ``wiring`` refuses, or a delay table that cannot price the net, is
    refused as an async run refuses it: any ``ConfigError`` first."""
    low = _lowered(net)
    with _collector_paused():
        if cfg.mode != "sync":
            return Simulation(low, cfg).run()
        try:
            crit = low.critical_path(cfg.delays)
        except CombinationalCycle:
            raise
        except Exception:   # refused as an async run refuses it
            cfg.validate(low.net)
            raise
        inner = replace(cfg, delays=cfg.delays.zeroed(buffer_delay=cfg.clock))
        report = Simulation(low, inner).run()
    report.critical_path = crit
    report.overclocked = cfg.clock < crit
    return report
