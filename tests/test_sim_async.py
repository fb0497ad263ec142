"""Asynchronous handshake simulation: component semantics, timing,
termination classification and operator arithmetic."""
from __future__ import annotations

import re

import pytest
from hypothesis import given, strategies as st

from conftest import (RING_LAP_PS, build_ring, ring_arrival_gaps, ring_delays,
                      two_chains)
from elastika.buffering import apply, policy_pac
from elastika.frontend.syntax import _BIN_FN
from elastika.ir import (OPERATOR_FNS, Component, Kind, Link, Network, Port,
                         validate)
from elastika.sim import (ConfigError, DelayTable, Lowered, SimConfig,
                          SimError, Simulation, SteerMiss, critical_path,
                          format_stimulus, parse_stimulus, read_config, run)
from elastika.sim.engine import _operator_fn


def mknet(name, comps, links, ports):
    return Network(name, {c.id: c for c in comps},
                   {ln.id: ln for ln in links}, {p.name: p for p in ports})


def id_chain() -> Network:
    return mknet("chain",
                 [Component("op", Kind.OPERATOR,
                            {"fn": "id", "inputs": [8], "out": 8,
                             "delay_class": "id"})],
                 [Link("la", 8, None, ("op", 0)),
                  Link("lz", 8, ("op", 0), None)],
                 [Port("a", "in", 8, "la"), Port("z", "out", 8, "lz")])


def sim(net, stimulus, **kw):
    return run(net, SimConfig(mode="async", stimulus=stimulus, **kw))


# ---------------------------------------------------------------------------
# Pipelines and handshakes

def test_chain_times_and_latencies():
    rep = sim(id_chain(), {"a": [1, 2, 3]})
    # Each value needs one 100 ps operator firing, and the next stimulus
    # value is only offered once the previous one is acknowledged.
    assert rep.results["z"] == [(1, 100), (2, 200), (3, 300)]
    assert rep.completion == "drained"
    assert rep.latencies == [100, 100, 100]
    assert rep.tokens_in == 3
    assert rep.tokens_out == 3
    assert rep.elapsed == 300
    assert rep.throughput == pytest.approx(3 / 300)
    assert rep.cycle_time == pytest.approx(100.0)
    assert rep.primary_port() == "z"


def test_join_concatenates_low_bits_first():
    net = mknet("j",
                [Component("j", Kind.JOIN, {"inputs": [4, 4]})],
                [Link("la", 4, None, ("j", 0)),
                 Link("lb", 4, None, ("j", 1)),
                 Link("lz", 8, ("j", 0), None)],
                [Port("a", "in", 4, "la"), Port("b", "in", 4, "lb"),
                 Port("z", "out", 8, "lz")])
    rep = sim(net, {"a": [3], "b": [5]})
    assert rep.results["z"] == [(3 | (5 << 4), 100)]


def test_join_waits_for_every_input():
    net = mknet("j",
                [Component("j", Kind.JOIN, {"inputs": [4, 4]})],
                [Link("la", 4, None, ("j", 0)),
                 Link("lb", 4, None, ("j", 1)),
                 Link("lz", 8, ("j", 0), None)],
                [Port("a", "in", 4, "la"), Port("b", "in", 4, "lb"),
                 Port("z", "out", 8, "lz")])
    rep = sim(net, {"a": [1], "b": []})
    assert rep.results["z"] == []
    assert rep.completion == "stimulus-exhausted"
    assert not rep.deadlock


def test_fork_duplicates_to_every_output():
    net = mknet("f",
                [Component("f", Kind.FORK, {"input": 8, "outputs": [8, 8]})],
                [Link("la", 8, None, ("f", 0)),
                 Link("l0", 8, ("f", 0), None),
                 Link("l1", 8, ("f", 1), None)],
                [Port("a", "in", 8, "la"), Port("z0", "out", 8, "l0"),
                 Port("z1", "out", 8, "l1")])
    rep = sim(net, {"a": [7, 9]})
    assert [v for v, _ in rep.results["z0"]] == [7, 9]
    assert [v for v, _ in rep.results["z1"]] == [7, 9]
    assert rep.tokens_in == 2


def steer_net(table):
    return mknet("s",
                 [Component("s", Kind.STEER,
                            {"input": 9, "select": 1, "outputs": 2,
                             "table": table})],
                 [Link("la", 9, None, ("s", 0)),
                  Link("l0", 8, ("s", 0), None),
                  Link("l1", 8, ("s", 1), None)],
                 [Port("a", "in", 9, "la"), Port("z0", "out", 8, "l0"),
                  Port("z1", "out", 8, "l1")])


def test_steer_routes_by_select_and_strips_it():
    net = steer_net({"0": 0, "1": 1})
    rep = sim(net, {"a": [(7 << 1) | 0, (9 << 1) | 1]})
    assert [v for v, _ in rep.results["z0"]] == [7]
    assert [v for v, _ in rep.results["z1"]] == [9]


def test_steer_unmapped_select_raises():
    net = steer_net({"0": 0})
    with pytest.raises(SteerMiss):
        sim(net, {"a": [(9 << 1) | 1]})


def test_wiring_to_missing_ports_is_rejected():
    # Nets that ir.validate rejects; the engine refuses to lay them out
    # rather than let a stray port index reach another component's slot.
    with pytest.raises(SimError, match="targets missing output 5"):
        sim(steer_net({"0": 0, "1": 5}), {"a": [0]})
    chain = id_chain()
    chain.links["lb"] = Link("lb", 8, None, ("op", 1))
    with pytest.raises(SimError, match="enters op, which has no input 1"):
        sim(chain, {"a": [1]})


@pytest.mark.parametrize("target", [0.9, "1", True], ids=repr)
def test_steer_target_that_is_no_int_is_rejected(target):
    # Each was read as int(target) and routed the select value 0.
    with pytest.raises(SimError, match=re.escape(
            f"s: steer table entry 0 targets missing output {target!r}")):
        sim(steer_net({"0": target, "1": 1}), {"a": [7 << 1]})


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_doubly_bound_ports_are_rejected(mode):
    # Nets that ir.validate rejects; run unchecked, the first one drained
    # with z = [1, 7, 8] and never took the value 2.
    def run_mode(net, stimulus):
        return run(net, SimConfig(mode=mode, stimulus=stimulus,
                                  clock=2000 if mode == "sync" else 0))
    fed_twice = id_chain()
    fed_twice.links["lb"] = Link("lb", 8, None, ("op", 0))
    fed_twice.ports["b"] = Port("b", "in", 8, "lb")
    with pytest.raises(SimError,
                       match="link lb enters op input 0, which link la "
                             "already binds"):
        run_mode(fed_twice, {"a": [1, 2], "b": [7, 8]})
    drains_twice = id_chain()
    drains_twice.links["ly"] = Link("ly", 8, ("op", 0), None)
    drains_twice.ports["y"] = Port("y", "out", 8, "ly")
    with pytest.raises(SimError,
                       match="link ly leaves op output 0, which link lz "
                             "already binds"):
        run_mode(drains_twice, {"a": [1, 2]})


@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("kind, key", [(Kind.MERGE, "inputs"),
                                       (Kind.STEER, "outputs"),
                                       (Kind.VARIABLE, "reads")])
def test_huge_port_count_is_rejected(elgcd_net, mode, kind, key):
    # A net ir.validate rejects, run unchecked.  Any slot list of 2**40
    # entries fails at once.  The clocked checks pair only bound ports, so
    # they pass the buffered net and the Simulation refuses the count.
    net = apply(elgcd_net, policy_pac(elgcd_net))
    comp = next(c for c in sorted(net.components.values(), key=lambda c: c.id)
                if c.kind is kind)
    comp.params[key] = 2 ** 40
    with pytest.raises(SimError, match=f"^{re.escape(comp.id)} has .* but "
                                       f"the net has {len(net.links)} links$"):
        run(net, SimConfig(mode=mode, clock=2000 if mode == "sync" else 0))


def merge_net():
    return mknet("m",
                 [Component("m", Kind.MERGE, {"width": 8, "inputs": 2})],
                 [Link("la", 8, None, ("m", 0)),
                  Link("lb", 8, None, ("m", 1)),
                  Link("lz", 8, ("m", 0), None)],
                 [Port("a", "in", 8, "la"), Port("b", "in", 8, "lb"),
                  Port("z", "out", 8, "lz")])


def test_merge_orders_by_arrival_then_port():
    rep = sim(merge_net(), {"a": [1, 3], "b": [2, 4]})
    # Both first values arrive at t=0; the lower port wins the tie, then
    # each acknowledged input re-offers and alternation follows.
    assert rep.results["z"] == [(1, 100), (2, 200), (3, 300), (4, 400)]


def test_merge_grants_earliest_arrival_then_lowest_port():
    net = mknet("m3",
                [Component("m", Kind.MERGE, {"width": 8, "inputs": 3})],
                [Link("la", 8, None, ("m", 0)),
                 Link("lb", 8, None, ("m", 1)),
                 Link("lc", 8, None, ("m", 2)),
                 Link("lz", 8, ("m", 0), None)],
                [Port("a", "in", 8, "la"), Port("b", "in", 8, "lb"),
                 Port("c", "in", 8, "lc"), Port("z", "out", 8, "lz")])
    # a, b and c all offer at t=0 and a is granted; a's second value
    # arrives after b and c have waited, so it goes last.
    rep = sim(net, {"a": [1, 4], "b": [2], "c": [3]})
    assert [v for v, _ in rep.results["z"]] == [1, 2, 3, 4]


def var_net():
    return mknet("v",
                 [Component("v", Kind.VARIABLE, {"width": 8, "reads": 1})],
                 [Link("lw", 8, None, ("v", 0)),
                  Link("ld", 0, ("v", 0), None),
                  Link("lr", 0, None, ("v", 1)),
                  Link("lv", 8, ("v", 1), None)],
                 [Port("w", "in", 8, "lw"), Port("d", "out", 0, "ld"),
                  Port("r", "in", 0, "lr"), Port("z", "out", 8, "lv")])


def test_variable_commit_is_at_write_done():
    # Write and read go are both offered at t=0.  The default read delay
    # (100 ps) samples before the 500 ps write commits, so the read sees
    # the initial store; a read slower than the write sees the new value.
    rep = sim(var_net(), {"w": [7], "r": [0]})
    assert rep.results["z"] == [(0, 100)]
    assert rep.results["d"] == [(0, 500)]
    slow = DelayTable(variable_read=600)
    rep = sim(var_net(), {"w": [7], "r": [0]}, delays=slow)
    assert rep.results["z"] == [(7, 600)]


# ---------------------------------------------------------------------------
# The worked loop: measured lap time matches the hand-computed sum

def test_ring_laps_exactly():
    rep = run(build_ring(), SimConfig(
        mode="async", delays=ring_delays(), stimulus={"go": []},
        max_time=60_000, record_occupancy=True))
    assert rep.completion == "horizon"
    assert rep.truncated
    gaps = ring_arrival_gaps(rep)
    assert len(gaps) >= 10
    assert set(gaps) == {RING_LAP_PS}
    assert rep.seeded == 1
    # At each lap instant the buffer admits the arriving token in the same
    # picosecond the departing one is acknowledged, so the instantaneous
    # peak is 2 even though no measurable time is spent there.
    assert rep.occupancy_max["b"] == 2


def test_ring_occupancy_histogram_accounts_all_time():
    rep = run(build_ring(), SimConfig(
        mode="async", delays=ring_delays(), stimulus={"go": []},
        max_time=60_000))
    hist = rep.occupancy_time["b"]
    # Durations are only charged up to the last state change, and the
    # zero-duration peak of 2 at each lap instant contributes nothing.
    assert set(hist) <= {0, 1, 2}
    assert hist.get(2, 0) == 0
    assert hist[1] > hist[0] > 0
    assert sum(hist.values()) >= 50_000


def test_buffer_with_an_unconsumed_output_is_refused():
    # A link that nothing consumes is no handshake, so the net is not
    # lowered, as ir.validate does not accept it either.
    net = mknet("b",
                [Component("b", Kind.BUFFER, {"width": 8, "capacity": 1})],
                [Link("la", 8, None, ("b", 0)),
                 Link("lo", 8, ("b", 0), None)],
                [Port("a", "in", 8, "la")])
    assert validate(net)
    with pytest.raises(SimError, match="^link lo has no consumer$"):
        sim(net, {"a": [1]})


def test_critical_path_of_ring():
    # Longest combinational chain: go -> initial(100) -> merge(100)
    # -> fork(100) -> body(4000) -> join(100) -> steer(100) -> buffer(0).
    assert critical_path(build_ring(), ring_delays()) == 4500


def test_critical_path_of_cyclic_nets(elgcd_net, poly_net, smul_net):
    # Unbuffered compiled nets have combinational cycles; an edge back
    # into the search path adds nothing, so the figures stay finite and
    # depend only on the sorted-id search order.
    assert [critical_path(net, DelayTable())
            for net in (elgcd_net, poly_net, smul_net)] == [7000, 9700, 10400]


# ---------------------------------------------------------------------------
# Termination classification

def test_two_component_cycle_deadlocks():
    net = mknet("dead",
                [Component("init", Kind.INITIAL, {"width": 8, "value": 0}),
                 Component("op", Kind.OPERATOR,
                           {"fn": "id", "inputs": [8], "out": 8})],
                [Link("li", 8, ("init", 0), ("op", 0)),
                 Link("lo", 8, ("op", 0), ("init", 0))],
                [])
    rep = sim(net, {})
    assert rep.deadlock
    assert rep.completion == "deadlock"
    assert rep.diagnosis == [
        "blocked cycle: init -> op -> init",
        "init (initial): holding inputs [0], unacknowledged outputs [0]",
        "op (operator): holding inputs [0], unacknowledged outputs [0]",
    ]


def test_unbuffered_compile_deadlocks(elgcd_net):
    rep = sim(elgcd_net, {"a": [12], "b": [18]})
    assert rep.deadlock
    assert rep.results["g"] == []


def test_horizon_truncation():
    rep = run(build_ring(), SimConfig(
        mode="async", delays=ring_delays(), stimulus={"go": []},
        max_time=10_000))
    assert rep.truncated
    assert rep.completion == "horizon"


def test_max_results_cap():
    rep = sim(id_chain(), {"a": list(range(9))}, max_results=3)
    assert len(rep.results["z"]) == 3
    assert rep.truncated


# ---------------------------------------------------------------------------
# Config surface

def test_config_rejects_bad_mode(ring_net):
    with pytest.raises(ConfigError, match="^mode 'fast' not async/sync$"):
        run(ring_net, SimConfig(mode="fast"))


def test_config_rejects_unknown_stimulus_port(ring_net):
    with pytest.raises(ConfigError):
        run(ring_net, SimConfig(stimulus={"nope": [1]}))


def test_config_rejects_oversized_stimulus_value():
    with pytest.raises(ConfigError):
        sim(id_chain(), {"a": [256]})


def test_config_rejects_negative_delay():
    # A clocked run simulates on a zeroed table, so it checks the caller's.
    for mode, clock in (("async", 0), ("sync", 2000)):
        with pytest.raises(ConfigError, match=r"^delay\.join must be >= 0$"):
            run(id_chain(), SimConfig(mode=mode, clock=clock,
                                      stimulus={"a": [1]},
                                      delays=DelayTable(join=-1)))


def test_operator_table_needs_default():
    with pytest.raises(ConfigError):
        sim(id_chain(), {"a": [1]}, delays=DelayTable(operator={"mul": 5}))


def test_stimulus_round_trip():
    stim = {"a": [1, 2, 3], "b": [], "c": [0xff]}
    text = format_stimulus(stim)
    assert parse_stimulus(text) == stim
    assert parse_stimulus("a: 1 0x10 2  # comment\n\nb: 7\n") == \
        {"a": [1, 16, 2], "b": [7]}
    with pytest.raises(ConfigError):
        parse_stimulus("no colon here")
    with pytest.raises(ConfigError):
        parse_stimulus("a: 1\na: 2\n")


def test_read_config_types_and_errors():
    cfg = read_config("x = 3\ny = 2.5\nz = hello\n# comment\n\nq = 0x10\n")
    assert cfg == {"x": 3, "y": 2.5, "z": "hello", "q": 16}
    with pytest.raises(ConfigError):
        read_config("novalue =")
    with pytest.raises(ConfigError):
        read_config("just a line")


# ---------------------------------------------------------------------------
# Operator arithmetic

def eval_operator(fn: str, params: dict, ins: list[int],
                  in_widths: list[int], out_width: int) -> int:
    """Reference semantics of one Operator firing, which the simulator's
    closures must match: unsigned word arithmetic modulo the output width,
    a comparison giving 0 or 1, and a shift by at least the width it
    shifts within giving 0."""
    m = (1 << out_width) - 1
    if fn == "const":
        return params.get("value", 0) & m
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
    raise ValueError(f"unknown operator function {fn!r}")


def operator_fn(params: dict, widths: list[int]):
    """The simulator's resolved function of two words (a, b) for an
    Operator with ``params`` and input widths ``widths``; a one-input
    Operator is called with b = 0."""
    return _operator_fn(Component("op", Kind.OPERATOR,
                                  {**params, "inputs": widths}))


def test_eval_operator_basics():
    assert eval_operator("add", {}, [200, 100], [8, 8], 8) == (300) & 0xff
    assert eval_operator("sub", {}, [0, 1], [8, 8], 8) == 0xff
    assert eval_operator("mul", {}, [16, 16], [8, 8], 8) == 0
    assert eval_operator("neg", {}, [1], [8], 8) == 0xff
    assert eval_operator("not", {}, [0], [8], 8) == 0xff
    assert eval_operator("const", {"value": 0x1ff}, [], [], 8) == 0xff
    assert eval_operator("eq", {}, [3, 3], [8, 8], 1) == 1
    assert eval_operator("lt", {}, [2, 3], [8, 8], 1) == 1
    assert eval_operator("ge", {}, [2, 3], [8, 8], 1) == 0


def test_eval_operator_shift_overflow_clears():
    assert eval_operator("shl", {}, [1, 8], [8, 4], 8) == 0
    assert eval_operator("shr", {}, [255, 8], [8, 4], 8) == 0
    assert eval_operator("shl", {}, [1, 7], [8, 4], 8) == 128
    assert eval_operator("shr", {}, [128, 7], [8, 4], 8) == 1


_BIN = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
        "mul": lambda a, b: a * b, "and": lambda a, b: a & b,
        "or": lambda a, b: a | b, "xor": lambda a, b: a ^ b}


@given(st.sampled_from(sorted(_BIN)),
       st.integers(0, 255), st.integers(0, 255))
def test_eval_operator_matches_word_arithmetic(fn, a, b):
    assert eval_operator(fn, {}, [a, b], [8, 8], 8) == _BIN[fn](a, b) % 256


@given(st.integers(1, 16), st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
def test_eval_operator_comparisons_unsigned(width, a, b):
    a %= 1 << width
    b %= 1 << width
    assert eval_operator("lt", {}, [a, b], [width] * 2, 1) == int(a < b)
    assert eval_operator("ne", {}, [a, b], [width] * 2, 1) == int(a != b)


@given(st.sampled_from(OPERATOR_FNS),
       st.lists(st.integers(0, 70), min_size=1, max_size=2),
       st.integers(0, 70), st.integers(-2**80, 2**80), st.data())
def test_operator_closures_match_eval_operator(fn, widths, out, value, data):
    # The simulator resolves each Operator's fn once, at lowering.  Small
    # words too, so that shift amounts fall on both sides of the widths.
    ins = [data.draw(st.integers(0, min(80, (1 << w) - 1))
                     | st.integers(0, (1 << w) - 1)) for w in widths]
    params = {"fn": fn, "value": value, "out": out}
    a, b = [*ins, 0][:2]
    assert operator_fn(params, widths)(a, b) == eval_operator(
        fn, params, ins, widths, out)


def test_operator_closures_match_eval_operator_on_a_grid():
    # Every width boundary, shift amounts on both sides of each width.
    for fn in OPERATOR_FNS:
        for w in (1, 4, 8):
            for out in (0, 1, 4, 8, 12):
                params = {"fn": fn, "value": 0x1234, "out": out}
                for widths in ([w], [w, 4]):
                    words = (0, 1, 5, (1 << w) - 1)
                    for a in words:
                        for b in (0, 1, 2, 3, 4, 5, 7, 8, 9, 15):
                            ins = [a, b][:len(widths)]
                            second = b if len(widths) > 1 else 0
                            assert operator_fn(params, widths)(a, second) == \
                                eval_operator(fn, params, ins, widths, out), \
                                (fn, widths, out, ins)


@pytest.mark.parametrize("fn", ["id", "neg", "not", "shl", "shr", "const"])
def test_one_input_operators_run_as_the_oracle(fn):
    # A one-input Operator reads its missing second word as 0.
    params = {"fn": fn, "value": 0x33, "out": 6}
    net = mknet("op1",
                [Component("op", Kind.OPERATOR, {**params, "inputs": [8]})],
                [Link("la", 8, None, ("op", 0)),
                 Link("lz", 6, ("op", 0), None)],
                [Port("a", "in", 8, "la"), Port("z", "out", 6, "lz")])
    words = [0, 1, 5, 63, 64, 200, 255]
    rep = sim(net, {"a": words})
    assert [v for v, _ in rep.results["z"]] == [
        eval_operator(fn, params, [a], [8], 6) for a in words]
    assert rep.completion == "drained"


def test_three_input_join_concatenates_low_bits_first():
    net = mknet("j3",
                [Component("j", Kind.JOIN, {"inputs": [3, 5, 2]})],
                [Link("la", 3, None, ("j", 0)),
                 Link("lb", 5, None, ("j", 1)),
                 Link("lc", 2, None, ("j", 2)),
                 Link("lz", 10, ("j", 0), None)],
                [Port("a", "in", 3, "la"), Port("b", "in", 5, "lb"),
                 Port("c", "in", 2, "lc"), Port("z", "out", 10, "lz")])
    stimulus = {"a": [7, 0, 5], "b": [31, 1, 17], "c": [3, 2, 0]}
    rep = sim(net, stimulus)
    assert [v for v, _ in rep.results["z"]] == [
        a | (b << 3) | (c << 8) for a, b, c in zip(*stimulus.values())]
    assert rep.completion == "drained"


def test_three_output_fork_masks_each_output_to_its_width():
    net = mknet("f3",
                [Component("f", Kind.FORK,
                           {"input": 8, "outputs": [8, 4, 2]})],
                [Link("la", 8, None, ("f", 0)),
                 Link("l0", 8, ("f", 0), None),
                 Link("l1", 4, ("f", 1), None),
                 Link("l2", 2, ("f", 2), None)],
                [Port("a", "in", 8, "la"), Port("z0", "out", 8, "l0"),
                 Port("z1", "out", 4, "l1"), Port("z2", "out", 2, "l2")])
    words = [0xff, 0x5a, 0x03]
    rep = sim(net, {"a": words})
    for port, width in (("z0", 8), ("z1", 4), ("z2", 2)):
        assert rep.results[port] == [
            (v & ((1 << width) - 1), 100 * (i + 1))
            for i, v in enumerate(words)]
    assert rep.completion == "drained"


def test_frontend_emits_only_table_functions():
    assert {*_BIN_FN.values(), "neg", "not", "const"} <= set(OPERATOR_FNS)


@pytest.mark.parametrize("fn", OPERATOR_FNS)
def test_every_table_function_resolves(fn):
    assert operator_fn({"fn": fn, "out": 8}, [8, 8])(7, 3) == \
        eval_operator(fn, {}, [7, 3], [8, 8], 8)


@pytest.mark.parametrize("fn", ["pow", "ADD", "1", True, [1], None])
def test_function_outside_the_table_raises_sim_error(fn):
    net = id_chain()
    net.components["op"].params["fn"] = fn
    with pytest.raises(SimError, match="^op: unknown operator function "):
        Lowered(net).wiring


def test_unknown_operator_is_refused_at_lowering():
    # Refused when the Simulation is built, so also when the Operator
    # would never fire.
    for stimulus in ({"a": [1, 2]}, {"a": [1], "b": [3]}):
        with pytest.raises(SimError,
                           match="^odd: unknown operator function 'pow'$"):
            sim(two_chains("pow"), stimulus)
    cases = {"fn": "^odd: operator fn is missing$",
             "out": "^odd: operator out is missing$"}
    for param, message in cases.items():
        broken = two_chains("id")
        del broken.components["odd"].params[param]
        with pytest.raises(SimError, match=message):
            Simulation(broken, SimConfig(stimulus={"a": [1]}))
    broken = two_chains("id")
    broken.components["odd"].params["out"] = -1
    with pytest.raises(SimError,
                       match="^odd: operator out must be an integer >= 0$"):
        Simulation(broken, SimConfig(stimulus={"a": [1]}))
    # A const with no value outputs 0, as validate assumes.
    rep = sim(two_chains("const"), {"a": [1], "b": [5]})
    assert rep.results["y"] == [(0, 1000)] and rep.completion == "drained"


def test_lowering_port_counts_match_the_port_widths(elgcd_net, poly_net,
                                                    smul_net):
    from elastika.buffering import apply, policy_simple
    from elastika.ir import port_counts
    kinds = set()
    for net in (elgcd_net, poly_net, smul_net):
        for comp in apply(net, policy_simple(net)).components.values():
            kinds.add(comp.kind)
            assert port_counts(comp) == (
                len(comp.input_widths()), len(comp.output_widths()))
    assert kinds == set(Kind)
