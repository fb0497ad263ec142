"""Acceptance gate: seven end-to-end checks, one verdict line each.

Run with ``pytest tests/test_acceptance.py`` — each check prints its own
PASS/FAIL line (bypassing capture) with the wall time and budget.
"""
from __future__ import annotations

import contextlib
import random
import statistics
import time

import pytest

from conftest import (RING_LAP_PS, build_loop_net, build_ring,
                      loop_arrival_gaps, ring_arrival_gaps, ring_delays)
from elastika.bench import POLICIES, benchmark, benchmark_names, run_cell
from elastika.buffering import apply, policy_loop, policy_pac, policy_simple
from elastika.metrics import PowerParams, analytic_throughput, power
from elastika.sim import CombinationalCycle, DelayTable, SimConfig, run

SYNC_CLOCK = 2000


@contextlib.contextmanager
def gate(capsys, index, name, budget):
    start = time.monotonic()
    ok = False
    try:
        yield
        ok = True
    finally:
        took = time.monotonic() - start
        verdict = "PASS" if ok and took < budget else "FAIL"
        with capsys.disabled():
            print(f"\n{verdict} [{index}/7] {name} "
                  f"({took:.2f}s, budget {budget:.0f}s)")
    assert took < budget, f"{name} took {took:.2f}s, budget {budget}s"


def test_gate_1_ring_timing_oracle(capsys):
    with gate(capsys, 1, "closed ring laps at the hand-computed 4400 ps "
              "and the analytic bound agrees within 1%", 1.0):
        rep = run(build_ring(), SimConfig(
            mode="async", delays=ring_delays(), stimulus={"go": []},
            max_time=60_000, record_occupancy=True))
        gaps = ring_arrival_gaps(rep)
        assert len(gaps) >= 10
        assert set(gaps) == {RING_LAP_PS}
        rate = analytic_throughput(build_ring(), ring_delays(),
                                   marking={"lb": 1})
        measured = 1 / RING_LAP_PS
        assert abs(rate.theta - measured) / measured < 0.01


def test_gate_2_simple_policy_buffers_every_link(capsys):
    with gate(capsys, 2, "the baseline policy buffers exactly every link "
              "on all shipped programs", 1.0):
        for name in benchmark_names():
            net = benchmark(name).compiled()
            for mode in ("async", "sync"):
                assert len(policy_simple(net, mode=mode)) == len(net.links)


def test_gate_3_policy_ordering_and_reduction(capsys):
    with gate(capsys, 3, "plan sizes order dependency <= loop <= baseline "
              "with at least 30% savings from the dependency policy", 5.0):
        for name in benchmark_names():
            net = benchmark(name).compiled()
            for mode in ("async", "sync"):
                n_simple = len(policy_simple(net, mode=mode))
                n_loop = len(policy_loop(net, mode=mode))
                n_pac = len(policy_pac(net, mode=mode))
                assert n_pac <= n_loop <= n_simple, (name, mode)
                assert n_pac <= 0.7 * n_simple, (name, mode)


def test_gate_4_full_matrix_runs_and_matches_references(capsys):
    with gate(capsys, 4, "3 programs x 3 policies x 2 protocols x 2 "
              "datasets all finish and match the software reference; "
              "unbuffered nets fail as predicted", 30.0):
        for name in benchmark_names():
            spec = benchmark(name)
            for policy in POLICIES:
                for mode, clock in (("async", 0), ("sync", SYNC_CLOCK)):
                    run_cell(spec, policy, mode, clock)  # raises on mismatch
            bare = spec.compiled()
            stim = {k: list(v) for k, v in spec.datasets[0].items()}
            rep = run(bare, SimConfig(mode="async", stimulus=stim))
            assert rep.deadlock, name
            with pytest.raises(CombinationalCycle):
                run(bare, SimConfig(mode="sync", clock=SYNC_CLOCK,
                                    stimulus=stim))


def test_gate_5_sync_throughput_gains(capsys):
    with gate(capsys, 5, "at one shared clock the dependency policy beats "
              "the loop policy on the divisor program, and by an even "
              "wider factor on at least one of the others", 30.0):
        ratio = {}
        for name in benchmark_names():
            spec = benchmark(name)
            th = {p: run_cell(spec, p, "sync", SYNC_CLOCK).throughput
                  for p in ("loop", "pac")}
            ratio[name] = th["pac"] / th["loop"]
        assert ratio["elgcd"] >= 1.0
        assert max(ratio["poly"], ratio["smul"]) >= ratio["elgcd"]


def test_gate_6_power_model_shape(capsys):
    with gate(capsys, 6, "leakage falls strictly baseline -> loop -> "
              "dependency, and dynamic power is exactly linear in "
              "frequency", 1.0):
        params = PowerParams(activity=0.5, frequency=1.0, capacitance=1.0,
                             supply=2.0)
        for name in benchmark_names():
            net = benchmark(name).compiled()
            leak = []
            for policy in ("simple", "loop", "pac"):
                buffered = apply(net, POLICIES[policy](net, mode="async"))
                leak.append(power(buffered, params).leakage_power)
            assert leak[0] > leak[1] > leak[2], (name, leak)
        ring = build_ring()
        slope = None
        for freq in (1.0, 2.0, 4.0):
            p = PowerParams(activity=0.5, frequency=freq, capacitance=1.0,
                            supply=2.0)
            dyn = power(ring, p).dynamic_power
            if slope is None:
                slope = dyn / freq
            assert dyn == slope * freq
        assert slope == 0.5 * 1.0 * 4.0 * 23


def test_gate_7_random_loops_match_the_bound(capsys):
    with gate(capsys, 7, "10 random single-loop nets: simulated rate within "
              "5% of the analytic bound", 10.0):
        rng = random.Random(20260822)
        delays = DelayTable(operator={"default": 1000, "id": 100,
                                      "body": 4000, "flag": 100})
        for _ in range(10):
            k = rng.randint(1, 10)
            classes = [rng.choice(["id", "body", "flag", "default"])
                       for _ in range(k)]
            net = build_loop_net(classes)
            assert len(net.components) <= 12
            rate = analytic_throughput(net, delays)
            lap = round(1 / rate.theta)
            rep = run(net, SimConfig(mode="async", delays=delays,
                                     max_time=lap * 8,
                                     record_occupancy=True))
            gaps = loop_arrival_gaps(rep)
            assert gaps
            measured = 1 / statistics.mean(gaps)
            assert abs(rate.theta - measured) / measured < 0.05, classes
