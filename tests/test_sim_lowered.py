"""Runs that share one ``Lowered`` against fresh runs of the same net.

A ``Lowered`` holds the half of lowering that depends only on the net, so
any number of runs given it must report the same bytes as runs given the
net itself, whatever mode, clock, stimulus, horizon or result cap each
run uses and in whatever order they come.  A refusal of the net is raised
by every run, shared or not.
"""
from __future__ import annotations

from functools import cached_property
from pathlib import Path

import pytest

from elastika import sim
from elastika.bench import POLICIES, benchmark, benchmark_names, run_cell
from elastika.buffering import apply, policy_pac
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import Link
from elastika.sim import (DelayTable, Lowered, SimConfig, SimError, engine,
                          occupancy_csv, parse_stimulus, run, to_json)
from elastika.sim.engine import Lowered as EngineLowered

DATA = Path(__file__).parent / "data"
PLANS = ("unbuffered", *sorted(POLICIES))
TIMINGS = (("async", 0), ("sync", 2000), ("sync", 700))


def outcome(net, cfg: SimConfig) -> tuple[str, str]:
    """The report's JSON and occupancy CSV, or the error the run raised."""
    try:
        rep = run(net, cfg)
    except SimError as exc:
        return type(exc).__name__, str(exc)
    return to_json(rep), occupancy_csv(rep)


def configs(stimuli) -> list[SimConfig]:
    out = []
    for stimulus in stimuli:
        for mode, clock in TIMINGS:
            for limits in ({}, {"max_results": 2}, {"max_time": 3000}):
                out.append(SimConfig(
                    mode=mode, clock=clock, record_occupancy=True,
                    stimulus={k: list(v) for k, v in stimulus.items()},
                    **limits))
    return out


def planned(net, plan: str):
    return net if plan == "unbuffered" else apply(net, POLICIES[plan](net))


def assert_shared_runs_match(net, stimuli) -> None:
    cfgs = configs(stimuli)
    fresh = [outcome(net, cfg) for cfg in cfgs]
    shared = Lowered(net)
    # Twice over, so a run after every other kind of run is covered.
    assert [outcome(shared, cfg) for cfg in cfgs * 2] == fresh * 2


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("name", benchmark_names())
def test_shared_lowered_matches_fresh_runs_on_shipped_nets(name, plan):
    spec = benchmark(name)
    assert_shared_runs_match(planned(spec.compiled(), plan), spec.datasets)


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("program", ["wide0", "wide1", "wide2", "wide3"])
def test_shared_lowered_matches_fresh_runs_on_the_corpus(program, plan):
    net = compile_module(parse((DATA / f"{program}.csp").read_text()))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    assert_shared_runs_match(planned(net, plan), [stimulus])


def test_a_shared_lowered_refuses_bad_wiring_on_every_run(elgcd_net):
    net = apply(elgcd_net, policy_pac(elgcd_net))
    lid, ln = sorted(net.links.items())[0]
    net.links[lid] = Link(lid, ln.width, ln.src, (ln.dst[0], 99))
    shared = Lowered(net)
    for mode, clock in TIMINGS * 2:
        with pytest.raises(SimError, match=f"^link {lid} enters "):
            run(shared, SimConfig(mode=mode, clock=clock))


@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_run_cell_lowers_the_buffered_net_once(monkeypatch, policy, mode):
    wiring = EngineLowered.wiring.func
    built = []

    def counted(self):
        built.append(self.net)
        return wiring(self)
    view = cached_property(counted)
    view.__set_name__(EngineLowered, "wiring")
    monkeypatch.setattr(EngineLowered, "wiring", view)
    run_cell(benchmark("elgcd"), policy, mode, 2000)
    assert len(built) == 1


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_run_cell_builds_no_flow_graph_for_a_sync_cell(graph_builds,
                                                       policy):
    # The clocked checks search the Lowered's wired input slots.
    spec = benchmark("elgcd")
    POLICIES[policy](spec._net)   # the planner's own graphs, counted apart
    planner = dict(graph_builds)
    graph_builds.clear()
    run_cell(spec, policy, "sync", 2000)
    assert graph_builds["init"] == planner.get("init", 0)
    assert graph_builds["comb"] == graph_builds["comb_search"] == 0


@pytest.fixture()
def chains(monkeypatch) -> list:
    """The per-slot delay lists ``engine._slot_chain``, the one search
    behind the clocked checks, is called with while the test runs."""
    calls = []
    slot_chain = engine._slot_chain

    def counted(succ, delay, key=None):
        calls.append(delay)
        return slot_chain(succ, delay, key)
    monkeypatch.setattr(engine, "_slot_chain", counted)
    return calls


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_run_cell_measures_one_critical_path_per_sync_cell(chains, policy):
    run_cell(benchmark("elgcd"), policy, "sync", 2000)
    assert len(chains) == 1


def test_a_lowered_remeasures_the_critical_path_for_a_new_table(chains,
                                                                elgcd_net):
    shared = Lowered(apply(elgcd_net, policy_pac(elgcd_net, mode="sync")))
    base = DelayTable()
    slow = DelayTable(operator={"default": 5000, "const": 100, "id": 100})

    def path(delays) -> int:
        return run(shared, SimConfig(mode="sync", clock=2000,
                                     delays=delays)).critical_path
    paths = [path(d) for d in (base, DelayTable(), slow, slow, base)]
    assert len(chains) == 3
    assert paths == [paths[0]] * 2 + [paths[2]] * 2 + [paths[0]]
    assert paths[2] > paths[0]
    # A table changed in place after its run is measured again.
    base.operator["default"] = 5000
    assert path(base) == paths[2]
    assert len(chains) == 4


def test_buffer_storage_is_not_sized_by_capacity(elgcd_net):
    # Under pac no buffer of elgcd holds a second token, so a capacity of
    # 2**40 reports as capacity 2 does, with no slot list that large.
    spec = benchmark("elgcd")
    plan = policy_pac(elgcd_net)
    small, huge = (apply(elgcd_net, plan, capacity=c) for c in (2, 2 ** 40))
    for cfg in configs(spec.datasets):
        rep = outcome(small, cfg)
        assert rep == outcome(huge, cfg)
        assert max(run(small, cfg).occupancy_max.values()) < 2


def test_lowered_is_public():
    assert sim.Lowered is EngineLowered
    assert "Lowered" in sim.__all__
