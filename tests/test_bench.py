"""Benchmark harness: shipped programs, references, sweep cells."""
from __future__ import annotations

import dataclasses
from pathlib import Path

import pytest

from elastika.bench import (WORD, EquivalenceError, SweepRow, benchmark,
                            benchmark_names, format_table, gcd_reference,
                            poly_reference, product_reference, run_cell,
                            sweep)
from elastika.ir import validate


def test_reference_functions_exact():
    assert gcd_reference({"a": [12, 270], "b": [18, 192]}) == {"g": [6, 6]}
    assert poly_reference({"x": [3, 5, 2], "coefs[0]": [7, 1, 0],
                           "coefs[1]": [11, 2, 3], "coefs[2]": [2, 3, 1]}) \
        == {"res": [58, 86, 10]}
    assert product_reference({"a": [WORD - 1, 7], "b": [3, 9]}) \
        == {"p": [WORD - 3, 63]}


def test_benchmark_catalogue():
    assert benchmark_names() == ["elgcd", "poly", "smul"]
    spec = benchmark("elgcd")
    assert spec.name == "elgcd"
    assert len(spec.datasets) == 2
    with pytest.raises(KeyError):
        benchmark("quicksort")


def test_compiled_benchmarks_ship_without_buffers():
    for name in benchmark_names():
        net = benchmark(name).compiled()
        assert net.buffer_count() == 0
        assert validate(net) == []


def test_run_cell_simple_async():
    spec = benchmark("elgcd")
    row = run_cell(spec, "simple", "async", 0)
    assert isinstance(row, SweepRow)
    assert (row.policy, row.mode, row.clock) == ("simple", "async", 0)
    assert row.buffers == len(spec.compiled().links)
    assert row.reduction == 0.0
    assert row.throughput > 0
    assert row.latency1 > 0 and row.latency2 > 0
    assert row.dynamic > 0 and row.leakage > 0


def test_run_cell_pac_sync_reduces_buffers():
    spec = benchmark("elgcd")
    simple = run_cell(spec, "simple", "sync", 2000)
    pac = run_cell(spec, "pac", "sync", 2000)
    assert pac.clock == 2000
    assert pac.buffers < simple.buffers
    assert pac.reduction >= 30.0
    assert pac.leakage < simple.leakage


def test_run_cell_checks_the_reference():
    broken = dataclasses.replace(
        benchmark("elgcd"),
        reference=lambda stim: {"g": [0 for _ in stim["a"]]})
    with pytest.raises(EquivalenceError) as err:
        run_cell(broken, "simple", "async", 0)
    assert "dataset 1" in str(err.value)
    assert err.value.cell[:3] == ("elgcd", "simple", "async")


def test_sweep_order_and_determinism():
    spec = benchmark("elgcd")
    rows = sweep(spec)
    assert [(r.policy, r.mode, r.clock) for r in rows] == [
        ("simple", "async", 0), ("loop", "async", 0), ("pac", "async", 0),
        ("simple", "sync", 2000), ("loop", "sync", 2000),
        ("pac", "sync", 2000)]
    again = sweep(spec)
    assert format_table(rows) == format_table(again)


def test_sweep_surfaces_first_failing_cell():
    broken = dataclasses.replace(
        benchmark("elgcd"),
        reference=lambda stim: {"g": [1 for _ in stim["a"]]})
    with pytest.raises(EquivalenceError) as err:
        sweep(broken)
    # Deterministically the first cell in row order.
    assert err.value.cell[:4] == ("elgcd", "simple", "async", 0)


def test_sweep_stops_at_the_first_failing_cell_in_policy_order(monkeypatch):
    # loop fails under async and simple under sync.  Row order would meet
    # loop/async first; a sweep runs each policy's cells in turn, so it
    # stops at simple/sync.
    from elastika import bench
    spec = dataclasses.replace(benchmark("elgcd"))
    by_size = {len(bench.POLICIES[p](spec._net)): p for p in spec.policies}
    run = bench.run

    def flaky(lowered, cfg):
        rep = run(lowered, cfg)
        cell = (by_size[lowered.net.buffer_count()], cfg.mode)
        if cell in {("loop", "async"), ("simple", "sync")}:
            rep.results.clear()
        return rep
    monkeypatch.setattr(bench, "run", flaky)
    with pytest.raises(EquivalenceError) as err:
        sweep(spec)
    assert err.value.cell[:4] == ("elgcd", "simple", "sync", 2000)


@pytest.mark.parametrize("name", benchmark_names())
def test_sweep_plans_each_policy_once(name, monkeypatch):
    # A plan depends only on the net and the policy, so every (mode,
    # clock) cell of a policy shares one plan, splice, Lowered and cost.
    from elastika import bench
    spec = dataclasses.replace(benchmark(name))
    plans, runs, lowered = [], [], []
    for policy, plan in list(bench.POLICIES.items()):
        def counted(net, *args, policy=policy, plan=plan, **kwargs):
            plans.append(policy)
            return plan(net, *args, **kwargs)
        monkeypatch.setitem(bench.POLICIES, policy, counted)
    run = bench.run

    def counted_run(net, cfg):
        runs.append(cfg.mode)
        lowered.append(net)
        return run(net, cfg)
    monkeypatch.setattr(bench, "run", counted_run)
    rows = sweep(spec)
    assert sorted(plans) == sorted(spec.policies)
    assert len(runs) == len(rows) * len(spec.datasets)
    assert len({id(net) for net in lowered}) == len(spec.policies)


def test_format_table_shape():
    spec = benchmark("elgcd")
    row = run_cell(spec, "pac", "async", 0)
    text = format_table([row])
    lines = text.splitlines()
    assert lines[0] == ("policy,mode,clock,buffers,reduction_pct,"
                        "throughput_per_ns,latency1_ns,latency2_ns,"
                        "dynamic,leakage")
    assert lines[1].startswith("pac,async,0,")
    assert text.endswith("\n")
    assert len(lines) == 2


@pytest.mark.parametrize("name", benchmark_names())
def test_sweep_compiles_once_and_leaves_the_shared_net_alone(name,
                                                             monkeypatch):
    from elastika import bench, netlist
    spec = dataclasses.replace(benchmark(name))   # a spec with no net yet
    compiles, runs = [], []
    compile_module, run = bench.compile_module, bench.run
    monkeypatch.setattr(bench, "compile_module",
                        lambda module: compiles.append(1)
                        or compile_module(module))
    monkeypatch.setattr(bench, "run",
                        lambda net, cfg: runs.append(1) or run(net, cfg))
    shared = netlist.dumps(spec._net)
    rows = sweep(spec)
    assert len(compiles) == 1
    assert len(runs) == len(rows) * len(spec.datasets)
    assert netlist.dumps(spec._net) == shared
    # The same table as compiling the source afresh for every cell.
    fresh = [run_cell(dataclasses.replace(spec), r.policy, r.mode, r.clock)
             for r in rows]
    assert len(compiles) == 1 + len(rows)
    assert format_table(rows) == format_table(fresh)


def test_compiled_returns_a_fresh_net():
    spec = benchmark("elgcd")
    net = spec.compiled()
    assert net is not spec.compiled() and net is not spec._net
    net.components.clear()
    assert spec.compiled().components and spec._net.components


def test_readme_sweep_block_is_the_elgcd_table():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("$ elastika sweep elgcd\n# elgcd\n", 1)[1]
    assert block.split("```", 1)[0] == \
        format_table(sweep(benchmark("elgcd")))
