"""Benchmark harness: shipped programs, references, sweep cells."""
from __future__ import annotations

import dataclasses

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
