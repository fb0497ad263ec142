"""Command-line interface: each subcommand end-to-end through real files,
and the documented exit codes."""
from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import build_ring
import elastika
from elastika import bench, netlist
from elastika.cli import main
from elastika.ir import validate


@pytest.fixture()
def elgcd_source(tmp_path):
    src = tmp_path / "elgcd.csp"
    src.write_text(bench.benchmark("elgcd").source.read_text())
    return src


@pytest.fixture()
def elgcd_netlist(tmp_path, elgcd_source):
    out = tmp_path / "elgcd.net.json"
    assert main(["compile", str(elgcd_source), "-o", str(out)]) == 0
    return out


@pytest.fixture()
def elgcd_buffered(tmp_path, elgcd_netlist):
    out = tmp_path / "elgcd.buf.json"
    assert main(["buffer", str(elgcd_netlist), "--policy", "simple",
                 "-o", str(out)]) == 0
    return out


def write_stimulus(tmp_path):
    stim = tmp_path / "stim.txt"
    stim.write_text("a: 12 36 63\nb: 18 24 56\n")
    return stim


# ---------------------------------------------------------------------------
# compile

def test_compile_writes_a_valid_netlist(elgcd_netlist):
    net = netlist.loads(elgcd_netlist.read_text())
    assert validate(net) == []
    assert net.buffer_count() == 0
    assert set(net.ports) == {"a", "b", "g"}


def test_compile_emit_dot(tmp_path, elgcd_source):
    dot = tmp_path / "net.dot"
    out = tmp_path / "out.json"
    assert main(["compile", str(elgcd_source), "-o", str(out),
                 "--emit-dot", str(dot)]) == 0
    assert dot.read_text().startswith("digraph")


def test_compile_rejects_bad_source(tmp_path, capsys):
    src = tmp_path / "bad.csp"
    src.write_text("module broken { this is not a program }")
    assert main(["compile", str(src)]) == 2
    assert "error:" in capsys.readouterr().err


def test_compile_missing_file(tmp_path):
    assert main(["compile", str(tmp_path / "absent.csp")]) == 2


# ---------------------------------------------------------------------------
# depgraph

def test_depgraph_edge_counts(elgcd_netlist, capsys):
    assert main(["depgraph", str(elgcd_netlist)]) == 0
    obj = json.loads(capsys.readouterr().out)
    kinds = [e["kind"] for e in obj["edges"]]
    assert kinds.count("WAR") == 6
    assert kinds.count("RAW") == 18
    assert kinds.count("PAC") == 3
    assert obj["nodes"]


def test_depgraph_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["depgraph", str(bad)]) == 2


# ---------------------------------------------------------------------------
# buffer

def test_buffer_pac_plan_file(tmp_path, elgcd_netlist):
    out = tmp_path / "buf.json"
    planfile = tmp_path / "plan.tsv"
    assert main(["buffer", str(elgcd_netlist), "--policy", "pac",
                 "-o", str(out), "--plan", str(planfile)]) == 0
    net = netlist.loads(out.read_text())
    assert net.buffer_count() == 16
    lines = planfile.read_text().splitlines()
    assert len(lines) == 16
    assert all("\t" in line for line in lines)


def test_buffer_capacity_flag(tmp_path, elgcd_netlist):
    out = tmp_path / "buf.json"
    assert main(["buffer", str(elgcd_netlist), "--policy", "pac",
                 "--capacity", "3", "-o", str(out)]) == 0
    net = netlist.loads(out.read_text())
    caps = {c.params["capacity"] for c in net.components.values()
            if c.kind.value == "buffer"}
    assert caps == {3}


# ---------------------------------------------------------------------------
# sim

def test_sim_computes_gcds(tmp_path, elgcd_buffered, capsys):
    stim = write_stimulus(tmp_path)
    occ = tmp_path / "occ.csv"
    assert main(["sim", str(elgcd_buffered), "--stimulus", str(stim),
                 "--occupancy", str(occ)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [v for v, _ in obj["results"]["g"]] == [6, 12, 7]
    assert obj["completion"] == "stimulus-exhausted"
    assert occ.read_text().startswith("time,buffer,occupancy\n")


def test_sim_unbuffered_deadlocks_exit_3(tmp_path, elgcd_netlist, capsys):
    stim = write_stimulus(tmp_path)
    assert main(["sim", str(elgcd_netlist), "--stimulus", str(stim)]) == 3
    assert "blocked cycle" in capsys.readouterr().err


def test_sim_sync_unbuffered_is_bad_input(tmp_path, elgcd_netlist, capsys):
    stim = write_stimulus(tmp_path)
    assert main(["sim", str(elgcd_netlist), "--mode", "sync",
                 "--clock", "2000", "--stimulus", str(stim)]) == 2
    assert "combinational cycle" in capsys.readouterr().err


def test_sim_sync_buffered_exit_0(tmp_path, elgcd_buffered, capsys):
    stim = write_stimulus(tmp_path)
    assert main(["sim", str(elgcd_buffered), "--mode", "sync",
                 "--clock", "2000", "--stimulus", str(stim)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert [v for v, _ in obj["results"]["g"]] == [6, 12, 7]
    assert obj["mode"] == "sync"


def test_sim_bad_stimulus_exit_2(tmp_path, elgcd_buffered):
    stim = tmp_path / "stim.txt"
    stim.write_text("no colon on this line\n")
    assert main(["sim", str(elgcd_buffered), "--stimulus", str(stim)]) == 2


# ---------------------------------------------------------------------------
# report

@pytest.fixture()
def ring_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(netlist.dumps(build_ring()))
    return path


def test_report_all_sections(ring_file, capsys):
    assert main(["report", str(ring_file)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["area"] == {"comp_count": 7, "mem_units": 16, "cell_area": 23}
    assert obj["power"]["leakage"] == 23.0
    # The seed token rests off-cycle, so no loop binds the rate.
    assert obj["throughput"] is None


def test_report_single_section(ring_file, capsys):
    assert main(["report", str(ring_file), "--area"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert set(obj) == {"area"}


def test_report_freq_sweep_is_linear(ring_file, tmp_path):
    out = tmp_path / "sweep.csv"
    assert main(["report", str(ring_file), "--freq-sweep", "1,2,4",
                 "-o", str(out)]) == 0
    header, *rows = out.read_text().splitlines()
    assert header == "frequency,dynamic,leakage"
    dyn = [float(r.split(",")[1]) for r in rows]
    leak = [float(r.split(",")[2]) for r in rows]
    assert dyn[1] == 2 * dyn[0] and dyn[2] == 4 * dyn[0]
    assert leak[0] == leak[1] == leak[2]


@pytest.mark.parametrize("freqs", ["0,1e9", "-1"])
def test_report_freq_sweep_rejects_nonpositive_exit_2(ring_file, freqs,
                                                      capsys):
    assert main(["report", str(ring_file), f"--freq-sweep={freqs}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad --freq-sweep: frequency must be positive\n"


def test_report_bad_config_exit_2(ring_file, tmp_path, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("power.activity = 2\n")
    assert main(["report", str(ring_file), "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep

def test_sweep_deterministic_bytes(tmp_path):
    out1 = tmp_path / "s1.csv"
    out2 = tmp_path / "s2.csv"
    assert main(["sweep", "elgcd", "-o", str(out1)]) == 0
    assert main(["sweep", "elgcd", "-o", str(out2)]) == 0
    text = out1.read_text()
    assert text == out2.read_text()
    assert text.startswith("# elgcd\npolicy,mode,clock,")
    assert len(text.splitlines()) == 8  # banner + header + 6 cells


def test_sweep_unknown_benchmark_exit_2(capsys):
    assert main(["sweep", "fibonacci"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_sweep_equivalence_failure_exit_1(tmp_path, monkeypatch, capsys):
    broken = dataclasses.replace(
        bench.benchmark("elgcd"),
        reference=lambda stim: {"g": [0 for _ in stim["a"]]})
    monkeypatch.setattr(bench, "benchmark", lambda name: broken)
    assert main(["sweep", "elgcd", "-o", str(tmp_path / "x.csv")]) == 1
    assert "dataset" in capsys.readouterr().err


def test_help_documents_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "exit codes" in out


# ---------------------------------------------------------------------------
# python -m elastika

def run_module(args: list[str], cwd, hashseed: str = "0"):
    src = str(Path(elastika.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-m", "elastika", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def test_module_entry_point_runs_the_cli(tmp_path, elgcd_source,
                                         elgcd_netlist):
    proc = run_module(["compile", str(elgcd_source)], tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == elgcd_netlist.read_text()
    proc = run_module(["--help"], tmp_path)
    assert proc.returncode == 0 and "exit codes" in proc.stdout


def test_report_bytes_do_not_depend_on_hash_seed(tmp_path, elgcd_netlist):
    buffered = tmp_path / "elgcd.loop.json"
    assert main(["buffer", str(elgcd_netlist), "--policy", "loop",
                 "-o", str(buffered)]) == 0
    outs = [run_module(["report", str(buffered)], tmp_path, seed)
            for seed in ("1", "2")]
    assert [p.returncode for p in outs] == [0, 0]
    assert outs[0].stdout == outs[1].stdout
    cycle = json.loads(outs[0].stdout)["throughput"]["cycle"]
    assert cycle[0] == min(cycle)
