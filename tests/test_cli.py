"""Command-line interface: each subcommand end-to-end through real files,
and the documented exit codes."""
from __future__ import annotations

import copy
import dataclasses
import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import build_ring, two_chains
import elastika
from elastika import bench, cli, netlist
from elastika.buffering import apply
from elastika.cli import main
from elastika.frontend.syntax import MAX_NESTING
from elastika.ir import PARAMS, Kind, Network, validate
from elastika.metrics import PowerParams, analytic_throughput, power
from elastika.sim import (DelayTable, Lowered, SimConfig, SimError,
                          format_stimulus, run)
from test_netlist import undecodable


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


@pytest.mark.parametrize("text, line, col",
                         [("²", 1, 31), ("٣", 1, 31), ("é", 1, 31),
                          ("\n  é", 2, 3)])
def test_compile_rejects_a_character_outside_the_grammar(tmp_path, capsys,
                                                         text, line, col):
    # "²" escaped the lexer as ValueError, which printed a traceback.
    src = tmp_path / "bad.csp"
    src.write_text("module t(in a: 8; out z: 8) { " + text + " z ! a }",
                   encoding="utf-8")
    assert main(["compile", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {src}: {line}:{col}: unexpected character")
    assert "Traceback" not in err


@pytest.mark.parametrize("literal", ["9" * 5000, "0" * 5000 + "9" * 155,
                                     str(2 ** 512), "0x1" + "0" * 128],
                         ids=["5000 nines", "zero-padded", "2**512", "hex"])
def test_compile_rejects_a_literal_no_width_holds(tmp_path, capsys, literal):
    # 5,000 nines escaped the lexer as int()'s ValueError, a traceback.
    src = tmp_path / "big.csp"
    src.write_text("module t(in a: 8; out z: 8) { z ! a + " + literal + " }")
    assert main(["compile", str(src)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {src}: 1:39: literal wider than 512 bits\n"


def test_compile_missing_file(tmp_path):
    assert main(["compile", str(tmp_path / "absent.csp")]) == 2


# Each ran the parser or checker out of stack: a RecursionError traceback.
DEEP_SOURCES = {
    "90 parentheses": "z ! " + "(" * 90 + "a" + ")" * 90,
    "400 blocks": "{" * 400 + "a ? x ; z ! x" + "}" * 400,
    "300 ifs": "a ? x ; " + "if x == 1 { " * 300 + "z ! x"
               + " } else { skip }" * 300,
    "500-term sum": "a ? x ; z ! " + " + ".join(["x"] * 500),
}


@pytest.mark.parametrize("shape", sorted(DEEP_SOURCES))
def test_compile_refuses_a_program_nested_too_deeply(tmp_path, capsys, shape):
    src = tmp_path / "deep.csp"
    decls = "" if shape == "90 parentheses" else "var x: 8; "
    text = ("module t(in a: 8; out z: 8) { " + decls + DEEP_SOURCES[shape]
            + " }")
    src.write_text(text)
    assert main(["compile", str(src), "-o", str(tmp_path / "n.json")]) == 2
    if shape == "500-term sum":   # no brackets: only the stack refuses it
        want = "program nested too deeply"
    else:
        # At the bracket one too many; the brackets of the port list and
        # of the body itself do not count.
        opens = [i for i, c in enumerate(text) if c in "({"]
        col = opens[2 + MAX_NESTING] + 1
        want = (f"1:{col}: program nested too deeply: more than "
                f"{MAX_NESTING} parentheses and braces open")
    assert capsys.readouterr().err == f"error: {src}: {want}\n"


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


@pytest.mark.parametrize("how", sorted(undecodable("")))
@pytest.mark.parametrize("command", [["sim"], ["buffer", "--policy", "pac"],
                                     ["depgraph"], ["report"]])
def test_undecodable_netlist_exit_2(tmp_path, elgcd_netlist, capsys, how,
                                    command):
    # A 5,000-digit width or deep nesting printed a traceback and exit 1;
    # params 400 deep passed loads, and `buffer` then ran out of stack.
    bad = tmp_path / "bad.json"
    bad.write_text(undecodable(elgcd_netlist.read_text())[how])
    capsys.readouterr()
    assert main([command[0], str(bad), *command[1:]]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("value", ["32.5", '"32"', "true"])
def test_sim_refuses_a_link_width_that_is_no_integer_exit_2(
        tmp_path, elgcd_netlist, capsys, value):
    # int() made each of them 32 (true, 1), and the net ran.
    obj = json.loads(elgcd_netlist.read_text())
    link = next(ln for ln in obj["links"] if ln["width"] == 32)
    link["width"] = json.loads(value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["sim", str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"error: link {link['id']} width {value} is not an integer\n")


def test_width_above_the_source_cap_exit_2(tmp_path, capsys):
    # Every 32 of smul rewritten as 2**40 passed validate, and `sim
    # --stimulus` then died building 1 << 2**40 with a MemoryError.
    net, stim = tmp_path / "smul.net.json", tmp_path / "stim.txt"
    assert main(["compile", str(bench.benchmark("smul").source),
                 "-o", str(net)]) == 0
    net.write_text(re.sub(r"\b32\b", str(2 ** 40), net.read_text()))
    stim.write_text("a: 3\nb: 5\n")
    capsys.readouterr()
    assert main(["sim", str(net), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: width w0000: link width {2 ** 40} outside 0..512; ")


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


@pytest.mark.parametrize("capacity", ["0", "-2"])
def test_buffer_capacity_below_one_exit_2(tmp_path, elgcd_netlist, capacity,
                                          capsys):
    out = tmp_path / "buf.json"
    capsys.readouterr()
    assert main(["buffer", str(elgcd_netlist), "--policy", "pac",
                 "--capacity", capacity, "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: buffer capacity must be >= 1, got {capacity}\n"
    assert not out.exists()


@pytest.mark.parametrize("policy", ["simple", "loop", "pac"])
def test_buffer_on_a_buffered_net_exit_2(tmp_path, elgcd_buffered, policy,
                                         capsys):
    out = tmp_path / "twice.json"
    capsys.readouterr()
    assert main(["buffer", str(elgcd_buffered), "--policy", policy,
                 "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: link ")
    assert "already adjacent to buffer" in err
    assert "Traceback" not in err
    assert not out.exists()


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


# sha256 of the --occupancy CSV for elgcd on write_stimulus's inputs, taken
# when every run still kept the series.
OCCUPANCY_CSV = {
    ("simple", "async"):
        "6798d7f34d564b55a727786b8606ff0327e17d047e5f45e5b4de01c9ed767745",
    ("simple", "sync"):
        "2a886441030557a8c0953bbd41bf8ee87a876d8a219c055c06056128fd762003",
    ("pac", "async"):
        "9984fafa848a4ddf050a5b11ec4d4e116648f7b198aa792dfe9ebcb5a525b28c",
    ("pac", "sync"):
        "5405b428eb9d7422fe2f425492fa0e5d22737c62d41536418afcdfa40ab1885f",
}


@pytest.mark.parametrize("policy, mode", sorted(OCCUPANCY_CSV))
def test_sim_occupancy_csv_bytes(tmp_path, elgcd_netlist, policy, mode):
    buffered = tmp_path / "buffered.json"
    assert main(["buffer", str(elgcd_netlist), "--policy", policy,
                 "-o", str(buffered)]) == 0
    occ = tmp_path / "occ.csv"
    clock = ["--clock", "2000"] if mode == "sync" else []
    assert main(["sim", str(buffered), "--stimulus",
                 str(write_stimulus(tmp_path)), "--mode", mode, *clock,
                 "-o", str(tmp_path / "report.json"),
                 "--occupancy", str(occ)]) == 0
    assert hashlib.sha256(occ.read_bytes()).hexdigest() == \
        OCCUPANCY_CSV[policy, mode]


@pytest.mark.parametrize("kind, key", [("merge", "inputs"),
                                       ("steer", "outputs"),
                                       ("variable", "reads")])
def test_sim_huge_port_count_exit_2(tmp_path, elgcd_netlist, capsys, kind,
                                    key):
    # More ports than the net has links cannot all be bound.  Any width
    # list of 2**40 entries fails at once, so a missed check cannot hang.
    obj = json.loads(elgcd_netlist.read_text())
    comp = next(c for c in obj["components"] if c["kind"] == kind)
    comp["params"][key] = 2 ** 40
    elgcd_netlist.write_text(json.dumps(obj))
    capsys.readouterr()
    assert main(["sim", str(elgcd_netlist)]) == 2
    assert f"error: connectivity {comp['id']}: " in capsys.readouterr().err


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


def test_sim_steer_miss_exit_2(tmp_path, capsys):
    # A 2-bit selector reaches a case with arms for 0 and 1 only.
    src = tmp_path / "pick.csp"
    src.write_text("module pick(in a: 2; out z: 8) {\n"
                   "  var s: 2;\n  var r: 8;\n  s := a ;\n"
                   "  case s of { 0: { r := 10 } 1: { r := 20 } } ;\n"
                   "  z ! r\n}\n")
    net, buffered = tmp_path / "pick.json", tmp_path / "pick.pac.json"
    assert main(["compile", str(src), "-o", str(net)]) == 0
    assert main(["buffer", str(net), "--policy", "pac",
                 "-o", str(buffered)]) == 0
    stim = tmp_path / "stim.txt"
    stim.write_text("a: 0 3\n")
    capsys.readouterr()
    assert main(["sim", str(buffered), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err == (
        "error: m.b.1.steer: select value 3 has no route\n")


def test_sim_unknown_operator_exit_2(tmp_path, elgcd_buffered, capsys):
    obj = json.loads(elgcd_buffered.read_text())
    refused = []
    for comp in obj["components"]:
        if comp["kind"] == "operator" and comp["params"]["fn"] == "sub":
            comp["params"]["fn"] = "pow"
            refused.append(f"bad-params {comp['id']}: unknown operator "
                           f"function 'pow'")
    elgcd_buffered.write_text(json.dumps(obj))
    stim = write_stimulus(tmp_path)
    assert main(["sim", str(elgcd_buffered), "--stimulus", str(stim)]) == 2
    assert capsys.readouterr().err == f"error: {'; '.join(refused)}\n"


def test_sim_rejects_arbiter_delay_key(tmp_path, elgcd_buffered, capsys):
    cfg = tmp_path / "delays.cfg"
    cfg.write_text("delay.arbiter = 100\n")
    assert main(["sim", str(elgcd_buffered), "--delays", str(cfg)]) == 2
    assert "unknown delay key 'arbiter'" in capsys.readouterr().err


def test_sync_sim_rejects_negative_delay(tmp_path, elgcd_buffered, capsys):
    cfg = tmp_path / "delays.cfg"
    cfg.write_text("delay.fork = -5000\n")
    out = tmp_path / "report.json"
    assert main(["sim", str(elgcd_buffered), "--mode", "sync", "--clock",
                 "2000", "--delays", str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: delay.fork must be >= 0\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, message", [
    ("--horizon", "horizon must be positive"),
    ("--max-results", "max-results must be positive")])
def test_sim_nonpositive_limit_names_its_flag(elgcd_buffered, flag, message,
                                              capsys):
    assert main(["sim", str(elgcd_buffered), flag, "0"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


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


@pytest.mark.parametrize("command", ["report", "sweep"])
def test_misspelled_power_key_exit_2(ring_file, tmp_path, command, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text("power.activty = 0.8\n")
    out = tmp_path / "out.txt"
    target = str(ring_file) if command == "report" else "elgcd"
    assert main([command, target, "--config", str(cfg),
                 "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: unknown power key 'activty'\n"
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan", "1e999"])
@pytest.mark.parametrize("knob", ["frequency", "capacitance", "supply",
                                  "leak_per_area"])
def test_report_rejects_non_finite_power_knob(ring_file, tmp_path, knob,
                                              value, capsys):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"power.{knob} = {value}\n")
    assert main(["report", str(ring_file), "--power",
                 "--config", str(cfg)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {knob} must be finite\n"


@pytest.mark.parametrize("freqs", ["nan,inf", "1e9,inf"])
def test_report_freq_sweep_rejects_non_finite_exit_2(ring_file, freqs,
                                                     capsys):
    assert main(["report", str(ring_file), f"--freq-sweep={freqs}"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: bad --freq-sweep: frequency must be finite\n"


# ---------------------------------------------------------------------------
# malformed netlists: exit 2 from every command that loads one

LOADING_COMMANDS = [["buffer", "--policy", "pac"], ["sim"], ["report"]]


def _edit_first(path, kind, edit):
    obj = json.loads(path.read_text())
    comp = next(c for c in obj["components"] if c["kind"] == kind)
    edit(comp)
    path.write_text(json.dumps(obj))


def _run_loader(command, path, capsys):
    capsys.readouterr()
    code = main([command[0], str(path), *command[1:]])
    return code, capsys.readouterr().err


PARAM_EDITS = {
    "steer-without-table": ("steer", lambda c: c["params"].pop("table")),
    "steer-table-list": ("steer",
                         lambda c: c["params"].update(table=[0, 1])),
    "steer-target-text": ("steer",
                          lambda c: c["params"]["table"].update({"1": "x"})),
    "buffer-capacity-text": ("buffer",
                             lambda c: c["params"].update(capacity="a")),
    "operator-value-text": ("operator",
                            lambda c: c["params"].update(value="x")),
    "initial-value-text": ("initial",
                           lambda c: c["params"].update(value="x")),
    "operator-delay-class-list": (
        "operator", lambda c: c["params"].update(delay_class=[1])),
    "merge-loop-text": ("merge", lambda c: c["params"].update(loop="x")),
    "fork-channel-dict": ("fork",
                          lambda c: c["params"].update(channel={"k": 1})),
    "variable-init-text": ("variable",
                           lambda c: c["params"].update(init="abc")),
    "buffer-capacity-fraction": ("buffer",
                                 lambda c: c["params"].update(capacity=1.5)),
    # A bool or a fraction was read as an int and passed.
    "steer-target-fraction": (
        "steer", lambda c: c["params"]["table"].update({"1": 0.9})),
    "steer-target-bool": (
        "steer", lambda c: c["params"]["table"].update({"1": True})),
    "buffer-capacity-bool": ("buffer",
                             lambda c: c["params"].update(capacity=True)),
    "operator-value-bool": ("operator",
                            lambda c: c["params"].update(value=True)),
    "initial-value-bool": ("initial",
                           lambda c: c["params"].update(value=False)),
    "merge-loop-bool": ("merge", lambda c: c["params"].update(loop=True)),
    "variable-init-bool": ("variable",
                           lambda c: c["params"].update(init=True)),
}


@pytest.mark.parametrize("command", LOADING_COMMANDS,
                         ids=lambda c: c[0])
@pytest.mark.parametrize("edit", sorted(PARAM_EDITS))
def test_malformed_params_exit_2(elgcd_buffered, edit, command, capsys):
    _edit_first(elgcd_buffered, *PARAM_EDITS[edit])
    code, err = _run_loader(command, elgcd_buffered, capsys)
    assert code == 2
    assert err.startswith("error: bad-params ")
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def pac_netlists():
    """The shipped benchmarks compiled and buffered by ``pac``."""
    out = {}
    for name in bench.benchmark_names():
        net = bench.benchmark(name).compiled()
        out[name] = netlist.dumps(apply(net, bench.POLICIES["pac"](net)))
    return out


# Each kind's width params, then the port counts that are no list's
# length; a list param is edited at its first entry.
WIDTH_PARAMS = [("join", "inputs"), ("fork", "input"), ("fork", "outputs"),
                ("steer", "input"), ("steer", "select"), ("merge", "width"),
                ("variable", "width"), ("operator", "inputs"),
                ("operator", "out"), ("initial", "width"), ("buffer", "width"),
                ("variable", "reads"), ("merge", "inputs"),
                ("steer", "outputs")]


@pytest.mark.parametrize("name", ["elgcd", "poly", "smul"])
@pytest.mark.parametrize("spelling", [float, bool])
@pytest.mark.parametrize("kind, param", WIDTH_PARAMS)
def test_width_param_that_is_no_int_exit_2(tmp_path, pac_netlists, name,
                                           kind, param, spelling, capsys):
    # A whole float passes the link width comparison (32.0 == 32), and so
    # does a bool on a port of width 0 or 1; a bool port count is 0 or 1
    # ports.  Only a type test refuses them.
    def edit(comp):
        params = comp["params"]
        if isinstance(params[param], list):
            params[param][0] = spelling(params[param][0])
        else:
            params[param] = spelling(params[param])
    path = tmp_path / "net.json"
    path.write_text(pac_netlists[name])
    _edit_first(path, kind, edit)
    for command in LOADING_COMMANDS:
        code, err = _run_loader(command, path, capsys)
        assert code == 2
        assert err.startswith("error: bad-params ")
        assert "Traceback" not in err


@pytest.mark.parametrize("value", [-1, 2, 2**40])
def test_constant_that_does_not_fit_its_port_exit_2(tmp_path, pac_netlists,
                                                     value, capsys):
    # At -1 the 1-bit write-site tag passed validate, and `sim` ran to the
    # horizon without a result: masked to 1, the tag sent site 0's write
    # done to site 1.
    obj = json.loads(pac_netlists["elgcd"])
    [tag] = [c for c in obj["components"] if c["id"] == "m.b.0.tag"]
    tag["params"]["value"] = value
    path = tmp_path / "net.json"
    path.write_text(json.dumps(obj))
    for command in LOADING_COMMANDS:
        assert _run_loader(command, path, capsys) == (
            2, "error: bad-params m.b.0.tag: operator value does not fit "
               "its 1-bit output\n")


# A near miss of a param each kind declares, which it does not.
UNDECLARED = {"join": "input", "fork": "output", "steer": "tabel",
              "merge": "loops", "variable": "read", "operator": "func",
              "initial": "val", "buffer": "capcity"}


@pytest.mark.parametrize("name", ["elgcd", "poly", "smul"])
@pytest.mark.parametrize("kind", [kind.value for kind in Kind])
def test_undeclared_param_exit_2(tmp_path, pac_netlists, name, kind, capsys):
    # "capcity": 2 on a Buffer validated, and `sim` ran that Buffer at
    # capacity 1.
    key = UNDECLARED[kind]
    assert key not in PARAMS[Kind(kind)]
    obj = json.loads(pac_netlists[name])
    comp = next(c for c in obj["components"] if c["kind"] == kind)
    comp["params"][key] = 2
    path = tmp_path / "net.json"
    path.write_text(json.dumps(obj))
    for command in LOADING_COMMANDS:
        assert _run_loader(command, path, capsys) == (
            2, f"error: bad-params {comp['id']}: {kind} has no param "
               f"{key!r}\n")


def test_sim_refuses_a_text_init_read_before_any_write(tmp_path, capsys):
    # x is sent before it is received, so the first result is its init.
    src = tmp_path / "t.csp"
    src.write_text("module t(in a: 8; out z: 8) { var x: 8; z ! x ; a ? x }\n")
    net = tmp_path / "t.json"
    assert main(["compile", str(src), "-o", str(net)]) == 0
    _edit_first(net, "variable", lambda c: c["params"].update(init="abc"))
    code, err = _run_loader(["sim"], net, capsys)
    assert (code, err) == (
        2, "error: bad-params var.x: variable init must be an integer\n")


def test_report_refuses_a_fractional_buffer_capacity(elgcd_buffered, capsys):
    # The area model would count int(1.5) = 1 slot.
    _edit_first(elgcd_buffered, "buffer",
                lambda c: c["params"].update(capacity=1.5))
    code, err = _run_loader(["report", "--area"], elgcd_buffered, capsys)
    assert code == 2
    assert err.startswith("error: bad-params buf.")
    assert err.endswith(": buffer capacity must be an integer >= 1\n")


@pytest.mark.parametrize("name", ["elgcd", "poly", "smul"])
def test_a_buffer_without_capacity_holds_one_token(tmp_path, pac_netlists,
                                                   name, capsys):
    # validate gave the Buffer a capacity of 1, and sim and report then
    # ended in a KeyError traceback.
    stim = tmp_path / "stim.txt"
    stim.write_text(format_stimulus(bench.benchmark(name).datasets[0]))
    outputs = []
    for capacity in (True, False):
        obj = json.loads(pac_netlists[name])
        for comp in obj["components"]:
            if comp["kind"] == "buffer":
                assert comp["params"].pop("capacity") == 1
                if capacity:
                    comp["params"]["capacity"] = 1
        path = tmp_path / f"net{capacity}.json"
        path.write_text(json.dumps(obj))
        capsys.readouterr()
        assert main(["sim", str(path), "--stimulus", str(stim)]) == 0
        assert main(["report", str(path)]) == 0
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]


# Each ill-typed value a param is tried with, and absence.
_ABSENT = object()
BAD_VALUES = [True, 1.0, 0.5, "x", -1, 2**600, [0], {"x": 0.5}, None,
              _ABSENT]


def test_every_param_refuses_what_validate_refuses(tmp_path, pac_netlists,
                                                   capsys):
    # Every kind appears in the pac-buffered nets.  Each declared param of
    # the first component of each kind, present or not, takes each value.
    # A value validate refuses, the engine refuses with validate's message;
    # on a value it accepts, no command exits 2 on a param.
    runs = 0
    for name, text in pac_netlists.items():
        obj = json.loads(text)
        first = {}
        for comp in obj["components"]:
            first.setdefault(comp["kind"], comp)
        assert set(first) == {kind.value for kind in Kind}
        stim = tmp_path / "stim.txt"
        stim.write_text(format_stimulus(bench.benchmark(name).datasets[0]))
        for kind, comp in first.items():
            params = comp["params"]
            for param in PARAMS[Kind(kind)]:
                kept = params.get(param, _ABSENT)
                for value in BAD_VALUES:
                    params.pop(param, None)
                    if value is not _ABSENT:
                        params[param] = value
                    edited = json.dumps(obj)
                    net = netlist.loads(edited)
                    diags = validate(net)
                    case = (name, comp["id"], param, value)
                    if diags:
                        bad = [f"{d.subject}: {d.message}" for d in diags
                               if d.subject == comp["id"]
                               and d.code == "bad-params"]
                        if bad:
                            with pytest.raises(SimError) as refused:
                                Lowered(net).wiring
                            assert str(refused.value) == bad[0], case
                        continue
                    path = tmp_path / "net.json"
                    path.write_text(edited)
                    codes = []
                    for argv in (["sim", "--stimulus", str(stim),
                                  "--horizon", str(10**8)],
                                 ["report"], ["buffer", "--policy", "pac"]):
                        capsys.readouterr()
                        codes.append(main([argv[0], str(path), *argv[1:]]))
                        err = capsys.readouterr().err
                        runs += 1
                    # A buffered net cannot be buffered again.
                    assert codes[:2] in ([0, 0], [3, 0]), case
                    assert codes[2] == 2 and "already" in err, case
                params.pop(param, None)
                if kept is not _ABSENT:
                    params[param] = kept
    assert runs


@pytest.mark.parametrize("command", LOADING_COMMANDS,
                         ids=lambda c: c[0])
def test_arbiter_kind_is_refused(elgcd_netlist, command, capsys):
    _edit_first(elgcd_netlist, "merge", lambda c: c.update(kind="arbiter"))
    code, err = _run_loader(command, elgcd_netlist, capsys)
    assert code == 2
    assert err.startswith("error: malformed netlist")


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
    assert capsys.readouterr().err == (
        "error: unknown benchmark 'fibonacci'; have elgcd, poly, smul\n")


@pytest.mark.parametrize("clock", ["0", "-2000"])
def test_sweep_nonpositive_clock_exit_2(tmp_path, clock, capsys):
    out = tmp_path / "x.csv"
    assert main(["sweep", "elgcd", "--policies", "pac", "--modes", "sync",
                 "--clocks", clock, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: sync mode needs clock > 0\n"
    assert not out.exists()


def no_cells(*args, **kwargs):
    raise AssertionError("a sweep cell ran before the arguments were checked")


@pytest.mark.parametrize("clock", ["0", "-2000"])
@pytest.mark.parametrize("modes", [["sync"], ["async", "sync"]])
def test_sweep_checks_clocks_before_any_cell(tmp_path, monkeypatch, capsys,
                                             clock, modes):
    monkeypatch.setattr(bench, "_policy_rows", no_cells)
    out = tmp_path / "x.csv"
    assert main(["sweep", "elgcd", "poly", "--modes", *modes,
                 "--clocks", "2000", clock, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: sync mode needs clock > 0\n"
    assert not out.exists()


def test_sweep_checks_output_before_any_cell(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench, "_policy_rows", no_cells)
    bad = tmp_path / "absent" / "x.csv"
    assert main(["sweep", "elgcd", "-o", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1
    # A directory, or a path under a file, is no output file either.
    for path in (tmp_path, tmp_path / "x.csv" / "y.csv"):
        (tmp_path / "x.csv").write_text("")
        assert main(["sweep", "elgcd", "-o", str(path)]) == 2
        assert str(path) in capsys.readouterr().err


def test_sweep_unknown_second_benchmark_runs_no_cell(monkeypatch, capsys):
    monkeypatch.setattr(bench, "_policy_rows", no_cells)
    assert main(["sweep", "elgcd", "fibonacci"]) == 2
    assert "unknown benchmark" in capsys.readouterr().err


def test_sweep_async_only_ignores_clocks(monkeypatch, capsys):
    runs, run = [], bench.run
    monkeypatch.setattr(bench, "run", lambda net, cfg: runs.append(
        (cfg.mode, cfg.clock)) or run(net, cfg))
    assert main(["sweep", "elgcd", "--modes", "async", "--clocks", "0"]) == 0
    assert runs == [("async", 0)] * 6   # 3 policies x 2 datasets
    rows = capsys.readouterr().out.splitlines()[2:]
    assert [row.split(",")[:3] for row in rows] == [
        ["simple", "async", "0"], ["loop", "async", "0"],
        ["pac", "async", "0"]]


def test_sweep_failing_later_keeps_the_output_file(tmp_path, monkeypatch,
                                                  capsys):
    broken = dataclasses.replace(
        bench.benchmark("elgcd"),
        reference=lambda stim: {"g": [0 for _ in stim["a"]]})
    monkeypatch.setattr(bench, "benchmark", lambda name: broken)
    kept, absent = tmp_path / "kept.csv", tmp_path / "absent.csv"
    kept.write_text("earlier table\n")
    assert main(["sweep", "elgcd", "-o", str(kept)]) == 1
    assert main(["sweep", "elgcd", "-o", str(absent)]) == 1
    assert kept.read_text() == "earlier table\n"
    assert not absent.exists()


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
# an output file that cannot be written: exit 2 from every command

UNWRITABLE = {
    "compile": lambda f, bad: ["compile", f["source"], "-o", bad],
    "compile --emit-dot": lambda f, bad: ["compile", f["source"],
                                          "--emit-dot", bad],
    "depgraph": lambda f, bad: ["depgraph", f["netlist"], "-o", bad],
    "buffer": lambda f, bad: ["buffer", f["netlist"], "--policy", "pac",
                              "-o", bad],
    "buffer --plan": lambda f, bad: ["buffer", f["netlist"], "--policy",
                                     "pac", "--plan", bad],
    "sim": lambda f, bad: ["sim", f["buffered"], "--stimulus", f["stim"],
                           "-o", bad],
    "sim --occupancy": lambda f, bad: ["sim", f["buffered"], "--stimulus",
                                       f["stim"], "--occupancy", bad],
    "report": lambda f, bad: ["report", f["buffered"], "-o", bad],
    "sweep": lambda f, bad: ["sweep", "elgcd", "--policies", "pac",
                             "--modes", "async", "-o", bad],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE))
def test_unwritable_output_exit_2(tmp_path, elgcd_source, elgcd_netlist,
                                  elgcd_buffered, command, capsys):
    files = {"source": str(elgcd_source), "netlist": str(elgcd_netlist),
             "buffered": str(elgcd_buffered),
             "stim": str(write_stimulus(tmp_path))}
    bad = tmp_path / "absent" / "out.txt"
    capsys.readouterr()
    assert main(UNWRITABLE[command](files, str(bad))) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(bad) in err
    assert err.count("\n") == 1


# ---------------------------------------------------------------------------
# python -m elastika

def run_python(args: list[str], cwd, hashseed: str = "0"):
    src = str(Path(elastika.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hashseed,
               PYTHONPATH=os.pathsep.join(
                   [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


def run_module(args: list[str], cwd, hashseed: str = "0"):
    return run_python(["-m", "elastika", *args], cwd, hashseed)


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


def test_report_runs_without_networkx(tmp_path, elgcd_netlist):
    buffered = tmp_path / "elgcd.pac.json"
    assert main(["buffer", str(elgcd_netlist), "--policy", "pac",
                 "-o", str(buffered)]) == 0
    args = ["report", str(buffered), "--throughput"]
    # None in sys.modules makes every later `import networkx` fail.
    blocked = run_python(["-c", "\n".join([
        "import runpy, sys",
        "sys.modules['networkx'] = None",
        "import elastika",
        f"sys.argv = ['elastika', *{args!r}]",
        "runpy.run_module('elastika', run_name='__main__')"])], tmp_path)
    unblocked = run_module(args, tmp_path)
    assert (blocked.returncode, blocked.stderr) == (0, "")
    assert blocked.stdout == unblocked.stdout
    assert json.loads(blocked.stdout)["throughput"]["cycle"]


@pytest.mark.parametrize("fn, message", [
    ("pow", "unknown operator function 'pow'"),
    (None, "operator fn is missing")],
    ids=["pow", "missing"])
def test_unknown_operator_is_refused_by_every_command(tmp_path, capsys, fn,
                                                      message):
    # Refused at load, also where the Operator would never fire.
    net = two_chains(fn)
    if fn is None:
        del net.components["odd"].params["fn"]
    path = tmp_path / "two.json"
    path.write_text(netlist.dumps(net))
    quiet, fires = tmp_path / "quiet.txt", tmp_path / "fires.txt"
    quiet.write_text("a: 1 2\n")
    fires.write_text("a: 1\nb: 1\n")
    for argv in (["sim", str(path), "--stimulus", str(quiet)],
                 ["sim", str(path), "--stimulus", str(fires)],
                 ["report", str(path)], ["depgraph", str(path)],
                 ["buffer", str(path), "--policy", "pac"]):
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith(
            f"error: bad-params odd: {message}"), argv


def test_a_component_with_bad_params_leaves_its_links_unreported(tmp_path,
                                                                 capsys):
    # Its ports cannot be counted, so its links are not checked against
    # them; they are not reported as leading to a missing component.
    net = two_chains("id")
    del net.components["odd"].params["fn"]
    path = tmp_path / "two.json"
    path.write_text(netlist.dumps(net))
    assert main(["sim", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: bad-params odd: operator fn is missing\n")


# ---------------------------------------------------------------------------
# input files that are not UTF-8: exit 2 from every command, in every role

UNDECODABLE = {
    "compile source": ("source", lambda f, bad: ["compile", bad]),
    "depgraph netlist": ("netlist", lambda f, bad: ["depgraph", bad]),
    "buffer netlist": ("netlist", lambda f, bad: ["buffer", bad,
                                                  "--policy", "pac"]),
    "sim netlist": ("netlist", lambda f, bad: ["sim", bad]),
    "sim --stimulus": ("stim", lambda f, bad: ["sim", f["buffered"],
                                               "--stimulus", bad]),
    "sim --delays": ("config", lambda f, bad: ["sim", f["buffered"],
                                               "--delays", bad]),
    "report netlist": ("netlist", lambda f, bad: ["report", bad]),
    "report --config": ("config", lambda f, bad: ["report", f["buffered"],
                                                  "--config", bad]),
    "sweep --config": ("config", lambda f, bad: ["sweep", "elgcd",
                                                 "--config", bad]),
}


@pytest.mark.parametrize("role", sorted(UNDECODABLE))
def test_undecodable_input_file_exit_2(tmp_path, elgcd_source, elgcd_netlist,
                                       elgcd_buffered, monkeypatch, capsys,
                                       role):
    # The first six roles printed a UnicodeDecodeError traceback, exit 1;
    # the message names the file, as a command may read three.
    monkeypatch.setattr(bench, "_policy_rows", no_cells)
    config = tmp_path / "cfg.txt"
    config.write_text("delay.join = 100\n")
    files = {"source": elgcd_source, "netlist": elgcd_netlist,
             "buffered": str(elgcd_buffered),
             "stim": write_stimulus(tmp_path), "config": config}
    kind, argv = UNDECODABLE[role]
    bad = tmp_path / "bad.bin"
    bad.write_bytes(b"\xff" + files[kind].read_bytes())
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main([*argv(files, str(bad)), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# config files: every key under delay. or power.

@pytest.mark.parametrize("key", ["dealy.join", "foo"])
@pytest.mark.parametrize("command", ["report", "sim", "sweep"])
def test_config_key_outside_delay_and_power_exit_2(tmp_path, elgcd_buffered,
                                                   monkeypatch, capsys,
                                                   command, key):
    # Each was ignored: exit 0, and the run used the default table.
    monkeypatch.setattr(bench, "_policy_rows", no_cells)
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(f"delay.join = 100\n{key} = 3\n")
    argv = {"report": ["report", str(elgcd_buffered), "--config"],
            "sim": ["sim", str(elgcd_buffered), "--delays"],
            "sweep": ["sweep", "elgcd", "--config"]}[command]
    out = tmp_path / "out.txt"
    capsys.readouterr()
    assert main([*argv, str(cfg), "-o", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: unknown config key {key!r} "
        f"(keys start with delay. or power.)\n")
    assert not out.exists()


# ---------------------------------------------------------------------------
# source features and delay keys, end to end under pac

def pac_results(tmp_path, source: str, stimulus: str, delays: str = ""
                ) -> dict:
    src, net = tmp_path / "t.csp", tmp_path / "t.json"
    buffered, stim = tmp_path / "t.pac.json", tmp_path / "stim.txt"
    src.write_text(source)
    stim.write_text(stimulus)
    assert main(["compile", str(src), "-o", str(net)]) == 0
    assert main(["buffer", str(net), "--policy", "pac",
                 "-o", str(buffered)]) == 0
    argv = ["sim", str(buffered), "--stimulus", str(stim),
            "-o", str(tmp_path / "report.json")]
    if delays:
        cfg = tmp_path / "delays.cfg"
        cfg.write_text(delays)
        argv += ["--delays", str(cfg)]
    assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    return report["results"]


def values(results: dict, port: str) -> list[int]:
    return [v for v, _ in results[port]]


def test_unary_minus_and_complement(tmp_path):
    results = pac_results(
        tmp_path, "module t(in a: 8; out z: 8; out y: 8) { var x: 8; "
                  "x := -a ; z ! ~x ; y ! x }", "a: 1 2 255\n")
    assert values(results, "y") == [255, 254, 1]
    assert values(results, "z") == [0, 1, 254]


def test_send_and_receive_on_indexed_ports(tmp_path):
    results = pac_results(
        tmp_path, "module t(in a[0..1]: 8; out z[0..0]: 8) { var x: 8; "
                  "a[0] ? x ; z[0] ! x + a[1] }", "a[0]: 1 2\na[1]: 10 20\n")
    assert values(results, "z[0]") == [11, 22]


def test_receive_before_its_channels_send(tmp_path):
    results = pac_results(
        tmp_path, "module t(in a: 8; out z: 8) { chan c: 8; var x: 8; "
                  "{ c ? x ; z ! x } || { c ! a + 1 } }", "a: 1 7 255\n")
    assert values(results, "z") == [2, 8, 0]


# `z ! a * 3 || skip` under pac.  The first result passes Initial, its
# buffer, the Par fork, const, mul, a buffer, the send fork and the output
# buffer: I + 3B + 2F + C + M = 700 + M with every other delay at 100 ps.
# Each later lap adds the Par join's J to that: 700 + M + J.
DELAY_KEYS = {
    "": (1700, 1800),
    "delay.operator.mul = 3000\n": (3700, 3800),
    "delay.operator = 1500\n": (2200, 2300),
    "delay.join = 400\n": (1700, 2100),
    "delay.operator = 1500\ndelay.operator.mul = 200\n": (900, 1000),
}


@pytest.mark.parametrize("delays", sorted(DELAY_KEYS))
def test_delay_keys_set_the_hand_computed_times(tmp_path, delays):
    results = pac_results(tmp_path,
                          "module t(in a: 8; out z: 8) { z ! a * 3 || skip }",
                          "a: 2 5 7\n", delays)
    first, lap = DELAY_KEYS[delays]
    assert results["z"] == [[6, first], [15, first + lap],
                            [21, first + 2 * lap]]


def test_fractional_delay_exit_2(tmp_path, elgcd_buffered, capsys):
    cfg = tmp_path / "delays.cfg"
    cfg.write_text("delay.join = 1.5\n")
    capsys.readouterr()
    assert main(["sim", str(elgcd_buffered), "--delays", str(cfg)]) == 2
    assert capsys.readouterr().err == (
        "error: delay.join must be an integer (ps)\n")


# ---------------------------------------------------------------------------
# byte mutations of valid input files: exit 0, 2 or 3, never a traceback

MUTATED = {
    "compile": ("module t(in a: 8; out z: 8; out y: 8) { var x: 8; "
                "x := -a ; z ! ~(x * 3) ; y ! x }\n"),
    "sim --stimulus": "a: 2 5 7\n",
    "sim --delays": "delay.join = 400\ndelay.operator.mul = 3000\n",
    "report --config": "power.activity = 0.8\ndelay.operator = 1500\n",
}


@pytest.fixture(scope="module")
def mutation_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("mutated")
    (path / "t.csp").write_text(
        "module t(in a: 8; out z: 8) { z ! a * 3 || skip }")
    assert main(["compile", str(path / "t.csp"), "-o",
                 str(path / "t.json")]) == 0
    assert main(["buffer", str(path / "t.json"), "--policy", "pac",
                 "-o", str(path / "t.pac.json")]) == 0
    return path


@settings(max_examples=120)
@given(data=st.data())
def test_mutated_input_files_exit_0_2_or_3(mutation_dir, data):
    role = data.draw(st.sampled_from(sorted(MUTATED)))
    raw = MUTATED[role].encode()
    for _ in range(data.draw(st.integers(1, 3))):
        at = data.draw(st.integers(0, len(raw)))
        how = data.draw(st.sampled_from(["set", "delete", "insert",
                                         "parens"]))
        piece = b""
        if how in ("set", "insert"):
            piece = bytes([data.draw(st.sampled_from(
                [0xff, 0x80, 0, ord("("), ord("="), ord("9"), ord("."),
                 ord(":"), ord("\n"), ord("#")]))])
        elif how == "parens":
            piece = b"(" * data.draw(st.integers(1, 1200))
        raw = raw[:at] + piece + raw[at + (how in ("set", "delete")):]
    path = mutation_dir / "input"
    path.write_bytes(raw)
    net, out = str(mutation_dir / "t.pac.json"), str(mutation_dir / "out")
    argv = {"compile": ["compile", str(path)],
            "sim --stimulus": ["sim", net, "--stimulus", str(path)],
            "sim --delays": ["sim", net, "--delays", str(path)],
            "report --config": ["report", net, "--config", str(path)]}[role]
    assert main([*argv, "-o", out]) in (0, 2, 3)


# ---------------------------------------------------------------------------
# validate and the pipeline agree: what validate accepts, no stage fails
# on with an error outside the exit-2 boundary

MUTATED_KEYS = ("fn", "value", "loop", "channel", "delay_class", "init",
                "width")
MISSING = "<missing>"
MUTATED_VALUES = (MISSING, -1, 0, 2**40, "x", [1], {"a": 1}, 1.5, True, "1")


@functools.cache
def compiled_elgcd() -> Network:
    return bench.benchmark("elgcd").compiled()


@settings(max_examples=140)
@given(data=st.data())
def test_validate_and_the_pipeline_agree(data):
    # One param of one component: a key from MUTATED_KEYS on a component
    # that holds it (any component when none does), or one of the
    # component's own keys.  Most kinds read none of MUTATED_KEYS, so a
    # draw on them would change nothing any stage reads.
    net = compiled_elgcd().copy()
    comps = [comp for _, comp in sorted(net.components.items())]
    key = data.draw(st.sampled_from((*MUTATED_KEYS, "own")))
    if key == "own":
        comp = data.draw(st.sampled_from(comps))
        key = data.draw(st.sampled_from(sorted(comp.params)))
    else:
        comp = data.draw(st.sampled_from(
            [c for c in comps if key in c.params] or comps))
    value = data.draw(st.sampled_from(MUTATED_VALUES))
    if value == MISSING:
        comp.params.pop(key, None)
    else:
        comp.params[key] = copy.deepcopy(value)
    if validate(net):
        return

    def attempt(stage, *args):
        try:
            return stage(*args)
        except cli._INPUT_ERRORS:
            return None

    attempt(lambda: netlist.loads(netlist.dumps(net)))
    buffered = {}
    for policy, planner in sorted(bench.POLICIES.items()):
        plan = attempt(planner, net)
        if plan is not None:
            buffered[policy] = attempt(apply, net, plan)
    # The later stages run on the pac net, or on the unbuffered net when
    # pac refused it.
    pac = buffered.get("pac") or net
    stimulus = bench.benchmark("elgcd").datasets[0]
    for cfg in (SimConfig(stimulus=dict(stimulus), max_time=10**8),
                SimConfig(mode="sync", clock=2000, stimulus=dict(stimulus),
                          max_time=10**8)):
        attempt(run, pac, cfg)
    attempt(analytic_throughput, pac, DelayTable())
    attempt(power, pac, PowerParams())
