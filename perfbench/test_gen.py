"""Tests of the `wide` program generator and its reference interpreter.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_gen.py
"""
from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import gen  # noqa: E402
from elastika import bench, buffering, frontend, sim  # noqa: E402


def _var(name):
    return ("var", name)


def _bin(op, a, b):
    return ("bin", op, a, b)


def _const(v):
    return ("const", v)


# smul.csp and elgcd.csp as generator statement trees.
SMUL = ("seq", [
    ("assign", "m", ("port", "a")),
    ("assign", "q", ("port", "b")),
    ("assign", "acc", _const(0)),
    ("while", _bin("!=", _var("q"), _const(0)), ("seq", [
        ("if", _bin("==", _bin("&", _var("q"), _const(1)), _const(1)),
         ("assign", "acc", _bin("+", _var("acc"), _var("m"))), ("skip",)),
        ("assign", "m", _bin("<<", _var("m"), _const(1))),
        ("assign", "q", _bin(">>", _var("q"), _const(1))),
    ])),
    ("send", "p", _var("acc")),
])

ELGCD = ("seq", [
    ("assign", "x", ("port", "a")),
    ("assign", "y", ("port", "b")),
    ("while", _bin("!=", _var("x"), _var("y")),
     ("if", _bin(">", _var("x"), _var("y")),
      ("assign", "x", _bin("-", _var("x"), _var("y"))),
      ("assign", "y", _bin("-", _var("y"), _var("x"))))),
    ("send", "g", _var("x")),
])


@pytest.mark.parametrize("name, tree, out", [("smul", SMUL, "p"),
                                             ("elgcd", ELGCD, "g")])
def test_interpreter_agrees_with_shipped_references(name, tree, out):
    spec = bench.benchmark(name)
    for dataset in spec.datasets:
        assert gen.evaluate(tree, dataset, (out,)) == spec.reference(dataset)


def test_interpreter_hand_checked_case():
    # a = 2^31 + 5, b = 3:  t = a << 1 = 10, u = t - 11 = 2^32 - 1,
    # w = u * b = 2^32 - 3, the channel moves w into x, the loop runs
    # twice adding k = b, so r = x + 6 = 3 and s = u ^ t = 2^32 - 11.
    tree = ("seq", [
        ("assign", "t", _bin("<<", ("port", "a"), _const(1))),
        ("assign", "u", _bin("-", _var("t"), _const(11))),
        ("assign", "k", ("port", "b")),
        ("par", [("send", "h", _bin("*", _var("u"), _var("k"))),
                 ("recv", "h", "x")]),
        ("assign", "i", _const(2)),
        ("while", _bin("!=", _var("i"), _const(0)), ("seq", [
            ("case", _bin(">", _var("i"), _const(1)),
             [("assign", "x", _bin("+", _var("x"), _var("k"))),
              ("assign", "x", _bin("+", _var("x"), _var("k")))]),
            ("assign", "i", _bin("-", _var("i"), _const(1))),
        ])),
        ("par", [("send", "r", _var("x")),
                 ("send", "s", _bin("^", _var("u"), _var("t")))]),
    ])
    got = gen.evaluate(tree, {"a": [(1 << 31) + 5], "b": [3]})
    assert got == {"r": [3], "s": [(1 << 32) - 11]}


@pytest.mark.parametrize("slot", range(len(gen.SLOTS)))
def test_generated_programs_compile(slot):
    for seed in range(5):
        prog = gen.generate(seed, gen.SLOTS[slot])
        net = frontend.compile(frontend.parse(prog.text))
        assert 140 <= len(net.links) <= 230
        assert all(len(v) == 8 for v in prog.expected.values())


def test_generation_is_seeded():
    slot = gen.SLOTS[0]
    assert gen.generate(7, slot) == gen.generate(7, slot)
    assert gen.generate(7, slot).text != gen.generate(8, slot).text


def test_buffer_everything_net_matches_the_generator():
    prog = gen.generate(1, gen.SLOTS[0])
    net = frontend.compile(frontend.parse(prog.text))
    buffered = buffering.apply(net, buffering.policy_simple(net))
    report = sim.run(buffered, sim.SimConfig(stimulus={
        k: list(v) for k, v in prog.stimulus.items()}))
    assert not report.deadlock
    assert {k: [v for v, _ in report.results[k]]
            for k in prog.expected} == prog.expected
