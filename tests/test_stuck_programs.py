"""Generated programs 3, 63 and 117 as compiled nets that deadlock.

Program k is the k-th generated program of ``tests/test_write_order.py``.
``prog<k>.net.json`` under ``tests/data`` is its compiled netlist as the
compiler gave it while each Variable had one write port, funnelled
through a tag Merge, Join and Steer; ``prog<k>.plans.json`` holds the
links the ``loop`` and ``pac`` planners chose for it then, and
``prog<k>.stim`` a stimulus it deadlocks under: program 3's own, and
random stimuli 2 and 0 of ``tests/test_write_order.py`` for programs 63
and 117, which drain on their own.  The files are fixed inputs, not pins
of today's compiler or planners: each net validates, and each plan,
spliced as recorded, deadlocks in async and sync@2000 on a blocked cycle.
"""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from elastika import netlist
from elastika.buffering import BufferPlan, apply
from elastika.ir import validate
from elastika.sim import SimConfig, parse_stimulus, run

DATA = Path(__file__).parent / "data"
PROGRAMS = ("prog003", "prog063", "prog117")


@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("policy", ["loop", "pac"])
@pytest.mark.parametrize("name", PROGRAMS)
def test_recorded_plan_deadlocks_on_a_blocked_cycle(name, policy, mode):
    net = netlist.loads((DATA / f"{name}.net.json").read_text())
    assert validate(net) == []
    links = json.loads((DATA / f"{name}.plans.json").read_text())[policy]
    buffered = apply(net, BufferPlan(policy, tuple(links), {}))
    report = run(buffered, SimConfig(
        mode=mode, clock=2000 if mode == "sync" else 0,
        stimulus=parse_stimulus((DATA / f"{name}.stim").read_text())))
    assert report.completion == "deadlock"
    assert report.diagnosis[0].startswith("blocked cycle: ")
