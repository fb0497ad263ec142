"""Generated programs whose `loop` and `pac` plans deadlock.

Program k is the k-th generated program of ROADMAP item 1: seed k of
``random.Random(0).randrange(1 << 32)``, size slot ``gen.SLOTS[k % 4]``
and 4 inputs.  Random stimulus i is the i-th of the 12 stimuli drawn from
``random.Random(1)``: a length m from {4, 8, 20}, then per input port m
values of 2, 8 or 32 random bits.

Every case below deadlocks at present.  A Variable with several write
sites sends each site's write-done through its tag Steer; when the fork
of the ``||`` after site i also feeds the tag of a later site j, no
planned buffer holds site i's token, and the Steer cannot serve site j.
Each case is pinned as a strict xfail, so a plan that makes one drain
fails the suite until its marker is removed.  The ``simple`` plan of
every pinned program drains under the same stimulus, which checks the
harness itself.
"""
from __future__ import annotations

import functools
import random
import sys
from pathlib import Path

import pytest

from elastika import sim
from elastika.bench import POLICIES
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gen  # noqa: E402

LOOP = (3, 10, 12, 16, 25, 28, 29, 46, 49, 54, 55, 71, 80, 89, 95)
PAC = (3, 12, 16, 28, 54, 55, 71, 89, 95)
# Programs that drain on their own stimulus but deadlock on a random one.
LATENT = {63: 2, 117: 0}

PENDING = pytest.mark.xfail(
    raises=AssertionError,
    reason="ROADMAP item 1: write-order buffer not planned")

# (policy, program, random stimulus or None for the program's own, mode)
CASES = ([("loop", k, None, mode) for k in LOOP for mode in ("async", "sync")]
         + [("pac", k, None, mode) for k in PAC for mode in ("async", "sync")]
         + [(policy, k, i, "async") for policy in ("loop", "pac")
            for k, i in LATENT.items()])


@functools.cache
def program(k: int) -> gen.Program:
    rng = random.Random(0)
    seeds = [rng.randrange(1 << 32) for _ in range(k + 1)]
    return gen.generate(seeds[k], gen.SLOTS[k % 4], 4)


@functools.cache
def random_stimuli() -> list[dict[str, list[int]]]:
    srng = random.Random(1)
    out = []
    for _ in range(12):
        m = srng.choice([4, 8, 20])
        out.append({p: [srng.randrange(1 << srng.choice([2, 8, 32]))
                        for _ in range(m)] for p in gen.INPUTS})
    return out


def check_drains(policy: str, k: int, stim_index: int | None,
                 mode: str) -> None:
    prog = program(k)
    stimulus = (prog.stimulus if stim_index is None
                else random_stimuli()[stim_index])
    net = compile_module(parse(prog.text))
    buffered = apply(net, POLICIES[policy](net, mode=mode))
    report = sim.run(buffered, sim.SimConfig(
        mode=mode, clock=2000 if mode == "sync" else 0,
        stimulus={p: list(v) for p, v in stimulus.items()}))
    assert report.completion == "stimulus-exhausted", report.diagnosis
    expected = gen.evaluate(prog.body, stimulus)
    assert {p: [v for v, _ in report.results.get(p, [])]
            for p in expected} == expected


def case_id(case) -> str:
    policy, k, stim_index, mode = case
    stim = "" if stim_index is None else f"-rand{stim_index}"
    return f"{policy}-{k}{stim}-{mode}"


@pytest.mark.parametrize(
    "policy, k, stim_index, mode",
    [pytest.param(*case, marks=PENDING, id=case_id(case)) for case in CASES])
def test_plan_drains_and_matches_the_program(policy, k, stim_index, mode):
    check_drains(policy, k, stim_index, mode)


@pytest.mark.parametrize(
    "k, stim_index",
    [(k, None) for k in sorted(set(LOOP) | set(PAC))] + sorted(LATENT.items()))
def test_simple_plan_drains_every_pinned_case(k, stim_index):
    check_drains("simple", k, stim_index, "async")
