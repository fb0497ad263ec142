"""Golden digests of simulator output bytes on generated nets.

The four programs under ``tests/data`` are the ``wide`` benchmark corpus:
``perfbench/gen.py`` programs drawn from seed 0, one per size slot, each
with its eight-value stimulus.  They run far more Variable, Steer and
Merge events than the shipped benchmarks, so these digests pin those
handlers' event order, timing and occupancy accounting the way
``test_sim_golden.py`` pins the shipped nets:

* every program buffered by ``policy_simple`` x {async, sync@2000};
* every program unbuffered under async timing, whose report carries a
  deadlock diagnosis.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from elastika.buffering import apply, policy_simple
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.sim import SimConfig, occupancy_csv, parse_stimulus, run, to_json

DATA = Path(__file__).parent / "data"

GOLDEN: dict[str, tuple[str, str]] = {
    "wide0-simple-async": (
        "5a5ba375c9b62aa8705c32a57ab04b3eed1885cc4f67dbebd5cd3f1acf35a201",
        "c6f8f476b19302953280422b38444e327f864008b342e3784a15a17c8fb14525"),
    "wide0-simple-sync": (
        "9f3799761cc0f2fc1fe262e6d6d8bed14e702fa1f83736428e7bb950194d96ff",
        "8ce81c5e8f2ecfa920f05b0e1d946f83a3e86b9b076b8aff5c3e780f4f9bd55a"),
    "wide0-unbuffered-async": (
        "10fe53d5e25c279cdd463ad1a6a7605322167bfcb605bb2a0f9555815b572b9e",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide1-simple-async": (
        "a485f006dd902b228267b6620bb04585f9ef1665abcc8dacd93ca25dfc565751",
        "44c26b56943c5ac5f1b171ee6360367510b72fda462c5b52edbf20b499ba3458"),
    "wide1-simple-sync": (
        "4a66b8af0cbbf06def8ee61e86aacbb4c8d7924866fcd7a14a615a16e89bc148",
        "e983b3801d410f15cc8fcd2bcd453a05b65f99bc22f75e4163d4452329c32144"),
    "wide1-unbuffered-async": (
        "c09e46bd3aefc6f5c8f46cf0aca4aeec84f2046db0843da62c3e2a84060cf7c8",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide2-simple-async": (
        "9afe3b608056421401023e0b490e44d1ea61f3b7f97e66a251e9f3bf17c7c49b",
        "4f6838ac6318cff779a38e7771eed44daa5b2d07203cd7defcc95a902bdcb754"),
    "wide2-simple-sync": (
        "ba1b820aadb2debffd4aafe1f29072a1457025977b9bbc600861546500111800",
        "fdcc31e34b63bf9cd41e2398c04d744a78bb4aa3fbbceb4f4ae1f5bb37e921b8"),
    "wide2-unbuffered-async": (
        "1943ad892e9f814040b8d6b3a92e962d6a09096778db25dd8b0b0ffd18e3baf5",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide3-simple-async": (
        "ad2a3b85b2c5ba41590df0639f9a81e2fc0aa4aacd0c6f67a5e84af90f094b2d",
        "744083abcd9086cd61638b9146427ce8e8e26bb03a96e82e47598ce185781ca4"),
    "wide3-simple-sync": (
        "8a33eddedac8a3c185619ea136b65d595651c81c548ab60cc0f3acc224393ad0",
        "7f69688047bcbb0d9688bf6e4070d68439480dc9b63ef6f25660202f149b97b6"),
    "wide3-unbuffered-async": (
        "7b60899efacc18491edb19088432916b6cce41969ee4437e95e89f844e616ccb",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_wide_corpus_report_bytes(case):
    program, plan, mode = case.split("-")
    net = compile_module(parse((DATA / f"{program}.csp").read_text()))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    if plan == "simple":
        net = apply(net, policy_simple(net, mode=mode))
    report = run(net, SimConfig(mode=mode, clock=2000 if mode == "sync" else 0,
                                stimulus=stimulus))
    assert report.completion == ("deadlock" if plan == "unbuffered"
                                 else "stimulus-exhausted")
    assert (hashlib.sha256(to_json(report).encode()).hexdigest(),
            hashlib.sha256(occupancy_csv(report).encode()).hexdigest()
            ) == GOLDEN[case]
