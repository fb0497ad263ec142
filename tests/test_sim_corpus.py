"""Golden digests of simulator output bytes on generated nets.

The four ``wide*`` programs under ``tests/data`` are the ``wide``
benchmark corpus: ``perfbench/gen.py`` programs drawn from seed 0, one
per size slot, each with its eight-value stimulus.  They run far more Variable, Steer and
Merge events than the shipped benchmarks, so these digests pin those
handlers' event order, timing and occupancy accounting the way
``test_sim_golden.py`` pins the shipped nets:

* every program buffered by ``policy_simple``, ``policy_loop`` and
  ``policy_pac`` x {async, sync@2000};
* every program unbuffered under async timing, whose report carries a
  deadlock diagnosis.

``wide3`` deadlocks under ``policy_loop`` and ``policy_pac`` too, so those
four reports pin a quiesced buffered net: the blocked cycle with the
inputs and unacknowledged outputs of each component on it, and the final
buffer levels.

The 24 ``gen*`` programs are ``perfbench/gen.py`` programs 0-23 drawn from
seed 0, one size slot after another, each with a four-value stimulus.
Run unbuffered, every one deadlocks, so one digest over their reports
pins the diagnosis of a standing offer on many more quiesced nets.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from elastika.bench import POLICIES
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.sim import SimConfig, occupancy_csv, parse_stimulus, run, to_json

DATA = Path(__file__).parent / "data"
# Cases whose run ends in deadlock rather than with the stimulus exhausted.
DEADLOCKS = {"wide0-unbuffered-async", "wide1-unbuffered-async",
             "wide2-unbuffered-async", "wide3-unbuffered-async",
             "wide3-loop-async", "wide3-loop-sync",
             "wide3-pac-async", "wide3-pac-sync"}

GOLDEN: dict[str, tuple[str, str]] = {
    "wide0-simple-async": (
        "5a5ba375c9b62aa8705c32a57ab04b3eed1885cc4f67dbebd5cd3f1acf35a201",
        "c6f8f476b19302953280422b38444e327f864008b342e3784a15a17c8fb14525"),
    "wide0-simple-sync": (
        "9f3799761cc0f2fc1fe262e6d6d8bed14e702fa1f83736428e7bb950194d96ff",
        "8ce81c5e8f2ecfa920f05b0e1d946f83a3e86b9b076b8aff5c3e780f4f9bd55a"),
    "wide0-loop-async": (
        "a7c0fce671a6cd34a2bea50a55e71eaa0314f1921e071be9b5272ec94361e2bd",
        "7c17448686086567f0674db7cb16b5144a8d1c6cafb1fb1c9dd674af8f15c168"),
    "wide0-loop-sync": (
        "985313658b13de99783c19762c5e5b8784b85ed2fd966414247829ee68f9786e",
        "506894c65e2e962a0e145a016541f04672f0912770245b7c1488fa0646f6ccf4"),
    "wide0-pac-async": (
        "4c0b5f6f215e199a16eebd6db7dfbb6ad6d3338f3a242520435a48c94fb807fa",
        "7f4d3a1985c0a5c8c6d8a9a1f833e970d4794cc50fd15294b9695d66ea6401da"),
    "wide0-pac-sync": (
        "40f94d2ec95bb19efdf43f185885df9024416adfb9a7d0d1f6a9bf3672b520eb",
        "e323ee4f649fc22272f3ec01a692d3f28caf9e07057b1d691872280a05df7390"),
    "wide0-unbuffered-async": (
        "10fe53d5e25c279cdd463ad1a6a7605322167bfcb605bb2a0f9555815b572b9e",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide1-simple-async": (
        "a485f006dd902b228267b6620bb04585f9ef1665abcc8dacd93ca25dfc565751",
        "44c26b56943c5ac5f1b171ee6360367510b72fda462c5b52edbf20b499ba3458"),
    "wide1-simple-sync": (
        "4a66b8af0cbbf06def8ee61e86aacbb4c8d7924866fcd7a14a615a16e89bc148",
        "e983b3801d410f15cc8fcd2bcd453a05b65f99bc22f75e4163d4452329c32144"),
    "wide1-loop-async": (
        "76a71eaa601a7892668a7580beaaf913e0ee9ef12c2dd2dc457e0de3418805d5",
        "2ea4f39c5cd2d62d4ab6072f1d069962d1365879bf9a8b5539a268657f0b5406"),
    "wide1-loop-sync": (
        "16b3d8e799ca3eb6a7f145f7ebf7ccd4639ee338b9aaec9cf028ba1a95c45487",
        "f615b7d6e9b189ccb69ffbdb25f4c583df055f76f39cce0f1f90c3449dc20c95"),
    "wide1-pac-async": (
        "09f768a54e80cecaf6b3222f9f2769fc6008d0f5a4f8531f40de4e24a472e687",
        "e7b05fde7322585ad15a22bfa45d7afeebf7256aa86589490f9b074a2a39c6d1"),
    "wide1-pac-sync": (
        "a0a5360b107a5ec77e8d236cc6aaf10ee752090da22bb7d06f5097c80aff3a2c",
        "f6b2171ac0f2d18f0334dc53a70f982142dae827797c92d70d7a3243cacc300c"),
    "wide1-unbuffered-async": (
        "c09e46bd3aefc6f5c8f46cf0aca4aeec84f2046db0843da62c3e2a84060cf7c8",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide2-simple-async": (
        "9afe3b608056421401023e0b490e44d1ea61f3b7f97e66a251e9f3bf17c7c49b",
        "4f6838ac6318cff779a38e7771eed44daa5b2d07203cd7defcc95a902bdcb754"),
    "wide2-simple-sync": (
        "ba1b820aadb2debffd4aafe1f29072a1457025977b9bbc600861546500111800",
        "fdcc31e34b63bf9cd41e2398c04d744a78bb4aa3fbbceb4f4ae1f5bb37e921b8"),
    "wide2-loop-async": (
        "820bd42eb3aa68287ad950cb3c61328fcd0b8e1d44c9b503dfe212c03320b7fa",
        "262b00f09207ef6157de7da680817eef0c83f81557667e7f2f3a4346489220c7"),
    "wide2-loop-sync": (
        "05ae94cff71b7e2ebd3aeb0e73c95123da81f69a98508e6b4ba8d948859ee625",
        "dcfaa3789c8347519eff425961a17f6d25c0b782ee9be161b0fa51b3ea83887f"),
    "wide2-pac-async": (
        "842e74c4b94936b58f3108c777645b89e10b6df27a5ae162795a8a5e6b2bd168",
        "1c39ce9076669e43793fdda68e49d46539dc8acdc5c39e863d81dc47f626df12"),
    "wide2-pac-sync": (
        "a36e13f8f68f2dbc8e06d0899aed556466eda354a7738085748d0fda6e52a1e3",
        "29842e2461757443aaded7eb7df4083d6c5a7906ab2884e1dc343b5f6d650d22"),
    "wide2-unbuffered-async": (
        "1943ad892e9f814040b8d6b3a92e962d6a09096778db25dd8b0b0ffd18e3baf5",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "wide3-simple-async": (
        "ad2a3b85b2c5ba41590df0639f9a81e2fc0aa4aacd0c6f67a5e84af90f094b2d",
        "744083abcd9086cd61638b9146427ce8e8e26bb03a96e82e47598ce185781ca4"),
    "wide3-simple-sync": (
        "8a33eddedac8a3c185619ea136b65d595651c81c548ab60cc0f3acc224393ad0",
        "7f69688047bcbb0d9688bf6e4070d68439480dc9b63ef6f25660202f149b97b6"),
    "wide3-loop-async": (
        "ae48cc167e41ee9001c0d2f7badcf5a923314589c9468cfb715e753cc00d8d2a",
        "16abb09bc5061e3fdc448f1fa194c88980d2e4d9efbf991b554884e11a0e33ea"),
    "wide3-loop-sync": (
        "938aaeefb15a68d5b369f037ed4325667b626bccfebbeebac486562d26cc0269",
        "70a4f818c044bb193967f5f3f1667d715f2795c4d70111823beecf7491445c60"),
    "wide3-pac-async": (
        "d7a39df97f2cef9cbb1bcaeedd8111252654f46a80c408b31dfa0811924feefd",
        "44deb796b1bed64aac94497a043d8dc8436c5f1fd8a0c8a9746aae576a61d61e"),
    "wide3-pac-sync": (
        "4d815c8deda77dd6771e3631ed64962797a4ca04ad88bbfb427080dfdc57708f",
        "91c61f8de7bc5f58db9370ccb67975e5d8ada5ebb319ee3912f450e280019e18"),
    "wide3-unbuffered-async": (
        "7b60899efacc18491edb19088432916b6cce41969ee4437e95e89f844e616ccb",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_wide_corpus_report_bytes(case):
    program, plan, mode = case.split("-")
    net = compile_module(parse((DATA / f"{program}.csp").read_text()))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    if plan in POLICIES:
        net = apply(net, POLICIES[plan](net, mode=mode))
    report = run(net, SimConfig(mode=mode, clock=2000 if mode == "sync" else 0,
                                stimulus=stimulus, record_occupancy=True))
    assert report.completion == ("deadlock" if case in DEADLOCKS
                                 else "stimulus-exhausted")
    assert (hashlib.sha256(to_json(report).encode()).hexdigest(),
            hashlib.sha256(occupancy_csv(report).encode()).hexdigest()
            ) == GOLDEN[case]


@pytest.mark.parametrize("program", sorted({c.split("-")[0] for c in GOLDEN}))
def test_recording_occupancy_changes_no_report_byte(program):
    # Every case of GOLDEN for one program, run with and without the series.
    compiled = compile_module(parse((DATA / f"{program}.csp").read_text()))
    stimulus = parse_stimulus((DATA / f"{program}.stim").read_text())
    nets = [("async", compiled)] + [
        (mode, apply(compiled, POLICIES[plan](compiled, mode=mode)))
        for plan in sorted(POLICIES) for mode in ("async", "sync")]
    for mode, net in nets:
        plain, recorded = (run(net, SimConfig(
            mode=mode, clock=2000 if mode == "sync" else 0, stimulus=stimulus,
            record_occupancy=record)) for record in (False, True))
        assert to_json(plain) == to_json(recorded)
        assert plain.occupancy_series == []
        assert bool(recorded.occupancy_series) == (net is not compiled)


GENERATED_UNBUFFERED = (
    "1551aee3d16f78d839e706be67059be9d340ee30dbc66464eeb8242c7d7469f0")


def test_generated_unbuffered_deadlock_reports():
    digest = hashlib.sha256()
    for k in range(24):
        net = compile_module(parse((DATA / f"gen{k:02}.csp").read_text()))
        stimulus = parse_stimulus((DATA / f"gen{k:02}.stim").read_text())
        report = run(net, SimConfig(stimulus=stimulus))
        assert report.completion == "deadlock"
        assert any("unacknowledged outputs []" not in line
                   for line in report.diagnosis[1:])
        digest.update(to_json(report).encode())
    assert digest.hexdigest() == GENERATED_UNBUFFERED
