"""Golden digests of simulator output bytes.

Each case pins the sha256 of `to_json` and of `occupancy_csv` for one
run, so any change in event order, timing, results, diagnoses or
occupancy accounting shows up as a changed digest:

* every shipped benchmark x policy x {async, sync@2000} x dataset;
* the unbuffered async run of each compiled benchmark, whose report
  carries a deadlock diagnosis;
* a hand-built net whose simultaneous events sit on ids that sort
  differently by insertion, natural and string order ("!a" sorts before
  the "$in."/"$out." environment keys, "Z" before lower case, "a10"
  before "a9"), so only the documented tie order reproduces the bytes.
"""
from __future__ import annotations

import hashlib

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.ir import Component, Kind, Link, Network, Port
from elastika.sim import SimConfig, occupancy_csv, run, to_json


def digests(report) -> tuple[str, str]:
    return (hashlib.sha256(to_json(report).encode()).hexdigest(),
            hashlib.sha256(occupancy_csv(report).encode()).hexdigest())


def tie_net() -> Network:
    """x -> fork -> three capacity-1 buffers and a merge with input y ->
    capacity-2 buffer "!a", each buffer draining to its own output port.
    Components are inserted in an order that is neither sorted nor
    natural."""
    comps = [
        Component("a9", Kind.BUFFER, {"width": 8, "capacity": 1}),
        Component("f", Kind.FORK, {"input": 8, "outputs": [8, 8, 8, 8]}),
        Component("a10", Kind.BUFFER, {"width": 8, "capacity": 1}),
        Component("m", Kind.MERGE, {"width": 8, "inputs": 2}),
        Component("Z", Kind.BUFFER, {"width": 8, "capacity": 1}),
        Component("!a", Kind.BUFFER, {"width": 8, "capacity": 2}),
    ]
    links = [
        Link("lx", 8, None, ("f", 0)),
        Link("ly", 8, None, ("m", 1)),
        Link("f0", 8, ("f", 0), ("a9", 0)),
        Link("f1", 8, ("f", 1), ("a10", 0)),
        Link("f2", 8, ("f", 2), ("Z", 0)),
        Link("f3", 8, ("f", 3), ("m", 0)),
        Link("lm", 8, ("m", 0), ("!a", 0)),
        Link("o0", 8, ("a9", 0), None),
        Link("o1", 8, ("a10", 0), None),
        Link("o2", 8, ("Z", 0), None),
        Link("o3", 8, ("!a", 0), None),
    ]
    ports = [Port("x", "in", 8, "lx"), Port("y", "in", 8, "ly"),
             Port("o9", "out", 8, "o0"), Port("o10", "out", 8, "o1"),
             Port("oZ", "out", 8, "o2"), Port("obang", "out", 8, "o3")]
    return Network("ties", {c.id: c for c in comps},
                   {ln.id: ln for ln in links}, {p.name: p for p in ports})


TIE_STIMULUS = {"x": [1, 2, 3, 4, 5], "y": [9, 8, 7]}


def _cases():
    for name in benchmark_names():
        spec = benchmark(name)
        for policy in ("simple", "loop", "pac"):
            for mode, clock in (("async", 0), ("sync", 2000)):
                for d in range(len(spec.datasets)):
                    yield f"{name}-{policy}-{mode}-d{d + 1}", (
                        name, policy, mode, clock, d, None)
        for d in range(len(spec.datasets)):
            yield f"{name}-unbuffered-async-d{d + 1}", (
                name, None, "async", 0, d, None)
    for mode, clock in (("async", 0), ("sync", 1000)):
        for cap in (None, 2):
            yield f"ties-{mode}-max{cap}", ("ties", None, mode, clock, 0, cap)


CASES = dict(_cases())

GOLDEN: dict[str, tuple[str, str]] = {
    "elgcd-loop-async-d1": (
        "968152e4c7f968682db48ca0ec62ea48aa73c27421e531119b335120b58653ab",
        "399b99f618597593f65efa7786d4584ff82e8afb0971978cd73f2e0b71d3e135"),
    "elgcd-loop-async-d2": (
        "0b4c0f0a46986658a6bda53a932bd5802257b32c1c9a7be960177a8fdd71fb54",
        "2fc49ba9e47f59061a49627b4eaf664a472b6ad3339bd9346000846fda807cbd"),
    "elgcd-loop-sync-d1": (
        "7cde82572bedf7037247cebc0761cfa04f167b1f720e5f49805d84a0bca06008",
        "fe20e41205e1436884d777c07a48edf54fb948a7c62a5328846b9f3a54a84f0b"),
    "elgcd-loop-sync-d2": (
        "bdd258f6e8e2c24ddb9f23826083c64aa8de541a23652ed4e1534f929d97851a",
        "6f5f86e30c60072a60d2238e7597d0d5fd46a5d1a0ac5ce56b272b96a9c9433c"),
    "elgcd-pac-async-d1": (
        "8a3a6ff0cfabc8cd382fd767ba17b95eefaf36dbdb319e80a34227a16f37f0ee",
        "9984fafa848a4ddf050a5b11ec4d4e116648f7b198aa792dfe9ebcb5a525b28c"),
    "elgcd-pac-async-d2": (
        "4efcfc94bbcbca42ac433b9c060b82a682325fe9176767c71c5208f6e715ada2",
        "d9cbc2ab0bc7a05fdae3051ac9fac28dc8724548ddd0d468aeda414d28e89066"),
    "elgcd-pac-sync-d1": (
        "03d6a0d859dd63c8e2b15fe5b3ccebc850209b0f5d765fbbafaf44e166cd9e48",
        "5405b428eb9d7422fe2f425492fa0e5d22737c62d41536418afcdfa40ab1885f"),
    "elgcd-pac-sync-d2": (
        "2cb96797bb5fd468b34ca1d3f91e6d3b7358a3c3d55cd304d339eced865e4d16",
        "805930c49e17109b4df918f420a5794c8d0bedeab6000f4e7af9d971700a2733"),
    "elgcd-simple-async-d1": (
        "0a0f6b99640125666307448aed322276ba5774900db79dc3ac296a41fba6e563",
        "6798d7f34d564b55a727786b8606ff0327e17d047e5f45e5b4de01c9ed767745"),
    "elgcd-simple-async-d2": (
        "f7eac8f078acde59d4e1c2a5422ed541e2e0301cfc5de3b72bd615ed544ed9fd",
        "518fb74668aa6635905aceb9c6bbfb39851df65cd460d29529dbe579f4899921"),
    "elgcd-simple-sync-d1": (
        "d9ad9e8f4a6fa5d34bb9ffbd761d97dcaf7450d633756c0909ce42b33313f411",
        "2a886441030557a8c0953bbd41bf8ee87a876d8a219c055c06056128fd762003"),
    "elgcd-simple-sync-d2": (
        "f270a023a9e1c672b94549579f45a2122659eb04767187547d88d6cc0cec8110",
        "00020dd741c8c5240765df09570864704276b7910dd128e80000047a062848c9"),
    "elgcd-unbuffered-async-d1": (
        "813935d3ddab7c358b0d054d6cc4527fd7d5414e0f2881d7d0c94caa1a084719",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "elgcd-unbuffered-async-d2": (
        "add7347d045df7c0ed2de5fc385af6b982fade6d1ae694a4052fd0ebb9f58025",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "poly-loop-async-d1": (
        "4738f56c36b1edbc3af417e29e89e4c0b31f13adfee97544a2e7675301487c88",
        "3f2c8e03d0514359217741b719067e029134221cad2c334809b788a9a2a86633"),
    "poly-loop-async-d2": (
        "1bfc581ecce9ecfdfdbe9ea33e0b49a3da092494c53eacbe2e144c1748727c3c",
        "3f2c8e03d0514359217741b719067e029134221cad2c334809b788a9a2a86633"),
    "poly-loop-sync-d1": (
        "a8efb66cd2697ee6c0225a2e6c006c57b6c0fd00df941a4f4cf09e7a6b036ae1",
        "e2c7ad7cad6adbec37598cb823f720a4292421f0cc9c50dd1022dea65b895546"),
    "poly-loop-sync-d2": (
        "ced07451fae9fb84a648fa62a4d135e58b6d917a42a4994377e5aa9b3df97571",
        "e2c7ad7cad6adbec37598cb823f720a4292421f0cc9c50dd1022dea65b895546"),
    "poly-pac-async-d1": (
        "6bc01bcb129ac680b60964041035951ff7de8ed196f607a3405c310638967306",
        "ef88b19be9f6d11c7aa31fad1fb9918b8319ca8a944b978461244a41df311ee3"),
    "poly-pac-async-d2": (
        "245109c1e36bd1138deeead58404433540a69729f7a029aa1a933bd08a5a84fc",
        "ef88b19be9f6d11c7aa31fad1fb9918b8319ca8a944b978461244a41df311ee3"),
    "poly-pac-sync-d1": (
        "b5ea3906e92aed010e476d3105a9bb511df6682d24735ffefe4b007bf0e4ea32",
        "9d239d2f63e4f0c73ee5d2bb08d013cd642c83ba802cf531f926b03e3d54386d"),
    "poly-pac-sync-d2": (
        "2e4f6eb56f498c5fe6f49454adb3ee802ac83607b472ff5d0ec013a337aa36a0",
        "9d239d2f63e4f0c73ee5d2bb08d013cd642c83ba802cf531f926b03e3d54386d"),
    "poly-simple-async-d1": (
        "f4b4963bb73eb04d5f9227080a053ca4e20c94af4128ced108e04c6e64138163",
        "e39cc36cd21b4ad98ee9d5651cc69fa756e721cd6570a6fa3735fc9f03076d7e"),
    "poly-simple-async-d2": (
        "2ae85ac9fb116508b7c7b5fae38cdc465a7028f5d984f47e7a9a929a924ad77f",
        "e39cc36cd21b4ad98ee9d5651cc69fa756e721cd6570a6fa3735fc9f03076d7e"),
    "poly-simple-sync-d1": (
        "a4661ef031f8ffdd430724837cfde330b6551074a7ec4e4a7aa0f7486a4eedaf",
        "40fe68bf13a4220abec5f7149509fa23c8ff4f523724b20b8f918a84a889d8cb"),
    "poly-simple-sync-d2": (
        "95ca16a359879b610db5611f4a167bbfaf2e91470cdada52265944795564fcf8",
        "40fe68bf13a4220abec5f7149509fa23c8ff4f523724b20b8f918a84a889d8cb"),
    "poly-unbuffered-async-d1": (
        "44e0c185ff0d7aba5ee914e51b8956dc2abea605165d7bbb50395f5e1d312c8a",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "poly-unbuffered-async-d2": (
        "44e0c185ff0d7aba5ee914e51b8956dc2abea605165d7bbb50395f5e1d312c8a",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "smul-loop-async-d1": (
        "bc576bd408a0377d4dea0dc3228f11c521b05416a23395639ff5ae0f7cffd99b",
        "a80115f08646f9e30466a0ac011eed2923c6e1b2f01563e9c71f960ad4585b5e"),
    "smul-loop-async-d2": (
        "b3ab50071b201e76d4e502c411f7aaf2d0f7f1e36ec3fb00279ad5111ec09d3d",
        "13773189435fc465e7ef7ee29bb1ffabd8687fd48f0f074b245e8b549822ad3d"),
    "smul-loop-sync-d1": (
        "0f5a2695d8e635b2bf765bb905d30fac965d56efd16eb2e2ea7d21fe059c12cf",
        "dd9ad2deaf6106ba57e56dc9429c0de8932d9d879dd4bca488900890d06f4c04"),
    "smul-loop-sync-d2": (
        "d68c125dfc549741af1dfb9ee6c2beead78b4de5d4274ea325a19739ed00f5ce",
        "7c02372fc5b749c1f2f14b9dfc614d583ad0a763d1325ad04a4b2b9a2d56df63"),
    "smul-pac-async-d1": (
        "b86e42bc342cc4fd056bffae9455f715a01e3a3248a3032875938cf85cf79299",
        "0bdfd7f02e6a5a2d46004d193594b635098853ef188a4e681b720b1777b71ba4"),
    "smul-pac-async-d2": (
        "f32ad6165157fae83a1cd1e241b6cbaf77ad1f04105449595f1461ce458a6373",
        "a80036d09f430a52af9a5c3b54e607384651648189051c5e09cb798a39c43980"),
    "smul-pac-sync-d1": (
        "ebfc75652acee9b093b468e448fc13b3780cd7aba55898ade5a0c434f9c3586c",
        "63dab44119c36d18bbf76e869ad525916ced87a3ff1c970d44aaa7ac4386afbd"),
    "smul-pac-sync-d2": (
        "1e5f9c7fb4bf72321c8c68ae1c060c059cedf6d1b4030f389714a3e8598132ab",
        "d95f70a6ca6ab3adc27a02df26700a431d6486f46616791f1b874c0f87266231"),
    "smul-simple-async-d1": (
        "817f64203fa469c27351714d81fb156960935f1a889c771ba2390024727d8114",
        "70c0d369031f143095f2235beb6c787a1d9c8a424473fa872d268ccf75826289"),
    "smul-simple-async-d2": (
        "58a3a4dba7b2b69ec55c9130def2a243d44b90bfd6f0c030b4b976bc74daf2b6",
        "0f70c2c91c5534575ffed2bc0f420a04f105d20bc36f3654916451100970cd94"),
    "smul-simple-sync-d1": (
        "b482961beee33e462649ddbe8a91405d7d9b0bc8931234d16362b8de890d3c07",
        "bfdf1575e527e8ea051bf3101fc00d631e03183235c61be37070c1e961c4b948"),
    "smul-simple-sync-d2": (
        "706f1f13b3a2e12ed5148f5d7b60c8715f59a57b4e5de95a5a87340abcd34d1a",
        "66c0218b553298705dc6a4b38af7120e25c58b5d4d3f74f2bb5da5b2c98f731a"),
    "smul-unbuffered-async-d1": (
        "fa3781c45654a1cf9cfb46a82da2bdcf7244f2dc726f9dc9fc154c5087ecf270",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "smul-unbuffered-async-d2": (
        "fa3781c45654a1cf9cfb46a82da2bdcf7244f2dc726f9dc9fc154c5087ecf270",
        "1994039943358aa1e5fa56d272884068027003e2b3fec5d135eb73130feef76c"),
    "ties-async-max2": (
        "39d60bbd3596c478d28a21519549af482be9b845d2abc4f0161d089b350cc076",
        "507f92a190bfb76677f2c6c0c480c4bffc34a6faee15ae0426e00f5230725603"),
    "ties-async-maxNone": (
        "d13e74f276adbc5065bce7bb3605dd49aba3257f3f3c8930424934b500781556",
        "f0f388deaa010ccf73c5c5450c0ef0a682c6964a9bd8c09ebc5988a80a31ccd5"),
    "ties-sync-max2": (
        "e4973d258a8fa963139c83931bbdfe556b3a37434ba53084e37825dcf8da786a",
        "a896ff1fb30b5a6b6e6a9d3d551eb7e3eea1576f831bac09657362560ceff225"),
    "ties-sync-maxNone": (
        "04dd8065a5b88cc40a7a3a5ee5934946474e56b28590a7addf552707fbc305b2",
        "6736cb8f37bad68caa845be3c7825bb09a92b21c071e88c3f790dc78c1517ff3"),
}


def simulate(case) -> tuple[str, str]:
    name, policy, mode, clock, d, cap = case
    if name == "ties":
        net, stimulus = tie_net(), TIE_STIMULUS
    else:
        spec = benchmark(name)
        net, stimulus = spec.compiled(), spec.datasets[d]
        if policy is not None:
            net = apply(net, POLICIES[policy](net, mode=mode))
    cfg = SimConfig(mode=mode, clock=clock,
                    stimulus={k: list(v) for k, v in stimulus.items()},
                    record_occupancy=True)
    if cap is not None:
        cfg.max_results = cap
    return digests(run(net, cfg))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_simulator_bytes_match_golden(case_id):
    assert simulate(CASES[case_id]) == GOLDEN[case_id]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", benchmark_names())
def test_recording_occupancy_changes_no_report_byte(name):
    # Every buffered case of CASES, run with and without the series.
    spec = benchmark(name)
    compiled = spec.compiled()
    for policy in sorted(POLICIES):
        for mode, clock in (("async", 0), ("sync", 2000)):
            net = apply(compiled, POLICIES[policy](compiled, mode=mode))
            for stimulus in spec.datasets:
                plain, recorded = (run(net, SimConfig(
                    mode=mode, clock=clock, stimulus=stimulus,
                    record_occupancy=record)) for record in (False, True))
                assert to_json(plain) == to_json(recorded)
                assert plain.occupancy_series == []
                assert recorded.occupancy_series
