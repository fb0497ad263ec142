"""Golden digests of simulator output bytes for Buffers deeper than one.

Every policy plans capacity-1 Buffers, so a Buffer that queues tokens
behind its head runs only where a net is spliced at a larger capacity.
Each case pins the sha256 of `to_json` and of `occupancy_csv` for one
shipped benchmark under the `simple` plan, spliced at capacity 2 or 3,
async and sync@2000, on each dataset.
"""
from __future__ import annotations

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.sim import SimConfig, run
from test_sim_golden import digests


def _cases():
    for name in benchmark_names():
        for capacity in (2, 3):
            for mode, clock in (("async", 0), ("sync", 2000)):
                for d in range(len(benchmark(name).datasets)):
                    yield f"{name}-cap{capacity}-{mode}-d{d + 1}", (
                        name, capacity, mode, clock, d)


CASES = dict(_cases())

GOLDEN: dict[str, tuple[str, str]] = {
    "elgcd-cap2-async-d1": (
        "da1271fa5606a7bd251e9e4fc966afdb00365c06ddbad3928118cc7e8f351bce",
        "4da45219934d85d09edba4ec0885be47e5808c7e7fca76e2e1282e3532472161"),
    "elgcd-cap2-async-d2": (
        "c9b109fc77a43c26d29961fb4610ae0d94fc4f7796761753de2099fdfb7a98e0",
        "4086354444aa69712a45e2d2f7b0008b63fcf23a9ce31d4eb2f19d0399ccdc89"),
    "elgcd-cap2-sync-d1": (
        "2774de28e2c5562e46d4c495d850804a92146d90be0563a2085607ccc83ab76c",
        "93268bef200d1b15751f78f956916c02398f403277256a8bf0de635937fcfb7c"),
    "elgcd-cap2-sync-d2": (
        "f84ea85345b6036855df7d1a6f68ad82890405fc4772980aae61df80f726bc3a",
        "5dcf8683e7ddb4b760e3af6ba3613957ffa90323fd8fd5407c3673cd74634b35"),
    "elgcd-cap3-async-d1": (
        "070e5e7137f3ec4c5a741581a29b08cae63d17ab848ceccddfb85a2ef6984b2f",
        "33f1e444974e9f3b3e5297523c5104d6be3f1a8ad5934b6e655ef3089567807a"),
    "elgcd-cap3-async-d2": (
        "ed4749f12637430f12517874107611eb20be53e0a38ea4d9acaa7fe695ba0df6",
        "c24aa42310e9ddb61eea1efad243b31181365f7a20d29ee9a82f7591a27dfce0"),
    "elgcd-cap3-sync-d1": (
        "6b850d10b86d4e67fae090d70d5c757d87b1ea98cb184ce53845857a5b941797",
        "50fad5c929adaa3cdd240ce1d4c6d6e17d6e73b7dd0c46f2ff6c07b357c05576"),
    "elgcd-cap3-sync-d2": (
        "cd59424c75ac615c1ac2dc43d11584498a329ed980c059c146bf2e6daab5e5c8",
        "9928740c23ddaed1b4d0d1726267ac43295b95fce14520795f920260ddefaa1d"),
    "poly-cap2-async-d1": (
        "479cb481ad83744eef3dbdea470ed1a44b0d31acb58179373d4e71f04cf848a9",
        "d22590c214e7facaf8272804bbaaeda6bbc2155fa364042e763c4c0949a987bb"),
    "poly-cap2-async-d2": (
        "2fb1e47dc07458e3922d265b8f7a5bf459117d89a8bdd4b8befbc7e07e662d10",
        "d22590c214e7facaf8272804bbaaeda6bbc2155fa364042e763c4c0949a987bb"),
    "poly-cap2-sync-d1": (
        "dd6be748859018835f48ada08bb1a2598a1b5aee93d6af506207559b9f57077f",
        "a5c15b48c5e4511a0a7e5b650a227ddebadd903dceb8555f5a93691036dac0e2"),
    "poly-cap2-sync-d2": (
        "b4ca0a7ef30a138a598357b5d56ec68d36bfb0325b464f5aa534c987e6d4541d",
        "a5c15b48c5e4511a0a7e5b650a227ddebadd903dceb8555f5a93691036dac0e2"),
    "poly-cap3-async-d1": (
        "207e79ceef8a3e106c4bf59ca9fed9592a829586aa6d9d82348ceec05a90a237",
        "c8c0646b956ae41e2e965123fc520f91cc31307d2c0fb2f7ccd9aca6b9ea58cc"),
    "poly-cap3-async-d2": (
        "0f258c802c8bda8d98795d75fbceb1f7e71e3c7ff633dd88d32261f444cc439c",
        "c8c0646b956ae41e2e965123fc520f91cc31307d2c0fb2f7ccd9aca6b9ea58cc"),
    "poly-cap3-sync-d1": (
        "d03ccf19bba5a20ac3178739da72dfe30e4ff5274b138b7573ee3712eef6dc7f",
        "2caa05034ea27730936f1fa848be947b1fea7096a64601ad87f03adaede59d32"),
    "poly-cap3-sync-d2": (
        "1d023b56b5d2b71b4f4197f8e6bcfae1517cd5003b42fb859cdf64aecd366c60",
        "2caa05034ea27730936f1fa848be947b1fea7096a64601ad87f03adaede59d32"),
    "smul-cap2-async-d1": (
        "654a171171ab60a127092ac93ecb552d73cfe1a2bde22916ec7b599023755bc0",
        "222b9d42d0a184b5214ef6e7eb101f5e684fee462c05bc1cbcc7b80ff6905d11"),
    "smul-cap2-async-d2": (
        "6be8e80d6ff413d639e677acaf3cead2bdd48ba36bacc8dd6578a8eb54326d1a",
        "af6636ce4489e89382918ba27135fdef8fb2048d7f5de8947ea94833a8161dfa"),
    "smul-cap2-sync-d1": (
        "6cd826111c5c5b68226e4f49b83c00c8a2e5ea70abab82c4f3a69370457e493b",
        "bd257fe23aecf914a36a3a64b2d1e7ac42c781c50a08ba95391d3465a716342d"),
    "smul-cap2-sync-d2": (
        "7faeb926a675695e91e45a94feb38a751ff83a116e70d32a36192a514d8799cb",
        "a9a2a0c20ba052dfa8e0ef74116f441d10ebe1e1d520c0c6822472566d403c74"),
    "smul-cap3-async-d1": (
        "d62d47f57fab944597f0f3b228f0a4eca097d491b47a4bf3684eba22848661f9",
        "fbb1f8a3e9376d583abc5fb2224f3dc88c5836b2e19f524871dbba008debb1e3"),
    "smul-cap3-async-d2": (
        "442a8d67e0eec7244ee6101f184eff1e1423bbb9dd8f4b3053b1845fef599f4a",
        "0078cedde8e222fe280d5352efc8eefb014787465eac11ec4eab13753acecff5"),
    "smul-cap3-sync-d1": (
        "bfcdb3913b29d3955f98b7ef5640d2cd85b524f2c85402f6513c6af33777a97d",
        "ca54fb0476a1dbad5539418003a34d40bd0b9e93f0581c6f8a91638e59da9578"),
    "smul-cap3-sync-d2": (
        "714e80fb7f55702b6fd48f54b3e2b97a926d7d3a2c52f6b90c66e3ce27c664f0",
        "fc9d22fdaeff27f80a5cbf185663a0a1b10e507065ab2f08710d55beffb76797"),
}


def simulate(case):
    name, capacity, mode, clock, d = case
    spec = benchmark(name)
    net = spec.compiled()
    net = apply(net, POLICIES["simple"](net, mode=mode), capacity=capacity)
    return run(net, SimConfig(
        mode=mode, clock=clock, record_occupancy=True,
        stimulus={k: list(v) for k, v in spec.datasets[d].items()}))


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_deep_buffer_bytes_match_golden(case_id):
    assert digests(simulate(CASES[case_id])) == GOLDEN[case_id]


def test_golden_covers_every_case():
    assert sorted(GOLDEN) == sorted(CASES)


@pytest.mark.parametrize("name", benchmark_names())
def test_deep_buffers_fill_past_their_head(name):
    # Some Buffer holds a token behind its head in every benchmark.
    reports = [simulate(case) for case in CASES.values() if case[0] == name]
    assert max(max(rep.occupancy_max.values()) for rep in reports) >= 2
