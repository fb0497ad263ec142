"""Golden digests of buffer plans and dependency edges.

Each case pins the sha256 of one plan's TSV, as ``elastika buffer --plan``
writes it (one ``link<TAB>reasons`` line per planned link), so any change
in which links a policy plans, or in the reasons it records, shows up as a
changed digest:

* the three shipped benchmarks and the four ``tests/data`` corpus programs
  x {simple, loop, pac} x {async, sync};
* the ``str(e)`` edge list of ``depgraph.build`` on those seven nets, one
  edge per line.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache
from pathlib import Path

import pytest

from elastika import depgraph as dg
from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.cli import main
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import FlowGraph, Network
from elastika.netlist import dumps

DATA = Path(__file__).parent / "data"

PLANS = {
    "elgcd-simple-async":
        "eae111c658cfb1975a73382cee4f3b2eb7e67ff4b13af4a577330980d8fcba3b",
    "elgcd-simple-sync":
        "eae111c658cfb1975a73382cee4f3b2eb7e67ff4b13af4a577330980d8fcba3b",
    "elgcd-loop-async":
        "6ba768ed163d7b276d679396d4a0f4e3992e40e6b9f99fa3d6b0e6f67fc96e54",
    "elgcd-loop-sync":
        "6ba768ed163d7b276d679396d4a0f4e3992e40e6b9f99fa3d6b0e6f67fc96e54",
    "elgcd-pac-async":
        "748d06c5249a18d7b907dffe50551f9513bfb567b1435ceed854bafd0863b413",
    "elgcd-pac-sync":
        "748d06c5249a18d7b907dffe50551f9513bfb567b1435ceed854bafd0863b413",
    "poly-simple-async":
        "7018f3112ff52a082eecc40f0cf7b4f9c61f17e9683019a675baf50dc53a9006",
    "poly-simple-sync":
        "7018f3112ff52a082eecc40f0cf7b4f9c61f17e9683019a675baf50dc53a9006",
    "poly-loop-async":
        "3e4a0fe33e544934c2af2cbbbddeb6ba503328fb4f666bdea341452fc90be36c",
    "poly-loop-sync":
        "3e4a0fe33e544934c2af2cbbbddeb6ba503328fb4f666bdea341452fc90be36c",
    "poly-pac-async":
        "78473220250ecd8a1ab1bd6345374dc75332c07212812fdf182e5a2d0a4216fc",
    "poly-pac-sync":
        "78473220250ecd8a1ab1bd6345374dc75332c07212812fdf182e5a2d0a4216fc",
    "smul-simple-async":
        "dad6c5293b2d601d18d7e7d93c38eee6a77c255f5d322912905640800ec0fb3a",
    "smul-simple-sync":
        "dad6c5293b2d601d18d7e7d93c38eee6a77c255f5d322912905640800ec0fb3a",
    "smul-loop-async":
        "55cb2babbda57b7c3183b4a587f17955c2c854049c7608b33c53e506ec2f9a18",
    "smul-loop-sync":
        "55cb2babbda57b7c3183b4a587f17955c2c854049c7608b33c53e506ec2f9a18",
    "smul-pac-async":
        "b34b6fd3238e6f0315350d3c714bb16b85cf7cba05cdc8b0a945630b41a27e54",
    "smul-pac-sync":
        "b34b6fd3238e6f0315350d3c714bb16b85cf7cba05cdc8b0a945630b41a27e54",
    "wide0-simple-async":
        "14a81983860a94eb7dce81ca7c1dffcbd83e3ff023b6ecb2d983b396c667106b",
    "wide0-simple-sync":
        "14a81983860a94eb7dce81ca7c1dffcbd83e3ff023b6ecb2d983b396c667106b",
    "wide0-loop-async":
        "9f84f820450aef3784447deaf9a191e8480b7b68137b52fbd92e8a4cdb972d6a",
    "wide0-loop-sync":
        "9f84f820450aef3784447deaf9a191e8480b7b68137b52fbd92e8a4cdb972d6a",
    "wide0-pac-async":
        "736bbda29ef342179375bf384a467b27901a184e9334d3f57b5817d981fc0e2a",
    "wide0-pac-sync":
        "736bbda29ef342179375bf384a467b27901a184e9334d3f57b5817d981fc0e2a",
    "wide1-simple-async":
        "dbf3fa913cc2245276a4d44b9d605e546b78b18d16f8011669a71118e4d7db92",
    "wide1-simple-sync":
        "dbf3fa913cc2245276a4d44b9d605e546b78b18d16f8011669a71118e4d7db92",
    "wide1-loop-async":
        "baaa6bd21a4522d5e714a489e3c87b963f0bf0aac09be9b02335b4bd6db7bf87",
    "wide1-loop-sync":
        "baaa6bd21a4522d5e714a489e3c87b963f0bf0aac09be9b02335b4bd6db7bf87",
    "wide1-pac-async":
        "941f5a2a1c6c0c624dd0a3a95c7b342bdf9500b274bb739b8422a29cd302be8d",
    "wide1-pac-sync":
        "941f5a2a1c6c0c624dd0a3a95c7b342bdf9500b274bb739b8422a29cd302be8d",
    "wide2-simple-async":
        "44ed937647825ccbaa0e8cf7d590301177e7e0bfab01c7c7c16e9bbdb54f960c",
    "wide2-simple-sync":
        "44ed937647825ccbaa0e8cf7d590301177e7e0bfab01c7c7c16e9bbdb54f960c",
    "wide2-loop-async":
        "86a9ee9bfec3126cb151262051c0ac28c61e5ef857297406f2f2d54eeb4b03d7",
    "wide2-loop-sync":
        "86a9ee9bfec3126cb151262051c0ac28c61e5ef857297406f2f2d54eeb4b03d7",
    "wide2-pac-async":
        "ed272a10535fd934f0ddc7fe5057c62151a85886ba7a4ed6bcac430da568e750",
    "wide2-pac-sync":
        "ed272a10535fd934f0ddc7fe5057c62151a85886ba7a4ed6bcac430da568e750",
    "wide3-simple-async":
        "f0e4a6032219e36ba9ad5e92a08389a669d094a0faa4873346133b01fbef343b",
    "wide3-simple-sync":
        "f0e4a6032219e36ba9ad5e92a08389a669d094a0faa4873346133b01fbef343b",
    "wide3-loop-async":
        "3616e6f20e8d86cd09765a30bc2739dda05598fedc2263548402b9b77de2ea84",
    "wide3-loop-sync":
        "3616e6f20e8d86cd09765a30bc2739dda05598fedc2263548402b9b77de2ea84",
    "wide3-pac-async":
        "2e2f8aec8df9e597e169dc350fd443bf9f7d935f0da349d0d2e6bcf9fcb0141e",
    "wide3-pac-sync":
        "2e2f8aec8df9e597e169dc350fd443bf9f7d935f0da349d0d2e6bcf9fcb0141e",
}

EDGES = {
    "elgcd":
        "d0bf685a0f21e2eba700373ef342128a137cd9df84e276c95facba74eaa2d4ee",
    "poly":
        "7d107b56aababce410cf00fb73eecd8c75e52757f3452ef41293fc660777ff3d",
    "smul":
        "6b13fa22ac37838db7be44e7260c6fbf0b052cb002400eb64a1a4f3dfc542874",
    "wide0":
        "42107487754caee912cf5f54444093c5b718db71429cd75ce474042269360fc4",
    "wide1":
        "7b04ea9c7503f0f7678e514d21b57e54967836850dcc281460a3541add6e8f25",
    "wide2":
        "5d00a8b4df27e756ce43a008b8acad947a5b2c793a3b57afa7b5f1128acd81ad",
    "wide3":
        "b89d8fbe425b9afabd45d203d82d460e954def56a02c6e8f5fc0e556b5c66f87",
}


@lru_cache(maxsize=None)
def compiled(name: str) -> Network:
    """A shipped benchmark or a corpus program; callers must not change it."""
    if name in benchmark_names():
        return benchmark(name).compiled()
    return compile_module(parse((DATA / f"{name}.csp").read_text()))


def plan_tsv(plan) -> str:
    records = [f"{lid}\t{'; '.join(plan.provenance[lid])}"
               for lid in plan.links]
    return "\n".join(records) + ("\n" if records else "")


def sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(PLANS))
def test_plan_tsv_bytes(case):
    name, policy, mode = case.split("-")
    assert sha(plan_tsv(POLICIES[policy](compiled(name), mode=mode))) \
        == PLANS[case]


@pytest.mark.parametrize("name", sorted(EDGES))
def test_dependency_edge_bytes(name):
    edges = dg.build(FlowGraph(compiled(name))).edges
    assert sha("".join(f"{e}\n" for e in edges)) == EDGES[name]


def test_plan_tsv_is_what_the_cli_writes(tmp_path):
    src = tmp_path / "net.json"
    src.write_text(dumps(compiled("wide0")))
    planfile = tmp_path / "plan.tsv"
    assert main(["buffer", str(src), "--policy", "pac",
                 "-o", str(tmp_path / "buf.json"),
                 "--plan", str(planfile)]) == 0
    assert sha(planfile.read_text()) == PLANS["wide0-pac-async"]
