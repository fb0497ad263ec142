"""The simulator lowers only fully wired nets, and agrees with ``validate``.

``ir.wiring`` accepts a net only when every port's dir is in or out,
every link has a producer and a consumer (a component port or an
environment port), every component input and output slot is bound by
exactly one link, and every component has at least one input and one
output.  ``Lowered.wiring`` raises each refusal as a ``SimError`` naming
the port, the link, or the key and port, and ``validate`` reports it
with the same text.  The nets here are the shipped benchmarks,
unbuffered and buffered under each policy, and mutants of each that
break one part of the rule: ``validate`` must refuse every net the
engine refuses, with the engine's message, and the engine must lower
every net ``validate`` accepts.
"""
from __future__ import annotations

import functools
import re

import pytest

from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.ir import (Component, Kind, Link, Network, Port, port_counts,
                         validate)
from elastika.sim import Lowered, SimConfig, SimError, run

PLANS = ("unbuffered", *sorted(POLICIES))


@functools.lru_cache(maxsize=None)
def planned(name: str, plan: str) -> Network:
    """A shipped net, compiled and planned; callers copy it."""
    net = benchmark(name).compiled()
    return net if plan == "unbuffered" else apply(net, POLICIES[plan](net))


def spread(items: list, n: int = 3) -> list:
    """``n`` items spread over ``items``: the first, the last and between."""
    return sorted({items[i * (len(items) - 1) // (n - 1)] for i in range(n)})


def mutants(net: Network) -> dict[str, Network]:
    """Copies of ``net``, each breaking one part of the fully-wired rule."""
    out: dict[str, Network] = {}

    def mutant(label: str, edit) -> None:
        m = out[label] = net.copy()
        edit(m)
    for lid in spread(sorted(net.links)):
        mutant(f"delete {lid}", lambda m: m.links.pop(lid))
    inner = [lid for lid, ln in sorted(net.links.items())
             if ln.src is not None and ln.dst is not None]
    for lid in spread(inner):
        ln = net.links[lid]
        w, src, dst = ln.width, ln.src, ln.dst
        # A second link into the same input, with no producer.
        mutant(f"unproduced into {lid}", lambda m: m.links.update(
            extra=Link("extra", w, None, dst)))
        # The same ends twice: both ports bound by two links.
        mutant(f"twice {lid}", lambda m: m.links.update(
            extra=Link("extra", w, src, dst)))
        n_in = port_counts(net.components[dst[0]])[0]
        n_out = port_counts(net.components[src[0]])[1]
        mutant(f"{lid} into a missing port", lambda m: m.links.update(
            {lid: Link(lid, w, src, (dst[0], n_in))}))
        mutant(f"{lid} out of a missing port", lambda m: m.links.update(
            {lid: Link(lid, w, (src[0], n_out), dst)}))
    mutant("a floating link", lambda m: m.links.update(
        extra=Link("extra", 1, None, None)))
    for name in sorted(net.ports):
        mutant(f"drop port {name}", lambda m: m.ports.pop(name))
    joins = sorted(c.id for c in net.components.values()
                   if c.kind is Kind.JOIN)
    if joins:
        mutant(f"{joins[0]} with no inputs",
               lambda m: m.components[joins[0]].params.update(inputs=[]))
    return out


def refusal(net: Network) -> str | None:
    """The text of the ``SimError`` ``Lowered.wiring`` refuses ``net``
    with, or None when it lowers."""
    try:
        Lowered(net).wiring
    except SimError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("plan", PLANS)
@pytest.mark.parametrize("name", benchmark_names())
def test_wiring_and_validate_agree_on_shipped_nets(name, plan):
    net = planned(name, plan)
    assert validate(net) == [] and refusal(net) is None
    cases = mutants(net)
    assert len(cases) >= 10
    for label, m in cases.items():
        diags, refused = validate(m), refusal(m)
        # Each mutant breaks the rule, so the engine refuses it, and
        # validate reports the engine's message.
        assert refused is not None, label
        assert refused in [d.message for d in diags], label


def chain() -> Network:
    """$in.a -> op -> $out.z, fully wired."""
    return Network(
        "chain",
        {"op": Component("op", Kind.OPERATOR,
                         {"fn": "id", "inputs": [8], "out": 8})},
        {"la": Link("la", 8, None, ("op", 0)),
         "lz": Link("lz", 8, ("op", 0), None)},
        {"a": Port("a", "in", 8, "la"), "z": Port("z", "out", 8, "lz")})


def unproduced(net):
    net.ports.pop("a")


def unconsumed(net):
    net.ports.pop("z")


def input_unbound(net):
    net.links.pop("la")
    net.ports.pop("a")


def output_unbound(net):
    net.links.pop("lz")
    net.ports.pop("z")


def port_on_a_driven_link(net):
    net.ports["b"] = Port("b", "in", 8, "lz")


def port_on_a_missing_link(net):
    net.ports["y"] = Port("y", "out", 8, "lq")


def join_of_no_inputs(net):
    net.components["j"] = Component("j", Kind.JOIN, {"inputs": []})
    net.links["lj"] = Link("lj", 0, ("j", 0), None)
    net.ports["y"] = Port("y", "out", 0, "lj")


def port_of_no_direction(net):
    net.ports["z"].dir = "sideways"


def fork_of_no_outputs(net):
    net.components["f"] = Component("f", Kind.FORK,
                                    {"input": 8, "outputs": []})
    net.links["lf"] = Link("lf", 8, None, ("f", 0))
    net.ports["b"] = Port("b", "in", 8, "lf")


# Each edit of the chain and the whole message the engine refuses it with.
REFUSALS = {
    unproduced: "link la has no producer",
    unconsumed: "link lz has no consumer",
    input_unbound: "op input 0 is bound by no link",
    output_unbound: "op output 0 is bound by no link",
    port_on_a_driven_link: "$in.b output 0 is bound by no link",
    port_on_a_missing_link: "$out.y input 0 is bound by no link",
    join_of_no_inputs: "j has 0 input and 1 output ports, but needs at "
                       "least one of each",
    fork_of_no_outputs: "f has 1 input and 0 output ports, but needs at "
                        "least one of each",
    port_of_no_direction: "port z dir 'sideways' not in/out",
}


@pytest.mark.parametrize("edit", REFUSALS, ids=lambda edit: edit.__name__)
@pytest.mark.parametrize("mode", ["async", "sync"])
def test_a_net_not_fully_wired_is_refused(edit, mode):
    net = chain()
    assert validate(net) == []
    edit(net)
    assert REFUSALS[edit] in [d.message for d in validate(net)]
    with pytest.raises(SimError, match=f"^{re.escape(REFUSALS[edit])}$"):
        run(net, SimConfig(mode=mode, clock=2000 if mode == "sync" else 0))
