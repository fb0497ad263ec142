"""Analytic area, power and throughput models."""
from __future__ import annotations

import statistics

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from conftest import (build_loop_net, build_ring, digraph_to_net,
                      loop_arrival_gaps, ring_delays)
from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply, policy_pac
from elastika.ir import FlowGraph, Kind
from elastika.metrics import (CycleRate, PowerParams, TooManyCycles,
                              _cycle_count, analytic_throughput, area,
                              initial_marking, power, power_from_config)
from elastika.sim import DelayTable, SimConfig, run


# ---------------------------------------------------------------------------
# Area

def test_ring_area_oracle(ring_net):
    # 7 logic components (the buffer is storage, not logic) and one
    # 8-bit capacity-2 buffer: 16 storage bits.
    rep = area(ring_net)
    assert (rep.comp_count, rep.mem_units, rep.cell_area) == (7, 16, 23)


def test_variables_count_one_capacity(elgcd_net):
    rep = area(elgcd_net)
    vars_bits = sum(int(c.params["width"])
                    for c in elgcd_net.components.values()
                    if c.kind.value == "variable")
    assert rep.mem_units == vars_bits
    assert rep.cell_area == rep.comp_count + rep.mem_units


# ---------------------------------------------------------------------------
# Power

def test_power_params_validation():
    PowerParams(activity=0.5)
    PowerParams(activity=1.0)
    with pytest.raises(ValueError):
        PowerParams(activity=0.4)
    with pytest.raises(ValueError):
        PowerParams(activity=1.1)
    with pytest.raises(ValueError):
        PowerParams(frequency=0)
    with pytest.raises(ValueError):
        PowerParams(supply=-1)
    with pytest.raises(ValueError):
        PowerParams(capacitance=0)
    with pytest.raises(ValueError):
        PowerParams(leak_per_area=0)


@pytest.mark.parametrize("value", [float("inf"), float("nan")])
@pytest.mark.parametrize("knob", ["frequency", "capacitance", "supply",
                                  "leak_per_area"])
def test_power_params_reject_non_finite(knob, value):
    with pytest.raises(ValueError, match=f"{knob} must be finite"):
        PowerParams(**{knob: value})
    with pytest.raises(ValueError, match=f"{knob} must be positive"):
        PowerParams(**{knob: -float("inf")})


def test_dynamic_power_formula_exact(ring_net):
    params = PowerParams(activity=0.5, frequency=2.0, capacitance=1.0,
                         supply=2.0, leak_per_area=1.0)
    rep = power(ring_net, params)
    assert rep.dynamic_power == 0.5 * 2.0 * 1.0 * 4.0 * 23
    assert rep.leakage_power == 1.0 * 23 * 2.0


def test_dynamic_power_linear_in_frequency(ring_net):
    slopes = []
    for freq in (1, 2, 4):
        rep = power(ring_net, PowerParams(frequency=float(freq)))
        slopes.append(rep.dynamic_power / freq)
    assert slopes[0] == slopes[1] == slopes[2]
    # Slope is activity * capacitance * supply^2 * area exactly.
    assert slopes[0] == 0.5 * 1.0 * 1.0 * 23


def test_leakage_ignores_frequency(ring_net):
    a = power(ring_net, PowerParams(frequency=1.0)).leakage_power
    b = power(ring_net, PowerParams(frequency=1e12)).leakage_power
    assert a == b


def test_occupancy_weighted_dynamic_power(ring_net):
    rep = run(ring_net, SimConfig(
        mode="async", delays=ring_delays(), stimulus={"go": []},
        max_time=60_000))
    params = PowerParams()
    full = power(ring_net, params).dynamic_power
    weighted = power(ring_net, params, activity=rep).dynamic_power
    # Idle buffer slots switch nothing, so the measured weight sits
    # between logic-only and everything-switching.
    floor = power(ring_net, params, activity=7.0).dynamic_power
    assert floor < weighted < full


def test_explicit_numeric_weight(ring_net):
    rep = power(ring_net, PowerParams(), activity=10.0)
    assert rep.dynamic_power == 0.5 * 1e9 * 10.0


def test_power_from_config_overrides():
    params = power_from_config({"power.supply": 2, "power.frequency": 5,
                                "unrelated": "x"})
    assert params.supply == 2.0
    assert params.frequency == 5.0
    assert params.activity == 0.5


# ---------------------------------------------------------------------------
# Throughput bound

def test_initial_marking_ring(ring_net):
    assert initial_marking(ring_net) == {"li": 1}


def test_ring_async_bound_is_exact(ring_net):
    cr = analytic_throughput(ring_net, ring_delays(), marking={"lb": 1})
    assert cr == CycleRate(theta=1 / 4400, tokens=1, gamma=1, delta=4400,
                           links=cr.links)
    # The binding loop is the slow branch through the 4000 ps body.
    assert "l3" in cr.links and "lb" in cr.links


def test_ring_sync_bound(ring_net):
    cr = analytic_throughput(ring_net, ring_delays(), marking={"lb": 1},
                             mode="sync", clock=2000)
    assert cr.theta == 1 / 2000
    assert cr.gamma == 1
    assert cr.delta == 2000


def test_default_marking_off_cycle_gives_none(ring_net):
    # The seed token rests on the initial's output link, which feeds the
    # loop but is not on it; tokenless cycles never bind.
    assert analytic_throughput(ring_net, ring_delays()) is None


def test_cycle_budget_is_enforced(ring_net):
    with pytest.raises(TooManyCycles):
        analytic_throughput(ring_net, ring_delays(), marking={"lb": 1},
                            cycle_limit=1)


def test_mode_validation(ring_net):
    with pytest.raises(ValueError):
        analytic_throughput(ring_net, ring_delays(), mode="turbo")
    with pytest.raises(ValueError):
        analytic_throughput(ring_net, ring_delays(), mode="sync", clock=0)


def test_single_loop_bound_matches_simulation_exactly():
    dl = DelayTable(operator={"default": 1000, "id": 100, "body": 4000,
                              "flag": 100, "const": 100})
    for classes in (["id", "id"], ["default"], ["body", "id", "flag"]):
        net = build_loop_net(classes)
        rep = run(net, SimConfig(mode="async", delays=dl,
                                 max_time=50_000,
                                 record_occupancy=True))
        gaps = loop_arrival_gaps(rep)
        cr = analytic_throughput(net, dl)
        assert len(set(gaps)) == 1
        assert cr.theta == 1 / gaps[0]


@given(st.lists(st.sampled_from(["id", "body", "flag", "default"]),
                min_size=1, max_size=6))
def test_single_loop_bound_property(classes):
    dl = DelayTable(operator={"default": 1000, "id": 100, "body": 4000,
                              "flag": 100, "const": 100})
    net = build_loop_net(classes)
    cr = analytic_throughput(net, dl)
    lap = round(1 / cr.theta)
    rep = run(net, SimConfig(mode="async", delays=dl,
                             max_time=lap * 6, record_occupancy=True))
    gaps = loop_arrival_gaps(rep)
    assert gaps and set(gaps) == {lap}


def test_compiled_gcd_bound_is_a_sound_lower_bound():
    # On a multi-loop compiled net the environment refills the pipeline
    # while the loop drains, so measured steady throughput can beat the
    # closed-loop bound; the bound must stay below (or within rounding
    # of) the measurement, and reasonably tight.
    net = benchmark("elgcd").compiled()
    buf = apply(net, policy_pac(net, mode="async"))
    rep = run(buf, SimConfig(mode="async",
                             stimulus={"a": [5] * 24, "b": [5] * 24}))
    times = [t for _, t in rep.results["g"]]
    gaps = [b - a for a, b in zip(times, times[1:])]
    measured = 1 / statistics.median(gaps)
    cr = analytic_throughput(buf, SimConfig().delays)
    ratio = cr.theta / measured
    assert 0.5 <= ratio <= 1.05


# ---------------------------------------------------------------------------
# Throughput bound against a networkx oracle: every simple cycle of the
# flow graph from nx.simple_cycles, each summed on its own.

def oracle_throughput(net, delays, marking=None, mode="async", clock=0,
                      cycle_limit=10_000):
    if marking is None:
        marking = initial_marking(net)
    graph = nx.DiGraph()
    graph.add_nodes_from(net.links)
    for lid, nxts in FlowGraph(net).flow.items():
        for nxt in nxts:
            graph.add_edge(lid, nxt)
    best = None
    seen = 0
    for cycle in nx.simple_cycles(graph):
        seen += 1
        if seen > cycle_limit:
            raise TooManyCycles(cycle_limit)
        tokens = sum(marking.get(lid, 0) for lid in cycle)
        if tokens == 0:
            continue
        if mode == "async":
            gamma = 1
            delta = 0
            for lid in cycle:
                dst = net.links[lid].dst
                if dst is not None:
                    delta += delays.component_delay(net.components[dst[0]])
        else:
            gamma = sum(1 for lid in cycle
                        if net.links[lid].dst is not None
                        and net.components[net.links[lid].dst[0]].kind
                        is Kind.BUFFER)
            delta = clock
        if gamma * delta == 0:
            continue
        theta = tokens / (gamma * delta)
        key = tuple(sorted(cycle))
        if (best is None or theta < best.theta
                or (theta == best.theta and key < tuple(sorted(best.links)))):
            first = cycle.index(key[0])
            best = CycleRate(theta=theta, tokens=tokens, gamma=gamma,
                             delta=delta,
                             links=tuple(cycle[first:] + cycle[:first]))
    return best


def bound_or_refusal(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except TooManyCycles as exc:
        return ("refused", str(exc), exc.limit)


def assert_matches_oracle(net, delays, **kwargs):
    got = bound_or_refusal(analytic_throughput, net, delays, **kwargs)
    want = bound_or_refusal(oracle_throughput, net, delays, **kwargs)
    assert got == want


def multi_token_marking(net):
    """The default marking plus one or two tokens on every seventh link."""
    marking = initial_marking(net)
    for i, lid in enumerate(sorted(net.links)):
        if i % 7 == 3:
            marking[lid] = marking.get(lid, 0) + 1 + i % 2
    return marking


@pytest.fixture(scope="module")
def shipped_buffered():
    """(name, buffered net) for the 3 shipped nets x 3 policies x 2 modes."""
    out = []
    for name in benchmark_names():
        net = benchmark(name).compiled()
        for policy, plan in POLICIES.items():
            for mode in ("async", "sync"):
                out.append((f"{name}/{policy}/{mode}",
                            apply(net, plan(net, mode=mode))))
    return out


@pytest.mark.parametrize("marked", ["default", "multi"])
@pytest.mark.parametrize("mode", ["async", "sync"])
def test_shipped_bounds_match_oracle(shipped_buffered, mode, marked):
    delays = SimConfig().delays
    for _, net in shipped_buffered:
        marking = multi_token_marking(net) if marked == "multi" else None
        assert_matches_oracle(net, delays, marking=marking, mode=mode,
                              clock=2000)


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_hand_built_bounds_match_oracle(mode):
    ring = build_ring()
    for marking in (None, {"lb": 1}, {"lb": 1, "l3": 2}):
        assert_matches_oracle(ring, ring_delays(), marking=marking,
                              mode=mode, clock=2000)
    loop = build_loop_net(["body", "id", "flag"])
    dl = DelayTable(operator={"default": 1000, "id": 100, "body": 4000,
                              "flag": 100, "const": 100})
    assert_matches_oracle(loop, dl, mode=mode, clock=1500)


@given(net_index=st.integers(0, 17),
       seeds=st.lists(st.tuples(st.integers(0, 10_000), st.integers(1, 3)),
                      max_size=6),
       delay_classes=st.dictionaries(
           st.sampled_from(["default", "const", "id", "add", "mul"]),
           st.integers(0, 5000)),
       mode=st.sampled_from(["async", "sync"]))
def test_random_markings_and_delays_match_oracle(shipped_buffered, net_index,
                                                 seeds, delay_classes, mode):
    _, net = shipped_buffered[net_index]
    ids = sorted(net.links)
    marking = {ids[k % len(ids)]: n for k, n in seeds}
    delays = DelayTable(operator={"default": 1000, **delay_classes})
    assert_matches_oracle(net, delays, marking=marking, mode=mode,
                          clock=1000)


# Every stage costs 100 ps, so equal-rate cycles are common and the
# smallest-sorted-ids tie-break decides which cycle is reported.
FLAT_DELAYS = DelayTable(operator={"default": 100})


def test_tie_goes_to_the_smallest_sorted_ids_not_the_first_found():
    # Two 400 ps cycles through e0: e0 -> l1.fork -> e2 -> e4 is found
    # first, but e0 -> l1.fork -> e3 -> e1 has the smaller sorted ids.
    net = digraph_to_net(4, [(0, 1), (3, 0), (1, 2), (1, 3), (2, 0)])
    cr = analytic_throughput(net, FLAT_DELAYS, marking={"e0": 1})
    assert cr.links == ("e0", "l1.fork", "e3", "e1")
    assert_matches_oracle(net, FLAT_DELAYS, marking={"e0": 1})


@given(graph=st.integers(1, 6).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    unique=True, max_size=14))),
       seeds=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 2)),
                      min_size=1, max_size=3))
def test_random_digraphs_match_oracle(graph, seeds):
    net = digraph_to_net(*graph)
    ids = sorted(net.links)
    marking = {ids[k % len(ids)]: n for k, n in seeds}
    assert_matches_oracle(net, FLAT_DELAYS, marking=marking)


def test_refusal_boundary_is_the_simple_cycle_count():
    net = benchmark("poly").compiled()
    net = apply(net, policy_pac(net, mode="async"))
    graph = nx.DiGraph(FlowGraph(net).flow)
    n = sum(1 for _ in nx.simple_cycles(graph))
    assert n > 1
    delays = SimConfig().delays
    assert analytic_throughput(net, delays, cycle_limit=n) is not None
    with pytest.raises(TooManyCycles, match=f"exceeded {n - 1} cycles"):
        analytic_throughput(net, delays, cycle_limit=n - 1)


# ---------------------------------------------------------------------------
# Nets whose edges run through long one-in/one-out chains, with shuffled
# link ids: the bound matches the oracle on every cycle, every sum,
# the tie-break and the refusal count.

def subdivided(n_nodes, edges, hops):
    """The digraph with edge k run through hops[k] extra one-in/one-out
    nodes."""
    out = []
    for (u, v), k in zip(edges, hops):
        path = [u, *range(n_nodes, n_nodes + k), v]
        n_nodes += k
        out += zip(path, path[1:])
    return n_nodes, out


@given(graph=st.integers(1, 5).flatmap(lambda n: st.tuples(
           st.just(n),
           st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                    unique=True, max_size=10))),
       hops=st.lists(st.integers(0, 3), min_size=10, max_size=10),
       seeds=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 2)),
                      min_size=1, max_size=3),
       rnd=st.randoms(use_true_random=False))
def test_chain_heavy_digraphs_match_oracle(graph, hops, seeds, rnd):
    n_nodes, edges = subdivided(*graph, hops)
    # Shuffled link ids: a chain's first link is seldom its smallest.
    rnd.shuffle(edges)
    net = digraph_to_net(n_nodes, edges)
    ids = sorted(net.links)
    marking = {ids[k % len(ids)]: n for k, n in seeds}
    cycles = sum(1 for _ in nx.simple_cycles(
        nx.DiGraph(FlowGraph(net).flow)))
    for limit in {cycles, max(cycles - 1, 0), 10_000}:
        assert_matches_oracle(net, FLAT_DELAYS, marking=marking,
                              cycle_limit=limit)
    if cycles:
        with pytest.raises(TooManyCycles,
                           match=f"exceeded {cycles - 1} cycles"):
            analytic_throughput(net, FLAT_DELAYS, marking=marking,
                                cycle_limit=cycles - 1)


# ---------------------------------------------------------------------------
# The refusal is decided by counting cycles on the series-parallel skeleton.

def link_graph(net):
    """Successor lists of the flow graph, links numbered in sorted order."""
    ids = sorted(net.links)
    index = {lid: i for i, lid in enumerate(ids)}
    succ = FlowGraph(net).flow
    return [sorted({index[w] for w in succ[lid]}) for lid in ids]


SERIES_PARALLEL_RINGS = {
    # 0 -> {1, 2} -> 3 -> {4, 5, 6} -> 0: 2 * 3 cycles.
    "diamonds": (6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6),
                     (4, 0), (5, 0), (6, 0)]),
    # 0 -> {1, 2} -> 3 -> 0 beside 0 -> 4 -> 0: merging 1 and 2 leaves 3
    # one predecessor while 0 keeps two successors; 2 + 1 cycles.
    "nested": (3, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 0), (0, 4), (4, 0)]),
}


@pytest.mark.parametrize("shift", range(5))
@pytest.mark.parametrize("ring", sorted(SERIES_PARALLEL_RINGS))
def test_cycle_count_multiplies_in_series_and_adds_in_parallel(ring, shift):
    # Each ring's skeleton is one node with a self-loop whatever the
    # numbering, so the count is whole after its first cycle, even past a
    # limit of 0.
    cycles, edges = SERIES_PARALLEL_RINGS[ring]
    n = 1 + max(max(e) for e in edges)
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[(u + shift) % n].append((v + shift) % n)
    assert _cycle_count(adj, 100) == cycles
    assert _cycle_count(adj, 0) == cycles


def test_cycle_count_of_no_cycle_and_one_self_loop():
    assert _cycle_count([[]], 0) == 0
    assert _cycle_count([[1], []], -5) == 0
    assert _cycle_count([[0]], -5) == 1


@st.composite
def parallel_chain_graphs(draw):
    """A small digraph with self-loops and 2-cycles, each edge repeated as
    1-3 parallel edges and each of those run through 0-2 extra nodes, the
    edges in shuffled order."""
    n = draw(st.integers(1, 4))
    node = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=5))
    edges += [(v, v) for v in draw(st.lists(node, max_size=2))]
    edges += [(v, u) for u, v in edges[:draw(st.integers(0, 2))]]
    repeated = [e for e in edges for _ in range(draw(st.integers(1, 3)))]
    hops = draw(st.lists(st.integers(0, 2), min_size=len(repeated),
                         max_size=len(repeated)))
    n_nodes, out = subdivided(n, repeated, hops)
    draw(st.randoms(use_true_random=False)).shuffle(out)
    return n_nodes, out


@given(graph=parallel_chain_graphs(),
       seeds=st.lists(st.tuples(st.integers(0, 100), st.integers(1, 2)),
                      min_size=1, max_size=3))
def test_cycle_count_matches_networkx(graph, seeds):
    net = digraph_to_net(*graph)
    cycles = sum(1 for _ in nx.simple_cycles(
        nx.DiGraph(FlowGraph(net).flow)))
    assert _cycle_count(link_graph(net), cycles) == cycles
    ids = sorted(net.links)
    marking = {ids[k % len(ids)]: n for k, n in seeds}
    for limit in (cycles, cycles - 1):
        assert_matches_oracle(net, FLAT_DELAYS, marking=marking,
                              cycle_limit=limit)
    if cycles:
        with pytest.raises(TooManyCycles,
                           match=f"exceeded {cycles - 1} cycles"):
            analytic_throughput(net, FLAT_DELAYS, marking=marking,
                                cycle_limit=cycles - 1)


@pytest.mark.parametrize("name, cycles",
                         [("elgcd", 104), ("poly", 636), ("smul", 648)])
def test_shipped_pac_nets_cycle_counts(name, cycles):
    net = benchmark(name).compiled()
    net = apply(net, policy_pac(net, mode="async"))
    assert _cycle_count(link_graph(net), 10_000) == cycles
    delays = SimConfig().delays
    assert analytic_throughput(net, delays, cycle_limit=cycles) is not None
    with pytest.raises(TooManyCycles, match=f"exceeded {cycles - 1} cycles"):
        analytic_throughput(net, delays, cycle_limit=cycles - 1)
