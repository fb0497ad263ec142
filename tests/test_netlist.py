"""Netlist serialization: canonical JSON round-trips and DOT export."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

from conftest import build_ring, digraph_to_net
from elastika import netlist
from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.ir import Network, validate
from test_ir import small_graphs


def assert_same_net(a, b):
    assert netlist.to_obj(a) == netlist.to_obj(b)


def test_round_trip_ring():
    net = build_ring()
    again = netlist.loads(netlist.dumps(net))
    assert_same_net(net, again)
    assert validate(again) == []


@pytest.mark.parametrize("bench", ["elgcd", "poly", "smul"])
def test_round_trip_benchmarks(bench, request):
    net = request.getfixturevalue(f"{bench}_net")
    assert_same_net(net, netlist.loads(netlist.dumps(net)))


def test_dumps_is_canonical():
    # Insertion order must not leak into the text: rebuild the ring with
    # reversed dict order and compare byte for byte.
    net = build_ring()
    shuffled = build_ring()
    shuffled.components = dict(reversed(list(shuffled.components.items())))
    shuffled.links = dict(reversed(list(shuffled.links.items())))
    assert netlist.dumps(net) == netlist.dumps(shuffled)
    text = netlist.dumps(net)
    assert text.endswith("\n")
    assert netlist.dumps(netlist.loads(text)) == text


def test_steer_table_keys_survive_round_trip():
    net = build_ring()
    again = netlist.loads(netlist.dumps(net))
    assert again.components["s"].params["table"] == {"1": 0, "0": 1}


def test_write_read_files(tmp_path):
    net = build_ring()
    path = tmp_path / "ring.json"
    netlist.write(net, str(path))
    assert_same_net(net, netlist.read(str(path)))
    # write(read(f)) reproduces f byte for byte.
    text = path.read_text()
    netlist.write(netlist.read(str(path)), str(path))
    assert path.read_text() == text


def test_loads_rejects_bad_json():
    with pytest.raises(netlist.NetlistError):
        netlist.loads("{not json")


def test_loads_rejects_non_object():
    with pytest.raises(netlist.NetlistError):
        netlist.loads("[1, 2]")


def test_loads_rejects_missing_fields():
    with pytest.raises(netlist.NetlistError):
        netlist.loads('{"name": "x", "components": [{"id": "c"}], '
                      '"links": [], "ports": []}')


def test_loads_rejects_unknown_kind():
    with pytest.raises(netlist.NetlistError):
        netlist.loads('{"name": "x", "components": '
                      '[{"id": "c", "kind": "gizmo", "params": {}}], '
                      '"links": [], "ports": []}')


def test_loads_rejects_duplicate_ids():
    obj = netlist.to_obj(build_ring())
    obj["links"].append(dict(obj["links"][0]))
    import json
    with pytest.raises(netlist.NetlistError):
        netlist.loads(json.dumps(obj))


def test_loads_rejects_malformed_endpoint():
    with pytest.raises(netlist.NetlistError):
        netlist.loads('{"name": "x", "components": [], "links": '
                      '[{"id": "l", "width": 8, "from": {"comp": "c"}, '
                      '"to": null}], "ports": []}')


def test_to_dot_lists_every_component_and_link():
    net = build_ring()
    dot = netlist.to_dot(net)
    assert dot.startswith('digraph "ring" {')
    assert dot.rstrip().endswith("}")
    for cid in net.components:
        assert f'"{cid}"' in dot
    for lid in net.links:
        assert f"{lid}:" in dot
    # External ports appear as plaintext nodes.
    assert '"port:spill"' in dot
    assert '"port:go"' in dot


def test_to_dot_highlight_marks_links():
    net = build_ring()
    plain = netlist.to_dot(net)
    marked = netlist.to_dot(net, highlight={"lm"})
    assert "color=red" not in plain
    assert "color=red" in marked


@given(small_graphs())
def test_round_trip_arbitrary_nets(graph):
    n, edges = graph
    net = digraph_to_net(n, edges)
    assert_same_net(net, netlist.loads(netlist.dumps(net)))


# ---------------------------------------------------------------------------
# dumps writes the fixed schema itself; json's indenting encoder is the
# oracle for its bytes.

def oracle_dumps(net: Network) -> str:
    return json.dumps(netlist.to_obj(net), indent=2, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("name", benchmark_names())
def test_dumps_matches_json_on_shipped_nets(name):
    net = benchmark(name).compiled()
    assert netlist.dumps(net) == oracle_dumps(net)
    for plan in POLICIES.values():
        for mode in ("async", "sync"):
            buffered = apply(net, plan(net, mode=mode))
            assert netlist.dumps(buffered) == oracle_dumps(buffered)


def test_dumps_matches_json_on_an_empty_net():
    net = Network("ø")
    assert netlist.dumps(net) == oracle_dumps(net)
    assert '"components": [],' in netlist.dumps(net)


_LEAVES = (st.none() | st.booleans() | st.integers() | st.floats()
           | st.text())
# Dict keys below a tuple reach json unconverted, so they may be any JSON
# key type; _canon_params turns every other dict's keys into strings.
_KEYS = st.text() | st.integers() | st.booleans() | st.none() | st.floats()
_PARAMS = st.recursive(
    _LEAVES,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.tuples(inner, inner) | st.tuples()
                   | st.dictionaries(_KEYS, inner, max_size=3)),
    max_leaves=12)


@given(name=st.text(),
       params=st.lists(st.dictionaries(st.text(), _PARAMS, max_size=4),
                       min_size=1, max_size=6))
def test_dumps_matches_json_on_arbitrary_params(name, params):
    net = build_ring()
    net.name = name
    for i, cid in enumerate(sorted(net.components)):
        net.components[cid].params = params[i % len(params)]
    assert netlist.dumps(net) == oracle_dumps(net)


def test_dumps_lays_out_tuples_as_lists():
    net = build_ring()
    net.components["s"].params["shape"] = (8, 8)
    text = netlist.dumps(net)
    assert text == oracle_dumps(net)
    assert '"shape": [\n          8,\n          8\n        ]' in text
