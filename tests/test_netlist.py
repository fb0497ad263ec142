"""Netlist serialization: canonical JSON round-trips and DOT export."""
from __future__ import annotations

import functools
import json
import re
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import build_ring, digraph_to_net
from elastika import depgraph, netlist
from elastika.bench import POLICIES, benchmark, benchmark_names
from elastika.buffering import apply
from elastika.frontend import compile as compile_module
from elastika.frontend import parse
from elastika.ir import Network, validate
from test_ir import small_graphs

DATA = Path(__file__).parent / "data"
# The four generated programs of the ``wide`` benchmark corpus.
WIDE = sorted(path.stem for path in DATA.glob("wide*.csp"))


@functools.lru_cache(maxsize=None)
def compiled(name: str) -> Network:
    """A shipped benchmark or a corpus program, compiled; callers copy it
    before changing it."""
    if name in WIDE:
        return compile_module(parse((DATA / f"{name}.csp").read_text()))
    return benchmark(name).compiled()


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
    path.write_text(netlist.dumps(net))
    assert_same_net(net, netlist.loads(path.read_text()))
    # A file written from what was read from it keeps every byte.
    text = path.read_text()
    path.write_text(netlist.dumps(netlist.loads(path.read_text())))
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
    with pytest.raises(netlist.NetlistError):
        netlist.loads(json.dumps(obj))


def test_loads_rejects_malformed_endpoint():
    with pytest.raises(netlist.NetlistError):
        netlist.loads('{"name": "x", "components": [], "links": '
                      '[{"id": "l", "width": 8, "from": {"comp": "c"}, '
                      '"to": null}], "ports": []}')


@pytest.mark.parametrize("where", ["width", "port"])
@pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
def test_loads_rejects_a_non_finite_number(where, value):
    # An infinite width escaped the reader as OverflowError.
    obj = netlist.to_obj(build_ring())
    link = next(ln for ln in obj["links"] if ln["from"] is not None)
    if where == "width":
        link["width"] = value
    else:
        link["from"]["port"] = value
    field = "width" if where == "width" else "from port"
    with pytest.raises(netlist.NetlistError,
                       match=f"^link {link['id']} {field} "
                             f"{re.escape(json.dumps(value))} is not an "
                             f"integer$"):
        netlist.loads(json.dumps(obj))


def link_width(obj, value) -> str:
    """Sets a link width to ``value``; returns the field as the refusal
    names it.  So do the three below."""
    ln = obj["links"][0]
    ln["width"] = value
    return f"link {ln['id']} width"


def from_port(obj, value) -> str:
    ln = next(ln for ln in obj["links"] if ln["from"])
    ln["from"]["port"] = value
    return f"link {ln['id']} from port"


def to_port(obj, value) -> str:
    ln = next(ln for ln in obj["links"] if ln["to"])
    ln["to"]["port"] = value
    return f"link {ln['id']} to port"


def port_width(obj, value) -> str:
    port = obj["ports"][0]
    port["width"] = value
    return f"port {port['name']} width"


@pytest.mark.parametrize("value", [8.5, 0.7, 32.25, 8.0, "8", True, False,
                                   None, [8]], ids=repr)
@pytest.mark.parametrize("edit", [link_width, from_port, to_port, port_width],
                         ids=lambda edit: edit.__name__)
def test_loads_refuses_a_number_that_is_not_an_integer(edit, value):
    # Each of these was truncated by int() (8.5 to 8, "8" to 8, true to 1),
    # so the net that validate checked and dumps wrote back was another.
    obj = json.loads(netlist.dumps(compiled("elgcd")))
    field = edit(obj, value)
    with pytest.raises(netlist.NetlistError,
                       match=f"^{re.escape(field)} "
                             f"{re.escape(json.dumps(value))} is not an "
                             f"integer$"):
        netlist.loads(json.dumps(obj))


def undecodable(text: str) -> dict[str, str]:
    """Variants of a netlist ``text`` that are valid JSON but that
    ``json.loads`` or the reader cannot take in: a width of 5,000 digits
    (past Python's limit on digits in an int string), arrays nested 100,000
    deep, and params nested 3,000 and 400 deep (past ``MAX_DEPTH``)."""
    def nested(n: int) -> str:
        return text.replace('"params": {',
                            '"params": {"deep": ' + "[" * n + "]" * n + ", ", 1)
    return {
        "long integer": re.sub(r'"width": \d+', '"width": ' + "9" * 5000,
                               text, count=1),
        "deep arrays": "[" * 100_000 + "]" * 100_000,
        "deep params": nested(3000),
        "params 400 deep": nested(400),
    }


@pytest.mark.parametrize("how", sorted(undecodable("")))
def test_loads_rejects_what_json_cannot_decode(how):
    # The first two escaped the reader as ValueError and RecursionError.
    with pytest.raises(netlist.NetlistError):
        netlist.loads(undecodable(netlist.dumps(build_ring()))[how])


def test_loads_stops_params_at_max_depth():
    # MAX_DEPTH levels, the params dict being the first, round-trip.
    net = build_ring()
    comp = net.components[min(net.components)]
    deep = 0
    for _ in range(netlist.MAX_DEPTH - 1):
        deep = [deep]
    comp.params["deep"] = deep
    text = netlist.dumps(net)
    assert netlist.dumps(netlist.loads(text)) == text
    comp.params["deep"] = {"k": deep}
    with pytest.raises(netlist.NetlistError,
                       match="^params nested more than 100 levels deep$"):
        netlist.loads(netlist.dumps(net))


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


# A double-quoted DOT string: any character but a quote or a backslash,
# or a backslash and the character it escapes.
DOT_STRING = re.compile(r'"((?:[^"\\]|\\.)*)"')


def dot_strings(dot: str) -> list[str]:
    """The quoted strings of ``dot``, unescaped; fails on a line whose
    quotes do not pair up."""
    out = []
    for line in dot.splitlines():
        assert '"' not in DOT_STRING.sub("", line), line
        out += [re.sub(r"\\(.)", r"\1", m) for m in DOT_STRING.findall(line)]
    return out


def test_dot_writers_escape_quotes_and_backslashes():
    # validate accepts these ids, and both writers put them between
    # quotes unescaped: `"a"b"` and a trailing backslash broke the text.
    odd = {"b": 'a"b', "s": "s\\", "lb": 'l\\"b', "spill": 'sp"ill'}
    net = build_ring()
    net.name = 'q"x'
    text = netlist.dumps(net)
    for old, new in odd.items():
        text = text.replace(json.dumps(old), json.dumps(new))
    net = netlist.loads(text)
    assert validate(net) == []
    strings = dot_strings(netlist.to_dot(net, highlight={odd["lb"]}))
    assert strings[0] == 'q"x'
    for new in odd.values():
        assert any(new in got for got in strings), new
    deps = depgraph.DependencyGraph(
        nodes=['a"b', "c\\"],
        edges=[depgraph.DepEdge("PAC", "ch", 'a"b', "c\\")])
    assert dot_strings(depgraph.to_dot(deps)) == [
        'a"b', "c\\", 'a"b', "c\\", "PAC"]


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


@pytest.mark.parametrize("name", [*benchmark_names(), *WIDE])
def test_dumps_matches_json_on_shipped_nets(name):
    net = compiled(name)
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


def _scribble(value) -> None:
    """Change every dict and list inside ``value``, tuples included."""
    if isinstance(value, (list, tuple)):
        for v in value:
            _scribble(v)
    elif isinstance(value, dict):
        for v in value.values():
            _scribble(v)
    if isinstance(value, list):
        value.append(0)
    elif isinstance(value, dict):
        value["scribbled"] = 0


@given(params=st.lists(st.dictionaries(st.text(), _PARAMS, max_size=4),
                       min_size=1, max_size=6))
def test_copy_shares_no_params_container(params):
    net = build_ring()
    for i, cid in enumerate(sorted(net.components)):
        net.components[cid].params = params[i % len(params)]
    before = netlist.dumps(net)
    dup = net.copy()
    assert netlist.dumps(dup) == before
    for comp in dup.components.values():
        _scribble(comp.params)
    assert netlist.dumps(net) == before


# ---------------------------------------------------------------------------
# loads builds the net in one pass; it must accept and reject exactly what
# the reader it replaced did.

def _keys_sorted(value) -> bool:
    if isinstance(value, dict):
        return (list(value) == sorted(value)
                and all(_keys_sorted(v) for v in value.values()))
    if isinstance(value, list):
        return all(_keys_sorted(v) for v in value)
    return True


def _reversed_keys(value):
    if isinstance(value, dict):
        return {k: _reversed_keys(value[k]) for k in reversed(value)}
    if isinstance(value, list):
        return [_reversed_keys(v) for v in value]
    return value


@pytest.mark.parametrize("name", [*benchmark_names(), *WIDE])
def test_loads_sorts_params_keys_at_every_depth(name):
    net = compiled(name)
    for plan in (None, *POLICIES.values()):
        buffered = net if plan is None else apply(net, plan(net, mode="async"))
        obj = netlist.to_obj(buffered)
        for comp in obj["components"]:
            comp["params"] = _reversed_keys(comp["params"])
        again = netlist.loads(json.dumps(obj))
        assert all(_keys_sorted(c.params) for c in again.components.values())
        assert netlist.to_obj(again) == netlist.to_obj(buffered)
        assert netlist.dumps(again) == netlist.dumps(buffered)


# One mutation of a decoded netlist: a field set to one of these, a key
# dropped, a record duplicated, or a kind made unhashable.
_ODD_VALUES = (st.none() | st.just([]) | st.just([1]) | st.just({})
               | st.just({"comp": "x"}) | st.floats() | st.text(max_size=3)
               | st.just("7") | st.just(2 ** 70))


def _mutable_objects(obj: dict) -> list[dict]:
    """The top level, every record and every endpoint of a decoded net."""
    out = [obj]
    for section in ("components", "links", "ports"):
        for rec in obj[section]:
            out.append(rec)
            out += [rec[end] for end in ("from", "to")
                    if isinstance(rec.get(end), dict)]
    return out


@given(data=st.data())
def test_loads_returns_a_net_or_raises_netlist_error(data):
    name = data.draw(st.sampled_from(["ring", "elgcd"]))
    net = build_ring() if name == "ring" else compiled(name)
    obj = json.loads(netlist.dumps(net))
    how = data.draw(st.sampled_from(["drop", "set", "duplicate", "kind"]))
    if how == "duplicate":
        section = obj[data.draw(st.sampled_from(["components", "links",
                                                 "ports"]))]
        section.append(json.loads(json.dumps(data.draw(
            st.sampled_from(section)))))
    elif how == "kind":
        comp = data.draw(st.sampled_from(obj["components"]))
        comp["kind"] = data.draw(st.sampled_from([[comp["kind"]],
                                                  {"kind": comp["kind"]}]))
    else:
        target = data.draw(st.sampled_from(_mutable_objects(obj)))
        key = data.draw(st.sampled_from(sorted(target)))
        if how == "drop":
            del target[key]
        else:
            target[key] = data.draw(_ODD_VALUES)
    try:
        again = netlist.loads(json.dumps(obj))
    except netlist.NetlistError:
        return
    assert all(_keys_sorted(c.params) for c in again.components.values())
    text = netlist.dumps(again)
    assert netlist.dumps(netlist.loads(text)) == text
