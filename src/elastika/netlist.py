"""Canonical netlist serialization.

The on-disk format is JSON with a fixed field order so that write(read(f))
reproduces f byte for byte: top-level keys name/components/links/ports,
arrays sorted by id or name, params with sorted keys, two-space indent and
a trailing newline.  ``dumps`` writes that text record by record from the
fixed schema.  ``loads`` builds the net in one pass over what
``json.loads`` returns: it keeps the decoded params, rebuilding only a dict
whose keys are out of sorted order.
"""
from __future__ import annotations

import json
from json.encoder import encode_basestring
from typing import Optional

from .ir import Component, Kind, Link, Network, Port


class NetlistError(Exception):
    pass


# The one-type sets of a string-keyed dict's keys and of a list of ints.
_STR, _INT = {str}, {int}


def _canon_params(value):
    if isinstance(value, dict):
        return {str(k): _canon_params(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, list):
        return [_canon_params(v) for v in value]
    return value


def to_obj(net: Network) -> dict:
    """The net as the JSON object ``dumps`` writes, params canonicalized."""
    def end(ep):
        return None if ep is None else {"comp": ep[0], "port": ep[1]}
    return {
        "name": net.name,
        "components": [
            {"id": c.id, "kind": c.kind.value,
             "params": _canon_params(c.params)}
            for c in sorted(net.components.values(), key=lambda c: c.id)],
        "links": [
            {"id": ln.id, "width": ln.width,
             "from": end(ln.src), "to": end(ln.dst)}
            for ln in sorted(net.links.values(), key=lambda ln: ln.id)],
        "ports": [
            {"name": p.name, "dir": p.dir, "width": p.width, "link": p.link}
            for p in sorted(net.ports.values(), key=lambda p: p.name)],
    }


def _layout(value, indent: str = "") -> str:
    """``_canon_params(value)`` as ``json.dumps(..., indent=2,
    ensure_ascii=False)`` writes it at depth ``indent``.  Strings, ints,
    lists, and dicts with string keys, nearly every value in a net, are
    written here; any other value by json itself, its lines indented."""
    kind = type(value)
    if kind is str:
        return encode_basestring(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list and value:
        return ("[\n" + ",\n".join(inner + _layout(v, inner) for v in value)
                + f"\n{indent}]")
    if kind is dict and value and {*map(type, value)} == _STR:
        return "{\n" + ",\n".join(
            f"{inner}{encode_basestring(k)}: {_layout(value[k], inner)}"
            for k in sorted(value)) + f"\n{indent}}}"
    return json.dumps(_canon_params(value), indent=2,
                      ensure_ascii=False).replace("\n", "\n" + indent)


def _array(records: list[str]) -> str:
    if not records:
        return "[]"
    return "[\n" + ",\n".join(records) + "\n  ]"


_ENDPOINT = '{\n        "comp": %s,\n        "port": %s\n      }'


def dumps(net: Network) -> str:
    """The canonical text: ``json.dumps(to_obj(net), indent=2,
    ensure_ascii=False)`` plus a newline.  Plain ``str`` and ``int`` values
    are written in place, as are params values that are lists of ints; any
    other value goes through ``_layout``."""
    enc = encode_basestring
    comps = []
    for c in sorted(net.components.values(), key=lambda c: c.id):
        params = c.params
        if type(params) is dict and params and {*map(type, params)} == _STR:
            fields = []
            for key in sorted(params):
                v = params[key]   # an int is left for the f-string to write
                t = type(v)
                if t is str:
                    v = enc(v)
                elif t is list and {*map(type, v)} == _INT:
                    v = ("[\n          " + ",\n          ".join(map(str, v))
                         + "\n        ]")
                elif t is not int:
                    v = _layout(v, "        ")
                fields.append(f"        {enc(key)}: {v}")
            params = "{\n" + ",\n".join(fields) + "\n      }"
        else:
            params = _layout(params, "      ")
        cid = enc(c.id) if type(c.id) is str else _layout(c.id)
        comps.append(f'    {{\n      "id": {cid},\n'
                     f'      "kind": {enc(c.kind.value)},\n'
                     f'      "params": {params}\n    }}')
    links = []
    for ln in sorted(net.links.values(), key=lambda ln: ln.id):
        lid, width, ends = ln.id, ln.width, []
        for ep in (ln.src, ln.dst):
            if ep is not None:
                comp, port = ep[0], ep[1]
                ep = _ENDPOINT % (
                    enc(comp) if type(comp) is str else _layout(comp),
                    port if type(port) is int else _layout(port))
            ends.append("null" if ep is None else ep)
        lid = enc(lid) if type(lid) is str else _layout(lid)
        width = width if type(width) is int else _layout(width)
        links.append(f'    {{\n      "id": {lid},\n      "width": {width},\n'
                     f'      "from": {ends[0]},\n      "to": {ends[1]}\n    }}')
    ports = [
        f'    {{\n      "name": {_layout(p.name)},\n'
        f'      "dir": {_layout(p.dir)},\n'
        f'      "width": {_layout(p.width)},\n'
        f'      "link": {_layout(p.link)}\n    }}'
        for p in sorted(net.ports.values(), key=lambda p: p.name)]
    return (f'{{\n  "name": {_layout(net.name)},\n'
            f'  "components": {_array(comps)},\n'
            f'  "links": {_array(links)},\n'
            f'  "ports": {_array(ports)}\n}}\n')


_KINDS = {k.value: k for k in Kind}


def _sort_keys(value):
    """Decoded JSON ``value`` as ``_canon_params`` leaves it: every dict in
    sorted key order.  Only a dict out of order is rebuilt; everything else
    is updated in place, which is safe on what ``json.loads`` just made."""
    if type(value) is dict:
        keys = [*value]
        if keys != sorted(keys):
            value = {k: value[k] for k in sorted(keys)}
        items = value.items()
    elif type(value) is list:
        items = enumerate(value)
    else:
        return value
    for k, v in items:
        if type(v) is dict or type(v) is list:
            value[k] = _sort_keys(v)
    return value


def loads(text: str) -> Network:
    """The net of a netlist text, built in one pass over what ``json.loads``
    returns: kinds looked up by value, endpoints parsed in place and params
    taken as decoded, with their dicts put in sorted key order.  Malformed
    input raises NetlistError."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise NetlistError("netlist must be a JSON object")
    try:
        net = Network(name=str(obj["name"]))
        comps, links, ports = net.components, net.links, net.ports
        for c in obj["components"]:
            cid, kind = str(c["id"]), c["kind"]
            # Kind() raises for any other value, with the message it always has.
            kind = type(kind) is str and _KINDS.get(kind) or Kind(kind)
            comp = Component(cid, kind, _sort_keys(c["params"]))
            if cid in comps:
                raise NetlistError(f"duplicate component id {cid}")
            comps[cid] = comp
        for l in obj["links"]:
            lid, width, src = l["id"], int(l["width"]), l["from"]
            try:
                if src is not None:
                    src = (str(src["comp"]), int(src["port"]))
            except (KeyError, TypeError) as exc:
                raise NetlistError(f"malformed endpoint in {lid}: {exc}") from None
            dst = l["to"]
            try:
                if dst is not None:
                    dst = (str(dst["comp"]), int(dst["port"]))
            except (KeyError, TypeError) as exc:
                raise NetlistError(f"malformed endpoint in {lid}: {exc}") from None
            ln = Link(str(lid), width, src, dst)
            if ln.id in links:
                raise NetlistError(f"duplicate link id {ln.id}")
            links[ln.id] = ln
        for p in obj["ports"]:
            port = Port(str(p["name"]), str(p["dir"]), int(p["width"]),
                        str(p["link"]))
            if port.name in ports:
                raise NetlistError(f"duplicate port name {port.name}")
            ports[port.name] = port
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise NetlistError(f"malformed netlist: {exc}") from None
    return net


def write(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(net))


def read(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


_DOT_SHAPE = {
    Kind.JOIN: "invtriangle", Kind.FORK: "triangle", Kind.STEER: "diamond",
    Kind.MERGE: "invtrapezium", Kind.VARIABLE: "box3d",
    Kind.OPERATOR: "ellipse", Kind.INITIAL: "doublecircle", Kind.BUFFER: "box",
}


def to_dot(net: Network, highlight: Optional[set[str]] = None) -> str:
    """Graphviz text for the network; ``highlight`` marks link ids in red."""
    highlight = highlight or set()
    out = [f'digraph "{net.name}" {{', "  rankdir=LR;", "  node [fontsize=10];"]
    for c in sorted(net.components.values(), key=lambda c: c.id):
        label = c.id
        if c.kind is Kind.OPERATOR:
            label = f"{c.id}\\n{c.params.get('fn', '?')}"
        out.append(
            f'  "{c.id}" [shape={_DOT_SHAPE[c.kind]} label="{label}"];')
    for p in sorted(net.ports.values(), key=lambda p: p.name):
        out.append(f'  "port:{p.name}" [shape=plaintext label="{p.name}"];')
    for ln in sorted(net.links.values(), key=lambda ln: ln.id):
        src = f'"{ln.src[0]}"' if ln.src else None
        dst = f'"{ln.dst[0]}"' if ln.dst else None
        if src is None or dst is None:
            for p in net.ports.values():
                if p.link == ln.id:
                    tag = f'"port:{p.name}"'
                    src = src or tag
                    dst = dst or tag
        if src is None or dst is None:
            continue
        attrs = [f'label="{ln.id}:{ln.width}"']
        if ln.id in highlight:
            attrs.append("color=red penwidth=2")
        out.append(f"  {src} -> {dst} [{' '.join(attrs)}];")
    out.append("}")
    return "\n".join(out) + "\n"
