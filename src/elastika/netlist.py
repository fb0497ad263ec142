"""Canonical netlist serialization.

The on-disk format is JSON with a fixed field order so that write(read(f))
reproduces f byte for byte: top-level keys name/components/links/ports,
arrays sorted by id or name, params with sorted keys, two-space indent and
a trailing newline.
"""
from __future__ import annotations

import json
from typing import Optional

from .ir import Component, Kind, Link, Network, Port


class NetlistError(Exception):
    pass


def _endpoint_json(ep: Optional[tuple[str, int]]):
    if ep is None:
        return None
    return {"comp": ep[0], "port": ep[1]}


def _endpoint_parse(obj, where: str) -> Optional[tuple[str, int]]:
    if obj is None:
        return None
    try:
        return (str(obj["comp"]), int(obj["port"]))
    except (KeyError, TypeError) as exc:
        raise NetlistError(f"malformed endpoint in {where}: {exc}") from None


def _canon_params(value):
    if isinstance(value, dict):
        return {str(k): _canon_params(value[k]) for k in sorted(value, key=str)}
    if isinstance(value, list):
        return [_canon_params(v) for v in value]
    return value


def to_obj(net: Network) -> dict:
    return {
        "name": net.name,
        "components": [
            {
                "id": c.id,
                "kind": c.kind.value,
                "params": _canon_params(c.params),
            }
            for c in sorted(net.components.values(), key=lambda c: c.id)
        ],
        "links": [
            {
                "id": ln.id,
                "width": ln.width,
                "from": _endpoint_json(ln.src),
                "to": _endpoint_json(ln.dst),
            }
            for ln in sorted(net.links.values(), key=lambda ln: ln.id)
        ],
        "ports": [
            {
                "name": p.name,
                "dir": p.dir,
                "width": p.width,
                "link": p.link,
            }
            for p in sorted(net.ports.values(), key=lambda p: p.name)
        ],
    }


def from_obj(obj: dict) -> Network:
    try:
        net = Network(name=str(obj["name"]))
        for c in obj["components"]:
            comp = Component(str(c["id"]), Kind(c["kind"]), _canon_params(c["params"]))
            if comp.id in net.components:
                raise NetlistError(f"duplicate component id {comp.id}")
            net.components[comp.id] = comp
        for l in obj["links"]:
            ln = Link(
                str(l["id"]), int(l["width"]),
                _endpoint_parse(l["from"], l["id"]),
                _endpoint_parse(l["to"], l["id"]),
            )
            if ln.id in net.links:
                raise NetlistError(f"duplicate link id {ln.id}")
            net.links[ln.id] = ln
        for p in obj["ports"]:
            port = Port(str(p["name"]), str(p["dir"]), int(p["width"]), str(p["link"]))
            if port.name in net.ports:
                raise NetlistError(f"duplicate port name {port.name}")
            net.ports[port.name] = port
    except (KeyError, TypeError, ValueError) as exc:
        raise NetlistError(f"malformed netlist: {exc}") from None
    return net


_json_scalar = json.JSONEncoder(ensure_ascii=False).encode


def _encode(value) -> str:
    """A string or scalar as json.dumps(..., ensure_ascii=False) writes it.
    Plain ints, the commonest leaf, skip the encoder's per-call setup."""
    if type(value) is int:
        return int.__repr__(value)
    return _json_scalar(value)


def _key_text(key) -> str:
    """A dict key as json.dumps writes it: non-string scalars quoted."""
    if isinstance(key, str):
        return _encode(key)
    if key is None or isinstance(key, (int, float)):
        return _encode(_encode(key))
    raise TypeError(f"keys must be str, int, float, bool or None, "
                    f"not {type(key).__name__}")


def _layout(value, indent: str) -> str:
    """``value`` laid out as json.dumps(indent=2) does at depth ``indent``;
    tuples are written as lists."""
    inner = indent + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        return ("{\n" + ",\n".join(
            f"{inner}{_key_text(k)}: {_layout(v, inner)}"
            for k, v in value.items()) + f"\n{indent}}}")
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        return ("[\n" + ",\n".join(inner + _layout(v, inner) for v in value)
                + f"\n{indent}]")
    return _encode(value)


def _endpoint_text(ep: Optional[tuple[str, int]]) -> str:
    if ep is None:
        return "null"
    return (f'{{\n        "comp": {_encode(ep[0])},\n'
            f'        "port": {_encode(ep[1])}\n      }}')


def _array(records: list[str]) -> str:
    if not records:
        return "[]"
    return "[\n" + ",\n".join(records) + "\n  ]"


def dumps(net: Network) -> str:
    """The canonical text: ``json.dumps(to_obj(net), indent=2,
    ensure_ascii=False)`` plus a newline, written record by record from the
    fixed schema rather than through json's pure-Python indenting encoder.
    """
    comps = [
        f'    {{\n      "id": {_encode(c.id)},\n'
        f'      "kind": {_encode(c.kind.value)},\n'
        f'      "params": {_layout(_canon_params(c.params), "      ")}\n    }}'
        for c in sorted(net.components.values(), key=lambda c: c.id)]
    links = [
        f'    {{\n      "id": {_encode(ln.id)},\n'
        f'      "width": {_encode(ln.width)},\n'
        f'      "from": {_endpoint_text(ln.src)},\n'
        f'      "to": {_endpoint_text(ln.dst)}\n    }}'
        for ln in sorted(net.links.values(), key=lambda ln: ln.id)]
    ports = [
        f'    {{\n      "name": {_encode(p.name)},\n'
        f'      "dir": {_encode(p.dir)},\n'
        f'      "width": {_encode(p.width)},\n'
        f'      "link": {_encode(p.link)}\n    }}'
        for p in sorted(net.ports.values(), key=lambda p: p.name)]
    return (f'{{\n  "name": {_encode(net.name)},\n'
            f'  "components": {_array(comps)},\n'
            f'  "links": {_array(links)},\n'
            f'  "ports": {_array(ports)}\n}}\n')


def loads(text: str) -> Network:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetlistError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise NetlistError("netlist must be a JSON object")
    return from_obj(obj)


def write(net: Network, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(net))


def read(path: str) -> Network:
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


_DOT_SHAPE = {
    Kind.JOIN: "invtriangle",
    Kind.FORK: "triangle",
    Kind.STEER: "diamond",
    Kind.MERGE: "invtrapezium",
    Kind.VARIABLE: "box3d",
    Kind.OPERATOR: "ellipse",
    Kind.INITIAL: "doublecircle",
    Kind.BUFFER: "box",
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
