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


def dumps(net: Network) -> str:
    return json.dumps(to_obj(net), indent=2, ensure_ascii=False) + "\n"


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
