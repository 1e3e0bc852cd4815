"""Shared instance text format.

A JSON document with `points` (coordinates as exact "p/q" or integer strings),
optional `outer`/`holes` index cycles (their presence selects a polygonal
region domain, otherwise a point set), and either a single `edges` list or a
`t1`/`t2` pair.  Reduction instances add `gadget_metadata` and `accounting`
blocks.  Serialization is canonical, so load/dump round-trips are byte-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import ValidationError
from .geometry import Point2
from .search import FlipScript
from .triangulation import (FlipMove, PointSet, PolygonalRegion, Triangulation,
                            edge)


def frac_to_str(x: Fraction) -> str:
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


def str_to_frac(s) -> Fraction:
    # a JSON `true` or `false` is a bool, which `isinstance(s, int)` admits
    if type(s) is int:
        return Fraction(s)
    if not isinstance(s, str):
        raise ValidationError(f"coordinate {s!r} must be a string or integer")
    # `Fraction` expands an exponent in full, in time that grows with it
    if "e" in s or "E" in s:
        raise ValidationError(
            f"bad coordinate {s!r}: exponents are not allowed")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValidationError(f"bad coordinate {s!r}: {exc}") from exc


@dataclass
class InstanceDoc:
    domain: object
    t1: Optional[Triangulation] = None
    t2: Optional[Triangulation] = None
    edges: Optional[Triangulation] = None
    gadget_metadata: Optional[dict] = None
    accounting: Optional[dict] = None

    @property
    def pair(self) -> tuple[Triangulation, Triangulation]:
        if self.t1 is None or self.t2 is None:
            raise ValidationError("instance does not carry a (t1, t2) pair")
        return self.t1, self.t2


def _edges_payload(t: Triangulation) -> list[list[int]]:
    return [list(e) for e in sorted(t.edges)]


def instance_to_dict(doc: InstanceDoc) -> dict:
    domain = doc.domain
    out: dict = {
        "points": [[frac_to_str(p.x), frac_to_str(p.y)] for p in domain.points],
    }
    if not isinstance(domain, PointSet):
        out["outer"] = list(domain.outer)
        out["holes"] = [list(h) for h in domain.holes]
    if doc.edges is not None:
        out["edges"] = _edges_payload(doc.edges)
    if doc.t1 is not None:
        out["t1"] = _edges_payload(doc.t1)
    if doc.t2 is not None:
        out["t2"] = _edges_payload(doc.t2)
    if doc.gadget_metadata is not None:
        out["gadget_metadata"] = doc.gadget_metadata
    if doc.accounting is not None:
        out["accounting"] = doc.accounting
    return out


def _index_list(value, name: str) -> list[int]:
    if not isinstance(value, list) or any(type(i) is not int for i in value):
        raise ValidationError(f"{name} must be a list of integer point indices")
    return value


def instance_from_dict(data: dict) -> InstanceDoc:
    try:
        points = [Point2(str_to_frac(x), str_to_frac(y)) for x, y in data["points"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad points array: {exc}") from exc
    if "outer" in data:
        holes = data.get("holes", [])
        if not isinstance(holes, list):
            raise ValidationError("holes must be a list of index cycles")
        domain = PolygonalRegion(points, _index_list(data["outer"], "outer"),
                                 [_index_list(h, "hole") for h in holes])
    else:
        domain = PointSet(points)

    def load_edges(key):
        if key not in data:
            return None
        try:
            return Triangulation(domain, [edge(*_index_list(e, f"{key} edge"))
                                          for e in data[key]])
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad {key} edge array: {exc}") from exc

    return InstanceDoc(
        domain=domain,
        t1=load_edges("t1"),
        t2=load_edges("t2"),
        edges=load_edges("edges"),
        gadget_metadata=data.get("gadget_metadata"),
        accounting=data.get("accounting"),
    )


def dumps(doc: InstanceDoc) -> str:
    return json.dumps(instance_to_dict(doc), sort_keys=True, indent=1) + "\n"


def _parse_json(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and integer literals past
        # Python's digit limit; RecursionError deeply nested arrays
        raise ValidationError(f"malformed JSON: {exc}") from exc


def loads(text: str) -> InstanceDoc:
    return instance_from_dict(_parse_json(text))


def save(doc: InstanceDoc, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(dumps(doc))


def read_text(path) -> str:
    """A file's text, which must be ASCII, as every flipdist input is."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path} is not ASCII text: byte "
                              f"{data[exc.start]:#04x} at offset "
                              f"{exc.start}") from None


def load(path) -> InstanceDoc:
    return loads(read_text(path))


# --- flip scripts ----------------------------------------------------------

def script_to_dict(script) -> dict:
    return {
        "start": script.start_key.decode("ascii"),
        "moves": [[list(m.removed), list(m.inserted)] for m in script.moves],
    }


def script_dumps(script) -> str:
    return json.dumps(script_to_dict(script), sort_keys=True, indent=1) + "\n"


def script_from_dict(data: dict):
    moves = tuple(FlipMove(edge(*r), edge(*i)) for r, i in data["moves"])
    if not isinstance(data["start"], str):
        raise ValidationError("script start must be a canonical key string")
    return FlipScript(data["start"].encode("ascii"), moves)


def script_loads(text: str):
    data = _parse_json(text)
    try:
        return script_from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad script document: {exc}") from exc


def script_load(path):
    return script_loads(read_text(path))


# --- graph text format -----------------------------------------------------

def parse_graph_text(text: str):
    """Parse the `v <id> [<x> <y>]` / `e <u> <v>` / `outer <ids>` format.

    Lines may come in any order.  A repeated vertex id, a self-loop, an
    edge listed twice (in either orientation), a second `outer` line, an
    edge to a vertex no `v` line declares and a `v` line without
    coordinates when another has them are rejected with the offending
    line's number.

    Returns (vertex ids, coords dict or None, edge list, outer list or None).
    """
    ids: list[int] = []
    declared: set[int] = set()
    coords: dict[int, Point2] = {}
    edges: list[tuple[int, int]] = []
    edge_lines: dict[frozenset, int] = {}
    outer: Optional[list[int]] = None
    outer_line = None
    first_bare = None          # (line, id) of the first v line without x y
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        try:
            if kind == "v":
                if len(parts) not in (2, 4):
                    raise ValidationError("expected 'v <id> [<x> <y>]'")
                vid = int(parts[1])
                if vid in declared:
                    raise ValidationError(f"vertex {vid} declared twice")
                declared.add(vid)
                ids.append(vid)
                if len(parts) == 4:
                    coords[vid] = Point2(str_to_frac(parts[2]),
                                         str_to_frac(parts[3]))
                elif first_bare is None:
                    first_bare = (lineno, vid)
            elif kind == "e":
                if len(parts) != 3:
                    raise ValidationError("expected 'e <u> <v>'")
                u, v = int(parts[1]), int(parts[2])
                if u == v:
                    raise ValidationError(f"self-loop at vertex {u}")
                key = frozenset((u, v))
                if key in edge_lines:
                    raise ValidationError(
                        f"edge {u} {v} repeats line {edge_lines[key]}")
                edge_lines[key] = lineno
                edges.append((u, v))
            elif kind == "outer":
                if outer_line is not None:
                    raise ValidationError(f"outer repeats line {outer_line}")
                outer_line = lineno
                outer = [int(p) for p in parts[1:]]
            else:
                raise ValidationError(f"unknown directive {kind!r}")
        except (ValueError, ValidationError) as exc:
            raise ValidationError(f"line {lineno}: {exc}") from exc
    if coords and first_bare:
        lineno, vid = first_bare
        raise ValidationError(f"line {lineno}: vertex {vid} has no "
                              f"coordinates, but other vertices do")
    for (u, v), lineno in zip(edges, edge_lines.values()):
        missing = [w for w in (u, v) if w not in declared]
        if missing:
            raise ValidationError(
                f"line {lineno}: edge {u} {v} names undeclared vertex "
                f"{missing[0]}")
    return ids, (coords or None), edges, outer
