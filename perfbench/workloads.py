"""The three workloads: inputs made from a seed, the CLI operations of one
pass, and the checks of each operation's answer.

The seed changes the inputs without changing any checked answer: it permutes
the vertex ids and the line order of the graph files, and translates the
channel coordinates by an integer offset (orientation predicates are
translation-invariant, and canonical keys depend only on vertex ids).

Every answer is checked after the timed pass, against the expected values
and against the library's slow oracles: witness replay, the dynamic
programming triangulation counter, full `validate`, brute-force vertex cover
and the byte-identical `dumps(loads(x))` round trip.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from flipdist import instanceio
from flipdist.gadgets import (build_channel, canonical_capped_edges,
                              channel_region, left_edges, right_edges)
from flipdist.geometry import pt
from flipdist.reduction import ReductionInstance
from flipdist.search import count_polygon_triangulations
from flipdist.triangulation import PointSet, Triangulation, validate
from flipdist.vertexcover import Graph, brute_force_vc, is_cover

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
K4_OUTER = [0, 1, 2]
C3_COORDS = {0: (0, 0), 1: (1200, 0), 2: (600, 1000)}
C3_EDGES = [(0, 1), (1, 2), (0, 2)]

# Expected answers; every one holds for any seed.
K4_THRESHOLD, K4_K_PRIME, K4_CHANNELS = 348, 6, 12
C3_THRESHOLD, C3_K_PRIME, C3_CHANNELS = 88, 2, 3
H9_DISTANCE, H9_EXPANSIONS = 64, 17103
H9_TRIANGULATIONS = 12870
H7_CAPPED_DISTANCE, H7_TO_CANONICAL = 24, 12


@dataclass
class Op:
    """One CLI invocation of a pass; `stage` names the metric timing it."""

    name: str
    stage: str
    argv: list[str]


@dataclass
class Inputs:
    ops: list[Op]
    files: dict[str, Path]
    expect: dict = field(default_factory=dict)


def graph_text(rng: random.Random, edges, outer=None, coords=None) -> str:
    """Graph file with seeded vertex ids, edge orientation and line order."""
    n = 1 + max(max(e) for e in edges)
    perm = list(range(n))
    rng.shuffle(perm)
    lines = []
    for v in range(n):
        if coords is None:
            lines.append(f"v {perm[v]}")
        else:
            lines.append(f"v {perm[v]} {coords[v][0]} {coords[v][1]}")
    for u, v in edges:
        a, b = (perm[u], perm[v]) if rng.random() < 0.5 else (perm[v], perm[u])
        lines.append(f"e {a} {b}")
    if outer is not None:
        cycle = [perm[v] for v in outer]
        s = rng.randrange(len(cycle))
        cycle = cycle[s:] + cycle[:s]
        if rng.random() < 0.5:
            cycle.reverse()
        lines.append("outer " + " ".join(map(str, cycle)))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


def channel(n: int, dx: int, dy: int):
    """The double-chain channel H_n of the acceptance figures, translated."""
    return build_channel((pt(-60 + dx, 40 + dy), pt(-60 + dx, -40 + dy)),
                         (pt(60 + dx, 40 + dy), pt(60 + dx, -40 + dy)),
                         Fraction(1, 160), n=n)


def inclined_pair(region, n):
    upper, lower = list(range(n)), list(range(n, 2 * n))
    base = set(region.mandatory_edges)
    return (Triangulation(region, base | left_edges(upper, lower)),
            Triangulation(region, base | right_edges(upper, lower)))


def _save(path: Path, **doc) -> Path:
    instanceio.save(instanceio.InstanceDoc(**doc), path)
    return path


def make_reduce(rng: random.Random, work: Path) -> Inputs:
    k4 = work / "k4.txt"
    k4.write_text(graph_text(rng, K4_EDGES, outer=K4_OUTER), encoding="ascii")
    c3 = work / "c3.txt"
    c3.write_text(graph_text(rng, C3_EDGES, coords=C3_COORDS),
                  encoding="ascii")
    inst, script, ps = work / "k4.json", work / "script.json", work / "ps.json"
    ops = [
        Op("reduce", "reduce_s", ["reduce", "--graph", str(k4), "--k", "3",
                                  "--out", str(inst), "--json"]),
        Op("script", "script_s", ["script", "--instance", str(inst),
                                  "--out", str(script), "--json"]),
        Op("verify", "verify_s", ["verify", "--instance", str(inst),
                                  "--script", str(script), "--json"]),
        Op("pointset", "pointset_s",
           ["reduce", "--graph", str(c3), "--k", "2", "--pointset",
            "--multiplicity", "1", "--out", str(ps), "--json"]),
    ]
    return Inputs(ops, {"instance": inst, "script": script, "pointset": ps})


def make_search(rng: random.Random, work: Path) -> Inputs:
    dx, dy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    h9 = channel_region(channel(9, dx, dy))
    left9, right9 = inclined_pair(h9, 9)
    h7 = channel_region(channel(7, dx, dy), cap_near=pt(-80 + dx, dy))
    left7, right7 = inclined_pair(h7, 7)
    canon7 = Triangulation(h7, set(h7.mandatory_edges)
                           | canonical_capped_edges(range(7), range(7, 14), 14))
    queries = [("h9", "distance_s", left9, right9, H9_DISTANCE),
               ("h7_left_right", "distance_small_s", left7, right7,
                H7_CAPPED_DISTANCE),
               ("h7_left_canonical", "distance_small_s", left7, canon7,
                H7_TO_CANONICAL),
               ("h7_right_canonical", "distance_small_s", right7, canon7,
                H7_TO_CANONICAL)]
    ops, files, expect = [], {}, {}
    for name, stage, t1, t2, distance in queries:
        path = _save(work / f"{name}.json", domain=t1.domain, t1=t1, t2=t2)
        witness = work / f"{name}.witness.json"
        ops.append(Op(name, stage, ["distance", "--instance", str(path),
                                    "--witness", str(witness), "--json"]))
        files[name] = witness
        expect[name] = (t1, t2, distance)
    return Inputs(ops, files, expect)


def make_enumerate(rng: random.Random, work: Path) -> Inputs:
    dx, dy = rng.randint(-1000, 1000), rng.randint(-1000, 1000)
    h9 = channel_region(channel(9, dx, dy))
    left, right = inclined_pair(h9, 9)
    path = _save(work / "h9_seed.json", domain=h9, edges=left)
    ops = [Op("enumerate", "enumerate_s",
              ["enumerate", "--instance", str(path), "--json"])]
    return Inputs(ops, {}, {"enumerate": (left, right)})


MAKERS = {"reduce": make_reduce, "search": make_search,
          "enumerate": make_enumerate}


def make_inputs(workload: str, seed: int, work: Path) -> Inputs:
    return MAKERS[workload](random.Random(f"flipdist-{workload}-{seed}"), work)


# --- checks: each returns None when the answer is right, else the reason ---

def _expect(got: dict, **want) -> str | None:
    wrong = {k: (got.get(k), v) for k, v in want.items() if got.get(k) != v}
    return f"got/expected {wrong}" if wrong else None


def _load_round_trip(path: Path):
    """(document, None), or (None, reason) when `dumps(loads(x))` is not
    byte-identical to the file."""
    text = path.read_text(encoding="ascii")
    doc = instanceio.loads(text)
    if instanceio.dumps(doc) != text:
        return None, f"{path.name}: dumps(loads(x)) is not byte-identical"
    return doc, None


def check_op(inputs: Inputs, op: Op, out: dict, observed: dict) -> str | None:
    """Check one operation's printed `--json` answer and its output files."""
    files = inputs.files
    if op.name == "reduce":
        wrong = _expect(out, threshold=K4_THRESHOLD, k_prime=K4_K_PRIME,
                        channel_count=K4_CHANNELS)
        doc, reason = _load_round_trip(files["instance"])
        inputs.expect["instance"] = doc
        return wrong or reason
    if op.name == "script":
        wrong = _expect(out, length=K4_THRESHOLD)
        if wrong:
            return wrong
        script = instanceio.script_load(files["script"])
        if len(script) != K4_THRESHOLD:
            return f"script file has {len(script)} moves"
        doc = inputs.expect.get("instance") \
            or instanceio.load(files["instance"])
        inst = ReductionInstance.from_doc(doc)
        g = Graph(inst.graph_vertices, inst.graph_edges)
        cover = set(out["cover"])
        size, _ = brute_force_vc(g)
        if not is_cover(g, cover)[0] or len(cover) != size:
            return f"cover {sorted(cover)} is not a minimum cover ({size})"
        return None
    if op.name == "verify":
        return _expect(out, verdict="PASS", length=K4_THRESHOLD,
                       lower_bound=K4_THRESHOLD, uncapped=[],
                       over_threshold=False)
    if op.name == "pointset":
        wrong = _expect(out, threshold=C3_THRESHOLD, k_prime=C3_K_PRIME,
                        channel_count=C3_CHANNELS)
        doc, reason = _load_round_trip(files["pointset"])
        if wrong or reason:
            return wrong or reason
        if not isinstance(doc.domain, PointSet):
            return "point-set output is not a point set"
        for name, t in (("t1", doc.t1), ("t2", doc.t2)):
            report = validate(t)
            if not report.ok:
                return f"point-set {name} invalid: {report.violations[:2]}"
        return None
    if op.name == "enumerate":
        left, right = inputs.expect["enumerate"]
        graph = observed["graph"]
        region = left.domain
        oracle = count_polygon_triangulations(region, list(region.outer))
        bfs = graph.bfs_distances(left.canonical_key())
        return _expect({"nodes": out.get("nodes"), "graph": len(graph),
                        "oracle": oracle,
                        "bfs": bfs.get(right.canonical_key())},
                       nodes=H9_TRIANGULATIONS, graph=H9_TRIANGULATIONS,
                       oracle=H9_TRIANGULATIONS, bfs=H9_DISTANCE)
    # a distance query
    t1, t2, distance = inputs.expect[op.name]
    want = {"distance": distance, "exceeds_budget": False}
    if op.name == "h9":
        want["nodes_expanded"] = H9_EXPANSIONS
    wrong = _expect(out, **want)
    if wrong:
        return wrong
    script = instanceio.script_load(inputs.files[op.name])
    end = script.replay(t1)
    if len(script) != distance or end.canonical_key() != t2.canonical_key():
        return f"witness of {len(script)} moves does not reach the target"
    return None


def lower_bound_gap(inputs: Inputs, op: Op, out: dict) -> int:
    """Exact distance minus the edge-difference bound the search starts at."""
    t1, t2, _ = inputs.expect[op.name]
    return out["distance"] - len(t1.edges - t2.edges)


def parse_output(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}
