import copy
import hashlib
import json
import random
import time
from fractions import Fraction

import pytest

from flipdist import instanceio, triangulation
from flipdist.cli import main
from flipdist.gadgets import (build_channel, channel_region, left_edges,
                              right_edges)
from flipdist.geometry import pt
from flipdist.triangulation import PolygonalRegion, Triangulation
from flipdist.vertexcover import Graph, brute_force_vc

from conftest import PRISM_EDGES

C3_GRAPH = """# triangle with coordinates
v 0 0 0
v 1 1200 0
v 2 600 1000
e 0 1
e 1 2
e 2 0
"""

K4_GRAPH = "\n".join(["v 0", "v 1", "v 2", "v 3",
                      "e 0 1", "e 0 2", "e 0 3", "e 1 2", "e 1 3", "e 2 3",
                      "outer 0 1 2"]) + "\n"

K4_XY_GRAPH = """# K4 with coordinates: outer triangle 0 1 2 around vertex 3
v 0 0 0
v 1 1200 0
v 2 600 1000
v 3 600 400
e 0 1
e 1 2
e 2 0
e 0 3
e 1 3
e 2 3
"""



# SHA-256 of the canonical JSON that `reduce` writes for the graphs above;
# any change to geometry, gadget placement or serialisation shows here
K4_SHA256 = "993a8dc9834150eec0ba8c643a4c792a92c8bbbaf13a252b81017124768ba9b0"
C3_SHA256 = "df03aad473fbffcea95de33e627f6b7fa22ebe93975f8a02cb41ffae122e09be"
C3_POINTSET_SHA256 = \
    "6bb39277c301779a78d6c62b06dc816056d12b5a44638cf4aa8d1eb74e249371"


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def channel_instance_doc(n=7):
    ch = build_channel((pt(-60, 40), pt(-60, -40)), (pt(60, 40), pt(60, -40)),
                       Fraction(1, 160), n=n)
    region = channel_region(ch)
    upper, lower = list(range(n)), list(range(n, 2 * n))
    base = set(region.mandatory_edges)
    t1 = Triangulation(region, base | left_edges(upper, lower))
    t2 = Triangulation(region, base | right_edges(upper, lower))
    return instanceio.InstanceDoc(domain=region, t1=t1, t2=t2)


def test_vc_command(tmp_path, capsys):
    g = write(tmp_path / "k4.txt", K4_GRAPH)
    assert main(["vc", "--graph", g, "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["size"] == 3


def test_reduce_roundtrip_and_determinism(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    out1 = tmp_path / "inst1.json"
    out2 = tmp_path / "inst2.json"
    assert main(["reduce", "--graph", g, "--k", "2", "--out", str(out1),
                 "--json"]) == 0
    acc = json.loads(capsys.readouterr().out)
    assert acc["threshold"] == 88
    assert main(["reduce", "--graph", g, "--k", "2", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert sha256(out1) == C3_SHA256
    # parse -> serialize is byte-identical
    doc = instanceio.load(out1)
    assert instanceio.dumps(doc).encode("ascii") == out1.read_bytes()


def test_reduce_k4_threshold(tmp_path, capsys):
    g = write(tmp_path / "k4.txt", K4_GRAPH)
    out = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "3", "--out", str(out),
                 "--json"]) == 0
    acc = json.loads(capsys.readouterr().out)
    assert acc["k_prime"] == 6 and acc["channel_count"] == 12
    assert acc["threshold"] == 348
    assert sha256(out) == K4_SHA256


def test_reduce_k4_builds_few_fractions(tmp_path, count_fractions):
    # chain points, interior samples and drawing directions are built from
    # integers on one grid each, so the K4 reduce builds few `Fraction`s
    # (10,466 when each of them came from `Fraction` arithmetic)
    g = write(tmp_path / "k4.txt", K4_GRAPH)
    out = tmp_path / "inst.json"
    with count_fractions() as built:
        assert main(["reduce", "--graph", g, "--k", "3",
                     "--out", str(out)]) == 0
    assert sha256(out) == K4_SHA256
    assert len(built) <= 6000, len(built)


def test_reduce_k4_orientation_calls(tmp_path, monkeypatch):
    # the walks behind the blocking sets read each corner's apex off the
    # by-side map, by its side, so a K4 reduce makes at most 6,391 domain
    # orientation calls
    calls = []
    orient = triangulation._DomainBase.orient

    def counted(self, i, j, k):
        calls.append(None)
        return orient(self, i, j, k)

    monkeypatch.setattr(triangulation._DomainBase, "orient", counted)
    g = write(tmp_path / "k4.txt", K4_GRAPH)
    out = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "3", "--out", str(out)]) == 0
    assert sha256(out) == K4_SHA256
    assert len(calls) <= 6391, len(calls)


def test_reduce_unreadable_graph_or_unwritable_out_exits_5(tmp_path, capsys):
    missing = tmp_path / "missing"
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--graph", str(missing / "g.txt"), "--k", "2",
              "--out", str(tmp_path / "inst.json")])
    assert exc.value.code == 5
    assert capsys.readouterr().err.startswith(
        f"error: cannot read {missing / 'g.txt'}:")
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--graph", g, "--k", "2",
              "--out", str(missing / "inst.json")])
    assert exc.value.code == 5
    assert capsys.readouterr().err.startswith(
        f"error: cannot write {missing / 'inst.json'}:")


def test_reduce_json_prints_build_stats(tmp_path, capsys):
    # `stats` rides along in the --json output only: the instance file is
    # the same with and without --json, and carries no stats
    g = write(tmp_path / "k4.txt", K4_GRAPH)
    quiet, loud = tmp_path / "quiet.json", tmp_path / "loud.json"
    assert main(["reduce", "--graph", g, "--k", "3", "--out", str(quiet)]) == 0
    capsys.readouterr()
    assert main(["reduce", "--graph", g, "--k", "3", "--out", str(loud),
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert loud.read_bytes() == quiet.read_bytes()
    stats = out.pop("stats")
    assert out == instanceio.load(loud).accounting
    assert set(stats) == {"grid_bits", "sag_halvings", "narrowing_rounds"}
    assert 0 < stats["grid_bits"] <= 100
    assert b"grid_bits" not in loud.read_bytes()


def prism_graph_text(n):
    """The prism C_n x K2 as a graph file: cycle 0..n-1 is the outer face,
    cycle n..2n-1 the inner one, and spoke i joins i to n + i."""
    return "\n".join([f"v {v}" for v in range(2 * n)]
                     + [f"e {i} {(i + 1) % n}" for i in range(n)]
                     + [f"e {n + i} {n + (i + 1) % n}" for i in range(n)]
                     + [f"e {i} {n + i}" for i in range(n)]
                     + ["outer " + " ".join(map(str, range(n)))]) + "\n"


def graph_pipeline(tmp_path, capsys, text):
    """`vc`, `reduce` at the minimum cover size, `script` and `verify` on a
    graph file; returns the cover size and the reduce and verify --json
    outputs."""
    g = write(tmp_path / "graph.txt", text)
    assert main(["vc", "--graph", g, "--json"]) == 0
    k = json.loads(capsys.readouterr().out)["size"]
    inst, script = tmp_path / "inst.json", tmp_path / "script.json"
    assert main(["reduce", "--graph", g, "--k", str(k), "--out", str(inst),
                 "--json"]) == 0
    acc = json.loads(capsys.readouterr().out)
    assert main(["script", "--instance", str(inst), "--out", str(script)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst), "--script", str(script),
                 "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    threshold = 2 * acc["k_prime"] + 28 * acc["channel_count"]
    assert (out["verdict"], out["length"], out["threshold"]) == \
        ("PASS", threshold, threshold)
    assert not out["over_threshold"]
    return k, acc, out


def prism_pipeline(tmp_path, capsys, n):
    """`graph_pipeline` on the n-prism, with the cover size checked by
    brute force; returns the reduce and verify --json outputs."""
    text = prism_graph_text(n)
    k, acc, out = graph_pipeline(tmp_path, capsys, text)
    ids, _, edges, _ = instanceio.parse_graph_text(text)
    assert k == brute_force_vc(Graph(ids, edges))[0]
    return acc, out


# More of the paper's family (cubic, planar, 3-connected), with no outer
# line: the least face under `canonical_cycle` is the outer face.
DODECAHEDRON_EDGES = (
    [(i, (i + 1) % 5) for i in range(5)]                 # outer pentagon
    + [(i, 5 + 2 * i) for i in range(5)]
    + [(5 + j, 5 + (j + 1) % 10) for j in range(10)]     # middle 10-cycle
    + [(6 + 2 * i, 15 + i) for i in range(5)]
    + [(15 + i, 15 + (i + 1) % 5) for i in range(5)])    # inner pentagon
# K4 truncated: K4 edge e = (v, w) ends at vertices 2e (near v) and 2e + 1
# (near w); each K4 vertex becomes the triangle of its three ends
TRUNCATED_TETRAHEDRON_EDGES = [
    (0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11),    # the K4 edges
    (0, 2), (0, 4), (2, 4), (1, 6), (1, 8), (6, 8),      # the four triangles
    (3, 7), (3, 10), (7, 10), (5, 9), (5, 11), (9, 11)]


@pytest.mark.parametrize("edges, k, length", [
    (TRUNCATED_TETRAHEDRON_EDGES, 8, 868),
    (DODECAHEDRON_EDGES, 12, 1154),
], ids=["truncated_tetrahedron", "dodecahedron"])
def test_reduce_family_passes_at_threshold(tmp_path, capsys, edges, k, length):
    n = 1 + max(max(e) for e in edges)
    assert sorted(v for e in edges for v in e) == \
        sorted(3 * list(range(n)))                        # cubic
    text = "\n".join([f"v {v}" for v in range(n)]
                     + [f"e {u} {v}" for u, v in edges]) + "\n"
    got_k, _, out = graph_pipeline(tmp_path, capsys, text)
    assert (got_k, out["length"]) == (k, length)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_reduce_prism_passes_at_threshold(tmp_path, capsys, n):
    acc, _ = prism_pipeline(tmp_path, capsys, n)
    assert acc["stats"]["grid_bits"] <= 300


def test_reduce_6_prism_passes_at_threshold(tmp_path, capsys):
    # sharp elimination puts chain edges at exactly 45 degrees, which the
    # drawing's shear clears
    _, out = prism_pipeline(tmp_path, capsys, 6)
    assert out["length"] == 864


@pytest.mark.slow
@pytest.mark.parametrize("n, length", [(7, 1010), (10, 1440)])
def test_reduce_large_prism_passes_at_threshold(tmp_path, capsys, n, length):
    _, out = prism_pipeline(tmp_path, capsys, n)
    assert out["length"] == length


@pytest.mark.slow
def test_reduce_20_prism_passes_at_threshold(tmp_path, capsys):
    # `graph_pipeline`, not `prism_pipeline`: a brute-force cover check on
    # 40 vertices would try 2^40 subsets
    k, acc, out = graph_pipeline(tmp_path, capsys, prism_graph_text(20))
    assert (k, acc["channel_count"], out["length"]) == (20, 100, 2880)


@pytest.mark.slow
def test_reduce_20_prism_with_a_4_face_outer_passes(tmp_path, capsys):
    # the chain of vertex 1 is placed with its first vertex next to 21, so
    # it must be spliced into the outer cycle reversed; spliced as placed,
    # the next chain could not be placed and `reduce` exited 3
    text = prism_graph_text(20).replace(
        "outer " + " ".join(map(str, range(20))), "outer 0 1 21 20")
    k, acc, out = graph_pipeline(tmp_path, capsys, text)
    assert (k, acc["channel_count"], out["length"]) == (20, 68, 1952)


def test_reduce_rejects_nonplanar(tmp_path, capsys):
    text = "\n".join([f"v {i}" for i in range(5)]
                     + [f"e {i} {j}" for i in range(5) for j in range(i + 1, 5)])
    g = write(tmp_path / "k5.txt", text)
    assert main(["reduce", "--graph", g, "--k", "3",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_reduce_negative_k_exits_2(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    out = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "-5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == "error: cover bound k must be nonnegative, got -5\n"
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (C3_GRAPH + "v 1 5 5\n", "line 8: vertex 1 declared twice"),
    (K4_GRAPH + "v 2\n", "line 12: vertex 2 declared twice"),
    (C3_GRAPH + "e 1 0\n", "line 8: edge 1 0 repeats line 5"),
    (K4_GRAPH + "e 0 1\n", "line 12: edge 0 1 repeats line 5"),
    (K4_GRAPH + "e 2 2\n", "line 12: self-loop at vertex 2"),
    (C3_GRAPH + "e 2 7\n", "line 8: edge 2 7 names undeclared vertex 7"),
    ("e 3 9\n" + K4_GRAPH, "line 1: edge 3 9 names undeclared vertex 9"),
    ("v 0 0 0\nv 1 1 0\nv 2 2 0\ne 0 1\ne 1 2\ne 2 0\n",
     "the drawing has no face of negative area"),
    ("v 0 5 5\nv 1 5 5\nv 2 5 5\ne 0 1\ne 1 2\ne 2 0\n",
     "the drawing has no face of negative area"),
    (C3_GRAPH + "outer 0 1 9\n",
     "[0, 1, 9] is not the outer face of the drawing"),
    (K4_XY_GRAPH + "outer 0 1 3\n",
     "[0, 1, 3] is not the outer face of the drawing"),
    (K4_GRAPH.replace("outer 0 1 2", "outer"), "[] is not a face"),
], ids=["vertex-twice-xy", "vertex-twice", "edge-twice-reversed-xy",
        "edge-twice", "self-loop", "undeclared-xy", "undeclared-before-v",
        "collinear-xy", "coincident-xy", "outer-undeclared-xy",
        "outer-inner-face-xy", "outer-empty"])
def test_hostile_graph_file_exits_2(tmp_path, capsys, text, message):
    g = write(tmp_path / "bad.txt", text)
    out = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message) and "Traceback" not in err
    assert not out.exists()


def test_reduce_without_outer_ignores_line_order(tmp_path, capsys):
    """Without an `outer` line the outer face is the least face under
    `canonical_cycle`, so the order of the lines and of the two ids on an
    edge line cannot change the instance."""
    written = set()
    for seed in range(4):
        rnd = random.Random(seed)
        lines = [f"v {v}" for v in range(6)] + [
            f"e {u} {w}" if rnd.random() < 0.5 else f"e {w} {u}"
            for u, w in PRISM_EDGES]
        rnd.shuffle(lines)
        g = write(tmp_path / f"prism{seed}.txt", "\n".join(lines) + "\n")
        out = tmp_path / f"prism{seed}.json"
        assert main(["reduce", "--graph", g, "--k", "4", "--out", str(out)]) == 0
        written.add(out.read_bytes())
    assert len(written) == 1


def test_long_cycle_graph_exits_2(tmp_path, capsys):
    """A 3,000-vertex cycle is rejected as not 3-connected within seconds,
    and the block search does not recurse (a recursive one would pass the
    interpreter's recursion limit)."""
    n = 3000
    g = write(tmp_path / "cycle.txt", "\n".join(
        [f"v {v}" for v in range(n)] + [f"e {v} {(v + 1) % n}" for v in range(n)]))
    start = time.perf_counter()
    assert main(["reduce", "--graph", g, "--k", "3",
                 "--out", str(tmp_path / "x.json")]) == 2
    assert time.perf_counter() - start < 10
    assert capsys.readouterr().err == "error: graph is not 3-connected\n"


def test_reduce_pointset(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    out = tmp_path / "ps.json"
    assert main(["reduce", "--graph", g, "--k", "2", "--pointset",
                 "--multiplicity", "1", "--out", str(out), "--json"]) == 0
    assert sha256(out) == C3_POINTSET_SHA256
    doc = instanceio.load(out)
    from flipdist.triangulation import PointSet, validate
    assert isinstance(doc.domain, PointSet)
    assert validate(doc.t1).ok and validate(doc.t2).ok


@pytest.mark.parametrize("flags, message", [
    (["--multiplicity", "3"], "--multiplicity needs --pointset"),
    (["--pointset", "--multiplicity", "0"],
     "multiplicity must be at least 1, got 0"),
    (["--pointset", "--multiplicity", "-2"],
     "multiplicity must be at least 1, got -2"),
])
def test_reduce_bad_multiplicity_exits_2_before_building(
        tmp_path, capsys, monkeypatch, flags, message):
    # the flag is checked before the graph is read or anything is built
    import flipdist.cli as cli

    def banned(*args, **kwargs):
        raise AssertionError("reduce built before checking --multiplicity")

    for name in ("_load_graph", "drawing_from_coords", "convex_drawing",
                 "build_instance", "region_to_pointset"):
        monkeypatch.setattr(cli, name, banned)
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    out = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "2", *flags,
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_script_and_verify(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    inst_path = tmp_path / "inst.json"
    script_path = tmp_path / "script.json"
    assert main(["reduce", "--graph", g, "--k", "2",
                 "--out", str(inst_path)]) == 0
    assert main(["script", "--instance", str(inst_path),
                 "--out", str(script_path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert out["length"] == 88
    assert main(["verify", "--instance", str(inst_path),
                 "--script", str(script_path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "PASS"
    assert rep["length"] == 88 and not rep["over_threshold"]
    assert rep["implied_cover_size"] == 2
    # truncated script fails verification with exit code 2
    data = json.loads(script_path.read_text())
    data["moves"] = data["moves"][:-1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    assert main(["verify", "--instance", str(inst_path),
                 "--script", str(bad)]) == 2


def test_distance_on_channel_instance(tmp_path, capsys):
    doc = channel_instance_doc()
    path = tmp_path / "channel.json"
    instanceio.save(doc, path)
    assert main(["distance", "--instance", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["distance"] == 36
    assert main(["distance", "--instance", str(path), "--budget", "10"]) == 4


def test_distance_witness_replays_to_t2(tmp_path, capsys):
    doc = channel_instance_doc()
    path, witness = tmp_path / "channel.json", tmp_path / "witness.json"
    instanceio.save(doc, path)
    assert main(["distance", "--instance", str(path), "--witness",
                 str(witness)]) == 0
    assert capsys.readouterr().out.startswith("distance = 36 ")
    script = instanceio.script_load(witness)
    assert len(script) == 36
    assert script.replay(doc.t1).canonical_key() == doc.t2.canonical_key()


def test_distance_refuses_an_invalid_t1(tmp_path, capsys):
    doc = channel_instance_doc()
    dropped = min(doc.t1.edges - doc.domain.mandatory_edges)
    doc.t1 = Triangulation(doc.domain, doc.t1.edges - {dropped})
    path = tmp_path / "channel.json"
    instanceio.save(doc, path)
    assert main(["distance", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: t1 invalid: ")


def test_distance_json_reports_search_statistics(tmp_path, capsys):
    # --json carries the expansion count, the frontier peak and the number
    # of states the two sides recorded, within and past the budget
    path = tmp_path / "channel.json"
    instanceio.save(channel_instance_doc(), path)
    assert main(["distance", "--instance", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "distance": 36, "exceeds_budget": False, "nodes_expanded": 1346,
        "frontier_peak": 149, "states_recorded": 1446}
    assert main(["distance", "--instance", str(path), "--budget", "35",
                 "--json"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert out["exceeds_budget"] and out["distance"] is None
    assert 0 < out["nodes_expanded"] <= 1346 and out["frontier_peak"] > 2


def test_distance_state_cap(tmp_path, capsys):
    # past the cap on recorded states the search stops with exit 4 and says
    # why; the depth budget gives the other reason, and a cap below 1 is a
    # validation error
    path = tmp_path / "channel.json"
    instanceio.save(channel_instance_doc(), path)
    assert main(["distance", "--instance", str(path), "--max-states", "100",
                 "--json"]) == 4
    out = json.loads(capsys.readouterr().out)
    assert (out["distance"], out["exceeds_budget"], out["reason"]) == \
        (None, True, "states")
    assert 100 < out["states_recorded"] < 1446
    assert main(["distance", "--instance", str(path), "--max-states", "100"]) \
        == 4
    assert capsys.readouterr().out.startswith("EXCEEDS_STATES (> 100 ")
    assert main(["distance", "--instance", str(path), "--budget", "35",
                 "--json"]) == 4
    assert json.loads(capsys.readouterr().out)["reason"] == "budget"
    assert main(["distance", "--instance", str(path), "--max-states", "1446",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 36
    assert main(["distance", "--instance", str(path), "--max-states", "0"]) \
        == 2
    assert "max_states must be positive" in capsys.readouterr().err


def test_distance_identical(tmp_path, capsys):
    doc = channel_instance_doc()
    doc = instanceio.InstanceDoc(domain=doc.domain, t1=doc.t1, t2=doc.t1)
    path = tmp_path / "same.json"
    instanceio.save(doc, path)
    assert main(["distance", "--instance", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 0


def test_render_channel_triangles(tmp_path, capsys):
    doc = channel_instance_doc()
    path = tmp_path / "channel.json"
    instanceio.save(doc, path)
    out = tmp_path / "channel.svg"
    assert main(["render", "--instance", str(path), "--out", str(out)]) == 0
    svg = out.read_text()
    assert svg.count("<polygon") == 12    # the twelve channel triangles
    # deterministic output
    out2 = tmp_path / "channel2.svg"
    assert main(["render", "--instance", str(path), "--out", str(out2)]) == 0
    assert out.read_bytes() == out2.read_bytes()


def test_render_instance_has_lock_styling(tmp_path):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    inst_path = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "2",
                 "--out", str(inst_path)]) == 0
    out = tmp_path / "inst.svg"
    assert main(["render", "--instance", str(inst_path),
                 "--out", str(out)]) == 0
    svg = out.read_text()
    assert 'class="locks"' in svg and "stroke-dasharray" in svg


def test_render_missing_instance(tmp_path):
    assert main(["render", "--instance", str(tmp_path / "nope.json"),
                 "--out", str(tmp_path / "x.svg")]) == 5


def test_enumerate_pentagon(tmp_path, capsys):
    ts = [Fraction(j, 5) * 4 - 2 for j in range(5)]
    pts = [pt((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    region = PolygonalRegion(pts, list(range(5)))
    edges = set(region.mandatory_edges) | {(0, 2), (0, 3)}
    doc = instanceio.InstanceDoc(domain=region,
                                 edges=Triangulation(region, edges))
    path = tmp_path / "pent.json"
    instanceio.save(doc, path)
    assert main(["enumerate", "--instance", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["nodes"] == 5 and out["edges"] == 5
    assert main(["enumerate", "--instance", str(path), "--cap", "3"]) == 4


def test_enumerate_h9_counts(tmp_path, capsys):
    # the counts printed without building a key match the pinned H_9 graph
    path = tmp_path / "h9.json"
    instanceio.save(channel_instance_doc(9), path)
    assert main(["enumerate", "--instance", str(path), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert (out["nodes"], out["edges"]) == (12870, 51480)


def test_enumerate_cap_admits_exactly_the_graph(tmp_path, capsys):
    # H_7 has 924 triangulations: a cap of 924 admits them all, and a cap
    # one lower exits 4
    path = tmp_path / "h7.json"
    instanceio.save(channel_instance_doc(7), path)
    assert main(["enumerate", "--instance", str(path), "--cap", "924",
                 "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["nodes"] == 924
    assert main(["enumerate", "--instance", str(path), "--cap", "923"]) == 4
    assert capsys.readouterr().err == \
        "error: flip graph exceeds the 923-node cap\n"


def test_enumerate_needs_a_valid_seed(tmp_path, capsys):
    # a document with no triangulation, and one whose seed lacks a
    # diagonal, both exit 2 before any enumeration
    region = PolygonalRegion([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)],
                             [0, 1, 2, 3])
    path = tmp_path / "bare.json"
    instanceio.save(instanceio.InstanceDoc(domain=region), path)
    assert main(["enumerate", "--instance", str(path)]) == 2
    assert capsys.readouterr().err == \
        "error: instance has no triangulation to enumerate from\n"
    instanceio.save(instanceio.InstanceDoc(
        domain=region, edges=Triangulation(region, region.mandatory_edges)),
        path)
    assert main(["enumerate", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: seed invalid: ")


def test_render_instance_without_triangulation(tmp_path):
    region = PolygonalRegion([pt(0, 0), pt(4, 0), pt(0, 4)], [0, 1, 2])
    path = tmp_path / "bare.json"
    instanceio.save(instanceio.InstanceDoc(domain=region), path)
    assert main(["render", "--instance", str(path),
                 "--out", str(tmp_path / "x.svg")]) == 2


def test_distance_capped_channel_via_cli(tmp_path, capsys):
    ch = build_channel((pt(-60, 40), pt(-60, -40)), (pt(60, 40), pt(60, -40)),
                       Fraction(1, 160))
    region = channel_region(ch, cap_near=pt(-80, 0))
    upper, lower = list(range(7)), list(range(7, 14))
    base = set(region.mandatory_edges)
    doc = instanceio.InstanceDoc(
        domain=region,
        t1=Triangulation(region, base | left_edges(upper, lower)),
        t2=Triangulation(region, base | right_edges(upper, lower)))
    path = tmp_path / "capped.json"
    instanceio.save(doc, path)
    assert main(["distance", "--instance", str(path), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["distance"] == 24


def test_verify_refuses_an_invalid_t1(tmp_path, capsys):
    # the replay reads t1's triangles, so verify validates t1 first: a t1
    # without one of its diagonals exits 2 however legal the script is
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    inst_path = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "2",
                 "--out", str(inst_path)]) == 0
    doc = instanceio.load(inst_path)
    dropped = min(doc.t1.edges - doc.domain.mandatory_edges)
    doc.t1 = Triangulation(doc.domain, doc.t1.edges - {dropped})
    instanceio.save(doc, inst_path)
    script_path = tmp_path / "script.json"
    assert main(["script", "--instance", str(inst_path),
                 "--out", str(script_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path),
                 "--script", str(script_path)]) == 2
    assert "t1 is not a valid triangulation" in capsys.readouterr().err


def test_render_refuses_an_invalid_triangulation(tmp_path, capsys):
    doc = channel_instance_doc()
    dropped = min(doc.t1.edges - doc.domain.mandatory_edges)
    doc.t1 = Triangulation(doc.domain, doc.t1.edges - {dropped})
    path = tmp_path / "channel.json"
    instanceio.save(doc, path)
    assert main(["render", "--instance", str(path),
                 "--out", str(tmp_path / "x.svg")]) == 2
    assert "triangulation to render is invalid" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_verify_over_threshold_flag(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    inst_path = tmp_path / "inst.json"
    assert main(["reduce", "--graph", g, "--k", "2",
                 "--out", str(inst_path)]) == 0
    capsys.readouterr()
    # covering all three vertices is legal but exceeds 2k' + 28|E'|
    script_path = tmp_path / "big.json"
    assert main(["script", "--instance", str(inst_path), "--cover", "0,1,2",
                 "--out", str(script_path)]) == 0
    capsys.readouterr()
    assert main(["verify", "--instance", str(inst_path),
                 "--script", str(script_path), "--json"]) == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "PASS" and rep["length"] == 90
    assert rep["over_threshold"] is True


def test_malformed_instance_json_exits_2(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["distance", "--instance", str(path)]) == 2


@pytest.mark.parametrize("line", ["v x", "v 0 a b", "v 0 1/0 2"])
def test_malformed_graph_number_exits_2(tmp_path, capsys, line):
    g = write(tmp_path / "bad.txt", f"{line}\nv 1\ne 0 1\n")
    assert main(["vc", "--graph", g]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 1:") and "Traceback" not in err


def test_malformed_instance_number_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [["1/0", "0"], ["1", "0"], ["0", "1"]],
                                "t1": [[0, 1], [1, 2], [0, 2]],
                                "t2": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["distance", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("text", ["[%s]" % ("7" * 5000), "[" * 100000],
                         ids=["5000-digit-integer", "deep-nesting"])
@pytest.mark.parametrize("command", ["distance", "verify"])
def test_overlong_integer_or_deep_nesting_exits_2(tmp_path, capsys, command,
                                                  text):
    bad = write(tmp_path / "bad.json", text)
    if command == "distance":
        argv = ["distance", "--instance", bad]
    else:
        doc = channel_instance_doc()
        doc.gadget_metadata = {"channels": [], "gadgets": []}
        inst = tmp_path / "inst.json"
        instanceio.save(doc, inst)
        argv = ["verify", "--instance", str(inst), "--script", bad]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: malformed JSON:")


def test_graph_coordinate_with_exponent_exits_2(tmp_path, capsys):
    g = write(tmp_path / "bad.txt", "v 0 0 0\nv 1 1e5 0\ne 0 1\n")
    assert main(["vc", "--graph", g]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: bad coordinate")


def test_instance_coordinate_with_exponent_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [["1e5", "0"], ["1", "0"], ["0", "1"]],
                                "t1": [[0, 1], [1, 2], [0, 2]],
                                "t2": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["distance", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: bad coordinate '1e5'")


def test_instance_boolean_coordinate_exits_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [["0", "0"], [True, "0"],
                                           ["0", True]],
                                "t1": [[0, 1], [1, 2], [0, 2]],
                                "t2": [[0, 1], [1, 2], [0, 2]]}))
    assert main(["distance", "--instance", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: coordinate True must be")


@pytest.mark.parametrize("bad", [{"outer": ["a", 1, 2]},
                                 {"outer": [0, 1, 2], "holes": 5},
                                 {"t1": [[0, 1], [1, 2], [0, 1.5]]}])
def test_malformed_indices_exit_2(tmp_path, capsys, bad):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"points": [["0", "0"], ["1", "0"], ["0", "1"]],
                                "t1": [[0, 1], [1, 2], [0, 2]],
                                "t2": [[0, 1], [1, 2], [0, 2]], **bad}))
    assert main(["distance", "--instance", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_script_with_non_string_start_exits_2(tmp_path, capsys):
    doc = channel_instance_doc()
    doc.gadget_metadata = {"channels": [], "gadgets": []}
    inst = tmp_path / "inst.json"
    instanceio.save(doc, inst)
    script = write(tmp_path / "script.json", json.dumps({"start": 5, "moves": []}))
    assert main(["verify", "--instance", str(inst), "--script", script]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["script", "verify"])
def test_empty_gadget_metadata_exits_2(tmp_path, capsys, command):
    doc = channel_instance_doc()
    doc.gadget_metadata = {}
    inst = tmp_path / "inst.json"
    instanceio.save(doc, inst)
    other = {"script": ["--out", str(tmp_path / "out.json")],
             "verify": ["--script", write(tmp_path / "s.json", "{}")]}[command]
    assert main([command, "--instance", str(inst), *other]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def c3_files(tmp_path, capsys):
    """A C3 reduction instance and a script for its cover {0, 1}."""
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    inst, script = tmp_path / "inst.json", tmp_path / "script.json"
    assert main(["reduce", "--graph", g, "--k", "2", "--out", str(inst)]) == 0
    assert main(["script", "--instance", str(inst), "--cover", "0,1",
                 "--out", str(script)]) == 0
    capsys.readouterr()
    return inst, script


def no_gadgets(meta):
    meta["gadgets"] = []


def far_upper_point(meta):
    meta["channels"][0]["upper"][0] = 1000000


def cap_at_other_vertex(meta):
    caps = meta["channels"][0]["caps"]
    caps["7"] = caps.pop(next(iter(caps)))


def first_channel_end(meta, name):
    """The first channel's record `name`, and the key of its first end."""
    c = meta["channels"][0]
    return c[name], str(c["edge"][0])


def chains_of_five(meta):
    c = meta["channels"][0]
    c["upper"], c["lower"] = c["upper"][:5], c["lower"][:5]


def short_lower_chain(meta):
    meta["channels"][0]["lower"].pop()


def drop_first_end(name):
    def corrupt(meta):
        per_end, end = first_channel_end(meta, name)
        del per_end[end]
    corrupt.__name__ = f"no_{name}_at_first_end"
    return corrupt


def one_index_gate(meta):
    gates, end = first_channel_end(meta, "gates")
    gates[end] = gates[end][:1]


def one_move_cap_script(meta):
    scripts, end = first_channel_end(meta, "cap_scripts")
    scripts[end] = scripts[end][:1]


def second_copy_of_channel(meta):
    meta["channels"].append(copy.deepcopy(meta["channels"][0]))


def second_copy_of_gadget(meta):
    meta["gadgets"].append(copy.deepcopy(meta["gadgets"][0]))


def gadget_without_c(meta):
    del meta["gadgets"][0]["points"]["C"]


def gadget_with_c_and_d_swapped(meta):
    points = meta["gadgets"][0]["points"]
    points["C"], points["D"] = points["D"], points["C"]


@pytest.mark.parametrize("command", ["script", "verify"])
@pytest.mark.parametrize("corrupt, message", [
    (no_gadgets, "has no gadget"),
    (far_upper_point, "names point 1000000"),
    (cap_at_other_vertex, "has caps for 7"),
    (chains_of_five, "has chains of 5 and 5 points, not 7"),
    (short_lower_chain, "has chains of 7 and 6 points, not 7"),
    *((drop_first_end(name), f"has no {name} for 0")
      for name in ("gates", "caps", "cap_scripts", "blocking")),
    (one_index_gate, "not an index pair"),
    (one_move_cap_script, "has a 1-move cap script at 0, not 2"),
    (second_copy_of_channel, "channel (0, 1) is listed twice"),
    (second_copy_of_gadget, "gadget 0 is listed twice"),
    (gadget_without_c, "gadget 0 has points ['D', 'E', 'F'], not C, D, E "
                       "and F"),
    (gadget_with_c_and_d_swapped, "not CE and DF"),
])
def test_inconsistent_gadget_metadata_exits_2(tmp_path, capsys, command,
                                              corrupt, message):
    inst, script = c3_files(tmp_path, capsys)
    data = json.loads(inst.read_text())
    corrupt(data["gadget_metadata"])
    inst.write_text(json.dumps(data))
    other = {"script": ["--cover", "0,1", "--out", str(tmp_path / "out.json")],
             "verify": ["--script", str(script)]}[command]
    assert main([command, "--instance", str(inst), *other]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: bad gadget metadata:") and message in err


@pytest.mark.parametrize("command", ["script", "verify"])
@pytest.mark.parametrize("accounting", [
    {"k_input": "3"}, {"k_input": None}, {"k_input": 2.5}, {"k_input": True},
    {"k_input": -7}, {"t_outer": -1}, "x", [],
])
def test_bad_accounting_exits_2(tmp_path, capsys, command, accounting):
    inst, script = c3_files(tmp_path, capsys)
    data = json.loads(inst.read_text())
    if isinstance(accounting, dict):
        data["accounting"].update(accounting)
    else:
        data["accounting"] = accounting
    inst.write_text(json.dumps(data))
    other = {"script": ["--cover", "0,1", "--out", str(tmp_path / "out.json")],
             "verify": ["--script", str(script)]}[command]
    assert main([command, "--instance", str(inst), *other]) == 2
    assert capsys.readouterr().err.startswith("error: bad accounting:")


@pytest.mark.parametrize("cover, message", [
    ("a", "--cover must list vertex ids, got 'a'"),
    ("0,1,2,99", "cover names vertices [99] that are not in the graph"),
])
def test_script_bad_cover_exits_2(tmp_path, capsys, cover, message):
    inst, _ = c3_files(tmp_path, capsys)
    assert main(["script", "--instance", str(inst), "--cover", cover,
                 "--out", str(tmp_path / "out.json")]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"


def test_script_uncovered_edge_is_named_once(tmp_path, capsys):
    inst, _ = c3_files(tmp_path, capsys)
    assert main(["script", "--instance", str(inst), "--cover", "0",
                 "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == "error: edge (1, 2) is uncovered\n"


def test_distance_negative_budget_exits_2(tmp_path, capsys):
    path = tmp_path / "channel.json"
    instanceio.save(channel_instance_doc(), path)
    assert main(["distance", "--instance", str(path), "--budget", "-1"]) == 2
    err = capsys.readouterr().err
    assert err == "error: budget must be nonnegative, got -1\n"


@pytest.mark.parametrize("cap", ["-1", "0"])
def test_enumerate_nonpositive_cap_exits_2(tmp_path, capsys, cap):
    path = tmp_path / "channel.json"
    instanceio.save(channel_instance_doc(), path)
    assert main(["enumerate", "--instance", str(path), "--cap", cap]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cap must be positive, got {cap}\n"


def test_verify_names_an_illegal_move(tmp_path, capsys):
    # a script whose move 5 removes an edge t1 does not hold exits 2 and
    # names the move
    inst, script = c3_files(tmp_path, capsys)
    data = json.loads(script.read_text())
    removed, inserted = data["moves"][5]
    data["moves"][5] = [inserted, removed]
    script.write_text(json.dumps(data))
    assert main(["verify", "--instance", str(inst),
                 "--script", str(script)]) == 2
    bad = f"FlipMove(removed={tuple(inserted)}, inserted={tuple(removed)})"
    assert capsys.readouterr().err == f"error: move 5 ({bad}) is illegal\n"
