import json
from fractions import Fraction

import pytest

from flipdist import instanceio
from flipdist.cli import main
from flipdist.gadgets import (build_channel, channel_region, left_edges,
                              right_edges)
from flipdist.geometry import pt
from flipdist.triangulation import PolygonalRegion, Triangulation

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


def write(path, text):
    path.write_text(text, encoding="ascii")
    return str(path)


def channel_instance_doc():
    ch = build_channel((pt(-60, 40), pt(-60, -40)), (pt(60, 40), pt(60, -40)),
                       Fraction(1, 160))
    region = channel_region(ch)
    upper, lower = list(range(7)), list(range(7, 14))
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


def test_reduce_rejects_nonplanar(tmp_path, capsys):
    text = "\n".join([f"v {i}" for i in range(5)]
                     + [f"e {i} {j}" for i in range(5) for j in range(i + 1, 5)])
    g = write(tmp_path / "k5.txt", text)
    assert main(["reduce", "--graph", g, "--k", "3",
                 "--out", str(tmp_path / "x.json")]) == 2


def test_reduce_pointset(tmp_path, capsys):
    g = write(tmp_path / "c3.txt", C3_GRAPH)
    out = tmp_path / "ps.json"
    assert main(["reduce", "--graph", g, "--k", "2", "--pointset",
                 "--multiplicity", "1", "--out", str(out), "--json"]) == 0
    doc = instanceio.load(out)
    from flipdist.triangulation import PointSet, validate
    assert isinstance(doc.domain, PointSet)
    assert validate(doc.t1).ok and validate(doc.t2).ok


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
