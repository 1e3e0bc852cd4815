import random
from fractions import Fraction

import pytest

from flipdist.errors import DomainMismatchError, IllegalFlipError, ValidationError
from flipdist.gadgets import build_channel, channel_region, channel_triangulations
from flipdist.geometry import pt
from flipdist.search import enumerate_flip_graph
from flipdist.triangulation import (
    FlipMove, PointSet, PolygonalRegion, Triangulation, derive_triangles,
    ear_clip_triangulation, edge, edge_difference, validate,
)
from flipdist import instanceio


def convex_polygon_region(n):
    """Strictly convex n-gon with rational vertices on the unit circle."""
    from fractions import Fraction
    ts = [Fraction(j, n) * 4 - 2 for j in range(n)]  # spread tan-half-angles
    pts = [pt((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    return PolygonalRegion(pts, list(range(n)))


def quad_region():
    return PolygonalRegion([pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)], [0, 1, 2, 3])


def fan_triangulation(region, apex=0):
    n = len(region.points)
    edges = set(region.mandatory_edges)
    for k in range(n):
        if k != apex:
            edges.add(edge(apex, k))
    return Triangulation(region, edges)


def test_quad_fan_is_valid():
    region = quad_region()
    t = Triangulation(region, list(region.mandatory_edges) + [(0, 2)])
    assert validate(t).ok
    assert t.triangles == frozenset({(0, 1, 2), (0, 2, 3)})


def test_quad_both_diagonals_invalid():
    region = quad_region()
    t = Triangulation(region, list(region.mandatory_edges) + [(0, 2), (1, 3)])
    report = validate(t)
    assert not report.ok
    assert [v for v in report.violations if "cross" in v] == \
        ["edges (0, 2) and (1, 3) cross"]


def test_quad_missing_diagonal_not_maximal():
    region = quad_region()
    t = Triangulation(region, list(region.mandatory_edges))
    report = validate(t)
    assert not report.ok
    assert any("maximal" in v for v in report.violations)


def test_legal_flips_on_quad():
    region = quad_region()
    t = Triangulation(region, list(region.mandatory_edges) + [(0, 2)])
    assert t.legal_flips() == [FlipMove((0, 2), (1, 3))]
    t2 = t.apply_flip(FlipMove((0, 2), (1, 3)))
    assert (1, 3) in t2.edges and (0, 2) not in t2.edges
    assert validate(t2).ok
    # involution
    t3 = t2.apply_flip(FlipMove((1, 3), (0, 2)))
    assert t3.edges == t.edges


def test_flip_reversibility_and_delta():
    region = convex_polygon_region(8)
    t = fan_triangulation(region)
    rng = random.Random(7)
    for _ in range(60):
        moves = t.legal_flips()
        m = rng.choice(moves)
        t2 = t.apply_flip(m)
        only1, only2 = edge_difference(t, t2)
        assert only1 == {m.removed} and only2 == {m.inserted}
        assert m.reverse() in t2.legal_flips()
        assert len(t2.triangles) == len(t.triangles)
        assert validate(t2).ok
        t = t2


def test_illegal_flip_raises():
    region = quad_region()
    t = Triangulation(region, list(region.mandatory_edges) + [(0, 2)])
    with pytest.raises(IllegalFlipError):
        t.apply_flip(FlipMove((0, 1), (2, 3)))


def reflex_quad():
    region = PolygonalRegion(
        [pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4)], [0, 1, 2, 3])
    return Triangulation(region, list(region.mandatory_edges) + [(0, 2)])


def test_reflex_quad_has_no_flip():
    # reflex quadrilateral: the single diagonal cannot be flipped
    t = reflex_quad()
    assert validate(t).ok
    assert t.legal_flips() == []


def test_triangle_domain_no_flips():
    region = convex_polygon_region(3)
    t = Triangulation(region, list(region.mandatory_edges))
    assert validate(t).ok
    assert t.legal_flips() == []


def test_canonical_key():
    region = quad_region()
    t1 = Triangulation(region, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 2)])
    t1b = Triangulation(region, [(0, 2), (0, 3), (2, 3), (1, 2), (0, 1)])
    t2 = t1.apply_flip(FlipMove((0, 2), (1, 3)))
    assert t1.canonical_key() == t1b.canonical_key()
    assert t1.canonical_key() != t2.canonical_key()


def test_edge_difference_domain_mismatch():
    r1 = quad_region()
    r2 = convex_polygon_region(4)
    t1 = Triangulation(r1, list(r1.mandatory_edges) + [(0, 2)])
    t2 = Triangulation(r2, list(r2.mandatory_edges) + [(0, 2)])
    with pytest.raises(DomainMismatchError):
        edge_difference(t1, t2)


def test_point_set_with_interior_point():
    ps = PointSet([pt(0, 0), pt(4, 0), pt(0, 4), pt(1, 1)])
    t = Triangulation(ps, [(0, 1), (1, 2), (0, 2)][:0] or
                      [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3)])
    assert validate(t).ok
    assert len(t.triangles) == 3


def test_point_set_collinear_hull_points_mandatory():
    ps = PointSet([pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4)])
    assert (0, 1) in ps.mandatory_edges and (1, 2) in ps.mandatory_edges
    assert (0, 2) not in ps.mandatory_edges
    t = Triangulation(ps, [(0, 1), (1, 2), (0, 3), (2, 3), (1, 3)])
    assert validate(t).ok


def point_hole_square():
    region = PolygonalRegion(
        [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2)],
        [0, 1, 2, 3], holes=[[4]])
    return Triangulation(region, list(region.mandatory_edges)
                         + [(0, 4), (1, 4), (2, 4), (3, 4)])


def triangle_hole_square():
    # square with a clockwise triangular hole
    region = PolygonalRegion(
        [pt(0, 0), pt(6, 0), pt(6, 6), pt(0, 6), pt(2, 2), pt(3, 4), pt(4, 2)],
        [0, 1, 2, 3], holes=[[4, 5, 6]])
    edges = list(region.mandatory_edges) + [
        (0, 4), (1, 4), (1, 6), (1, 2), (2, 6), (2, 5), (3, 5), (3, 4), (0, 3)]
    edges = [e for e in edges if e not in region.mandatory_edges]
    return Triangulation(region, list(region.mandatory_edges) + edges)


def small_channel():
    return build_channel((pt(-60, 40), pt(-60, -40)), (pt(60, 40), pt(60, -40)),
                         Fraction(1, 160), n=5)


def test_region_with_point_hole():
    t = point_hole_square()
    region = t.domain
    assert validate(t).ok
    assert len(t.triangles) == region.expected_triangle_count == 4


def test_region_with_polygonal_hole():
    t = triangle_hole_square()
    region = t.domain
    report = validate(t)
    assert report.ok, report.violations
    assert len(t.edges) == region.expected_edge_count


def test_region_rejects_bad_structure():
    with pytest.raises(ValidationError):
        PolygonalRegion([pt(0, 0), pt(1, 0), pt(0, 1)], [0, 2, 1])  # clockwise
    with pytest.raises(ValidationError):
        PolygonalRegion(
            [pt(0, 0), pt(4, 0), pt(0, 4), pt(9, 9)], [0, 1, 2], holes=[[3]])
    with pytest.raises(ValidationError):   # a point hole on an outer edge
        PolygonalRegion(
            [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 0)],
            [0, 1, 2, 3], holes=[[4]])


def left_small_channel():
    return channel_triangulations(small_channel())[1]


def capped_small_channel():
    region = channel_region(small_channel(), cap_near=pt(-80, 0))
    return Triangulation(region, ear_clip_triangulation(region, region.outer))


SMALL_SEEDS = [
    (point_hole_square, 1, 4),
    (triangle_hole_square, 8, 10),
    (reflex_quad, 1, 1),
    (left_small_channel, 70, 23),
    (capped_small_channel, 251, 32),
]


def square_with_interior_points():
    # point set: a square hull with two interior points
    ps = PointSet([pt(0, 0), pt(6, 0), pt(6, 6), pt(0, 6), pt(2, 3), pt(4, 1)])
    return Triangulation(ps, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 4), (0, 5),
                              (4, 5), (1, 5), (2, 5), (2, 4), (3, 4)])


@pytest.mark.parametrize("seed, triangulations, diagonals", SMALL_SEEDS)
def test_segment_inside_matches_flip_graph(seed, triangulations, diagonals):
    # a segment can be a triangulation edge iff some triangulation uses it
    t = seed()
    region = t.domain
    assert validate(t).ok
    graph = enumerate_flip_graph(t)
    used = set().union(*graph.nodes.values()) - region.mandatory_edges
    n = len(region.points)
    inside = {(i, j) for i in range(n) for j in range(i + 1, n)
              if region.segment_inside(i, j)} - region.mandatory_edges
    assert len(graph) == triangulations and len(used) == diagonals
    assert inside == used


def closure_by_apply_flip(seed):
    """Flip-graph nodes and adjacency built from the public Triangulation
    API alone: the oracle of `enumerate_flip_graph`."""
    nodes, adjacency, stack = {seed.canonical_key(): seed.edges}, {}, [seed]
    while stack:
        t = stack.pop()
        nbrs = []
        for m in t.legal_flips():
            t_new = t.apply_flip(m)
            nbrs.append(t_new.canonical_key())
            if nbrs[-1] not in nodes:
                nodes[nbrs[-1]] = t_new.edges
                stack.append(t_new)
        adjacency[t.canonical_key()] = sorted(nbrs)
    return nodes, adjacency


@pytest.mark.parametrize("seed", [s[0] for s in SMALL_SEEDS]
                         + [square_with_interior_points])
def test_flip_graph_matches_closure_oracle(seed):
    t = seed()
    assert validate(t).ok
    graph = enumerate_flip_graph(t)
    nodes, adjacency = closure_by_apply_flip(t)
    assert list(graph.nodes.items()) == list(nodes.items())
    assert graph.adjacency == adjacency
    assert graph.representatives.keys() == nodes.keys()
    for key, rep in graph.representatives.items():
        assert rep.canonical_key() == key and rep.edges == nodes[key]
        assert rep.triangles == derive_triangles(t.domain, rep.edges)
        assert validate(rep).ok


def test_instance_roundtrip_bytes_identical(tmp_path):
    region = PolygonalRegion(
        [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1), pt("1/2", "1/2")],
        [0, 1, 2, 3], holes=[[4]])
    t1 = Triangulation(region, list(region.mandatory_edges)
                       + [(0, 4), (1, 4), (2, 4), (3, 4)])
    doc = instanceio.InstanceDoc(domain=region, t1=t1, t2=t1,
                                 accounting={"threshold": 88})
    text = instanceio.dumps(doc)
    again = instanceio.dumps(instanceio.loads(text))
    assert text == again
    path = tmp_path / "inst.json"
    instanceio.save(doc, path)
    assert instanceio.dumps(instanceio.load(path)) == text
    loaded = instanceio.load(path)
    assert loaded.domain == region
    assert loaded.t1.edges == t1.edges


def test_graph_text_parsing():
    ids, coords, edges, outer = instanceio.parse_graph_text(
        "# demo\nv 0 0 0\nv 1 4 0\nv 2 0 4\ne 0 1\ne 1 2\ne 2 0\nouter 0 1 2\n")
    assert ids == [0, 1, 2]
    assert coords[1] == pt(4, 0)
    assert edges == [(0, 1), (1, 2), (2, 0)]
    assert outer == [0, 1, 2]
