import itertools
import random
from collections import defaultdict
from fractions import Fraction
from math import lcm
from unittest import mock

import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

from flipdist.errors import (CapExceededError, DomainMismatchError,
                             IllegalFlipError, ValidationError)
from flipdist.gadgets import build_channel, channel_region, channel_triangulations
from flipdist.geometry import orientation, pt
from flipdist.reduction import region_to_pointset
from flipdist.search import (_FlipKernel, _heap_key, _key, bfs_distance,
                             enumerate_flip_graph, exact_distance)
from flipdist.triangulation import (
    FlipMove, PointSet, PolygonalRegion, Triangulation, canonical_cycle,
    derive_apexes, ear_clip_with_triangles, edge, flip_is_convex,
    hull_cycle, replay, validate, walk_segment,
)
from flipdist import instanceio
from oracles import (PointSetByFormulas, apexes_by_side, apply_flip_by_copy,
                     canonical_cycle_all_rotations,
                     check_nesting_unfiltered, derive_triangles_by_faces,
                     edge_difference, flip_graph_by_triangulations,
                     flip_is_convex_four_orientations,
                     hull_cycle_by_scans, replay_by_copies, segment_inside,
                     segment_inside_by_midpoint, triangle_apexes,
                     validate_by_segments, validate_with_sweep)


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


@given(st.lists(st.integers(0, 5), min_size=1, max_size=12))
@example([0, 1, 2, 1])           # the face around a bridge 1-2
@example([3, 0, 4, 0, 5, 0])     # a vertex repeated three times
def test_canonical_cycle_matches_all_rotations(cycle):
    assert canonical_cycle(cycle) == canonical_cycle_all_rotations(cycle)


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


@st.composite
def grid_point_sets(draw):
    """Distinct points of a 5x5 integer grid, not all on one line: hull
    sides holding several points, and interior points, are common."""
    pts = draw(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                        min_size=3, max_size=12, unique=True))
    assume(any(orientation(pts[0], pts[1], p) for p in pts[2:]))
    return [pt(x, y) for x, y in pts]


@settings(max_examples=150)
@given(grid_point_sets())
@example([pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4), pt(1, 1), pt(2, 2)])
def test_point_set_region_matches_formulas(pts):
    """A point set as the region its hull bounds, each other point a point
    hole, has the boundary, counts and area of the point-set formulas and
    the `segment_inside` of a scan over every point, on every pair; its
    computed boundary passes the structure check it skips."""
    ps, oracle = PointSet(pts), PointSetByFormulas(pts)
    assert ps.boundary_cycles == oracle.boundary_cycles
    assert ps.mandatory_edges == oracle.mandatory_edges
    assert (ps.expected_edge_count, ps.expected_triangle_count, ps.area2) \
        == (oracle.expected_edge_count, oracle.expected_triangle_count,
            oracle.area2)
    for i, j in itertools.permutations(range(len(pts)), 2):
        assert segment_inside(ps, i, j) == oracle.segment_inside(i, j), (i, j)
    region = PolygonalRegion(pts, ps.outer, ps.holes)
    assert region.mandatory_edges == ps.mandatory_edges
    assert region.expected_edge_count == ps.expected_edge_count


@settings(max_examples=300)
@given(st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)),
                min_size=1, max_size=14, unique=True))
@example([(0, 0), (0, 2), (0, 4), (2, 0), (4, 0), (4, 2), (4, 4), (2, 4)])
@example([(0, 0), (0, 1), (0, 3), (3, 1), (3, 2), (3, 4), (1, 2)])
@example([(1, 0), (1, 1), (1, 3)])
@example([(0, 0), (1, 1), (2, 2), (4, 4)])
def test_hull_cycle_matches_scan_oracle(pts):
    """On points of a 5x5 grid, where hull sides holding several points and
    vertical sides at both ends are common, the one-pass monotone chain
    lists the cycle of the per-side `on_segment` scans, and both reject a
    set whose points all lie on one line."""
    try:
        want = hull_cycle_by_scans(pts)
    except ValidationError as exc:
        with pytest.raises(ValidationError, match=str(exc)):
            hull_cycle(pts)
        assert all(orientation(pts[0], pts[1], p) == 0 for p in pts[2:])
        return
    assert hull_cycle(pts) == want


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


SQUARE = [pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4)]


@pytest.mark.parametrize("extra, holes, message", [
    # a hole crossing outer edge (1, 2) twice: the smallest pair is named
    ([pt(3, 1), pt(3, 3), pt(5, 2)], [[4, 5, 6]],
     "boundary edges (1, 2) and (5, 6) intersect"),
    # a hole reusing outer edge (0, 1): repeated indices are caught first,
    # so a duplicate boundary edge never reaches the pairwise test
    ([pt(2, 2)], [[1, 0, 4]], "index 1 used twice on boundaries"),
    # a hole vertex inside outer edge (1, 2): its hole edges touch that edge
    ([pt(4, 2), pt(2, 1), pt(2, 3)], [[4, 5, 6]],
     "boundary edges (1, 2) and (4, 5) intersect"),
    # point holes on outer edge (0, 1): the smallest index is named
    ([pt(3, 0), pt(1, 0)], [[5], [4]], "point 4 lies on boundary edge (0, 1)"),
    # a point on edge (0, 1) and a hole crossing edge (1, 2): the crossing
    # is named although the point's pair sorts first
    ([pt(2, 0), pt(3, 1), pt(3, 3), pt(5, 2)], [[4], [5, 6, 7]],
     "boundary edges (1, 2) and (6, 7) intersect"),
    # a hole wholly outside the outer cycle
    ([pt(5, 1), pt(5, 3), pt(7, 2)], [[4, 5, 6]],
     "hole vertex 4 is not strictly inside the outer boundary"),
])
def test_region_error_messages(extra, holes, message):
    with pytest.raises(ValidationError) as exc:
        PolygonalRegion(SQUARE + extra, [0, 1, 2, 3], holes)
    assert str(exc.value) == message


def region_outcome(points, outer, holes):
    """The `ValidationError` message of building the region, or None."""
    try:
        PolygonalRegion(points, outer, holes)
    except ValidationError as exc:
        return str(exc)
    return None


# triangles scaled about four centres, so that nested and disjoint holes
# are common; each fills 3/8 of its bounding box.  Point holes sit off the
# integer grid, so they never repeat a vertex.
triangles = st.lists(st.tuples(st.sampled_from([4, 8]), st.sampled_from([4, 8]),
                               st.integers(1, 3)),
                     max_size=3, unique=True).map(
    lambda ts: [[(cx - r, cy - r), (cx, cy + r), (cx + r, cy)]
                for cx, cy, r in ts])
dots = st.lists(st.tuples(st.integers(1, 10), st.integers(1, 10)),
                max_size=3, unique=True).map(
    lambda ds: [(Fraction(2 * x + 1, 2), Fraction(2 * y + 1, 2))
                for x, y in ds])


@settings(max_examples=200)
@given(triangles, dots)
@example([[(2, 2), (10, 2), (6, 10)], [(5, 4), (7, 4), (6, 6)]], [])
@example([[(2, 2), (10, 2), (6, 10)]], [(6, 4)])
@example([[(2, 2), (10, 2), (6, 10)]], [(3, 9), (1, 1)])
@example([[(14, 2), (20, 2), (17, 6)]], [])
@example([], [(13, 13)])
@example([[(2, 2), (10, 2), (2, 10)], [(9, 9), (9, 11), (11, 9)]], [(9, 7)])
@example([[(2, 2), (10, 2), (6, 10)]], [(6, Fraction(19, 2))])
@example([[(2, 2), (10, 2), (2, 10)]], [(Fraction(5, 2), 5)])
def test_nesting_check_matches_unfiltered_oracle(tris, dots):
    """The sweep changes no answer: triangular holes and point holes in a
    12 x 12 square, nested, inside a hole's box but not the hole, or
    outside the square, give the same message (or none) as the oracle that
    locates every hole's first vertex against every other cycle."""
    points = [pt(0, 0), pt(12, 0), pt(12, 12), pt(0, 12)]
    holes = []
    for tri_pts in tris:
        if orientation(*tri_pts) > 0:        # holes run clockwise
            tri_pts = tri_pts[::-1]
        holes.append(list(range(len(points), len(points) + 3)))
        points += [pt(x, y) for x, y in tri_pts]
    for x, y in dots:
        holes.append([len(points)])
        points.append(pt(x, y))
    got = region_outcome(points, [0, 1, 2, 3], holes)
    with mock.patch.object(PolygonalRegion, "_check_nesting",
                           check_nesting_unfiltered):
        assert region_outcome(points, [0, 1, 2, 3], holes) == got


@pytest.mark.parametrize("inner_first", [True, False])
def test_nested_square_holes_rejected_in_either_order(inner_first):
    # the square (4,4)-(6,6) inside the square (2,2)-(8,8), both clockwise
    # holes of a 10 x 10 square: nesting is found whichever comes first
    inner = [pt(4, 4), pt(4, 6), pt(6, 6), pt(6, 4)]
    outer = [pt(2, 2), pt(2, 8), pt(8, 8), pt(8, 2)]
    holes = inner + outer if inner_first else outer + inner
    points = [pt(0, 0), pt(10, 0), pt(10, 10), pt(0, 10)] + holes
    cycles = [[4, 5, 6, 7], [8, 9, 10, 11]]
    assert region_outcome(points, [0, 1, 2, 3], cycles) == "nested holes"
    with mock.patch.object(PolygonalRegion, "_check_nesting",
                           check_nesting_unfiltered):
        assert region_outcome(points, [0, 1, 2, 3], cycles) == "nested holes"


@settings(max_examples=100,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.fractions(-50, 50, max_denominator=1000),
                          st.fractions(-50, 50, max_denominator=1000)),
                min_size=1, max_size=12, unique=True))
def test_grid_scaling_builds_no_fraction(count_fractions, coords):
    # integer scaling gives the grid that Fraction products gave
    region = PolygonalRegion.__new__(PolygonalRegion)
    region.points = tuple(pt(x, y) for x, y in coords)
    scale = lcm(*(c.denominator for p in region.points for c in p))
    want = [(int(p.x * scale), int(p.y * scale)) for p in region.points]
    with count_fractions() as built:
        region._setup_grid()
    assert built == [] and region.ipoints == want


# a square and a triangle inside it with non-integer coordinates, so the
# orientation is read on the scaled grid, not on the given points
THIRDS = [pt(Fraction(1, 3), Fraction(1, 7)), pt(Fraction(10, 3), Fraction(1, 7)),
          pt(Fraction(10, 3), Fraction(22, 7)), pt(Fraction(1, 3), Fraction(22, 7)),
          pt(Fraction(5, 6), Fraction(1, 2)), pt(Fraction(5, 6), Fraction(5, 2)),
          pt(Fraction(5, 2), Fraction(3, 2))]


@pytest.mark.parametrize("outer, holes, message", [
    ([3, 2, 1, 0], [], "outer boundary must be counterclockwise"),
    ([0, 1, 2, 3], [[4, 6, 5]], "hole boundaries must be clockwise"),
])
def test_region_orientation_errors(outer, holes, message):
    points = THIRDS if holes else THIRDS[:4]
    with pytest.raises(ValidationError) as exc:
        PolygonalRegion(points, outer, holes)
    assert str(exc.value) == message
    # the same cycles turned the right way round make a valid region
    region = PolygonalRegion(points, [0, 1, 2, 3],
                             [[4, 5, 6]] if holes else [])
    assert region.area2 > 0


def left_small_channel():
    return channel_triangulations(small_channel())[1]


def capped_small_channel():
    region = channel_region(small_channel(), cap_near=pt(-80, 0))
    edges, _ = ear_clip_with_triangles(region, region.outer)
    return Triangulation(region, edges)


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
              if segment_inside(region, i, j)} - region.mandatory_edges
    assert len(graph) == triangulations and len(used) == diagonals
    assert inside == used
    assert all(segment_inside(region, i, j)
               == segment_inside_by_midpoint(region, i, j)
               for i in range(n) for j in range(n) if i != j)


@pytest.mark.parametrize("seed, triangulations",
                         [s[:2] for s in SMALL_SEEDS if s[1] > 1])
def test_enumeration_cap_admits_exactly_the_graph(seed, triangulations,
                                                  monkeypatch):
    # a cap of the node count succeeds, one lower raises, and each node
    # after the seed has its state built once
    t = seed()
    calls = []
    child = _FlipKernel.child
    monkeypatch.setattr(_FlipKernel, "child",
                        lambda *args: calls.append(None) or child(*args))
    graph = enumerate_flip_graph(t, cap=triangulations)
    assert len(graph) == triangulations
    assert len(calls) == triangulations - 1
    with pytest.raises(CapExceededError):
        enumerate_flip_graph(t, cap=triangulations - 1)


@pytest.mark.parametrize("seed", [s[0] for s in SMALL_SEEDS]
                         + [square_with_interior_points])
def test_flip_graph_matches_closure_oracle(seed):
    # holes, reflex corners, channels, a capped channel and a point set:
    # enumeration equals the closure built from the public API, and exact
    # search equals plain BFS on a seeded sample of node pairs
    t = seed()
    assert validate(t).ok
    graph = enumerate_flip_graph(t)
    nodes, adjacency = flip_graph_by_triangulations(t)
    # the counts come from the index form, before any key is built
    assert (len(graph), graph.flip_count) == \
        (len(nodes), sum(map(len, adjacency.values())) // 2)
    assert list(graph.nodes.items()) == list(nodes.items())
    assert list(graph.adjacency.items()) == list(adjacency.items())
    for key, edges in graph.nodes.items():
        rep = Triangulation(t.domain, edges)
        assert rep.canonical_key() == key
        assert validate(rep).ok
    rng = random.Random(seed.__name__)
    for _ in range(8):
        t1, t2 = (Triangulation(t.domain, nodes[rng.choice(list(nodes))])
                  for _ in range(2))
        res = exact_distance(t1, t2)
        assert res.distance == bfs_distance(t1, t2) == len(res.script)
        assert res.script.replay(t1).canonical_key() == t2.canonical_key()


@pytest.fixture(scope="module")
def differential_seeds(c3_instance):
    """Valid triangulations to mutate: the small seeds, a point set with
    interior points, and the C3 reduction's region (three channels) and
    its point set."""
    seeds = {s.__name__: s() for s, _, _ in SMALL_SEEDS}
    seeds["square_with_interior_points"] = square_with_interior_points()
    seeds["c3_region"] = c3_instance.t1
    seeds["c3_pointset"] = region_to_pointset(c3_instance, multiplicity=1).t1
    return seeds


def mutated(data, t):
    """`t` after up to five random flips, with one to three edges then
    swapped, added or dropped; a swap removes a non-boundary edge when there
    is one.  A new segment is the other diagonal of the quadrilateral around
    the chosen edge (a flip when the quadrilateral is convex, else a segment
    outside the domain or across other edges), joins an end of that edge to
    a vertex two steps away, or joins any two points."""
    for _ in range(data.draw(st.integers(0, 5), label="flips")):
        moves = t.legal_flips()
        if moves:
            t = t.apply_flip(data.draw(st.sampled_from(moves)))
    apexes = t.edge_apexes()
    nbrs = defaultdict(set)
    for u, v in t.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)
    n = len(t.domain.points)
    inner = sorted(t.edges - t.domain.mandatory_edges)
    edges = set(t.edges)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        kind = data.draw(st.sampled_from(["swap", "add", "drop"]))
        u, v = data.draw(st.sampled_from(
            inner if kind == "swap" and inner else sorted(t.edges)))
        if kind != "add":
            edges.discard((u, v))
        if kind != "drop":
            two_steps = sorted({w for x in nbrs[u] for w in nbrs[x]} - {u})
            choices = [
                st.sampled_from(two_steps).map(lambda w: edge(u, w)),
                st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
                .map(lambda p: edge(p[0], (p[0] + p[1]) % n))]
            if len(apexes[(u, v)]) == 2:
                choices.insert(0, st.just(edge(*apexes[(u, v)])))
            edges.add(data.draw(st.one_of(choices)))
    return Triangulation(t.domain, edges)


@pytest.mark.parametrize("seed", [s.__name__ for s, _, _ in SMALL_SEEDS]
                         + ["square_with_interior_points", "c3_region",
                            "c3_pointset"])
@settings(max_examples=40)
@given(data=st.data())
def test_certificate_matches_segment_oracle(differential_seeds, seed, data):
    t = mutated(data, differential_seeds[seed])
    fast, slow = validate(t), validate_by_segments(t)
    assert fast.ok == slow.ok, (fast.violations, slow.violations)
    assert fast.ok == (fast.violations == [])
    assert slow.ok == (slow.violations == [])


def crossing_swap(data, t):
    """t after a few random flips, with one non-boundary edge swapped for a
    segment that is not an edge, so the edge count stays maximal; the new
    segment mostly crosses an edge or leaves the domain."""
    for _ in range(data.draw(st.integers(0, 5), label="flips")):
        moves = t.legal_flips()
        if moves:
            t = t.apply_flip(data.draw(st.sampled_from(moves)))
    inner = sorted(t.edges - t.domain.mandatory_edges)
    if not inner:
        return t
    n = len(t.domain.points)
    removed = data.draw(st.sampled_from(inner), label="removed")
    inserted = data.draw(
        st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        .map(lambda p: edge(p[0], (p[0] + p[1]) % n))
        .filter(lambda e: e not in t.edges), label="inserted")
    return Triangulation(t.domain, (t.edges - {removed}) | {inserted})


@pytest.mark.parametrize("seed", [s.__name__ for s, _, _ in SMALL_SEEDS]
                         + ["square_with_interior_points", "c3_region",
                            "c3_pointset"])
@settings(max_examples=40)
@given(data=st.data())
def test_validate_matches_sweep_oracle(differential_seeds, seed, data):
    # `validate` sweeps for touching edges only after a failed check; the
    # violation list, order included, is that of the sweep-first oracle
    make = crossing_swap if data.draw(st.booleans(), label="swap") else mutated
    t = make(data, differential_seeds[seed])
    assert validate(t).violations == validate_with_sweep(t).violations


WALK_SEEDS = [s.__name__ for s, _, _ in SMALL_SEEDS] + [
    "square_with_interior_points", "c3_region"]


def sorted_apexes(apexes):
    return {e: sorted(aps) for e, aps in apexes.items()}


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_carried_apexes_match_face_walk(differential_seeds, seed):
    # a random flip walk: after every flip the apexes `apply_flip` carried
    # over equal those of the child's triangles, found by the face walk
    t = differential_seeds[seed]
    rng = random.Random(seed)
    for _ in range(60):
        moves = t.legal_flips()
        if not moves:
            break
        t = t.apply_flip(rng.choice(moves))
        fresh = triangle_apexes(derive_triangles_by_faces(t.domain, t.edges))
        assert sorted_apexes(t.edge_apexes()) == sorted_apexes(fresh)


@pytest.mark.parametrize("seed", WALK_SEEDS + ["c3_pointset"])
def test_shared_neighbours_give_the_faces(differential_seeds, seed):
    # along a random flip walk, every triangulation's apexes from shared
    # neighbours, side by side, are those of the faces that the walk of its
    # rotation system finds, each put on its side by its own orientation
    t = differential_seeds[seed]
    rng = random.Random(seed)
    for _ in range(40):
        faces = derive_triangles_by_faces(t.domain, t.edges)
        assert derive_apexes(t.domain, t.edges) == \
            apexes_by_side(t.domain, t.edges, faces)
        assert Triangulation(t.domain, t.edges).triangles == faces
        moves = t.legal_flips()
        if not moves:
            break
        t = t.apply_flip(rng.choice(moves))


@pytest.mark.parametrize("seed", WALK_SEEDS + ["c3_pointset"])
def test_flip_legality_matches_four_orientation_oracle(differential_seeds,
                                                       seed):
    # along a random flip walk, the two-orientation rule agrees with the
    # four corners' turns on every diagonal's apex pair
    t = differential_seeds[seed]
    rng = random.Random(seed)
    for _ in range(40):
        for e, aps in t.edge_apexes().items():
            if len(aps) == 2:
                assert flip_is_convex(t.domain, *e, *aps) == \
                    flip_is_convex_four_orientations(t.domain, *e, *aps), \
                    (e, aps)
        moves = t.legal_flips()
        if not moves:
            break
        t = t.apply_flip(rng.choice(moves))


def test_derive_apexes_rejects_a_collinear_common_neighbour():
    # the contract that keeps every apex map's pair on opposite sides of
    # its edge, as the two-orientation `flip_is_convex` needs: point 1
    # lies on edge (0, 2) and neighbours both its ends
    ps = PointSet([pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1)])
    with pytest.raises(ValidationError,
                       match=r"degenerate triangle face \(0, 1, 2\)"):
        derive_apexes(ps, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def test_walk_carries_on_from_a_vertex_met_mid_segment():
    # from (0,0) toward (4,4) the walk crosses edge (5, 6) and then meets
    # the centre (2,2) as the apex beyond it; from (4,4) it meets the
    # centre at once, along an edge
    ps = PointSet([pt(0, 0), pt(4, 0), pt(4, 4), pt(0, 4), pt(2, 2),
                   pt(1, 2), pt(2, 1)])
    t = Triangulation(ps, [(0, 1), (1, 2), (2, 3), (0, 3), (0, 6), (0, 5),
                           (5, 6), (4, 6), (4, 5), (1, 6), (1, 4), (2, 4),
                           (3, 5), (3, 4)])
    assert validate(t).ok
    assert walk_segment(t, 0, 2) == ([(5, 6)], [4])
    assert walk_segment(t, 2, 0) == ([(5, 6)], [4])
    assert walk_segment(t, 0, 4) == ([(5, 6)], [])
    assert not segment_inside(ps, 0, 2) and segment_inside(ps, 0, 4)


def illegal_moves(t):
    """Moves that are illegal in t: every flip of a non-convex
    quadrilateral, a legal flip's removed edge 'flipped' to itself, and a
    boundary edge flipped to a legal flip's inserted edge."""
    apexes = t.edge_apexes()
    out = [FlipMove(e, edge(*aps)) for e, aps in sorted(apexes.items())
           if len(aps) == 2 and not flip_is_convex(t.domain, *e, *aps)]
    legal = t.legal_flips()
    if legal:
        out.append(FlipMove(legal[0].removed, legal[0].removed))
        out.append(FlipMove(min(t.domain.mandatory_edges), legal[0].inserted))
    return out


@pytest.mark.parametrize("seed", WALK_SEEDS + ["c3_pointset"])
def test_replay_matches_apply_flip_chain(differential_seeds, seed):
    # a random script of legal flips: the in-place replay ends where the
    # chain of copying flips ends, with the same apexes, and leaves its
    # start as it was; with an illegal move spliced in, both stop there
    t = differential_seeds[seed]
    start_edges, start_apexes = t.edges, sorted_apexes(t.edge_apexes())
    rng = random.Random(seed)
    moves, states, cur = [], [t], t
    for _ in range(40):
        legal = cur.legal_flips()
        if not legal:
            break
        moves.append(rng.choice(legal))
        cur = apply_flip_by_copy(cur, moves[-1])
        states.append(cur)
    end = replay(t, moves)
    assert end.edges == replay_by_copies(t, moves).edges == cur.edges
    assert sorted_apexes(end.edge_apexes()) == sorted_apexes(cur.edge_apexes())
    assert (t.edges, sorted_apexes(t.edge_apexes())) == \
        (start_edges, start_apexes)
    spliced = 0
    for k in sorted(rng.sample(range(len(states)), min(6, len(states)))):
        for bad in illegal_moves(states[k])[:3]:
            script = moves[:k] + [bad] + moves[k:]
            with pytest.raises(IllegalFlipError) as exc:
                replay(t, script)
            assert exc.value.index == replay_by_copies(t, script) == k
            spliced += 1
    assert spliced > 0


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_kernel_state_matches_fresh_state(differential_seeds, seed):
    # a random flip walk on the search kernel, whose state holds only the
    # diagonals: the carried (mask, ids, opp) state equals the one built
    # afresh from the edges alone, an entry is a flip index exactly when
    # its quadrilateral is convex, the legal flips come in the order of
    # `legal_flips`, a flip followed by its reverse is the identity, and
    # the bytes key of the full edge ids is the canonical key
    t = differential_seeds[seed]
    kernel = _FlipKernel(t.domain)
    mask, ids, opp = kernel.state(t)
    rng = random.Random(seed)
    for _ in range(60):
        apexes = t.edge_apexes()
        for r, o in zip(ids, opp):
            aps = apexes[kernel.pairs[r]]
            a = kernel.inserted[o] if o >= 0 else ~o
            assert divmod(a, kernel.n) == edge(*aps)
            assert (o >= 0) == flip_is_convex(t.domain, *kernel.pairs[r], *aps)
            if o >= 0:
                assert kernel.removed[o] == r
                assert kernel.delta[o] == kernel.bit[r] ^ kernel.bit[a]
        flips = [(i, f) for i, f in enumerate(opp) if f >= 0]
        moves = [kernel.move(f) for _, f in flips]
        assert moves == t.legal_flips()
        if not flips:
            break
        k = rng.randrange(len(flips))
        i, f = flips[k]
        child_mask = mask ^ kernel.delta[f]
        child_ids, child_opp, j = kernel.child(ids, opp, i, f)
        assert (child_ids[j], child_opp[j]) == (kernel.inserted[f], f ^ 1)
        assert (child_mask ^ kernel.delta[f ^ 1],
                *kernel.child(child_ids, child_opp, j, f ^ 1)) == \
            (mask, ids, opp, i)
        mask, ids, opp = child_mask, child_ids, child_opp
        t = swapped(t, *moves[k])
        assert (mask, ids, opp) == kernel.state(t)
        assert _key(kernel.tokens, kernel.edges(ids)) == t.canonical_key()


def spliced_keys_walk(t, seed):
    """A random flip walk on the kernel: every legal child's spliced heap
    key equals the one joined from its edges, and the keys met order as
    their canonical keys do.  Returns how many splices moved the last
    token."""
    kernel = _FlipKernel(t.domain)
    tokens, width = kernel.tokens, kernel.width

    def joined(ids):
        return _heap_key([tokens[e] for e in kernel.edges(ids)], width)

    _, ids, opp = kernel.state(t)
    key = joined(ids)
    seen = {t.canonical_key(): key}
    moved_last = 0
    rng = random.Random(seed)
    for _ in range(60):
        children = []
        for i, f in enumerate(opp):
            if f < 0:
                continue
            child_ids, child_opp, j = kernel.child(ids, opp, i, f)
            child_key = kernel.splice(*key, i, j, f)
            assert child_key == joined(child_ids)
            moved_last += child_key[1] != key[1]
            seen[_key(tokens, kernel.edges(child_ids))] = child_key
            children.append((child_ids, child_opp, child_key))
        if not children:
            break
        ids, opp, key = rng.choice(children)
    assert len(set(seen.values())) == len(seen)
    assert sorted(seen.values()) == [seen[k] for k in sorted(seen)]
    return moved_last


@pytest.mark.parametrize("seed", WALK_SEEDS)
def test_spliced_keys_order_as_canonical_keys(differential_seeds, seed):
    spliced_keys_walk(differential_seeds[seed], seed)


def test_spliced_keys_move_the_last_token():
    # a convex hexagon labelled out of boundary order, so that its largest
    # edge (4, 5) is a diagonal and flips move the last token
    order = [0, 3, 1, 4, 2, 5]
    corners = convex_polygon_region(6).points
    points = [corners[order.index(k)] for k in range(6)]
    region = PolygonalRegion(points, order)
    edges, _ = ear_clip_with_triangles(region, region.outer)
    t = Triangulation(region, edges)
    assert spliced_keys_walk(t, "hexagon") > 0


def test_heap_key_end_of_key_prefix():
    # "7,8" is a decimal prefix of "7,80": in the middle of a key the
    # separator ";" puts it above, at the key's end it sorts below
    for head, tail in [([b"0,1", b"7,8"], [b"0,1", b"7,80"]),
                       ([b"7,8", b"9,9"], [b"7,80", b"9,9"]),
                       ([b"7,8", b"7,80"], [b"7,80", b"7,9"])]:
        canonical = (b";".join(head) < b";".join(tail))
        assert (_heap_key(head, 6) < _heap_key(tail, 6)) == canonical
        assert (_heap_key(tail, 6) < _heap_key(head, 6)) == (not canonical)


def swapped(t, removed, inserted):
    return Triangulation(t.domain, (t.edges - {removed}) | {inserted})


def collinear_point_set():
    # interior points 3 and 4 lie on the segment from 0 to 4
    ps = PointSet([pt(0, 0), pt(6, 0), pt(3, 6), pt(1, 1), pt(2, 2)])
    t = Triangulation(ps, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (1, 3),
                           (1, 4), (2, 4), (2, 3)])
    assert validate(t).ok
    return swapped(t, (0, 3), (0, 4))


def edge_through_hole():
    # a square annulus; the hole's diagonal replaces a spoke
    region = PolygonalRegion(
        [pt(0, 0), pt(6, 0), pt(6, 6), pt(0, 6),
         pt(2, 2), pt(2, 4), pt(4, 4), pt(4, 2)],
        [0, 1, 2, 3], holes=[[4, 5, 6, 7]])
    t = Triangulation(region, list(region.mandatory_edges) + [
        (0, 4), (0, 7), (1, 7), (1, 6), (2, 6), (2, 5), (3, 5), (3, 4)])
    assert validate(t).ok
    return swapped(t, (0, 7), (4, 6))


def edge_across_pocket():
    # hexagon with reflex vertex 2: segment (1, 3) runs outside, past it
    region = PolygonalRegion(
        [pt(0, 0), pt(6, 0), pt(5, 4), pt(6, 8), pt(0, 8), pt(-2, 4)],
        list(range(6)))
    t = Triangulation(region, list(region.mandatory_edges)
                      + [(0, 2), (0, 3), (0, 4)])
    assert validate(t).ok
    return swapped(t, (0, 2), (1, 3))


def collinear_overlap():
    ps = PointSet([pt(0, 0), pt(2, 0), pt(4, 0), pt(0, 4)])
    return Triangulation(ps, [(0, 1), (1, 2), (0, 3), (2, 3), (0, 2)])


def fan_with_clockwise_triangle():
    # the fan from vertex 1 of the reflex quad: its triangle (1, 2, 3) is
    # the pocket at the reflex vertex 2, clockwise in the boundary's order,
    # so the edge count holds and no two edges touch; only the certificate
    # sees it, with no triangle on the region side of (1, 2) and (2, 3)
    t = reflex_quad()
    return swapped(t, (0, 2), (1, 3))


@pytest.mark.parametrize("make", [collinear_point_set, edge_through_hole,
                                  edge_across_pocket, collinear_overlap,
                                  fan_with_clockwise_triangle])
def test_both_validators_reject(make):
    t = make()
    assert not validate(t).ok
    assert not validate_by_segments(t).ok


def test_clockwise_fan_fails_only_the_certificate():
    t = fan_with_clockwise_triangle()
    assert validate_by_segments(t).violations == \
        ["edge (1, 3) does not lie inside the domain"]
    assert validate(t).violations == [
        "triangle (0, 1, 3) of edge (0, 1) is not derived at its other sides",
        "edge (1, 2) bounds 0 triangles, expected 1",
        "triangle (0, 1, 3) of edge (0, 3) is not derived at its other sides",
        "edge (2, 3) bounds 0 triangles, expected 1",
        "edge (1, 3) bounds 1 triangles, expected 2",
        "triangle (1, 2, 3) of edge (1, 3) is not derived at its other sides",
        "triangle count 1 != expected 2",
        "triangles cover twice-area 16, the domain 8",
    ]


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
