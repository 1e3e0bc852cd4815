import random
from fractions import Fraction
from itertools import combinations
from math import lcm

import pytest
from hypothesis import example, given, settings, strategies as st

from flipdist import geometry, instanceio, reduction, triangulation
from flipdist.errors import (IllegalScriptError, Not3ConnectedError,
                             NotACoverError, NotPlanarError,
                             SharpVertexError, ValidationError)
from flipdist.gadgets import (Channel, blocking_set, channel_mouths,
                              channel_region)
from flipdist.geometry import (Point2, on_grid, on_segment, orientation,
                               polygon_signed_area2, pt, touching_pairs)
from flipdist.reduction import (PlanarGraphDrawing, ReductionInstance,
                                _embedding, _shear_off_diagonals, audit_script,
                                build_instance, convex_drawing,
                                cover_to_script, drawing_from_coords,
                                eliminate_sharp, instance_coord_bits,
                                region_to_pointset)
from flipdist.search import FlipScript, exact_distance, lower_bound
from flipdist.triangulation import (FlipMove, PolygonalRegion, Triangulation,
                                    canonical_cycle, derive_apexes, edge,
                                    flip_is_convex, hull_cycle, replay,
                                    validate, walk_segment)
from flipdist.vertexcover import Graph, exact_vc

from oracles import (apexes_by_side, chain_audit_by_whole_drawing,
                     derive_triangles_by_faces,
                     edges_crossing_segment,
                     embedding_faces_by_networkx,
                     flip_is_convex_four_orientations,
                     segment_in_domain_by_pieces, segment_inside,
                     segment_inside_by_midpoint)

K4_EDGES = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
PRISM_EDGES = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
               (0, 3), (1, 4), (2, 5)]


@pytest.fixture(scope="module")
def k4_instance():
    d = convex_drawing([0, 1, 2, 3], K4_EDGES, outer=[0, 1, 2])
    d2, t = eliminate_sharp(d)
    return build_instance(d2, k_input=3, t_outer=t), d2, t


@pytest.fixture(scope="module")
def prism_instance():
    d = convex_drawing(list(range(6)), PRISM_EDGES, outer=[0, 1, 2])
    d2, t = eliminate_sharp(d)
    return build_instance(d2, k_input=4, t_outer=t), d2, t


def test_convex_drawing_k4():
    d = convex_drawing([0, 1, 2, 3], K4_EDGES, outer=[0, 1, 2])
    assert len(d.faces()) == 4
    assert sorted(d.outer_face) == [0, 1, 2]
    # the inner vertex lies strictly inside the outer triangle
    from flipdist.geometry import orientation
    a, b, c = (d.pos[v] for v in d.outer_face)
    s = orientation(a, b, c)
    assert all(orientation(p, q, d.pos[3]) == s
               for p, q in ((a, b), (b, c), (c, a)))


def test_convex_drawing_prism_faces():
    d = convex_drawing(list(range(6)), PRISM_EDGES, outer=[0, 1, 2])
    assert len(d.faces()) == 5


def test_convex_drawing_rejects_bad_graphs():
    with pytest.raises(Not3ConnectedError):
        convex_drawing([0, 1, 2, 3, 4],
                       [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 2)])
    k5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    with pytest.raises(NotPlanarError):
        convex_drawing(list(range(5)), k5)


@st.composite
def gnp_graphs(draw):
    """G(n, p) with n <= 12; now and then a self-loop or an edge to an
    undeclared vertex, which both sides must reject as not simple."""
    n = draw(st.integers(0, 12))
    p = draw(st.sampled_from([0.2, 0.35, 0.5, 0.7]))
    rnd = draw(st.randoms(use_true_random=False))
    edges = [e for e in combinations(range(n), 2) if rnd.random() < p]
    flaw = draw(st.sampled_from([None] * 8 + ["loop", "undeclared"]))
    if flaw == "loop" and n:
        edges.append((n - 1, n - 1))
    elif flaw == "undeclared":
        edges.append((0, n))
    return list(range(n)), edges


@st.composite
def plane_graphs(draw):
    """A maximal plane straight-line graph on distinct points of a small
    integer grid (segments added shortest first when they cross no earlier
    one and pass through no point), sometimes with an apex joined to the
    hull cycle, then edges removed and pairs added."""
    side = draw(st.integers(3, 5))
    pts = draw(st.lists(st.tuples(st.integers(0, side), st.integers(0, side)),
                        min_size=4, max_size=10, unique=True))
    rnd = draw(st.randoms(use_true_random=False))
    p = [pt(x, y) for x, y in pts]

    def crosses(a, b, c, d):
        return (orientation(p[a], p[b], p[c]) * orientation(p[a], p[b], p[d]) < 0
                and orientation(p[c], p[d], p[a]) * orientation(p[c], p[d], p[b]) < 0)

    def dot(a, b, c, d):    # (pts[a] - pts[b]) . (pts[c] - pts[d])
        return (pts[a][0] - pts[b][0]) * (pts[c][0] - pts[d][0]) \
            + (pts[a][1] - pts[b][1]) * (pts[c][1] - pts[d][1])

    def through_point(a, b):
        return any(orientation(p[a], p[b], p[c]) == 0 and dot(c, a, c, b) < 0
                   for c in range(len(p)))

    edges = []
    for a, b in sorted(combinations(range(len(p)), 2),
                       key=lambda e: dot(e[0], e[1], e[0], e[1])):
        if not through_point(a, b) and not any(crosses(a, b, c, d)
                                               for c, d in edges):
            edges.append((a, b))
    n = len(p)
    if draw(st.booleans()) and any(orientation(p[0], p[1], q) for q in p):
        edges += [(n, v) for v in hull_cycle(pts)]
        n += 1
    drop = draw(st.sampled_from([0, 0, 0.1, 0.3]))
    edges = [e for e in edges if rnd.random() >= drop]
    edges += [tuple(rnd.sample(range(n), 2))
              for _ in range(draw(st.sampled_from([0, 0, 1, 3])))]
    return list(range(n)), edges


def embedding_outcome(find_faces):
    try:
        return find_faces()
    except (NotPlanarError, Not3ConnectedError, ValidationError) as exc:
        return type(exc).__name__


def embedding_faces(vertices, edges):
    """Face keys of the embedding, which must also be the faces of the Tutte
    drawing built on it."""
    keys = {canonical_cycle(f) for f in _embedding(vertices, edges)[1]}
    d = convex_drawing(vertices, edges)
    assert {canonical_cycle([u for u, _ in f]) for f in d.faces()} == keys
    return keys


K33 = [(a, b) for a in range(3) for b in range(3, 6)]
PETERSEN = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)] \
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]


@settings(max_examples=150)
@given(st.one_of(gnp_graphs(), plane_graphs()))
@example((list(range(6)), K33))
@example((list(range(10)), PETERSEN))
@example((list(range(6)), PRISM_EDGES + [(0, 1), (4, 3)]))
def test_convex_drawing_matches_networkx_oracle(graph):
    """Planarity, 3-connectivity and the faces of the embedding agree with
    networkx, error order included."""
    vertices, edges = graph
    want = embedding_outcome(lambda: embedding_faces_by_networkx(vertices, edges))
    assert embedding_outcome(lambda: embedding_faces(vertices, edges)) == want


def test_eliminate_sharp_counts():
    d = convex_drawing([0, 1, 2, 3], K4_EDGES, outer=[0, 1, 2])
    d2, t = eliminate_sharp(d)
    assert t == 3
    assert len(d2.pos) == 10          # 1 inner + 3 chains of 3
    assert len(d2.edges) == 12        # |E| + 2t
    assert d2.sharp_vertices() == []
    assert all(d2.degree(v) in (2, 3) for v in d2.pos)


def test_shear_clears_diagonal_edges():
    # K4 with two 45-degree outer edges, and an inner edge that the shear
    # with m = 2 would make diagonal: m = 3 is the least that clears all
    pos = {0: pt(0, 0), 1: pt(1200, 0), 2: pt(600, 600), 3: pt(500, 400)}
    d = drawing_from_coords(pos, K4_EDGES)
    sheared = _shear_off_diagonals(d)
    assert sheared.pos == {v: pt(p.x + p.y / 3, p.y) for v, p in pos.items()}
    assert all(abs(sheared.direction(u, w).x) != abs(sheared.direction(u, w).y)
               for u, w in sheared.edges)
    assert sorted(sheared.sharp_vertices()) == sorted(d.sharp_vertices()) \
        == [0, 1, 2]
    assert {canonical_cycle([u for u, _ in f]) for f in sheared.faces()} == \
        {canonical_cycle([u for u, _ in f]) for f in d.faces()}
    assert _shear_off_diagonals(sheared) is sheared
    # the chains that replace the sharp corners keep the 45-degree
    # directions, which no square could be placed around before the shear
    d2, t = eliminate_sharp(d)
    inst = build_instance(d2, k_input=3, t_outer=t)
    assert (inst.threshold, validate(inst.t1).ok) == (348, True)


def prism_edges(n):
    """The prism C_n x K2: cycles 0..n-1 and n..2n-1, spoke i to n + i."""
    return ([(i, (i + 1) % n) for i in range(n)]
            + [(n + i, n + (i + 1) % n) for i in range(n)]
            + [(i, n + i) for i in range(n)])


def test_eliminate_sharp_keeps_the_outer_cycle_a_face():
    # with a 4-face outer, one chain on the 10-prism is placed with its
    # first vertex next to the following outer vertex, so the chain is
    # spliced into the cycle reversed; the cycle is still a face, in order
    d = convex_drawing(list(range(20)), prism_edges(10), outer=[0, 1, 11, 10])
    d2, t = eliminate_sharp(d)
    assert t == 4 and len(d2.outer_face) == 12
    faces = {canonical_cycle([u for u, _ in f]) for f in d2.faces()}
    assert canonical_cycle(d2.outer_face) in faces


def test_eliminate_sharp_refuses_an_outer_cycle_off_the_faces(monkeypatch):
    # the last of K4's three chains spliced into the cycle reversed: the
    # cycle is no face of the drawing, and the error names where it breaks
    place = reduction._place_chain

    def reversed_last(*args):
        placed = place(*args)
        if placed is None or args[2] != 2:
            return placed
        chain, new_pos, new_edges = placed
        return chain[::-1], new_pos, new_edges

    monkeypatch.setattr(reduction, "_place_chain", reversed_last)
    d = convex_drawing([0, 1, 2, 3], K4_EDGES, outer=[0, 1, 2])
    with pytest.raises(SharpVertexError, match="not a face of the drawing "
                       "at vertex 12 .after 9., in the chain of sharp "
                       "vertex 2") as exc:
        eliminate_sharp(d)
    assert exc.value.exit_code == 3


def test_eliminate_sharp_identity_when_clean():
    pos = {0: pt(0, 0), 1: pt(1200, 0), 2: pt(600, 1000)}
    d = drawing_from_coords(pos, [(0, 1), (1, 2), (0, 2)])
    d2, t = eliminate_sharp(d)
    assert t == 0 and d2 is d


def test_sharp_equivalence_vc():
    for name, edges, outer in (("K4", K4_EDGES, [0, 1, 2]),
                               ("prism", PRISM_EDGES, [0, 1, 2])):
        d = convex_drawing(sorted({v for e in edges for v in e}), edges, outer)
        d2, t = eliminate_sharp(d)
        base, _ = exact_vc(Graph(sorted({v for e in edges for v in e}), edges))
        lifted, _ = exact_vc(Graph(d2.pos.keys(), d2.edges))
        assert lifted == base + t


def test_c3_instance_valid(c3_instance):
    inst = c3_instance
    assert validate(inst.t1).ok and validate(inst.t2).ok
    assert len(inst.channels) == 3 and len(inst.gadgets) == 3
    assert inst.threshold == 2 * 2 + 28 * 3 == 88
    only1, only2 = inst.t1.edges - inst.t2.edges, inst.t2.edges - inst.t1.edges
    assert len(only1) == len(only2) == 3 * 11


def test_k4_instance_shape(k4_instance):
    inst, _, t = k4_instance
    assert t == 3
    assert len(inst.channels) == 12 and len(inst.gadgets) == 10
    assert inst.k_prime == 6
    assert inst.threshold == 2 * 6 + 28 * 12 == 348
    delta = len(inst.t1.edges - inst.t2.edges) + len(inst.t2.edges - inst.t1.edges)
    assert delta == 12 * 22


def counting(calls, f):
    """`f`, appending its arguments to `calls` on every call."""
    def counted(*args):
        calls.append(args)
        return f(*args)
    return counted


def test_validate_runs_no_sweep_on_valid_k4(k4_instance, monkeypatch):
    # on a valid triangulation the certificate alone decides: the
    # all-edges `touching_pairs` sweep never runs
    calls = []
    monkeypatch.setattr(triangulation, "touching_pairs",
                        counting(calls, touching_pairs))
    inst = k4_instance[0]
    assert validate(inst.t1).ok and validate(inst.t2).ok
    assert calls == []


def test_replay_makes_two_orientations_per_move(k4_instance, monkeypatch):
    # the apex map already puts each move's apexes on opposite sides of
    # its removed edge, so the K4 cover script's 348 moves cost 696
    inst = k4_instance[0]
    g = Graph(inst.graph_vertices, inst.graph_edges)
    script = cover_to_script(inst, exact_vc(g)[1])
    inst.t1.edge_apexes()
    calls = []
    monkeypatch.setattr(triangulation, "orientation",
                        counting(calls, orientation))
    assert replay(inst.t1, script.moves).edges == inst.t2.edges
    assert len(calls) == 2 * len(script) == 696


def test_flip_legality_matches_four_orientations_on_k4(k4_instance):
    inst = k4_instance[0]
    seen = set()
    for t in (inst.t1, inst.t2):
        for e, aps in t.edge_apexes().items():
            if len(aps) == 2:
                fast = flip_is_convex(inst.region, *e, *aps)
                assert fast == flip_is_convex_four_orientations(
                    inst.region, *e, *aps), (e, aps)
                seen.add(fast)
    assert seen == {True, False}


def test_region_computes_each_cycle_area_once(k4_instance, monkeypatch):
    region = k4_instance[0].region
    calls = []
    monkeypatch.setattr(triangulation, "polygon_signed_area2",
                        counting(calls, polygon_signed_area2))
    again = PolygonalRegion(region.points, region.outer, region.holes)
    assert again.area2 == region.area2
    assert len(calls) == len(region.boundary_cycles) == 4


def test_drawing_scales_to_its_grid_once(k4_instance, monkeypatch):
    d2 = k4_instance[1]
    calls = []
    counted = counting(calls, on_grid)
    monkeypatch.setattr(reduction, "on_grid", counted)
    monkeypatch.setattr(geometry, "on_grid", counted)
    d = PlanarGraphDrawing(pos=d2.pos, edges=d2.edges,
                           outer_face=d2.outer_face)
    assert len(calls) == 1
    assert d.faces() == d2.faces() and d.sharp_vertices() == []
    assert len(calls) == 1


def test_drawing_predicates_take_no_point2(monkeypatch):
    # the drawing's audits and the instance assembly read the drawing's
    # integer grid, never its `Point2` positions
    passed = []

    def points_of(*args):
        return [p for a in args for p in (a if isinstance(a, list) else [a])]

    for name, f in (("orientation", orientation),
                    ("polygon_signed_area2", polygon_signed_area2)):
        def recorded(*args, f=f):
            passed.extend(type(p) for p in points_of(*args))
            return f(*args)
        monkeypatch.setattr(reduction, name, recorded)
    d = convex_drawing([0, 1, 2, 3], K4_EDGES, outer=[0, 1, 2])
    d2, t = eliminate_sharp(d)
    build_instance(d2, k_input=3, t_outer=t)
    assert passed and Point2 not in passed


def test_segment_inside_matches_midpoint_oracle(c3_instance, k4_instance):
    """The corner test agrees with the midpoint location on every ordered
    pair of every channel region of the C3 and K4 instances, open and with
    each recorded cap, near, far and both; and on the K4 region's edges,
    taken from their larger end, and sampled pairs, where point holes and
    polygonal holes are met."""
    checked = 0
    for inst in (c3_instance, k4_instance[0]):
        pts = inst.region.points
        for (u, w), rec in sorted(inst.channels.items()):
            ch = Channel(tuple(pts[i] for i in rec.upper),
                         tuple(pts[i] for i in rec.lower))
            near, far = pts[rec.caps[u]], pts[rec.caps[w]]
            for caps in ({}, {"cap_near": near}, {"cap_far": far},
                         {"cap_near": near, "cap_far": far}):
                region = channel_region(ch, **caps)
                n = len(region.points)
                for i in range(n):
                    for j in range(n):
                        if i != j:
                            assert segment_inside(region, i, j) == \
                                segment_inside_by_midpoint(region, i, j), \
                                ((u, w), caps, i, j)
                            checked += 1
    inst = k4_instance[0]
    region = inst.region
    n = len(region.points)
    rng = random.Random(17)
    pairs = [e[::-1] for e in sorted(inst.t1.edges)] + \
        [tuple(rng.sample(range(n), 2)) for _ in range(600)]
    inside = 0
    for i, j in pairs:
        got = segment_inside(region, i, j)
        assert got == segment_inside_by_midpoint(region, i, j), (i, j)
        inside += got
    assert checked > 10000 and inside > len(inst.t1.edges)


def test_walk_matches_crossing_scan_on_k4(k4_instance):
    """On every ordered pair of points of the K4 region, in t1 and in t2,
    a walk that stays in the domain crosses exactly the edges the scan
    finds, and the vertices it meets lie inside the segment; some of these
    segments run through vertices."""
    inst = k4_instance[0]
    ip = inst.region.ipoints
    n = len(ip)
    inside = through = 0
    for t in (inst.t1, inst.t2):
        for p in range(n):
            for q in range(n):
                walk = walk_segment(t, p, q) if p != q else None
                if walk is None:
                    continue
                crossed, met = walk
                assert len(set(crossed)) == len(crossed)
                assert set(crossed) == edges_crossing_segment(t, p, q)
                assert all(w not in (p, q) and on_segment(ip[w], ip[p], ip[q])
                           for w in met)
                inside += 1
                through += bool(met)
    assert inside == 2 * 3628 and through == 2 * 172


def test_walk_visibility_matches_segment_inside_on_k4(k4_instance):
    """Every ordered pair of points of the K4 region sees each other iff
    the walk in t1 stays in the domain and meets no vertex; on a sample
    and on every pair through a vertex, the walk leaves the domain iff a
    piece of the segment between the points on it fails `segment_inside`."""
    inst = k4_instance[0]
    region, t = inst.region, inst.t1
    n = len(region.points)
    walks = {(p, q): walk_segment(t, p, q)
             for p in range(n) for q in range(n) if p != q}
    assert len(walks) == 61256
    for (p, q), walk in walks.items():
        assert (walk is not None and not walk[1]) == \
            segment_inside(region, p, q), (p, q)
    rng = random.Random(29)
    sample = rng.sample(sorted(walks), 1500) + \
        [pq for pq, walk in walks.items() if walk is not None and walk[1]]
    for p, q in sample:
        assert (walks[p, q] is not None) == \
            segment_in_domain_by_pieces(region, p, q), (p, q)


def test_grid_scaling_builds_no_fraction_on_k4(k4_instance, count_fractions):
    region = k4_instance[0].region
    scale = lcm(*(c.denominator for p in region.points for c in p))
    want = [(int(p.x * scale), int(p.y * scale)) for p in region.points]
    assert region.ipoints == want
    with count_fractions() as built:
        region._setup_grid()
    assert built == [] and region.ipoints == want


def test_derive_triangles_builds_no_fraction(k4_instance, count_fractions):
    # every side of every edge is decided on the integer grid
    inst = k4_instance[0]
    with count_fractions() as built:
        apexes = derive_apexes(inst.region, inst.t1.edges)
    assert built == []
    assert sum(w is not None for aps in apexes.values() for w in aps) == \
        3 * inst.region.expected_triangle_count


def test_shared_neighbours_give_the_k4_faces(k4_instance):
    # the apexes from shared neighbours, side by side, are those of the
    # faces the rotation system's walk finds, on both triangulations of
    # the K4 instance
    inst = k4_instance[0]
    for t in (inst.t1, inst.t2):
        faces = derive_triangles_by_faces(inst.region, t.edges)
        assert derive_apexes(inst.region, t.edges) == \
            apexes_by_side(inst.region, t.edges, faces)
        assert Triangulation(inst.region, t.edges).triangles == faces


def test_certificate_makes_no_orientation_call(k4_instance, monkeypatch):
    # validating K4's t1 orients only inside `derive_apexes`: the
    # certificate reads every side off the derived map
    inst = k4_instance[0]
    calls = []
    monkeypatch.setattr(triangulation, "orientation",
                        counting(calls, orientation))
    derive_apexes(inst.region, inst.t1.edges)
    derived = len(calls)
    calls.clear()
    assert validate(Triangulation(inst.region, inst.t1.edges)).ok
    assert 0 < len(calls) == derived


def test_gadget_audit_blocking_sets(c3_instance, k4_instance):
    for inst in (c3_instance, k4_instance[0]):
        locks = {v: inst.gadgets[v].lock for v in inst.gadgets}
        per_gadget = {v: [] for v in inst.gadgets}
        for key, rec in inst.channels.items():
            for v, cap in rec.caps.items():
                found = blocking_set(inst.t1, cap, edge(*rec.gates[v]))
                assert found == set(rec.blocking[v])
                assert len(found) == 3
                assert locks[v] in found
                per_gadget[v].append(found)
        for v, sets in per_gadget.items():
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert sets[i] & sets[j] == {locks[v]}


def test_gadget_audit_mouths(c3_instance):
    inst = c3_instance
    pts = inst.region.points
    for key, rec in inst.channels.items():
        upper = [pts[i] for i in rec.upper]
        lower = [pts[i] for i in rec.lower]
        for v, cap in rec.caps.items():
            end = 0 if rec.gates[v] == (rec.upper[0], rec.lower[0]) else 1
            m = channel_mouths(upper, lower, end)
            assert m.narrow.is_subset_of(m.wide)
            assert m.narrow.contains(pts[cap])
            g = inst.gadgets[v]
            for name, idx in g.points.items():
                if idx != cap:
                    assert not m.wide.contains(pts[idx])


def test_cover_to_script_c3(c3_instance):
    inst = c3_instance
    script = cover_to_script(inst, {0, 1})
    assert len(script) == 2 * 2 + 28 * 3 == 88
    end = script.replay(inst.t1)
    assert end.edges == inst.t2.edges
    # unlocking every vertex is still legal
    script_all = cover_to_script(inst, {0, 1, 2})
    assert len(script_all) == 2 * 3 + 28 * 3
    assert script_all.replay(inst.t1).edges == inst.t2.edges
    with pytest.raises(NotACoverError):
        cover_to_script(inst, {0})


def test_cover_to_script_min_covers(k4_instance, prism_instance):
    for inst, d2, t in (k4_instance, prism_instance):
        g = Graph(inst.graph_vertices, inst.graph_edges)
        size, witness = exact_vc(g)
        script = cover_to_script(inst, witness)
        assert len(script) == 2 * size + 28 * len(inst.channels)
        assert script.replay(inst.t1).edges == inst.t2.edges
        report = audit_script(inst, script)
        assert report.unlocked == set(witness)
        assert report.uncapped == set()
        assert report.lower_bound == len(script)
        assert report.implied_cover_size == size


def test_audit_rejects_wrong_scripts(c3_instance):
    inst = c3_instance
    with pytest.raises(IllegalScriptError):
        audit_script(inst, FlipScript(inst.t1.canonical_key(), ()))
    good = cover_to_script(inst, {0, 1})
    with pytest.raises(IllegalScriptError):
        audit_script(inst, FlipScript(good.start_key, good.moves[:-1]))


def test_audit_uncapped_channel_accounting(c3_instance):
    # transform one channel bare-handed (36 flips), the rest via one gadget
    inst = c3_instance
    from flipdist.gadgets import channel_triangulations, Channel
    rec = inst.channels[(0, 1)]
    pts = inst.region.points
    ch = Channel(upper=tuple(pts[i] for i in rec.upper),
                 lower=tuple(pts[i] for i in rec.lower))
    _, t_left, t_right = channel_triangulations(ch)
    res = exact_distance(t_left, t_right)
    assert res.distance == 36
    mapping = dict(zip(range(14), rec.upper + rec.lower))
    bare = [FlipMove(edge(mapping[m.removed[0]], mapping[m.removed[1]]),
                     edge(mapping[m.inserted[0]], mapping[m.inserted[1]]))
            for m in res.script.moves]
    moves = []
    g2 = inst.gadgets[2]
    moves.append(FlipMove(g2.lock, g2.unlock_insert))
    for key in ((0, 2), (1, 2)):
        rec2 = inst.channels[key]
        cap_moves = rec2.cap_scripts[2]
        from flipdist.gadgets import capped_transform_moves, reverse_moves
        moves.extend(cap_moves)
        moves.extend(capped_transform_moves(rec2.upper, rec2.lower,
                                            rec2.caps[2], cap_at_far_end=True))
        moves.extend(reverse_moves(cap_moves))
    moves.append(FlipMove(g2.unlock_insert, g2.lock))
    script = FlipScript(inst.t1.canonical_key(), tuple(bare + moves))
    report = audit_script(inst, script)
    assert report.unlocked == {2}
    assert report.uncapped == {(0, 1)}
    assert report.script_length == 36 + 2 + 28 * 2 == 94
    assert report.lower_bound == 2 * 1 + 36 * 1 + 28 * 2 == 94


def test_pipeline_determinism(c3_instance):
    pos = {0: pt(0, 0), 1: pt(1200, 0), 2: pt(600, 1000)}
    d = drawing_from_coords(pos, [(0, 1), (1, 2), (0, 2)])
    again = build_instance(d, k_input=2, t_outer=0)
    assert instanceio.dumps(again.to_doc()) == instanceio.dumps(c3_instance.to_doc())


def test_instance_doc_roundtrip(c3_instance):
    doc = c3_instance.to_doc()
    text = instanceio.dumps(doc)
    loaded = instanceio.loads(text)
    assert instanceio.dumps(loaded) == text
    inst2 = ReductionInstance.from_doc(loaded)
    assert inst2.threshold == c3_instance.threshold
    script = cover_to_script(inst2, {1, 2})
    assert script.replay(inst2.t1).edges == inst2.t2.edges


def test_coord_bits_polynomial_family(c3_instance, k4_instance, prism_instance):
    sq = {0: pt(0, 0), 1: pt(1000, 0), 2: pt(1000, 1000), 3: pt(0, 1000)}
    c4 = build_instance(
        drawing_from_coords(sq, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        k_input=2, t_outer=0)
    family = [("C3", c3_instance), ("C4", c4), ("prism", prism_instance[0]),
              ("K4", k4_instance[0])]
    sizes = []
    for name, inst in family:
        bits = instance_coord_bits(inst.region)
        n = len(inst.region.points)
        sizes.append((name, n, bits))
        # generous polynomial budget: the meter stays far below quadratic
        assert bits <= 40 + n
    assert all(bits <= 200 for _, _, bits in sizes), sizes


def test_region_to_pointset_c3(c3_instance):
    inst = c3_instance
    psi = region_to_pointset(inst, multiplicity=1)
    assert validate(psi.t1).ok and validate(psi.t2).ok
    assert (psi.t1.edges - psi.t2.edges) == (inst.t1.edges - inst.t2.edges)
    assert (psi.t2.edges - psi.t1.edges) == (inst.t2.edges - inst.t1.edges)
    # hole and pocket fills are identical across the pair
    assert (psi.t1.edges - inst.t1.edges) == (psi.t2.edges - inst.t2.edges)
    assert lower_bound(psi.t1, psi.t2) == lower_bound(inst.t1, inst.t2)


def test_region_to_pointset_default_multiplicity(c3_instance):
    inst = c3_instance
    psi = region_to_pointset(inst)
    assert psi.multiplicity == inst.threshold + 1
    assert all(len(v) == psi.multiplicity for v in psi.sliver_points.values())
    assert psi.protected_edges and \
        all(e in inst.region.mandatory_edges for e in psi.protected_edges)


def test_capping_one_channel_leaves_siblings_blocked(k4_instance):
    # after unlocking a gadget and capping one of its channels, its sibling
    # channels are still separated from their caps by at least two edges
    inst, _, _ = k4_instance
    deg3 = next(v for v in inst.gadgets if
                sum(v in k for k in inst.channels) == 3)
    keys = sorted(k for k in inst.channels if deg3 in k)
    g = inst.gadgets[deg3]
    t = inst.t1.apply_flip(FlipMove(g.lock, g.unlock_insert))
    first = keys[0]
    for m in inst.channels[first].cap_scripts[deg3]:
        t = t.apply_flip(m)
    for other in keys[1:]:
        rec = inst.channels[other]
        remaining = blocking_set(t, rec.caps[deg3], edge(*rec.gates[deg3]))
        assert len(remaining) >= 2


def test_theta_graph_pipeline():
    # both degree-3 hubs of a theta graph are sharp (all edges point one
    # way); the replacement windows must adapt to the drawing orientation
    pos = {0: pt(0, 0), 1: pt(2000, 0),
           2: pt(1000, 900), 3: pt(1000, 200), 4: pt(1000, -800)}
    d = drawing_from_coords(pos, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 1)])
    d2, t = eliminate_sharp(d)
    assert t == 2 and d2.sharp_vertices() == []
    inst = build_instance(d2, k_input=2, t_outer=t)
    size, witness = exact_vc(Graph(d2.pos.keys(), d2.edges))
    script = cover_to_script(inst, witness)
    assert len(script) == 2 * size + 28 * len(inst.channels)
    rep = audit_script(inst, script)
    assert rep.unlocked == set(witness) and not rep.uncapped


def test_gadget_scripts_replay_from_their_start_states(c3_instance):
    from flipdist.gadgets import (canonical_capped_edges,
                                  capped_transform_moves,
                                  left_to_canonical_moves, reverse_moves)
    inst = c3_instance
    key = (0, 1)
    rec = inst.channels[key]
    for vertex in key:
        # per-channel scripts of one gadget end: the one-flip unlock, the
        # two-flip cap, the full capped transform and the canonical half
        g = inst.gadgets[vertex]
        cap = rec.caps[vertex]
        far = vertex == max(key)
        unlock = [FlipMove(g.lock, g.unlock_insert)]
        cap_moves = list(rec.cap_scripts[vertex])
        capped_transform = capped_transform_moves(
            rec.upper, rec.lower, cap, cap_at_far_end=far)
        # seen from the far end the left-inclined state is mirrored, which
        # swaps the chains as well as reversing them
        near_upper, near_lower = rec.upper, rec.lower
        if far:
            near_upper, near_lower = rec.lower[::-1], rec.upper[::-1]
        canonical_half = left_to_canonical_moves(near_upper, near_lower, cap)
        assert (len(unlock), len(cap_moves), len(capped_transform),
                len(canonical_half)) == (1, 2, 24, 12)
        t = replay(replay(inst.t1, unlock), cap_moves)
        a, b = rec.gates[vertex]
        assert edge(cap, a) in t.edges and edge(cap, b) in t.edges
        t_half = replay(t, canonical_half)
        # a cap at the far end sees the chains reversed
        upper, lower = rec.upper, rec.lower
        if far:
            upper, lower = upper[::-1], lower[::-1]
        assert canonical_capped_edges(upper, lower, cap) <= t_half.edges
        t2 = replay(t, capped_transform)
        t2 = replay(t2, reverse_moves(cap_moves))
        t2 = replay(t2, reverse_moves(unlock))
        # that channel now right-inclined, everything else untouched
        from flipdist.gadgets import right_edges
        assert right_edges(rec.upper, rec.lower) <= t2.edges
        other = set(inst.t1.edges) - set(left_edges_for(rec))
        assert other <= t2.edges


def left_edges_for(rec):
    from flipdist.gadgets import left_edges
    return left_edges(rec.upper, rec.lower)


def test_chain_audit_agrees_with_the_whole_drawing_audit(monkeypatch):
    # every chain placement tried on K4 and on the 10-prism with a 4-face
    # outer, accepted or rejected, gets the same verdict from the audit of
    # the new chain alone as from the audit of the whole drawing; so does
    # each accepted one with an old edge added across its first chain edge
    audit, verdicts, crossed = reduction._chain_audit, [], []

    def both(pos, new_pos, new_edges, *rest):
        args = (pos, new_pos, new_edges, *rest)
        verdicts.append((audit(*args), chain_audit_by_whole_drawing(*args)))
        if verdicts[-1][0]:
            v1, v2, _ = sorted(new_pos)
            a, b = new_pos[v1], new_pos[v2]
            mid = a + (b - a).scale(Fraction(1, 2))
            off = (b - a).perp().scale(Fraction(1, 4))
            k = max(*pos, *new_pos) + 1
            args = ({**pos, k: mid + off, k + 1: mid - off}, new_pos,
                    new_edges | {(k, k + 1)}, *rest)
            crossed.append((audit(*args), chain_audit_by_whole_drawing(*args)))
        return verdicts[-1][0]

    monkeypatch.setattr(reduction, "_chain_audit", both)
    for n, edges, outer in ((4, K4_EDGES, [0, 1, 2]),
                            (20, prism_edges(10), [0, 1, 11, 10])):
        eliminate_sharp(convex_drawing(list(range(n)), edges, outer=outer))
    assert set(verdicts) == {(True, True), (False, False)}
    assert crossed and set(crossed) == {(False, False)}
