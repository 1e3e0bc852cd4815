"""Acceptance suite: every criterion checked at its stated (exact) tolerance,
one printed PASS line per criterion."""

import random
from fractions import Fraction

from flipdist.gadgets import (Channel, blocking_set, build_channel,
                              canonical_capped_edges, channel_mouths,
                              channel_region, channel_triangulations,
                              left_edges, left_to_canonical_moves, right_edges)
from flipdist.geometry import pt
from flipdist.reduction import (audit_script, build_instance, convex_drawing,
                                cover_to_script, drawing_from_coords,
                                eliminate_sharp, instance_coord_bits,
                                region_to_pointset)
from flipdist.search import enumerate_flip_graph, exact_distance
from flipdist.triangulation import (PolygonalRegion, Triangulation, edge,
                                    ear_clip_with_triangles, replay, validate)
from flipdist.vertexcover import Graph, exact_vc

from conftest import K4_EDGES, PRISM_EDGES


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def figure_channel(n=7):
    return build_channel((pt(-60, 40), pt(-60, -40)),
                         (pt(60, 40), pt(60, -40)), Fraction(1, 160), n=n)


def test_criterion_1_channel_distance_36():
    region, t_left, t_right = channel_triangulations(figure_channel())
    res = exact_distance(t_left, t_right)
    assert res.distance == 36
    graph = enumerate_flip_graph(t_left)
    dist = graph.bfs_distances(t_left.canonical_key())
    assert dist[t_right.canonical_key()] == 36
    assert res.script.replay(t_left).canonical_key() == t_right.canonical_key()
    report(1, f"channel distance 36, cross-checked by BFS over the "
              f"{len(graph)}-node flip graph")


def test_criterion_2_hn_regression():
    values = {}
    for n in (3, 4, 5, 6):
        _, t_left, t_right = channel_triangulations(figure_channel(n=n))
        values[n] = exact_distance(t_left, t_right).distance
        assert values[n] == (n - 1) ** 2
    report(2, f"H_n distances {values} match (n-1)^2")


def test_criterion_3_capped_channel():
    ch = figure_channel()
    cap = pt(-80, 0)
    region = channel_region(ch, cap_near=cap)
    upper, lower, cap_id = list(range(7)), list(range(7, 14)), 14
    base = set(region.mandatory_edges)
    t_left = Triangulation(region, base | left_edges(upper, lower))
    t_right = Triangulation(region, base | right_edges(upper, lower))
    t_canon = Triangulation(region,
                            base | canonical_capped_edges(upper, lower, cap_id))
    assert exact_distance(t_left, t_right).distance == 24
    assert exact_distance(t_left, t_canon).distance == 12
    assert exact_distance(t_right, t_canon).distance == 12
    moves = left_to_canonical_moves(upper, lower, cap_id)
    assert len(moves) == 12
    assert replay(t_left, moves).edges == t_canon.edges
    report(3, "capped channel: distance 24, canonical 12 from each side, "
              "explicit 12-move script replays onto the canonical fan")


def test_criterion_4_double_capped():
    ch = figure_channel()
    region = channel_region(ch, cap_near=pt(-80, 0), cap_far=pt(80, 0))
    upper, lower = list(range(7)), list(range(7, 14))
    base = set(region.mandatory_edges)
    t_left = Triangulation(region, base | left_edges(upper, lower))
    t_right = Triangulation(region, base | right_edges(upper, lower))
    assert exact_distance(t_left, t_right).distance == 24
    report(4, "double-capped channel distance is still 24")


def test_every_built_channel_is_certified(c3_instance, k4_instance):
    """Criteria 1, 3 and 4 on every placed channel, not just the figure's:
    each channel of the C3 and K4 instances, cut out on its own from the
    instance's coordinates, is 36 flips open and 24 with each recorded cap,
    near or far."""
    searches = 0
    for inst in (c3_instance, k4_instance):
        pts = inst.region.points
        for (u, w), rec in sorted(inst.channels.items()):
            ch = Channel(tuple(pts[i] for i in rec.upper),
                         tuple(pts[i] for i in rec.lower))
            for caps, want in (({}, 36),
                               ({"cap_near": pts[rec.caps[u]]}, 24),
                               ({"cap_far": pts[rec.caps[w]]}, 24)):
                _, t_left, t_right = channel_triangulations(ch, **caps)
                assert exact_distance(t_left, t_right).distance == want, \
                    ((u, w), caps)
                searches += 1
    report(1, f"every built channel certified: {searches} searches, "
              f"36 open and 24 per cap")


def test_criterion_5_gadget_audit(c3_instance, k4_instance):
    checked = 0
    for inst in (c3_instance, k4_instance):
        pts = inst.region.points
        per_gadget = {v: [] for v in inst.gadgets}
        for key, rec in inst.channels.items():
            upper = [pts[i] for i in rec.upper]
            lower = [pts[i] for i in rec.lower]
            for v, cap in rec.caps.items():
                found = blocking_set(inst.t1, cap, edge(*rec.gates[v]))
                assert len(found) == 3
                assert found == inst.blocking(key, v)
                per_gadget[v].append(found)
                end = 0 if rec.gates[v] == (rec.upper[0], rec.lower[0]) else 1
                m = channel_mouths(upper, lower, end)
                assert m.narrow.is_subset_of(m.wide)
                assert m.narrow.contains(pts[cap])
                for name, idx in inst.gadgets[v].points.items():
                    if idx != cap:
                        assert not m.wide.contains(pts[idx])
                checked += 1
        for v, sets in per_gadget.items():
            lock = inst.gadgets[v].lock
            for i in range(len(sets)):
                for j in range(i + 1, len(sets)):
                    assert sets[i] & sets[j] == {lock}
    report(5, f"blocking sets of exactly 3 edges meeting in the lock, and "
              f"all mouth predicates, on {checked} channel ends of C3 and "
              f"transformed K4")


def test_criterion_6_and_7_lemma1_forward_and_audit(
        c3_instance, prism_instance, k4_instance):
    lengths = {}
    for name, inst in (("C3", c3_instance), ("prism", prism_instance),
                       ("K4", k4_instance)):
        g = Graph(inst.graph_vertices, inst.graph_edges)
        size, witness = exact_vc(g)
        script = cover_to_script(inst, witness)
        assert len(script) == 2 * size + 28 * len(inst.channels)
        end = script.replay(inst.t1)
        assert end.edges == inst.t2.edges
        rep = audit_script(inst, script)
        assert rep.unlocked == set(witness)
        assert rep.uncapped == set()
        assert rep.lower_bound == 2 * len(rep.unlocked) \
            + 36 * len(rep.uncapped) \
            + 28 * (rep.channel_count - len(rep.uncapped)) == len(script)
        lengths[name] = len(script)
    report(6, f"cover scripts replay t1 -> t2 with exact lengths {lengths}")
    report(7, "audits recover L = S, C = empty, and the bound equals the "
              "script length on all three instances")


def test_criterion_8_sharp_equivalence():
    results = {}
    for name, edges in (("K4", K4_EDGES), ("prism", PRISM_EDGES)):
        ids = sorted({v for e in edges for v in e})
        d = convex_drawing(ids, edges, outer=[0, 1, 2])
        d2, t = eliminate_sharp(d)
        base, _ = exact_vc(Graph(ids, edges))
        lifted, _ = exact_vc(Graph(d2.pos.keys(), d2.edges))
        assert lifted == base + t
        results[name] = (base, t, lifted)
    report(8, f"min-vc(transform(G)) = min-vc(G) + t for {results}")


def test_criterion_9_oracle_equivalence():
    # convex hexagon, all pairs
    ts = [Fraction(j, 6) * 4 - 2 for j in range(6)]
    hexagon = PolygonalRegion(
        [pt((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts],
        list(range(6)))
    seed = Triangulation(hexagon, set(hexagon.mandatory_edges)
                         | {(0, 2), (0, 3), (0, 4)})
    graph = enumerate_flip_graph(seed)
    assert len(graph) == 14
    pairs = 0
    reps = {k: Triangulation(hexagon, e) for k, e in graph.nodes.items()}
    for k1 in sorted(graph.nodes):
        dist = graph.bfs_distances(k1)
        for k2 in sorted(graph.nodes):
            assert exact_distance(reps[k1], reps[k2]).distance == dist[k2]
            pairs += 1
    # random simple (non-convex) 9-gon, all pairs
    rng = random.Random(20240817)
    base = [(8, 0), (6, 6), (0, 8), (-6, 6), (-8, 0), (-6, -6), (0, -8),
            (4, -8), (8, -4)]
    pts = []
    for i, (x, y) in enumerate(base):
        f = Fraction(1, 3) if i in (1, 5) else Fraction(1)
        jitter = Fraction(rng.randint(-2, 2), 8)
        pts.append(pt(Fraction(x) * f + jitter, Fraction(y) * f + jitter))
    nonagon = PolygonalRegion(pts, list(range(9)))
    seed9 = Triangulation(nonagon,
                          ear_clip_with_triangles(nonagon, list(range(9)))[0])
    graph9 = enumerate_flip_graph(seed9)
    reps9 = {k: Triangulation(nonagon, e) for k, e in graph9.nodes.items()}
    for k1 in sorted(graph9.nodes):
        dist = graph9.bfs_distances(k1)
        for k2 in sorted(graph9.nodes):
            assert exact_distance(reps9[k1], reps9[k2]).distance == dist[k2]
            pairs += 1
    report(9, f"search matches BFS on every pair ({pairs} pairs over the "
              f"hexagon and a {len(graph9)}-triangulation 9-gon)")


def test_criterion_10_scale_statement_and_bit_meter(
        c3_instance, prism_instance, k4_instance):
    # the full reduction instances are far beyond any exact search budget:
    # solving them is NOT reproducible at desk scale, and the hardness
    # statement itself is not an executable claim.  What stands in for it is
    # criteria 1-9 plus this polynomial coordinate-size meter.
    sq = {0: pt(0, 0), 1: pt(1000, 0), 2: pt(1000, 1000), 3: pt(0, 1000)}
    c4 = build_instance(
        drawing_from_coords(sq, [(0, 1), (1, 2), (2, 3), (3, 0)]),
        k_input=2, t_outer=0)
    meter = {}
    for name, inst in (("C3", c3_instance), ("C4", c4),
                       ("prism", prism_instance), ("K4", k4_instance)):
        bits = instance_coord_bits(inst.region)
        meter[name] = (len(inst.region.points), bits)
        assert bits <= 40 + len(inst.region.points)
    thresholds = {name: inst.threshold for name, inst in
                  (("C3", c3_instance), ("prism", prism_instance),
                   ("K4", k4_instance))}
    assert thresholds["K4"] == 348
    report(10, f"full instances (thresholds {thresholds}) are declared "
               f"not searchable at desk scale; coordinate bit meter over "
               f"(points, bits): {meter}")


def test_criterion_11_pointset_conversion(c3_instance):
    inst = c3_instance
    psi = region_to_pointset(inst, multiplicity=1)
    assert validate(psi.t1).ok and validate(psi.t2).ok
    assert (psi.t1.edges - psi.t2.edges) == (inst.t1.edges - inst.t2.edges)
    assert (psi.t2.edges - psi.t1.edges) == (inst.t2.edges - inst.t1.edges)
    assert (psi.t1.edges - inst.t1.edges) == (psi.t2.edges - inst.t2.edges)
    big = region_to_pointset(inst)
    assert big.multiplicity == inst.threshold + 1
    assert all(len(v) == big.multiplicity
               for v in big.sliver_points.values())
    report(11, "converted instances validate, fills are identical across the "
               "pair, the symmetric difference is preserved, and every "
               "protected edge carries threshold+1 sliver layers; the "
               "point-set lower-bound argument itself is recorded as not "
               "machine-verified")
