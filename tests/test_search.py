import hashlib
import itertools
import random
from fractions import Fraction

import pytest

from flipdist import instanceio
from flipdist.errors import CapExceededError
from flipdist.gadgets import build_channel, channel_triangulations
from flipdist.geometry import pt
from flipdist.search import (
    FlipScript, bfs_distance, count_polygon_triangulations, enumerate_flip_graph,
    exact_distance, greedy_upper_bound, lower_bound,
)
from flipdist.triangulation import (
    FlipMove, PolygonalRegion, Triangulation, edge, validate,
)


def convex_polygon_region(n):
    ts = [Fraction(j, n) * 4 - 2 for j in range(n)]
    pts = [pt((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t)) for t in ts]
    return PolygonalRegion(pts, list(range(n)))


def fan(region, apex):
    n = len(region.points)
    edges = set(region.mandatory_edges)
    for k in range(n):
        if k != apex:
            edges.add(edge(apex, k))
    return Triangulation(region, edges)


def test_lower_bound_basics():
    region = convex_polygon_region(4)
    t1 = Triangulation(region, list(region.mandatory_edges) + [(0, 2)])
    t2 = t1.apply_flip(FlipMove((0, 2), (1, 3)))
    assert lower_bound(t1, t1) == 0
    assert lower_bound(t1, t2) == 1
    assert exact_distance(t1, t2).distance == 1


def test_exact_distance_identical():
    region = convex_polygon_region(6)
    t = fan(region, 0)
    res = exact_distance(t, t)
    assert res.distance == 0 and len(res.script) == 0


def test_pentagon_flip_graph_is_5_cycle():
    region = convex_polygon_region(5)
    graph = enumerate_flip_graph(fan(region, 0))
    assert len(graph) == 5  # Catalan(3)
    assert all(len(nbrs) == 2 for nbrs in graph.adjacency.values())
    # one cycle through all five nodes
    dist = graph.bfs_distances(fan(region, 0).canonical_key())
    assert sorted(dist.values()) == [0, 1, 1, 2, 2]


def test_hexagon_flip_graph_and_oracle_equivalence():
    region = convex_polygon_region(6)
    graph = enumerate_flip_graph(fan(region, 0))
    assert len(graph) == 14  # Catalan(4)
    keys = sorted(graph.nodes)
    for k1 in keys:
        t1 = graph.representatives[k1]
        dist = graph.bfs_distances(k1)
        for k2 in keys:
            t2 = graph.representatives[k2]
            res = exact_distance(t1, t2)
            assert res.distance == dist[k2]
            end = res.script.replay(t1)
            assert end.canonical_key() == k2


def test_fan_to_fan_hexagon():
    # fans at 0 and 3 share the long diagonal, so two flips suffice
    region = convex_polygon_region(6)
    t1, t2 = fan(region, 0), fan(region, 3)
    d_bfs = bfs_distance(t1, t2)
    res = exact_distance(t1, t2)
    assert res.distance == d_bfs == 2
    assert lower_bound(t1, t2) <= res.distance


def test_budget_exceeded():
    region = convex_polygon_region(6)
    t1, t2 = fan(region, 0), fan(region, 3)
    res = exact_distance(t1, t2, budget=1)
    assert res.exceeds_budget and res.distance is None
    assert exact_distance(t1, t2, budget=2).distance == 2


def test_symmetry_and_triangle_inequality():
    region = convex_polygon_region(6)
    graph = enumerate_flip_graph(fan(region, 0))
    rng = random.Random(11)
    keys = sorted(graph.nodes)
    triples = [tuple(rng.sample(keys, 3)) for _ in range(12)]
    for ka, kb, kc in triples:
        ta, tb, tc = (graph.representatives[k] for k in (ka, kb, kc))
        dab = exact_distance(ta, tb).distance
        dba = exact_distance(tb, ta).distance
        dbc = exact_distance(tb, tc).distance
        dac = exact_distance(ta, tc).distance
        assert dab == dba
        assert dac <= dab + dbc


def test_witness_scripts_replay():
    region = convex_polygon_region(7)
    t1, t2 = fan(region, 0), fan(region, 3)
    res = exact_distance(t1, t2)
    assert len(res.script) == res.distance
    end = res.script.replay(t1)
    assert end.canonical_key() == t2.canonical_key()
    back = res.script.reversed_from(end)
    assert back.replay(end).canonical_key() == t1.canonical_key()


def test_greedy_upper_bound():
    region = convex_polygon_region(8)
    t1, t2 = fan(region, 0), fan(region, 4)
    script = greedy_upper_bound(t1, t2)
    assert script.replay(t1).canonical_key() == t2.canonical_key()
    assert len(script) >= exact_distance(t1, t2).distance
    assert len(greedy_upper_bound(t1, t1)) == 0
    rng = random.Random(3)
    graph = enumerate_flip_graph(fan(region, 0))
    keys = sorted(graph.nodes)
    for _ in range(10):
        ka, kb = rng.sample(keys, 2)
        ta, tb = graph.representatives[ka], graph.representatives[kb]
        s = greedy_upper_bound(ta, tb)
        assert s.replay(ta).canonical_key() == kb
        assert lower_bound(ta, tb) <= exact_distance(ta, tb).distance <= len(s)


def test_enumeration_cap():
    region = convex_polygon_region(8)
    with pytest.raises(CapExceededError):
        enumerate_flip_graph(fan(region, 0), cap=10)


def test_dp_counter_matches_enumeration_convex():
    for n in (4, 5, 6, 7):
        region = convex_polygon_region(n)
        graph = enumerate_flip_graph(fan(region, 0))
        count = count_polygon_triangulations(region, list(range(n)))
        assert len(graph) == count


def test_dp_counter_nonconvex_polygon():
    # a dart-shaped quadrilateral: only one diagonal is usable
    region = PolygonalRegion([pt(0, 0), pt(4, 0), pt(1, 1), pt(0, 4)],
                             [0, 1, 2, 3])
    assert count_polygon_triangulations(region, [0, 1, 2, 3]) == 1
    graph = enumerate_flip_graph(
        Triangulation(region, list(region.mandatory_edges) + [(0, 2)]))
    assert len(graph) == 1


def test_random_nonagon_oracle_equivalence():
    # deterministic "random" simple 9-gon (star-shaped jitter, exact coords)
    rng = random.Random(20240817)
    pts = []
    base = [(4, 0), (3, 3), (0, 4), (-3, 3), (-4, 0), (-3, -3), (0, -4),
            (2, -4), (4, -2)]
    for (x, y) in base:
        jitter = Fraction(rng.randint(-2, 2), 8)
        pts.append(pt(Fraction(x) + jitter, Fraction(y) + jitter))
    region = PolygonalRegion(pts, list(range(9)))
    from flipdist.triangulation import ear_clip_triangulation
    seed = Triangulation(region, ear_clip_triangulation(region, list(range(9))))
    assert validate(seed).ok
    graph = enumerate_flip_graph(seed)
    assert len(graph) == count_polygon_triangulations(region, list(range(9)))
    keys = sorted(graph.nodes)[:6]
    for k1 in keys:
        dist = graph.bfs_distances(k1)
        for k2 in keys:
            res = exact_distance(graph.representatives[k1],
                                 graph.representatives[k2])
            assert res.distance == dist[k2]


def test_greedy_cap_exceeded():
    region = convex_polygon_region(6)
    t1, t2 = fan(region, 0), fan(region, 3)
    with pytest.raises(CapExceededError):
        greedy_upper_bound(t1, t2, move_cap=1)


def channel_pair(n):
    ch = build_channel((pt(-60, 40), pt(-60, -40)), (pt(60, 40), pt(60, -40)),
                       Fraction(1, 160), n=n)
    _, t_left, t_right = channel_triangulations(ch)
    return t_left, t_right


# SHA-256 of the H_7 left->right witness file; pinned with the expansion
# count so that a change to the expansion order or the tie-breaks shows
H7_WITNESS_SHA256 = \
    "612b509ed99b19a0498b4f0bada3bd9543723b44a4f1efdb389daece7f24cb62"


def test_h7_search_is_pinned():
    t_left, t_right = channel_pair(7)
    res = exact_distance(t_left, t_right)
    assert (res.distance, res.nodes_expanded, res.frontier_peak) == \
        (36, 1346, 149)
    witness = instanceio.script_dumps(res.script).encode("ascii")
    assert hashlib.sha256(witness).hexdigest() == H7_WITNESS_SHA256


@pytest.mark.slow
def test_h10_distance_is_81():
    t_left, t_right = channel_pair(10)
    res = exact_distance(t_left, t_right)
    assert res.distance == len(res.script) == 81
    assert res.script.replay(t_left).canonical_key() == t_right.canonical_key()
