import hashlib
import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from flipdist import instanceio, search
from flipdist.errors import CapExceededError
from flipdist.gadgets import build_channel, channel_triangulations
from flipdist.geometry import pt, segments_share_interior
from flipdist.search import (
    FlipScript, count_polygon_triangulations,
    enumerate_flip_graph, exact_distance, lower_bound,
)
from flipdist.triangulation import (
    FlipMove, PointSet, PolygonalRegion, Triangulation, edge, validate,
)

from oracles import (bfs_distance, greedy_by_triangulations,
                     greedy_upper_bound, segment_inside)


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
    reps = {k: Triangulation(region, graph.nodes[k]) for k in keys}
    for k1 in keys:
        t1 = reps[k1]
        dist = graph.bfs_distances(k1)
        for k2 in keys:
            res = exact_distance(t1, reps[k2])
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
        ta, tb, tc = (Triangulation(region, graph.nodes[k])
                      for k in (ka, kb, kc))
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
    back = FlipScript(end.canonical_key(),
                      tuple(m.reverse() for m in reversed(res.script.moves)))
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
        ta, tb = (Triangulation(region, graph.nodes[k]) for k in (ka, kb))
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
    from flipdist.triangulation import ear_clip_with_triangles
    seed = Triangulation(region,
                         ear_clip_with_triangles(region, list(range(9)))[0])
    assert validate(seed).ok
    graph = enumerate_flip_graph(seed)
    assert len(graph) == count_polygon_triangulations(region, list(range(9)))
    keys = sorted(graph.nodes)[:6]
    reps = {k: Triangulation(region, graph.nodes[k]) for k in keys}
    for k1 in keys:
        dist = graph.bfs_distances(k1)
        for k2 in keys:
            res = exact_distance(reps[k1], reps[k2])
            d = dist[k2]
            assert res.distance == d
            if d == 0:
                continue
            # one flip short of the distance the budget is exceeded; at the
            # distance the witness unwound from the two sides' records
            # replays to the target
            assert exact_distance(reps[k1], reps[k2],
                                  budget=d - 1).exceeds_budget
            res = exact_distance(reps[k1], reps[k2], budget=d)
            assert res.distance == len(res.script) == d
            assert res.script.replay(reps[k1]).canonical_key() == k2


def test_greedy_cap_exceeded():
    region = convex_polygon_region(6)
    t1, t2 = fan(region, 0), fan(region, 3)
    with pytest.raises(CapExceededError):
        greedy_upper_bound(t1, t2, move_cap=1)


def point_set_seed(ps):
    """A triangulation of a point set: every segment in index order that
    lies inside and touches no segment kept before it, a maximal plane
    edge set."""
    ip = ps.ipoints
    kept = []
    for u, v in itertools.combinations(range(len(ip)), 2):
        if segment_inside(ps, u, v) and not any(
                segments_share_interior(ip[u], ip[v], ip[a], ip[b])
                for a, b in kept):
            kept.append((u, v))
    t = Triangulation(ps, kept)
    assert validate(t).ok
    return t


def greedy_seeds():
    """A convex octagon, a point set with collinear hull points and
    interior points, and a square with a point hole."""
    octagon = convex_polygon_region(8)
    ps = PointSet([pt(0, 0), pt(3, 0), pt(6, 0), pt(6, 6), pt(0, 6),
                   pt(0, 3), pt(2, 2), pt(4, 3), pt(3, 5)])
    holed = PolygonalRegion([pt(0, 0), pt(6, 0), pt(7, 4), pt(3, 7),
                             pt(-1, 4), pt(3, 3)], range(5), [[5]])
    return [fan(octagon, 0), point_set_seed(ps),
            Triangulation(holed, list(holed.mandatory_edges)
                          + [(k, 5) for k in range(5)])]


@pytest.mark.parametrize("seed", greedy_seeds(),
                         ids=["octagon", "point_set", "point_hole"])
def test_greedy_matches_triangulation_oracle(seed, monkeypatch):
    """The greedy walk on the flip kernel takes the same flips as the old
    walk over `Triangulation`s, which built every candidate's child, and
    fails the same way under a small move cap; it calls neither
    `legal_flips` nor `apply_flip`."""
    graph = enumerate_flip_graph(seed)
    keys = sorted(graph.nodes)
    rng = random.Random(19)
    pairs = [rng.sample(keys, 2) for _ in range(25)]
    reps = {k: Triangulation(seed.domain, graph.nodes[k])
            for pair in pairs for k in pair}
    expected = {}
    for ka, kb in pairs:
        ta, tb = reps[ka], reps[kb]
        script = expected[ka, kb] = greedy_by_triangulations(ta, tb)
        with pytest.raises(CapExceededError) as exc:
            greedy_by_triangulations(ta, tb, move_cap=len(script) - 1)
        expected[ka, kb, "cap"] = str(exc.value)

    def banned(*args):
        raise AssertionError("greedy built a Triangulation per flip")

    monkeypatch.setattr(Triangulation, "legal_flips", banned)
    monkeypatch.setattr(Triangulation, "apply_flip", banned)
    for ka, kb in pairs:
        ta, tb = reps[ka], reps[kb]
        script = greedy_upper_bound(ta, tb)
        assert script == expected[ka, kb]
        with pytest.raises(CapExceededError) as exc:
            greedy_upper_bound(ta, tb, move_cap=len(script) - 1)
        assert str(exc.value) == expected[ka, kb, "cap"]


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


def test_bytes_keys_built_once_per_kept_state(monkeypatch):
    # states are told apart by their edge masks; canonical bytes are built
    # only for kept states: one per node on the first read of the graph's
    # nodes and none while enumerating.  The search joins a whole heap key
    # only for its two starts: each kept child's key is spliced from its
    # parent's, and no canonical key is joined at all
    built, joined = [], []
    key, heap_key = search._key, search._heap_key
    monkeypatch.setattr(
        search, "_key", lambda tokens, ids: built.append(ids) or key(tokens, ids))
    monkeypatch.setattr(
        search, "_heap_key",
        lambda tokens, width: joined.append(tokens) or heap_key(tokens, width))
    t_left, t_right = channel_pair(7)
    graph = enumerate_flip_graph(t_left)
    assert built == [] and joined == []
    assert len(graph.nodes) == len(graph) == len(built) == 924
    assert len(graph.nodes) == len(graph.adjacency) == len(built) == 924
    built.clear()
    res = exact_distance(t_left, t_right)
    assert (res.nodes_expanded, res.states_recorded) == (1346, 1446)
    assert built == [] and len(joined) == 2


# the answers of the benchmark's `search` and `enumerate` workloads on H_9
H9_WITNESS_SHA256 = \
    "7cdc01198ca9ab21bf8baa2e4758c84017718d78f18c793d0dd0ca0f1cd5ffa2"
H9_ADJACENCY_SHA256 = \
    "ae8c2030607f919729ebd4ec727a4e3a4a84fd86191ea5c693b7c50695266a8d"
H9_NODE_ORDER_SHA256 = \
    "2dc89c29a62f7aa370ffa9979186a60eb6a652d1e9877f7bf9205dad4566484a"
H10_WITNESS_SHA256 = \
    "f29ac84cb96fc565a7d166526b65a2dfb6c81f0a6e31bc16866d6f8a30083502"


def test_h9_search_is_pinned():
    t_left, t_right = channel_pair(9)
    res = exact_distance(t_left, t_right)
    assert (res.distance, res.nodes_expanded, res.frontier_peak) == \
        (64, 17103, 1235)
    witness = instanceio.script_dumps(res.script).encode("ascii")
    assert hashlib.sha256(witness).hexdigest() == H9_WITNESS_SHA256


def test_h9_enumeration_is_pinned():
    # nodes in the order they were found, adjacency in expansion order
    t_left, _ = channel_pair(9)
    graph = enumerate_flip_graph(t_left)
    flips = sum(len(nbrs) for nbrs in graph.adjacency.values()) // 2
    assert (len(graph), flips) == (12870, 51480)
    nodes = b"".join(key + b"\n" for key in graph.nodes)
    assert hashlib.sha256(nodes).hexdigest() == H9_NODE_ORDER_SHA256
    digest = hashlib.sha256()
    for key, nbrs in graph.adjacency.items():
        digest.update(key + b">" + b"|".join(nbrs) + b"\n")
    assert digest.hexdigest() == H9_ADJACENCY_SHA256


def test_h8_enumeration_memory():
    # a node is held as its mask in the one mask -> index dict, its parent's
    # index and the flip that found it, and its share of one flat
    # neighbour array; a node found but not yet expanded is its parent's
    # state and that flip, and its own state is built when it is popped:
    # about 330 B a node at the traced peak, where a tuple of edge ids per
    # node, a neighbour list per node and a built state per pending node
    # took about 640 B
    t_left, _ = channel_pair(8)
    tracemalloc.start()
    try:
        graph = enumerate_flip_graph(t_left)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(graph) == 3432
    assert peak < 400 * len(graph), peak / len(graph)
    for key, edges in graph.nodes.items():
        assert type(edges) is tuple and list(edges) == sorted(edges)
        assert Triangulation(t_left.domain, edges).canonical_key() == key


def test_h8_enumeration_and_first_read_memory():
    # the traced peak over the enumeration and the first read of `nodes`,
    # which builds every key, edge tuple and neighbour list: each node's
    # edges are rebuilt from its parent's and the index form goes as it is
    # read, about 770 B a node, where the parent kept about 900
    t_left, _ = channel_pair(8)
    tracemalloc.start()
    try:
        graph = enumerate_flip_graph(t_left)
        nodes = graph.nodes
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(nodes) == len(graph.adjacency) == 3432
    assert peak < 1000 * len(graph), peak / len(graph)


def test_h7_enumeration_cap_and_child_calls(monkeypatch):
    # the cap admits exactly the graph's nodes, and a child state is built
    # once for each node after the seed
    t_left, _ = channel_pair(7)
    calls = []
    child = search._FlipKernel.child
    monkeypatch.setattr(search._FlipKernel, "child",
                        lambda *args: calls.append(None) or child(*args))
    graph = enumerate_flip_graph(t_left, cap=924)
    assert len(graph) == 924 and len(calls) == len(graph) - 1
    with pytest.raises(CapExceededError, match="exceeds the 923-node cap"):
        enumerate_flip_graph(t_left, cap=len(graph) - 1)


def test_h8_search_memory():
    # a searched state is one packed record `g * W + move` per side, plus
    # its heap entry and, while open, its state: about 200 B per expansion
    # at the traced peak, where g values, closed sets and parent tuples
    # took about 340 B
    t_left, t_right = channel_pair(8)
    tracemalloc.start()
    try:
        res = exact_distance(t_left, t_right)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.distance == len(res.script) == 49
    assert peak < 250 * res.nodes_expanded, peak / res.nodes_expanded


@pytest.mark.slow
def test_h10_distance_is_81():
    t_left, t_right = channel_pair(10)
    res = exact_distance(t_left, t_right)
    assert res.distance == len(res.script) == 81
    assert (res.nodes_expanded, res.frontier_peak) == (63765, 3793)
    assert res.script.replay(t_left).canonical_key() == t_right.canonical_key()
    witness = instanceio.script_dumps(res.script).encode("ascii")
    assert hashlib.sha256(witness).hexdigest() == H10_WITNESS_SHA256
