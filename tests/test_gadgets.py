import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import Phase, given, settings, strategies as st

from flipdist import instanceio, triangulation
from flipdist.errors import (IllegalScriptError, InfeasibleSagError,
                             ValidationError)
from flipdist.gadgets import (
    Channel, blocking_set, build_channel, canonical_capped_edges,
    capped_transform_moves, capped_transform_replays,
    channel_invariant_report, channel_mouths,
    channel_region,
    channel_triangulations, left_to_canonical_moves,
    left_edges, right_edges, right_to_canonical_moves,
)
from flipdist.geometry import on_segment, orientation, pt
from flipdist.search import (count_polygon_triangulations,
                             enumerate_flip_graph, exact_distance)
from flipdist.triangulation import (PolygonalRegion, Triangulation, edge,
                                    replay, validate)
from oracles import (bfs_distance, chain_by_point_arithmetic,
                     chain_pair_blocked_by_segments,
                     edges_crossing_segment,
                     edges_crossing_segment_four_tests,
                     reflex_report_by_fractions, segment_inside)


def figure_channel(n=7, sag=Fraction(1, 160)):
    return build_channel((pt(-60, 40), pt(-60, -40)),
                         (pt(60, 40), pt(60, -40)), sag, n=n)


def test_build_channel_invariants():
    ch = figure_channel()
    region = channel_region(ch)
    assert validate(Triangulation(
        region, set(region.mandatory_edges)
        | left_edges(range(7), range(7, 14)))).ok
    # complete bipartite visibility: every upper vertex sees every lower one
    for i in range(7):
        for j in range(7, 14):
            assert segment_inside(region, i, j)


def sagged_channel(sag, n=7, jitter=None):
    """Chains along y = 40 and y = -40, each interior vertex displaced
    toward the axis by sag * i * (n-1-i) (away from it for sag < 0) and,
    with a `random.Random`, by a small random offset; no check is made."""
    def chain(y, sign):
        pts = []
        for i in range(n):
            dx, dy = (jitter.randint(-3, 3), jitter.randint(-3, 3)) \
                if jitter else (0, 0)
            pts.append(pt(-60 + Fraction(120 * i, n - 1) + dx,
                          y - sign * sag * i * (n - 1 - i) + dy))
        return tuple(pts)
    return Channel(chain(40, 1), chain(-40, -1))


# coordinates with odd denominators, so that the chain's grid scale is a
# product of unrelated ones, and sags of either kind of denominator
coordinates = st.one_of(st.integers(-200, 200),
                        st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                                  st.integers(0, 999).map(lambda k: 2 * k + 1)))
corners = st.builds(pt, coordinates, coordinates)
sags = st.builds(Fraction, st.integers(1, 99), st.integers(1, 10 ** 6))


@settings(max_examples=150,
          phases=[p for p in Phase if p is not Phase.explain])
@given(st.tuples(corners, corners, corners, corners), sags,
       st.integers(3, 9))
def test_chain_points_match_point_arithmetic(ends, sag, n):
    """`build_channel` builds each chain point from integers on one grid,
    with the value that `Point2` arithmetic gives; the invariant check is
    left out here, so that every generated channel shows its chains."""
    a1, b1, an, bn = ends
    with mock.patch("flipdist.gadgets.channel_invariant_report",
                    return_value=[]):
        try:
            ch = build_channel((a1, b1), (an, bn), sag, n=n)
        except InfeasibleSagError:
            assert 0 in (orientation(a1, an, b1), orientation(b1, bn, a1))
            return
    assert ch.upper == chain_by_point_arithmetic(a1, an, b1, sag, n)
    assert ch.lower == chain_by_point_arithmetic(b1, bn, a1, sag, n)
    assert all(type(c) is Fraction for p in ch.upper + ch.lower for c in p)


@pytest.mark.parametrize("seed", range(12))
def test_reflex_checks_match_fraction_centroid(seed):
    # sagged channels, toward the axis, away from it or flat, with jitter,
    # moved off the origin: the integer centroid test names the chains the
    # `Fraction` one names
    rng = random.Random(seed)
    for sag in (Fraction(1, 40), Fraction(-1, 40), Fraction(0),
                Fraction(1, 7), Fraction(1, 400)):
        ch = sagged_channel(sag, n=rng.randint(3, 8),
                            jitter=rng if seed % 2 else None)
        off = pt(Fraction(rng.randint(-9999, 9999), 3), rng.randint(-999, 999))
        ch = Channel(tuple(p + off for p in ch.upper),
                     tuple(p + off for p in ch.lower))
        report = channel_invariant_report(ch)
        if report and report[0].startswith("channel polygon invalid"):
            continue
        assert [m for m in report if "reflex" in m] == \
            reflex_report_by_fractions(ch)


def test_channel_report_matches_pairwise_oracle(c3_instance):
    """The walks decide visibility as the pairwise `segment_inside` loop
    does: with the left fan valid they name its first blocked pair, and
    the fan is invalid only when some pair is blocked.  Channels: the C3
    instance's, one whose blocked pair runs through a vertex, and sagged
    ones that pass, bulge outward, pinch shut or cross, with and without
    random offsets."""
    pts = c3_instance.region.points
    channels = [Channel(tuple(pts[i] for i in rec.upper),
                        tuple(pts[i] for i in rec.lower))
                for rec in c3_instance.channels.values()]
    # upper[2] and lower[0] are collinear with lower[1], which the walk
    # meets after crossing two edges
    channels.append(Channel((pt(0, 7), pt(5, 7), pt(9, 5)),
                            (pt(1, 1), pt(3, 2), pt(9, 1))))
    rng = random.Random(5)
    for sag in (Fraction(-2), Fraction(1, 160), Fraction(1), Fraction(2),
                Fraction(3), Fraction(4), Fraction(9, 2), Fraction(5)):
        channels.append(sagged_channel(sag))
        channels += [sagged_channel(sag, jitter=rng) for _ in range(12)]
    outcomes = set()
    for ch in channels:
        report = channel_invariant_report(ch)
        try:
            blocked = chain_pair_blocked_by_segments(ch)
        except ValidationError:
            assert report[0].startswith("channel polygon invalid")
            outcomes.add("polygon")
            continue
        seen = [m for m in report if "see each other" in m
                or m.startswith("left-inclined triangulation invalid")]
        if blocked is None:
            assert seen == []
            outcomes.add("sees")
        elif seen[0].startswith("left-inclined"):
            assert len(seen) == 1
            outcomes.add("fan")
        else:
            i, j = blocked
            assert seen == [f"chain vertices {i} and {j} do not see each other"]
            outcomes.add("pair")
    assert outcomes == {"polygon", "sees", "fan", "pair"}


def test_blocking_set_names_a_segment_that_leaves_the_domain():
    # the chord between the ends of a sagging chain passes outside the
    # channel, so the walk along it stops at a boundary edge
    _, t_left, _ = channel_triangulations(figure_channel())
    with pytest.raises(ValidationError,
                       match=r"segment \(0, 6\) leaves the domain"):
        blocking_set(t_left, 0, (6, 13))


def test_build_channel_rejects_zero_sag():
    with pytest.raises(InfeasibleSagError):
        figure_channel(sag=Fraction(0))


def test_left_right_edge_structure():
    upper, lower = list(range(7)), list(range(7, 14))
    le, re = left_edges(upper, lower), right_edges(upper, lower)
    shared = le & re
    # the two end edges are shared, the 11 inner diagonals differ per side
    assert shared == {edge(0, 7), edge(6, 13)}
    assert len(le - re) == len(re - le) == 11


def test_channel_flip_graph_matches_dp_count():
    ch = figure_channel()
    region, t_left, t_right = channel_triangulations(ch)
    graph = enumerate_flip_graph(t_left)
    n = len(region.points)
    dp = count_polygon_triangulations(region, list(region.outer))
    assert len(graph) == dp == 924  # C(12, 6) staircases for 7-vertex chains


def test_property_channel_distance_36():
    ch = figure_channel()
    region, t_left, t_right = channel_triangulations(ch)
    res = exact_distance(t_left, t_right)
    assert res.distance == 36
    assert bfs_distance(t_left, t_right) == 36
    assert res.script.replay(t_left).canonical_key() == t_right.canonical_key()


@pytest.mark.parametrize("n,expected", [(3, 4), (4, 9), (5, 16), (6, 25)])
def test_generalized_channel_distance(n, expected):
    ch = figure_channel(n=n)
    region, t_left, t_right = channel_triangulations(ch)
    assert exact_distance(t_left, t_right).distance == expected == (n - 1) ** 2


def capped_setup(cap_near=None, cap_far=None, n=7):
    ch = figure_channel(n=n)
    region = channel_region(ch, cap_near=cap_near, cap_far=cap_far)
    upper, lower = list(range(n)), list(range(n, 2 * n))
    base = set(region.mandatory_edges)
    t_left = Triangulation(region, base | left_edges(upper, lower))
    t_right = Triangulation(region, base | right_edges(upper, lower))
    return region, upper, lower, t_left, t_right


# SHA-256 of the capped H_7 left->right witness file, the benchmark's
# small `search` query
CAPPED_H7_WITNESS_SHA256 = \
    "3419693d0200a5eca0830620ca9e995258dce4a2d17e0e38da43607615e9445f"


def test_property_capped_channel_distance_24():
    # pinned as (distance, nodes_expanded, frontier_peak), so that a change
    # to the expansion order or the tie-breaks shows
    region, upper, lower, t_left, t_right = capped_setup(cap_near=pt(-80, 0))
    assert validate(t_left).ok and validate(t_right).ok
    res = exact_distance(t_left, t_right)
    assert (res.distance, res.nodes_expanded, res.frontier_peak) == \
        (24, 1019, 420)
    witness = instanceio.script_dumps(res.script).encode("ascii")
    assert hashlib.sha256(witness).hexdigest() == CAPPED_H7_WITNESS_SHA256
    cap = 14
    t_canon = Triangulation(region, set(region.mandatory_edges)
                            | canonical_capped_edges(upper, lower, cap))
    assert validate(t_canon).ok
    for t in (t_left, t_right):
        res = exact_distance(t, t_canon)
        assert (res.distance, res.nodes_expanded, res.frontier_peak) == \
            (12, 12, 14)
        assert res.script.replay(t).canonical_key() == t_canon.canonical_key()


def test_explicit_12_move_script_reaches_canonical():
    region, upper, lower, t_left, t_right = capped_setup(cap_near=pt(-80, 0))
    cap = 14
    moves = left_to_canonical_moves(upper, lower, cap)
    assert len(moves) == 12
    t = replay(t_left, moves)
    canon = set(region.mandatory_edges) | canonical_capped_edges(upper, lower, cap)
    assert t.edges == frozenset(canon)
    moves_r = right_to_canonical_moves(upper, lower, cap)
    assert replay(t_right, moves_r).edges == frozenset(canon)
    # full 24-move transform lands on the right-inclined triangulation
    t24 = replay(t_left, capped_transform_moves(upper, lower, cap))
    assert t24.edges == t_right.edges


def test_capped_transform_from_far_end():
    region, upper, lower, t_left, t_right = capped_setup(cap_far=pt(80, 0))
    cap = 14
    moves = capped_transform_moves(upper, lower, cap, cap_at_far_end=True)
    assert len(moves) == 24
    assert replay(t_left, moves).edges == t_right.edges
    # seen from the far end the chains are mirrored: left and right swap
    u, l = list(reversed(upper)), list(reversed(lower))
    canon = set(region.mandatory_edges) | canonical_capped_edges(u, l, cap)
    assert validate(Triangulation(region, canon)).ok
    from_left = right_to_canonical_moves(u, l, cap)
    from_right = left_to_canonical_moves(u, l, cap)
    assert len(from_left) == len(from_right) == 12
    assert replay(t_left, from_left).edges == frozenset(canon)
    assert replay(t_right, from_right).edges == frozenset(canon)


def test_capped_transform_replays_rejects_a_cap_that_sees_too_little():
    # a cap just outside the near end, high up beside the upper chain: the
    # capped region and its left-inclined triangulation are valid, but the
    # cap sees too little of the channel for the fan, so the transform's
    # move 7 is illegal and the cap is refused; the figure's cap passes
    ch = figure_channel()
    cap = pt(-61, 39)
    _, t_left, _ = channel_triangulations(ch, cap_near=cap)
    assert validate(t_left).ok
    with pytest.raises(IllegalScriptError) as exc:
        replay(t_left, capped_transform_moves(list(range(7)),
                                              list(range(7, 14)), 14))
    assert exc.value.index == 7
    assert capped_transform_replays(ch, cap, far_end=False) is False
    assert capped_transform_replays(ch, pt(-80, 0), far_end=False) is True


def test_property_double_capped_distance_24():
    region, upper, lower, t_left, t_right = capped_setup(
        cap_near=pt(-80, 0), cap_far=pt(80, 0))
    assert validate(t_left).ok and validate(t_right).ok
    assert exact_distance(t_left, t_right).distance == 24


def test_property_locked_channel_still_36():
    # extra vertices outside both wide mouths at either end cannot help
    ch = figure_channel()
    pts = list(ch.upper) + list(ch.lower) + [pt(-70, 50), pt(70, 50)]
    x_id, y_id = 14, 15
    cycle = [x_id] + list(range(7)) + [y_id] + list(range(13, 6, -1))
    region = PolygonalRegion(pts, list(reversed(cycle)))
    for end, probe in ((0, pts[x_id]), (1, pts[y_id])):
        m = channel_mouths(list(ch.upper), list(ch.lower), end)
        assert not m.wide.contains(probe)
    base = set(region.mandatory_edges) | {edge(0, 7), edge(6, 13)}
    extra = {edge(x_id, 0), edge(x_id, 7), edge(y_id, 6), edge(y_id, 13)}
    base |= extra
    upper, lower = list(range(7)), list(range(7, 14))
    t_left = Triangulation(region, base | left_edges(upper, lower))
    t_right = Triangulation(region, base | right_edges(upper, lower))
    assert validate(t_left).ok and validate(t_right).ok
    assert exact_distance(t_left, t_right).distance == 36


def test_mouths_nesting_and_visibility():
    ch = figure_channel()
    m = channel_mouths(list(ch.upper), list(ch.lower), 0)
    assert m.narrow.is_subset_of(m.wide)
    cap = pt(-80, 0)
    assert m.narrow.contains(cap)
    # a capping vertex sees all 14 channel vertices
    region = channel_region(ch, cap_near=cap)
    for v in range(14):
        assert segment_inside(region, 14, v)
    # a vertex outside the wide mouth sees only the near end vertices
    outside = pt(-70, 50)
    assert not m.wide.contains(outside)
    pts2 = list(ch.upper) + list(ch.lower) + [outside]
    cycle = [14] + list(range(7)) + list(range(13, 6, -1))
    region2 = PolygonalRegion(pts2, list(reversed(cycle)))
    seen = [v for v in range(14) if segment_inside(region2, 14, v)]
    # past the wide mouth it cannot look down the upper chain, so it can
    # never become an apex for an interior upper-chain edge
    assert [v for v in seen if v < 7] == [0]
    assert 7 in seen


def test_edge_difference_left_right():
    ch = figure_channel()
    _, t_left, t_right = channel_triangulations(ch)
    from oracles import edge_difference
    only_l, only_r = edge_difference(t_left, t_right)
    assert len(only_l) == len(only_r) == 11


def test_left_inclined_has_unique_legal_flip():
    ch = figure_channel()
    _, t_left, _ = channel_triangulations(ch)
    flips = t_left.legal_flips()
    # only the middle diagonal A1-B7 sits in a convex quadrilateral
    assert flips == [((0, 13), (1, 12))]


def test_lower_bound_is_weak_on_channels():
    from flipdist.search import lower_bound
    ch = figure_channel()
    _, t_left, t_right = channel_triangulations(ch)
    assert lower_bound(t_left, t_right) == 11
    assert exact_distance(t_left, t_right).distance == 36


def test_degree2_collinear_vertex_is_sharp():
    from flipdist.errors import SharpVertexError
    from flipdist.gadgets import ChannelStub, build_vertex_gadget
    stubs = [
        ChannelStub(key=(0, 1), direction=pt(1, 0),
                    gate_left=pt(10, 1), gate_right=pt(10, -1)),
        ChannelStub(key=(0, 2), direction=pt(-1, 0),
                    gate_left=pt(-10, -1), gate_right=pt(-10, 1)),
    ]
    with pytest.raises(SharpVertexError):
        build_vertex_gadget(pt(0, 0), Fraction(10), stubs)


def test_wide_mouths_covering_square_is_infeasible():
    from flipdist.errors import EmptyFeasibleRegionError
    from flipdist.gadgets import ChannelStub, build_vertex_gadget
    # gates as wide as the square sides leave no free wedge at all
    stubs = [
        ChannelStub(key=(0, 1), direction=pt(0, 1),
                    gate_left=pt(-9, 10), gate_right=pt(9, 10)),
        ChannelStub(key=(0, 2), direction=pt(-1, -1),
                    gate_left=pt(-10, -9), gate_right=pt(-9, -10)),
        ChannelStub(key=(0, 3), direction=pt(1, -1),
                    gate_left=pt(9, -10), gate_right=pt(10, -9)),
    ]
    with pytest.raises(EmptyFeasibleRegionError):
        build_vertex_gadget(pt(0, 0), Fraction(10), stubs)


def test_crossing_scan_matches_four_test_oracle(c3_instance):
    """Random point pairs of the C3 instance's t1, every pair whose open
    segment passes through a point, and every edge of t1 as a segment."""
    t = c3_instance.t1
    ip = t.domain.ipoints
    n = len(ip)
    rng = random.Random(17)
    pairs = {tuple(rng.sample(range(n), 2)) for _ in range(200)}
    through = {(p, q) for p in range(n) for q in range(p + 1, n)
               if any(on_segment(ip[r], ip[p], ip[q])
                      for r in range(n) if r not in (p, q))}
    assert through
    for p, q in pairs | through | set(t.edges):
        assert edges_crossing_segment(t, p, q) == \
            edges_crossing_segment_four_tests(t, p, q)


def test_blocking_set_walk_cost_is_local(c3_instance, monkeypatch):
    """`blocking_set` walks from the cap: each of its two walks makes one
    orientation call per neighbour of the cap, at most two more to pick the
    cap's triangle, and at most one per crossed edge, so at most
    2 * (deg(cap) + |found| + 2) calls however many edges t has."""
    inst = c3_instance
    t = inst.t1
    nbrs = t.neighbours()
    t.edge_apexes()
    calls = []

    def counted(p, q, r):
        calls.append(None)
        return orientation(p, q, r)

    checked = 0
    for rec in inst.channels.values():
        for v, cap in rec.caps.items():
            gate = edge(*rec.gates[v])
            calls.clear()
            with monkeypatch.context() as m:
                m.setattr(triangulation, "orientation", counted)
                found = blocking_set(t, cap, gate)
            bound = 2 * (len(nbrs[cap]) + len(found) + 2)
            assert 0 < len(calls) <= bound < len(t.edges) // 4
            checked += 1
    assert checked == 6
