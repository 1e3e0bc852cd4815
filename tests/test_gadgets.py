from fractions import Fraction

import pytest

from flipdist.errors import InfeasibleSagError
from flipdist.gadgets import (
    Channel, build_channel, canonical_capped_edges, capped_transform_moves,
    channel_mouths, channel_region, channel_triangulations,
    left_to_canonical_moves, left_edges, right_edges, right_to_canonical_moves,
)
from flipdist.geometry import pt
from flipdist.search import (bfs_distance, count_polygon_triangulations,
                             enumerate_flip_graph, exact_distance)
from flipdist.triangulation import PolygonalRegion, Triangulation, edge, validate


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
            assert region.segment_inside(i, j)


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


def test_property_capped_channel_distance_24():
    region, upper, lower, t_left, t_right = capped_setup(cap_near=pt(-80, 0))
    assert validate(t_left).ok and validate(t_right).ok
    res = exact_distance(t_left, t_right)
    assert res.distance == 24
    cap = 14
    t_canon = Triangulation(region, set(region.mandatory_edges)
                            | canonical_capped_edges(upper, lower, cap))
    assert validate(t_canon).ok
    assert exact_distance(t_left, t_canon).distance == 12
    assert exact_distance(t_right, t_canon).distance == 12


def test_explicit_12_move_script_reaches_canonical():
    region, upper, lower, t_left, t_right = capped_setup(cap_near=pt(-80, 0))
    cap = 14
    moves = left_to_canonical_moves(upper, lower, cap)
    assert len(moves) == 12
    t = t_left.apply_script(moves)
    canon = set(region.mandatory_edges) | canonical_capped_edges(upper, lower, cap)
    assert t.edges == frozenset(canon)
    moves_r = right_to_canonical_moves(upper, lower, cap)
    assert t_right.apply_script(moves_r).edges == frozenset(canon)
    # full 24-move transform lands on the right-inclined triangulation
    t24 = t_left.apply_script(capped_transform_moves(upper, lower, cap))
    assert t24.edges == t_right.edges


def test_capped_transform_from_far_end():
    region, upper, lower, t_left, t_right = capped_setup(cap_far=pt(80, 0))
    cap = 14
    moves = capped_transform_moves(upper, lower, cap, cap_at_far_end=True)
    assert len(moves) == 24
    assert t_left.apply_script(moves).edges == t_right.edges
    # seen from the far end the chains are mirrored: left and right swap
    u, l = list(reversed(upper)), list(reversed(lower))
    canon = set(region.mandatory_edges) | canonical_capped_edges(u, l, cap)
    assert validate(Triangulation(region, canon)).ok
    from_left = right_to_canonical_moves(u, l, cap)
    from_right = left_to_canonical_moves(u, l, cap)
    assert len(from_left) == len(from_right) == 12
    assert t_left.apply_script(from_left).edges == frozenset(canon)
    assert t_right.apply_script(from_right).edges == frozenset(canon)


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
    assert m.narrow.strictly_contains(cap)
    # a capping vertex sees all 14 channel vertices
    region = channel_region(ch, cap_near=cap)
    for v in range(14):
        assert region.segment_inside(14, v)
    # a vertex outside the wide mouth sees only the near end vertices
    outside = pt(-70, 50)
    assert not m.wide.contains(outside)
    pts2 = list(ch.upper) + list(ch.lower) + [outside]
    cycle = [14] + list(range(7)) + list(range(13, 6, -1))
    region2 = PolygonalRegion(pts2, list(reversed(cycle)))
    seen = [v for v in range(14) if region2.segment_inside(14, v)]
    # past the wide mouth it cannot look down the upper chain, so it can
    # never become an apex for an interior upper-chain edge
    assert [v for v in seen if v < 7] == [0]
    assert 7 in seen


def test_edge_difference_left_right():
    ch = figure_channel()
    _, t_left, t_right = channel_triangulations(ch)
    from flipdist.triangulation import edge_difference
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
