from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, strategies as st

from flipdist.errors import EmptyRegionError
from flipdist.geometry import (
    CCW, COLLINEAR, CW, HalfPlane, Point2, coord_bits, halfplane_intersection,
    halfplane_through, interior_point, is_strictly_convex_quad, on_segment,
    orientation, pt, segments_properly_cross, segments_share_interior,
)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
points = st.builds(Point2, rationals, rationals)
# a coarse rational grid, so that collinear and touching inputs are common
coarse = st.fractions(min_value=-3, max_value=3, max_denominator=3)
mixed_points = st.one_of(points, st.builds(Point2, coarse, coarse))


def test_orientation_basis():
    assert orientation(pt(0, 0), pt(1, 0), pt(0, 1)) == CCW
    assert orientation(pt(0, 0), pt(1, 1), pt(2, 2)) == COLLINEAR
    assert orientation(pt(0, 0), pt(0, 1), pt(1, 0)) == CW


@given(points, points, points)
def test_orientation_antisymmetric(p, q, r):
    assert orientation(p, q, r) == -orientation(q, p, r)
    assert orientation(p, q, r) == -orientation(p, r, q)
    assert orientation(p, q, r) == orientation(q, r, p)


@given(points, points, points, points)
def test_orientation_translation_invariant(p, q, r, t):
    assert orientation(p, q, r) == orientation(p + t, q + t, r + t)


def _grid_tuples(*pts):
    """The points scaled by the lcm of their denominators to integer pairs,
    as the triangulation domains store them."""
    scale = lcm(*(c.denominator for p in pts for c in p))
    return [(int(p.x * scale), int(p.y * scale)) for p in pts]


@given(mixed_points, mixed_points, mixed_points, mixed_points)
def test_kernel_agrees_on_point2_and_grid_tuples(a, b, c, d):
    ia, ib, ic, id_ = _grid_tuples(a, b, c, d)
    assert orientation(a, b, c) == orientation(ia, ib, ic)
    for closed in (True, False):
        assert on_segment(a, b, c, closed) == on_segment(ia, ib, ic, closed)
    assert segments_share_interior(a, b, c, d) == \
        segments_share_interior(ia, ib, ic, id_)
    assert segments_properly_cross(a, b, c, d) == \
        segments_properly_cross(ia, ib, ic, id_)


def test_segments_properly_cross():
    assert segments_properly_cross(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    assert not segments_properly_cross(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0))
    assert not segments_properly_cross(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    # collinear overlap counts as interior sharing
    assert segments_properly_cross(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))
    assert not segments_properly_cross(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0))


def test_segments_share_interior():
    assert segments_share_interior(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    # an endpoint inside the other segment, and identical segments
    assert segments_share_interior(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1))
    assert segments_share_interior(pt(0, 0), pt(2, 0), pt(2, 0), pt(0, 0))
    # a shared endpoint alone, collinear or not, is no interior contact
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0))
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(0, 0), pt(0, 1))


def test_strictly_convex_quad():
    assert is_strictly_convex_quad(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
    # reflex at the third vertex
    assert not is_strictly_convex_quad(
        pt(0, 0), pt(2, 0), Point2(Fraction(1), Fraction(1, 2)), pt(1, 2))
    # collinear triple
    assert not is_strictly_convex_quad(pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1))
    # clockwise order is accepted too
    assert is_strictly_convex_quad(pt(0, 1), pt(1, 1), pt(1, 0), pt(0, 0))


def _strip(a, b, c, strict=True):
    return HalfPlane(Fraction(a), Fraction(b), Fraction(c), strict)


def test_halfplane_intersection_triangle():
    region = halfplane_intersection([
        _strip(1, 0, 0),    # x > 0
        _strip(0, 1, 0),    # y > 0
        _strip(-1, -1, 1),  # x + y < 1
    ])
    assert not region.is_empty
    assert not region.is_unbounded
    assert set(region.vertices) == {pt(0, 0), pt(1, 0), pt(0, 1)}
    # every vertex satisfies all constraints non-strictly
    for v in region.vertices:
        assert all(h.value(v) >= 0 for h in region.halfplanes)
    assert interior_point(region) == Point2(Fraction(1, 3), Fraction(1, 3))


def test_halfplane_intersection_empty():
    region = halfplane_intersection([_strip(1, 0, 0), _strip(-1, 0, -1)])
    assert region.is_empty
    with pytest.raises(EmptyRegionError):
        interior_point(region)


def test_halfplane_intersection_unbounded():
    region = halfplane_intersection([_strip(1, 0, 0), _strip(0, 1, 0)])
    assert not region.is_empty
    assert region.is_unbounded
    assert region.vertices == ()
    p = interior_point(region)
    assert all(h.value(p) > 0 for h in region.halfplanes)


def test_interior_point_square_centroid():
    region = halfplane_intersection([
        _strip(1, 0, 0), _strip(-1, 0, 2), _strip(0, 1, 0), _strip(0, -1, 2),
    ])
    assert interior_point(region) == pt(1, 1)


def test_degenerate_region_has_no_interior():
    # x >= 0 and x <= 0 pin a line; the strict system is infeasible
    region = halfplane_intersection(
        [_strip(1, 0, 0, False), _strip(-1, 0, 0, False), _strip(0, 1, 0)])
    assert not region.is_empty
    assert not region.has_interior
    with pytest.raises(EmptyRegionError):
        interior_point(region)


def test_duplicate_and_parallel_constraints_canonicalized():
    region = halfplane_intersection([
        _strip(1, 0, 0), _strip(2, 0, 0), _strip(1, 0, 1),
        _strip(-1, 0, 1), _strip(0, 1, 0), _strip(0, -1, 1),
    ])
    # only the tightest constraint per direction survives
    assert len(region.halfplanes) == 4
    assert set(region.vertices) == {pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1)}


def test_halfplane_through_orientation():
    h = halfplane_through(pt(0, 0), pt(1, 0), pt(5, 3))
    assert h.contains(pt(0, 1))
    h2 = halfplane_through(pt(0, 0), pt(1, 0), pt(5, 3), contains_inside=False)
    assert h2.contains(pt(0, -1)) and not h2.contains(pt(5, 3))


def test_region_subset():
    narrow = halfplane_intersection(
        [_strip(1, 0, 0), _strip(0, 1, 0), _strip(-1, -1, 1)])
    wide = halfplane_intersection([_strip(1, 0, 1), _strip(0, 1, 1)])
    assert narrow.is_subset_of(wide)
    assert not wide.is_subset_of(narrow)


def test_coord_bits_meter():
    assert coord_bits(Fraction(5, 8)) == 4
    assert coord_bits(pt(1, 1023)) == 10
    # the meter grows polynomially under arithmetic: product of b-bit values
    a = Fraction(3, 7) ** 8
    assert coord_bits(a) <= 8 * coord_bits(Fraction(3, 7)) + 1
