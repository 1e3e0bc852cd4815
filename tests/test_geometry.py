from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from flipdist.errors import EmptyRegionError
from flipdist.geometry import (
    CCW, COLLINEAR, CW, ConvexRegion, HalfPlane, Point2, _between,
    ccw_compare, coord_bits, floor_log2, halfplane_through, interior_point,
    on_segment, orientation, polygon_signed_area2, pt,
    segments_share_interior, sorted_ccw, touching_pairs, turn_reaches_pi,
)
from flipdist.triangulation import PointSet, flip_is_convex

from oracles import (SidedHalfPlane, angular_key, area2_by_fractions,
                     between_on_fractions, coarsest_dyadic_by_scan,
                     fourier_motzkin_on_fractions,
                     fourier_motzkin_with_strictness,
                     halfplane_through_by_fractions,
                     is_subset_by_closed_complement, is_subset_on_fractions,
                     orientation_by_fractions,
                     segments_share_interior_four_orientations,
                     side_by_fractions, touching_pairs_by_fractions,
                     turn_reaches_pi_by_fractions)

rationals = st.fractions(min_value=-100, max_value=100, max_denominator=64)
points = st.builds(Point2, rationals, rationals)
# a coarse rational grid, so that collinear and touching inputs are common
coarse = st.fractions(min_value=-3, max_value=3, max_denominator=3)
mixed_points = st.one_of(points, st.builds(Point2, coarse, coarse))

# the property tests against `Fraction` oracles shrink a failing example but
# do not explain it: explaining traces every line of the `Fraction`
# arithmetic and takes minutes.  The examples drawn are the same.
unexplained = [p for p in Phase if p is not Phase.explain]
differential = settings(max_examples=200, phases=unexplained)


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
    assert on_segment(a, b, c) == on_segment(ia, ib, ic)
    assert segments_share_interior(a, b, c, d) == \
        segments_share_interior(ia, ib, ic, id_)


@st.composite
def grid_segments(draw):
    """Points of a 4x4 integer grid and segments between them; collinear
    points, shared endpoints, repeated segments and zero-length segments
    `(k, k)`, as a region passes its point holes, are common."""
    pts = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                        min_size=2, max_size=8, unique=True))
    index = st.integers(0, len(pts) - 1)
    segs = draw(st.lists(st.tuples(index, index), max_size=12))
    return pts, segs


@given(grid_segments())
@example(([(0, 0), (2, 0), (1, 0), (3, 0), (1, 1)],
          [(0, 1), (2, 3), (0, 1), (1, 0), (0, 2), (4, 2), (2, 4)]))
# point holes: inside a segment, at its end, off it, and one twice
@example(([(0, 0), (2, 0), (1, 0), (1, 1)],
          [(0, 1), (2, 2), (0, 0), (3, 3), (2, 2), (3, 2)]))
def test_touching_pairs_matches_all_pairs(case):
    pts, segs = case
    brute = [(i, j) for i in range(len(segs)) for j in range(i + 1, len(segs))
             if segments_share_interior(pts[segs[i][0]], pts[segs[i][1]],
                                        pts[segs[j][0]], pts[segs[j][1]])]
    assert touching_pairs(pts, segs) == brute
    # the same segments over a dict of rational points, keyed by label
    by_label = {f"p{k}": pt(Fraction(x, 3), Fraction(y, 3))
                for k, (x, y) in enumerate(pts)}
    assert touching_pairs(by_label, [(f"p{u}", f"p{v}") for u, v in segs]) == brute


def test_segments_share_interior():
    assert segments_share_interior(pt(0, 0), pt(2, 2), pt(0, 2), pt(2, 0))
    # an endpoint inside the other segment, and identical segments
    assert segments_share_interior(pt(0, 0), pt(2, 0), pt(1, 0), pt(1, 1))
    assert segments_share_interior(pt(0, 0), pt(2, 0), pt(2, 0), pt(0, 0))
    # a collinear overlap
    assert segments_share_interior(pt(0, 0), pt(2, 0), pt(1, 0), pt(3, 0))
    # a shared endpoint alone, collinear or not, is no interior contact
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(1, 0), pt(2, 0))
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(0, 0), pt(0, 1))
    # parallel apart, and collinear apart
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(0, 1), pt(1, 1))
    assert not segments_share_interior(pt(0, 0), pt(1, 0), pt(2, 0), pt(3, 0))


# integer points on a 5 x 5 grid: collinear, touching and shared-endpoint
# pairs of segments are common
grid_points = st.tuples(st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=500)
@given(grid_points, grid_points, grid_points, grid_points)
@example((0, 0), (2, 2), (0, 2), (2, 0))       # proper crossing
@example((0, 0), (2, 0), (1, 0), (1, 1))       # endpoint inside the other
@example((0, 0), (2, 0), (1, 0), (3, 0))       # collinear overlap
@example((0, 0), (1, 0), (1, 0), (2, 0))       # collinear, shared end
@example((0, 0), (1, 0), (2, 0), (3, 0))       # collinear, apart
@example((0, 0), (2, 0), (1, 1), (3, 1))       # one side of line ab
def test_segments_share_interior_matches_four_orientation_oracle(a, b, c, d):
    # the early exit, when c and d lie strictly on one side of line ab,
    # changes no answer, on zero-length segments (point holes) too
    assert segments_share_interior(a, b, c, d) == \
        segments_share_interior_four_orientations(a, b, c, d)


def test_strictly_convex_quad():
    def convex(a, b, c, d):
        # the quadrilateral a, b, c, d around the flip of diagonal ac to bd
        return flip_is_convex(PointSet([a, b, c, d]), 0, 2, 1, 3)

    assert convex(pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1))
    # reflex at the third vertex
    assert not convex(
        pt(0, 0), pt(2, 0), Point2(Fraction(1), Fraction(1, 2)), pt(1, 2))
    # collinear triple
    assert not convex(pt(0, 0), pt(1, 0), pt(2, 0), pt(1, 1))
    # clockwise order is accepted too
    assert convex(pt(0, 1), pt(1, 1), pt(1, 0), pt(0, 0))


def test_turn_reaches_pi():
    # counterclockwise turns of a quarter, a half and three quarters
    assert not turn_reaches_pi(pt(1, 0), pt(0, 1))
    assert turn_reaches_pi(pt(1, 0), pt(-1, 0))
    assert turn_reaches_pi(pt(0, 1), pt(1, 0))
    # the same direction is no turn; integer pairs work too
    assert not turn_reaches_pi((2, 2), (1, 1))


def _strip(a, b, c):
    return HalfPlane(Fraction(a), Fraction(b), Fraction(c))


def test_halfplane_intersection_triangle():
    region = ConvexRegion([
        _strip(1, 0, 0),    # x > 0
        _strip(0, 1, 0),    # y > 0
        _strip(-1, -1, 1),  # x + y < 1
    ])
    assert region.has_interior
    # y in (0, 1) takes 1/2, the coarsest dyadic in [1/4, 3/4]; then x in
    # (0, 1/2) takes 1/4, the only multiple of 1/4 in [1/8, 3/8]
    assert interior_point(region) == Point2(Fraction(1, 4), Fraction(1, 2))
    # open half-planes: the boundary is outside
    assert not region.contains(pt(0, 0))
    assert not region.contains(Point2(Fraction(1, 2), Fraction(1, 2)))


def test_halfplane_intersection_empty():
    region = ConvexRegion([_strip(1, 0, 0), _strip(-1, 0, -1)])
    assert not region.has_interior
    with pytest.raises(EmptyRegionError):
        interior_point(region)


def test_halfplane_intersection_unbounded():
    # the open quadrant: each coordinate has a lone lower bound 0 and takes
    # the integer one past it
    region = ConvexRegion([_strip(1, 0, 0), _strip(0, 1, 0)])
    assert interior_point(region) == pt(1, 1)
    # x + 2y > 2 and 2x + y > 2 cut the quadrant's corner: y has the lone
    # lower bound 0, and at y = 1 the tightest lower bound on x is 1/2
    stairs = ConvexRegion([_strip(1, 0, 0), _strip(0, 1, 0),
                           _strip(1, 2, -2), _strip(2, 1, -2)])
    assert interior_point(stairs) == pt(1, 1)
    # lone upper bounds: y < -5/2 takes -3, and x < 7/3 - y/3 = 10/3 takes 3
    below = ConvexRegion([_strip(0, -2, -5), _strip(-3, -1, 7)])
    assert interior_point(below) == pt(3, -3)


def test_interior_point_square_centroid():
    region = ConvexRegion([
        _strip(1, 0, 0), _strip(-1, 0, 2), _strip(0, 1, 0), _strip(0, -1, 2),
    ])
    assert interior_point(region) == pt(1, 1)


def test_degenerate_region_has_no_interior():
    # x > 0 and x < 0 share no point, whatever y is
    region = ConvexRegion([_strip(1, 0, 0), _strip(-1, 0, 0), _strip(0, 1, 0)])
    assert not region.has_interior
    assert not region.contains(pt(0, 1))
    with pytest.raises(EmptyRegionError):
        interior_point(region)


def test_halfplane_through_orientation():
    h = halfplane_through(pt(0, 0), pt(1, 0), pt(5, 3))
    assert h.contains(pt(0, 1))
    h2 = halfplane_through(pt(0, 0), pt(1, 0), pt(5, 3), contains_inside=False)
    assert h2.contains(pt(0, -1)) and not h2.contains(pt(5, 3))


def test_region_subset():
    narrow = ConvexRegion([_strip(1, 0, 0), _strip(0, 1, 0), _strip(-1, -1, 1)])
    wide = ConvexRegion([_strip(1, 0, 1), _strip(0, 1, 1)])
    assert narrow.is_subset_of(wide)
    assert not wide.is_subset_of(narrow)
    # sharing boundary lines: the open triangle lies in the open quadrant
    quadrant = ConvexRegion([_strip(1, 0, 0), _strip(0, 1, 0)])
    assert narrow.is_subset_of(quadrant)
    # but not in the part of it left of x = 1/2
    left = ConvexRegion([_strip(1, 0, 0), _strip(0, 1, 0), _strip(-2, 0, 1)])
    assert not narrow.is_subset_of(left)


halfplanes = st.builds(
    HalfPlane, st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
).filter(lambda h: (h.a, h.b) != (0, 0))
systems = st.lists(halfplanes, min_size=1, max_size=6)


def dyadic(v: Fraction) -> bool:
    return v.denominator & (v.denominator - 1) == 0


@settings(phases=unexplained)
@given(systems, systems)
@example([HalfPlane(1, 0, 0), HalfPlane(0, 1, 0), HalfPlane(-1, -1, 1)],
         [HalfPlane(1, 0, 0), HalfPlane(0, 1, 0)])
@example([HalfPlane(1, 0, 0), HalfPlane(0, 1, 0), HalfPlane(1, 2, -2),
          HalfPlane(2, 1, -2)], [HalfPlane(1, 0, 0)])
def test_open_solver_matches_strictness_aware_oracle(first, second):
    """The sample is the oracle's exact point: each coordinate is the
    coarsest dyadic in the middle half of its bounds, found by the oracle's
    downward scan over powers of two, or the integer past a lone bound."""
    region, other = ConvexRegion(first), ConvexRegion(second)
    first = [HalfPlane(*map(Fraction, h)) for h in first]
    second = [HalfPlane(*map(Fraction, h)) for h in second]
    sided = [SidedHalfPlane(h.a, h.b, h.c) for h in first]
    expected = fourier_motzkin_with_strictness(sided)
    assert region._interior_sample == expected
    if expected is None:
        with pytest.raises(EmptyRegionError):
            interior_point(region)
    else:
        assert interior_point(region) == expected
        assert dyadic(expected.x) and dyadic(expected.y)
    assert region.is_subset_of(other) == \
        is_subset_by_closed_complement(first, second)


# (which half-plane, positive multiple, slack): the copy k*h + d > 0 is the
# same half-plane for d = 0 and a looser parallel of it for d > 0
copies = st.lists(st.tuples(st.integers(0, 5), st.integers(1, 4),
                            st.integers(0, 3)), max_size=4)


def with_copies(system, picks):
    out = list(system)
    for i, k, d in picks:
        a, b, c = system[i % len(system)]
        out.append(HalfPlane(k * a, k * b, k * c + d))
    return out


@settings(phases=unexplained)
@given(systems, copies, systems, copies)
@example([HalfPlane(1, 0, 0), HalfPlane(-1, 0, 2), HalfPlane(0, 1, 0),
          HalfPlane(0, -1, 2)], [(0, 2, 0), (1, 1, 3)],
         [HalfPlane(1, 0, 0), HalfPlane(0, 1, 0)], [(1, 3, 1)])
def test_redundant_halfplanes_change_no_answer(first, first_picks,
                                               second, second_picks):
    """Fourier-Motzkin projects exactly, so positive multiples and looser
    parallels of given half-planes move no bound: the sample, the emptiness
    answer and containment, either way round, stay the same."""
    region, padded = ConvexRegion(first), \
        ConvexRegion(with_copies(first, first_picks))
    other, other_padded = ConvexRegion(second), \
        ConvexRegion(with_copies(second, second_picks))
    assert padded.has_interior == region.has_interior
    if region.has_interior:
        p = interior_point(region)
        assert interior_point(padded) == p
        assert type(p.x) is Fraction and type(p.y) is Fraction
    assert region.is_subset_of(padded) and padded.is_subset_of(region)
    subset = region.is_subset_of(other)
    assert padded.is_subset_of(other) == subset
    assert region.is_subset_of(other_padded) == subset
    superset = other.is_subset_of(region)
    assert other.is_subset_of(padded) == superset
    assert other_padded.is_subset_of(region) == superset


# rational half-planes, zero rows (a = b = 0) included, with parallel and
# opposite copies, so that empty, unbounded and degenerate systems are common
small = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 5]))
rational_halfplanes = st.builds(HalfPlane, small, small, small)


@st.composite
def rational_systems(draw):
    system = draw(st.lists(rational_halfplanes, min_size=1, max_size=6))
    for i, k, d in draw(st.lists(st.tuples(
            st.integers(0, 5), st.sampled_from([-2, Fraction(-1, 3), 1, 3]),
            small), max_size=3)):
        a, b, c = system[i % len(system)]
        system.append(HalfPlane(k * a, k * b, k * c + d))
    return system


@differential
@given(rational_systems(), rational_systems())
@example([HalfPlane(Fraction(0), Fraction(0), Fraction(1))],
         [HalfPlane(Fraction(0), Fraction(0), Fraction(0))])
@example([HalfPlane(Fraction(1, 3), Fraction(0), Fraction(1, 5)),
          HalfPlane(Fraction(-2, 7), Fraction(0), Fraction(1, 5))],
         [HalfPlane(Fraction(1, 6), Fraction(1, 4), Fraction(0))])
def test_integer_rows_match_fraction_elimination(first, second):
    """The elimination on integer rows picks the same sample, or the same
    None, as the one on `Fraction` coefficients, and decides containment
    the same way."""
    region, other = ConvexRegion(first), ConvexRegion(second)
    assert region._interior_sample == fourier_motzkin_on_fractions(first)
    assert region.is_subset_of(other) == is_subset_on_fractions(first, second)


def test_convex_region_builds_no_fraction_per_pair(count_fractions):
    # k lower and k upper bounds on x, and on y, with distinct denominators:
    # the sample is (0, 0) for every k, and only its two coordinates are
    # built as `Fraction`s, so the count does not grow with the k^2 pairs
    # that the elimination combines
    def system(k):
        out = []
        for j in range(1, k + 1):
            s = Fraction(1, j + 2)
            out += [HalfPlane(s, Fraction(0), s * j),
                    HalfPlane(-s, Fraction(0), s * j),
                    HalfPlane(Fraction(0), s, s * j),
                    HalfPlane(Fraction(0), -s, s * j)]
        return out

    counts = []
    for k in (1, 4, 16):
        halfplanes = system(k)
        with count_fractions() as built:
            region = ConvexRegion(halfplanes)
        assert interior_point(region) == pt(0, 0)
        counts.append(len(built))
    assert counts == [2, 2, 2], counts


# integer directions on a small grid (axis, opposite and repeated ones
# are common), and the same directions as `Point2` with rational scales
directions = st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(
    lambda d: d != (0, 0))
rational_directions = st.builds(
    lambda d, s: Point2(d[0] * s, d[1] * s), directions,
    st.sampled_from([Fraction(1, 7), Fraction(2, 3), Fraction(1), Fraction(5)]))


@settings(max_examples=200)
@given(st.one_of(st.lists(directions, max_size=12),
                 st.lists(rational_directions, max_size=12)))
@example([(1, 0), (-1, 0), (0, 1), (0, -1), (1, 0), (2, 0), (-3, 0)])
def test_ccw_order_matches_fraction_keys(dirs):
    """`sorted_ccw` orders like a stable sort on the `Fraction` angular
    key, and `ccw_compare` agrees with the keys on every pair."""
    order = sorted_ccw(list(range(len(dirs))), dirs.__getitem__)
    assert order == sorted(range(len(dirs)),
                           key=lambda i: angular_key(dirs[i]))
    for d in dirs:
        for e in dirs:
            kd, ke = angular_key(d), angular_key(e)
            assert ccw_compare(d, e) == (kd > ke) - (kd < ke)


bounds = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                      max_denominator=10 ** 6)


def as_pair(x, k=1):
    """A bound as the elimination hands it to `_between`: the `(num, den)`
    pair of x times k, den > 0 and not reduced; None stays None."""
    return None if x is None else (x.numerator * k, x.denominator * k)


@settings(phases=unexplained)
@given(bounds, bounds)
@example(Fraction(0), Fraction(1))
@example(Fraction(-1, 3), Fraction(1, 3))          # 0 is the coarsest
@example(Fraction(1000), Fraction(3000))           # a large power of two
@example(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 9))
def test_between_is_the_coarsest_dyadic_in_the_middle_half(lo, hi):
    if lo == hi:
        assert _between(as_pair(lo), as_pair(hi)) is None
        return
    lo, hi = min(lo, hi), max(lo, hi)
    assert _between(as_pair(hi), as_pair(lo)) is None
    v = _between(as_pair(lo), as_pair(hi))
    assert v == coarsest_dyadic_by_scan(lo, hi)
    assert lo + (hi - lo) / 4 <= v <= hi - (hi - lo) / 4 and dyadic(v)
    assert _between(as_pair(lo), None) == (lo // 1) + 1 > lo
    assert _between(None, as_pair(hi)) == -(-hi // 1) - 1 < hi
    assert _between(None, None) == 0


@settings(max_examples=300, phases=unexplained)
@given(st.none() | bounds, st.none() | bounds, st.integers(1, 10 ** 9),
       st.integers(1, 7))
@example(Fraction(0), Fraction(1), 1, 1)
@example(Fraction(-1, 3), Fraction(1, 3), 3, 5)
@example(Fraction(1000), Fraction(3000), 1, 2)
@example(Fraction(1, 3), Fraction(1, 3) + Fraction(1, 10 ** 9), 7, 1)
@example(Fraction(-7, 2), Fraction(-7, 2), 2, 3)   # an empty interval
@example(Fraction(-5, 3), None, 4, 1)              # negative lone bounds
@example(None, Fraction(-5, 3), 1, 4)
@example(None, None, 1, 1)
def test_integer_between_matches_fractions(lo, hi, k, j):
    """`_between` on unreduced `(num, den)` pairs returns what the
    `Fraction` version returns on the same bounds, as a `Fraction`."""
    v = _between(as_pair(lo, k), as_pair(hi, j))
    assert v == between_on_fractions(lo, hi)
    assert v is None or type(v) is Fraction


@given(st.fractions(min_value=Fraction(1, 10 ** 12), max_value=10 ** 12))
def test_floor_log2_brackets(x):
    j = floor_log2(x)
    assert Fraction(2) ** j <= x < Fraction(2) ** (j + 1)
    # the same ratio as an integer over an integer divisor
    assert floor_log2(x.numerator, x.denominator) == j


def test_coord_bits_meter():
    assert coord_bits(Fraction(5, 8)) == 4
    assert coord_bits(pt(1, 1023)) == 10
    # the meter grows polynomially under arithmetic: product of b-bit values
    a = Fraction(3, 7) ** 8
    assert coord_bits(a) <= 8 * coord_bits(Fraction(3, 7)) + 1


# Integer-decided predicates against `Fraction` arithmetic.  Coordinates
# are integers or fractions with large odd denominators, so the common
# denominator of a call is a product of unrelated ones; the lists repeat
# points and put points on lines through others.
odd_denominators = st.integers(0, 2 ** 20).map(lambda k: 2 * k + 1)
wide = st.one_of(st.integers(-10 ** 6, 10 ** 6),
                 st.builds(Fraction, st.integers(-10 ** 12, 10 ** 12),
                           odd_denominators))
wide_points = st.builds(Point2, wide, wide)

point_kinds = st.sampled_from(["new", "repeat", "collinear"])
small_odd_ratios = st.builds(Fraction, st.integers(-9, 9), odd_denominators)


@st.composite
def point_lists(draw, size):
    base = draw(st.lists(wide_points, min_size=2, max_size=size))
    pick = st.integers(0, len(base) - 1).map(base.__getitem__)
    out = []
    for _ in range(size):
        kind = draw(point_kinds)
        if kind == "new":
            out.append(draw(wide_points))
        elif kind == "repeat":
            out.append(draw(pick))
        else:
            p, q, t = draw(pick), draw(pick), draw(small_odd_ratios)
            out.append(p + (q - p).scale(t))
    return out


@differential
@given(point_lists(5))
def test_orientation_and_area_match_fractions(pts):
    for p, q, r in zip(pts, pts[1:] + pts[:1], pts[2:] + pts[:2]):
        assert orientation(p, q, r) == orientation_by_fractions(p, q, r)
    area = polygon_signed_area2(pts)
    assert type(area) is Fraction and area == area2_by_fractions(pts)


@differential
@given(point_lists(6), st.tuples(wide, wide, wide))
def test_halfplane_sides_match_fractions(pts, coefficients):
    p, q, inside = pts[:3]
    h = HalfPlane(*coefficients)
    for s in pts:
        assert (h.value(s) > 0) - (h.value(s) < 0) == side_by_fractions(h, s)
    for contains_inside in (True, False):
        try:
            slow = halfplane_through_by_fractions(p, q, inside,
                                                  contains_inside)
        except ValueError:
            with pytest.raises(ValueError):
                halfplane_through(p, q, inside, contains_inside)
            continue
        fast = halfplane_through(p, q, inside, contains_inside)
        assert all(type(v) is int for v in fast) and gcd(*fast) == 1
        for s in pts:
            assert fast.contains(s) == (side_by_fractions(slow, s) > 0)
            assert (fast.value(s) == 0) == (side_by_fractions(slow, s) == 0)


@differential
@given(point_lists(6), st.lists(st.tuples(st.integers(0, 5),
                                          st.integers(0, 5)), max_size=8))
def test_touching_pairs_matches_fractions(pts, segs):
    assert touching_pairs(pts, segs) == touching_pairs_by_fractions(pts, segs)


@differential
@given(point_lists(6))
def test_ccw_order_and_turns_match_fractions(pts):
    dirs = [d for d in pts if d != (0, 0)]
    order = sorted_ccw(list(range(len(dirs))), dirs.__getitem__)
    assert order == sorted(range(len(dirs)),
                           key=lambda i: angular_key(dirs[i]))
    for d in dirs:
        for e in dirs:
            assert turn_reaches_pi(d, e) == turn_reaches_pi_by_fractions(d, e)


def test_point2_predicates_build_no_fraction(count_fractions):
    # a quadrilateral with rational corners, integer ones mixed in: its
    # diagonals cross, its sides do not
    a, b = Point2(Fraction(-1, 3), -1), Point2(Fraction(5, 7), Fraction(-2, 7))
    c, d = Point2(Fraction(4, 5), Fraction(9, 11)), Point2(0, Fraction(6, 7))
    quad, segs = [a, b, c, d], [(0, 2), (1, 3), (0, 1), (1, 2)]
    expected = touching_pairs_by_fractions(quad, segs)
    assert expected == [(0, 1)]
    region = ConvexRegion([halfplane_through(a, b, c),
                           halfplane_through(b, c, a)])
    with count_fractions() as built:
        turn = orientation(a, b, c)
        h = halfplane_through(a, b, c, contains_inside=False)
        sides = h.contains(c), h.contains(Point2(0, -2)), region.contains(d)
        pairs = touching_pairs(quad, segs)
        reaches = turn_reaches_pi(b, d), turn_reaches_pi(d, b)
    assert len(built) == 0
    assert turn == CCW and sides == (False, True, True)
    assert pairs == expected and reaches == (False, True)
