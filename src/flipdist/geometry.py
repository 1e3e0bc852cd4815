"""Exact planar primitives: the one predicate kernel of flipdist.

Every predicate here is decided by an integer or rational sign computation;
there is no floating point anywhere.  The kernel predicates (`orientation`,
`on_segment`, `segments_properly_cross`, `segments_share_interior`,
`point_in_cycle`, `angular_key`) read points as plain `(x, y)` pairs by
index, so one implementation serves both coordinate types: `Point2` values
with `fractions.Fraction` coordinates, and the integer-grid tuples that the
triangulation domains scale their points to.  Constructions stay
error-free, and their bit growth can be audited with `coord_bits`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import EmptyRegionError

Rational = Fraction

CW = -1
COLLINEAR = 0
CCW = 1


class Point2(NamedTuple):
    x: Fraction
    y: Fraction

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Point2") -> "Point2":
        return Point2(self.x - other.x, self.y - other.y)

    def scale(self, k) -> "Point2":
        return Point2(self.x * k, self.y * k)

    def cross(self, other: "Point2") -> Fraction:
        return self.x * other.y - self.y * other.x

    def dot(self, other: "Point2") -> Fraction:
        return self.x * other.x + self.y * other.y

    def perp(self) -> "Point2":
        """s rotated by +90 degrees."""
        return Point2(-self.y, self.x)


def pt(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def orientation(p, q, r) -> int:
    """Sign of the turn p->q->r: CCW (+1), CW (-1) or COLLINEAR (0)."""
    v = (q[0] - p[0]) * (r[1] - p[1]) - (q[1] - p[1]) * (r[0] - p[0])
    return (v > 0) - (v < 0)


def _in_box(p, a, b) -> bool:
    return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and \
        min(a[1], b[1]) <= p[1] <= max(a[1], b[1])


def _collinear_overlap(a, b, c, d) -> bool:
    """For segments on one line: their overlap has positive length."""
    k = 0 if a[0] != b[0] or c[0] != d[0] else 1
    return max(min(a[k], b[k]), min(c[k], d[k])) < \
        min(max(a[k], b[k]), max(c[k], d[k]))


def on_segment(p, a, b, closed: bool = True) -> bool:
    """True iff p lies on segment ab (endpoints included when closed)."""
    if not closed and (p == a or p == b):
        return False
    return orientation(a, b, p) == COLLINEAR and _in_box(p, a, b)


def segments_properly_cross(a, b, c, d) -> bool:
    """True iff open segments ab and cd share a point interior to both."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 != o2 and o3 != o4 and o1 != COLLINEAR and o2 != COLLINEAR \
            and o3 != COLLINEAR and o4 != COLLINEAR:
        return True
    if o1 == o2 == COLLINEAR:
        return _collinear_overlap(a, b, c, d)
    return False


def segments_share_interior(a, b, c, d) -> bool:
    """True iff segments ab and cd meet beyond shared endpoints: a proper
    crossing, an endpoint of one inside the other, or a collinear overlap."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 and o2 and o3 and o4:
        return o1 != o2 and o3 != o4
    # an endpoint on the other segment's line, and not one of its ends
    if (o1 == 0 and c != a and c != b and _in_box(c, a, b)) \
            or (o2 == 0 and d != a and d != b and _in_box(d, a, b)) \
            or (o3 == 0 and a != c and a != d and _in_box(a, c, d)) \
            or (o4 == 0 and b != c and b != d and _in_box(b, c, d)):
        return True
    return o1 == o2 == o3 == o4 == 0 and _collinear_overlap(a, b, c, d)


def point_in_cycle(q, cycle) -> int:
    """Locate q in the polygon whose vertices `cycle` lists in order.

    Returns +1 strictly inside, 0 on the boundary, -1 strictly outside.
    Crossing-number parity with the half-open vertex rule.
    """
    n = len(cycle)
    for i in range(n):
        if on_segment(q, cycle[i], cycle[(i + 1) % n]):
            return 0
    inside = False
    qy = q[1]
    for i in range(n):
        a = cycle[i]
        b = cycle[(i + 1) % n]
        if (a[1] <= qy) != (b[1] <= qy):
            o = orientation(a, b, q)
            if b[1] > a[1]:      # upward edge: count if q strictly left
                if o > 0:
                    inside = not inside
            else:                # downward edge: count if q strictly right
                if o < 0:
                    inside = not inside
    return 1 if inside else -1


def angular_key(d):
    """Sort key ordering directions `(x, y)` counterclockwise from +x."""
    x, y = d
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    # within a half-turn the angle grows with -x/y; the axis point comes first
    if y == 0:
        return (half, 0, Fraction(0))
    return (half, 1, Fraction(-x, y))


def is_strictly_convex_quad(a: Point2, b: Point2, c: Point2, d: Point2) -> bool:
    """True iff a,b,c,d in this cyclic order form a strictly convex quad."""
    quad = (a, b, c, d)
    signs = {orientation(quad[i], quad[(i + 1) % 4], quad[(i + 2) % 4])
             for i in range(4)}
    return signs == {CCW} or signs == {CW}


def polygon_signed_area2(points: Sequence[Point2]) -> Fraction:
    """Twice the signed area; positive for counterclockwise cycles."""
    total = Fraction(0)
    n = len(points)
    for i in range(n):
        total += points[i].cross(points[(i + 1) % n])
    return total


def coord_bits(value) -> int:
    """Bit-size meter: max numerator/denominator bit length over the input."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, Point2):
        return max(coord_bits(value.x), coord_bits(value.y))
    return max((coord_bits(v) for v in value), default=0)


class HalfPlane(NamedTuple):
    """Open or closed half-plane {p : a*x + b*y + c > 0} (>= when not strict)."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool = True

    def value(self, p: Point2) -> Fraction:
        return self.a * p.x + self.b * p.y + self.c

    def contains(self, p: Point2) -> bool:
        v = self.value(p)
        return v > 0 if self.strict else v >= 0

    def boundary_contains(self, p: Point2) -> bool:
        return self.value(p) == 0

    def normalized(self) -> "HalfPlane":
        """Divide out the content so equal half-planes compare equal."""
        nums = [self.a.numerator, self.b.numerator, self.c.numerator]
        dens = [self.a.denominator, self.b.denominator, self.c.denominator]
        scale = Fraction(dens[0] * dens[1] * dens[2], 1)
        g = 0
        for v in (self.a * scale, self.b * scale, self.c * scale):
            g = gcd(g, abs(int(v)))
        if g == 0:
            raise ValueError("degenerate half-plane (a, b) == (0, 0)")
        return HalfPlane(self.a * scale / g, self.b * scale / g,
                         self.c * scale / g, self.strict)


def halfplane_through(p: Point2, q: Point2, inside: Point2,
                      strict: bool = True, contains_inside: bool = True) -> HalfPlane:
    """Half-plane bounded by line pq, oriented by a sample point.

    With contains_inside=True the half-plane contains `inside`; otherwise it is
    the opposite side.  `inside` must be strictly off the line.
    """
    a = -(q.y - p.y)
    b = q.x - p.x
    c = -(a * p.x + b * p.y)
    h = HalfPlane(a, b, c, strict)
    v = h.value(inside)
    if v == 0:
        raise ValueError("sample point lies on the boundary line")
    if (v > 0) != contains_inside:
        h = HalfPlane(-a, -b, -c, strict)
    return h


def halfplane_shift(h: HalfPlane, offset: Point2) -> HalfPlane:
    """Translate a half-plane by a vector (the boundary line moves with it)."""
    return HalfPlane(h.a, h.b, h.c - (h.a * offset.x + h.b * offset.y), h.strict)


def line_intersection(h1: HalfPlane, h2: HalfPlane) -> Optional[Point2]:
    det = h1.a * h2.b - h2.a * h1.b
    if det == 0:
        return None
    x = (h1.b * h2.c - h2.b * h1.c) / det
    y = (h2.a * h1.c - h1.a * h2.c) / det
    return Point2(x, y)


def _fourier_motzkin_point(constraints: Sequence[HalfPlane]) -> Optional[Point2]:
    """A point satisfying all constraints, or None when infeasible.

    Classic two-variable Fourier-Motzkin elimination; strictness is preserved
    when combining, so open constraint systems are decided exactly.
    """
    lowers = []   # a > 0:  x {>,>=} (-c - b*y)/a
    uppers = []   # a < 0
    y_only = []   # (b, c, strict)
    for h in constraints:
        if h.a > 0:
            lowers.append(h)
        elif h.a < 0:
            uppers.append(h)
        else:
            y_only.append((h.b, h.c, h.strict))
    derived = list(y_only)
    for lo in lowers:
        for up in uppers:
            # (-up.a)*lo + lo.a*up, both multipliers positive
            b = -up.a * lo.b + lo.a * up.b
            c = -up.a * lo.c + lo.a * up.c
            derived.append((b, c, lo.strict or up.strict))

    # 1-D feasibility in y.
    y_lo = y_hi = None   # (bound, strict)
    for b, c, strict in derived:
        if b == 0:
            if c < 0 or (strict and c == 0):
                return None
        elif b > 0:
            bound = -c / b
            if y_lo is None or bound > y_lo[0] or (bound == y_lo[0] and strict):
                y_lo = (bound, strict)
        else:
            bound = -c / b
            if y_hi is None or bound < y_hi[0] or (bound == y_hi[0] and strict):
                y_hi = (bound, strict)
    if y_lo is not None and y_hi is not None:
        if y_lo[0] > y_hi[0]:
            return None
        if y_lo[0] == y_hi[0] and (y_lo[1] or y_hi[1]):
            return None
        y = y_lo[0] if y_lo[0] == y_hi[0] else (y_lo[0] + y_hi[0]) / 2
    elif y_lo is not None:
        y = y_lo[0] + 1
    elif y_hi is not None:
        y = y_hi[0] - 1
    else:
        y = Fraction(0)

    # Back-substitute for x.
    x_lo = x_hi = None
    for h in lowers:
        bound = (-h.c - h.b * y) / h.a
        if x_lo is None or bound > x_lo[0] or (bound == x_lo[0] and h.strict):
            x_lo = (bound, h.strict)
    for h in uppers:
        bound = (-h.c - h.b * y) / h.a
        if x_hi is None or bound < x_hi[0] or (bound == x_hi[0] and h.strict):
            x_hi = (bound, h.strict)
    if x_lo is not None and x_hi is not None:
        if x_lo[0] > x_hi[0] or (x_lo[0] == x_hi[0] and (x_lo[1] or x_hi[1])):
            return None
        x = x_lo[0] if x_lo[0] == x_hi[0] else (x_lo[0] + x_hi[0]) / 2
    elif x_lo is not None:
        x = x_lo[0] + 1
    elif x_hi is not None:
        x = x_hi[0] - 1
    else:
        x = Fraction(0)
    p = Point2(x, y)
    assert all(h.contains(p) for h in constraints)
    return p


class ConvexRegion:
    """Intersection of half-planes with a cached exact vertex cycle.

    The vertex cycle is populated only for bounded regions with nonempty
    interior; it is strictly convex and counterclockwise.
    """

    def __init__(self, halfplanes: Sequence[HalfPlane]):
        if not halfplanes:
            raise ValueError("need at least one half-plane")
        self.halfplanes = tuple(_canonicalize(halfplanes))
        self._feasible = _fourier_motzkin_point(self.halfplanes) is not None
        strict_all = [HalfPlane(h.a, h.b, h.c, True) for h in self.halfplanes]
        self._interior_sample = _fourier_motzkin_point(strict_all)
        self.is_empty = not self._feasible
        self.is_unbounded = self._feasible and _is_unbounded(self.halfplanes)
        self.vertices: tuple[Point2, ...] = ()
        if self._feasible and not self.is_unbounded:
            self.vertices = _vertex_cycle(self.halfplanes)

    @property
    def has_interior(self) -> bool:
        return self._interior_sample is not None

    def contains(self, p: Point2) -> bool:
        return not self.is_empty and all(h.contains(p) for h in self.halfplanes)

    def strictly_contains(self, p: Point2) -> bool:
        return not self.is_empty and all(h.value(p) > 0 for h in self.halfplanes)

    def is_subset_of(self, other: "ConvexRegion") -> bool:
        """Exact containment test via infeasibility of self minus other."""
        if self.is_empty:
            return True
        for h in other.halfplanes:
            # complement of {h > 0} is {-h >= 0}; of {h >= 0} is {-h > 0}
            comp = HalfPlane(-h.a, -h.b, -h.c, not h.strict)
            if _fourier_motzkin_point(list(self.halfplanes) + [comp]) is not None:
                return False
        return True


def _canonicalize(halfplanes: Sequence[HalfPlane]) -> list[HalfPlane]:
    """Normalize, then keep only the tightest constraint per direction."""
    best: dict[tuple, HalfPlane] = {}
    order: list[tuple] = []
    for h in halfplanes:
        n = h.normalized()
        key = (n.a, n.b)
        cur = best.get(key)
        if cur is None:
            best[key] = n
            order.append(key)
        elif n.c < cur.c or (n.c == cur.c and n.strict and not cur.strict):
            best[key] = n
    return [best[k] for k in order]


def _is_unbounded(halfplanes: Sequence[HalfPlane]) -> bool:
    """Nonempty intersection is unbounded iff a recession direction exists."""
    dirs = sorted({_primitive_dir(h.a, h.b) for h in halfplanes},
                  key=angular_key)
    n = len(dirs)
    if n == 1:
        return True
    for i in range(n):
        d1 = dirs[i]
        d2 = dirs[(i + 1) % n]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        # gap >= pi between consecutive inward normals leaves an escape cone
        if cross < 0 or (cross == 0 and d1[0] * d2[0] + d1[1] * d2[1] < 0):
            return True
    return False


def _primitive_dir(a: Fraction, b: Fraction):
    an, bn = a.numerator * b.denominator, b.numerator * a.denominator
    g = gcd(abs(an), abs(bn))
    return (an // g, bn // g)


def _vertex_cycle(halfplanes: Sequence[HalfPlane]) -> tuple[Point2, ...]:
    pts: list[Point2] = []
    n = len(halfplanes)
    for i in range(n):
        for j in range(i + 1, n):
            p = line_intersection(halfplanes[i], halfplanes[j])
            if p is None:
                continue
            if all(h.value(p) >= 0 for h in halfplanes) and p not in pts:
                pts.append(p)
    if len(pts) < 3:
        return tuple(pts)
    # order counterclockwise around the average point
    cx = sum((p.x for p in pts), Fraction(0)) / len(pts)
    cy = sum((p.y for p in pts), Fraction(0)) / len(pts)
    center = Point2(cx, cy)

    ordered = sorted(pts, key=lambda p: angular_key(p - center))
    # drop collinear middles so the cycle is strictly convex
    out: list[Point2] = []
    m = len(ordered)
    for k in range(m):
        prev = ordered[(k - 1) % m]
        cur = ordered[k]
        nxt = ordered[(k + 1) % m]
        if orientation(prev, cur, nxt) != COLLINEAR:
            out.append(cur)
    return tuple(out)


def halfplane_intersection(halfplanes: Iterable[HalfPlane]) -> ConvexRegion:
    return ConvexRegion(list(halfplanes))


def interior_point(region: ConvexRegion) -> Point2:
    """Deterministic point strictly inside the region.

    Bounded regions use the centroid of the vertex cycle.  Unbounded regions
    fall back to the Fourier-Motzkin witness of the all-strict system (the
    documented deterministic fallback), which also has polynomial bit-size.
    """
    if region.is_empty or not region.has_interior:
        raise EmptyRegionError("region has no interior point")
    if region.vertices and len(region.vertices) >= 3:
        n = len(region.vertices)
        cx = sum((p.x for p in region.vertices), Fraction(0)) / n
        cy = sum((p.y for p in region.vertices), Fraction(0)) / n
        p = Point2(cx, cy)
        if all(h.value(p) > 0 for h in region.halfplanes):
            return p
    p = region._interior_sample
    assert p is not None
    return p
