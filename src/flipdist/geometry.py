"""Exact planar primitives: the one predicate kernel of flipdist.

Every predicate here is decided by an integer sign computation; there is
no floating point anywhere.  The kernel predicates (`orientation`,
`on_segment`, `segments_share_interior`, `point_in_cycle`, the
counterclockwise order `ccw_compare` and `turn_reaches_pi`), the segment
sweep `touching_pairs` and `polygon_signed_area2` read points as plain
`(x, y)` pairs by index, so one implementation serves both coordinate
types: the integer-grid tuples that the triangulation domains scale their
points to, and `Point2` values with `fractions.Fraction` coordinates.  None
of them divides, and on `Point2` input each call first scales its points
by one positive common denominator (`on_grid`), so every sign is decided
in integers alone, with no `Fraction` arithmetic.  Constructions stay
error-free, and their bit growth can be audited with `coord_bits`.

Feasible regions are intersections of open half-planes only.  A half-plane
from `halfplane_through` has integer coefficients, and its side of a
rational point is decided by cross-multiplication.  A `ConvexRegion` is
decided by one Fourier-Motzkin pass on integer rows, whose sample is the
deterministic, dyadic point strictly inside it that `interior_point`
returns.  Only the sample's two coordinates become `Fraction`s: bounds stay
`(num, den)` pairs, and `_between` picks each coordinate in integers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from math import gcd, lcm
from typing import NamedTuple, Optional, Sequence

from .errors import EmptyRegionError

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

    def perp(self) -> "Point2":
        """s rotated by +90 degrees."""
        return Point2(-self.y, self.x)


def pt(x, y) -> Point2:
    return Point2(Fraction(x), Fraction(y))


def on_grid(points) -> tuple[list[tuple[int, int]], int]:
    """The `(x, y)` pairs of a sequence, with rational or integer
    coordinates, times their least common denominator m: integer pairs,
    and m.  One scale for both axes keeps every orientation, coordinate
    order, equality and dot-product sign of the input."""
    ratios = [(x.as_integer_ratio(), y.as_integer_ratio()) for x, y in points]
    m = lcm(*[d for xy in ratios for _, d in xy])
    return [(xn * (m // xd), yn * (m // yd))
            for (xn, xd), (yn, yd) in ratios], m


def orientation(p, q, r) -> int:
    """Sign of the turn p->q->r: CCW (+1), CW (-1) or COLLINEAR (0)."""
    if type(p) is Point2:
        (p, q, r), _ = on_grid((p, q, r))
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


def on_segment(p, a, b) -> bool:
    """True iff p lies on the closed segment ab."""
    return orientation(a, b, p) == COLLINEAR and _in_box(p, a, b)


def segments_share_interior(a, b, c, d) -> bool:
    """True iff segments ab and cd meet beyond shared endpoints: a proper
    crossing, an endpoint of one inside the other, or a collinear overlap."""
    o1 = orientation(a, b, c)
    o2 = orientation(a, b, d)
    if o1 == o2 != 0:       # c and d strictly on one side of line ab
        return False
    o3 = orientation(c, d, a)
    o4 = orientation(c, d, b)
    if o1 and o2 and o3 and o4:
        return o3 != o4
    # an endpoint on the other segment's line, and not one of its ends
    if (o1 == 0 and c != a and c != b and _in_box(c, a, b)) \
            or (o2 == 0 and d != a and d != b and _in_box(d, a, b)) \
            or (o3 == 0 and a != c and a != d and _in_box(a, c, d)) \
            or (o4 == 0 and b != c and b != d and _in_box(b, c, d)):
        return True
    return o1 == o2 == o3 == o4 == 0 and _collinear_overlap(a, b, c, d)


def touching_pairs(points, segments) -> list[tuple[int, int]]:
    """Every index pair i < j, sorted, for which `segments_share_interior`
    holds on segments[i] and segments[j].

    A segment is a `(u, v)` pair of keys into `points`, a list or a dict.
    A sweep over the segments' x-extents, with a y-extent filter, limits
    the exact test to pairs whose bounding boxes meet.
    """
    if segments and type(points[segments[0][0]]) is Point2:
        keys = list({k for s in segments for k in s})
        grid, _ = on_grid([points[k] for k in keys])
        points = dict(zip(keys, grid))
    boxes = []
    for u, v in segments:
        (x1, y1), (x2, y2) = points[u], points[v]
        boxes.append((min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2)))
    order = sorted(range(len(segments)), key=lambda i: boxes[i][0])
    pairs = []
    for k, i in enumerate(order):
        _, x_hi, y_lo, y_hi = boxes[i]
        for m in range(k + 1, len(order)):
            j = order[m]
            box = boxes[j]
            if box[0] > x_hi:
                break
            if box[3] < y_lo or box[2] > y_hi:
                continue
            lo, hi = (i, j) if i < j else (j, i)
            (a, b), (c, d) = segments[lo], segments[hi]
            if segments_share_interior(points[a], points[b],
                                       points[c], points[d]):
                pairs.append((lo, hi))
    pairs.sort()
    return pairs


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


def ccw_compare(d, e) -> int:
    """-1, 0 or +1 as direction `(x, y)` d comes before, together with or
    after e, counterclockwise from +x.

    Directions in the half-turn [0, pi) come before those in [pi, 2 pi);
    within one half-turn d comes first iff d x e > 0, and the two are
    together iff they point the same way.  No division: integer directions
    stay integer.
    """
    if type(d) is Point2:
        (d, e), _ = on_grid((d, e))
    hd = 0 if d[1] > 0 or (d[1] == 0 and d[0] > 0) else 1
    he = 0 if e[1] > 0 or (e[1] == 0 and e[0] > 0) else 1
    if hd != he:
        return hd - he
    c = d[0] * e[1] - d[1] * e[0]
    return (c < 0) - (c > 0)


def sorted_ccw(items, direction) -> list:
    """`items` in counterclockwise order of `direction(item)` from +x;
    items with the same direction keep their input order."""
    dirs = [direction(item) for item in items]
    if dirs and type(dirs[0]) is Point2:
        dirs, _ = on_grid(dirs)
    order = sorted(range(len(dirs)),
                   key=cmp_to_key(lambda i, j: ccw_compare(dirs[i], dirs[j])))
    return [items[i] for i in order]


def turn_reaches_pi(d, e) -> bool:
    """True iff the counterclockwise turn from direction d to direction e
    is at least pi: the gap between consecutive directions around a vertex
    that makes an incident angle of at least pi."""
    if type(d) is Point2:
        (d, e), _ = on_grid((d, e))
    c = d[0] * e[1] - d[1] * e[0]
    return c < 0 or (c == 0 and d[0] * e[0] + d[1] * e[1] < 0)


def polygon_signed_area2(points):
    """Twice the signed area of the polygon `points` lists in order as
    `(x, y)` pairs; positive for counterclockwise cycles.  Exact: an integer
    on grid tuples; on `Point2` values the integer sum over their common
    denominator m, as a Fraction over m * m."""
    if points and type(points[0]) is Point2:
        grid, m = on_grid(points)
        return Fraction(polygon_signed_area2(grid), m * m)
    total = 0
    n = len(points)
    for i in range(n):
        (x1, y1), (x2, y2) = points[i], points[(i + 1) % n]
        total += x1 * y2 - y1 * x2
    return total


def coord_bits(value) -> int:
    """Bit-size meter: max numerator/denominator bit length over the input."""
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    if isinstance(value, Point2):
        return max(coord_bits(value.x), coord_bits(value.y))
    return max((coord_bits(v) for v in value), default=0)


class HalfPlane(NamedTuple):
    """Open half-plane {p : a*x + b*y + c > 0}.

    `halfplane_through` makes integer coefficients; rational ones work as
    well.  `value` decides a rational point's side by cross-multiplication,
    so on integer coefficients it builds no `Fraction`.
    """

    a: int
    b: int
    c: int

    def value(self, p) -> int:
        """a*x + b*y + c at p times the positive product of p's
        coordinate denominators: its sign is the side p lies on."""
        a, b, c = self
        (xn, xd), (yn, yd) = p[0].as_integer_ratio(), p[1].as_integer_ratio()
        return a * xn * yd + b * yn * xd + c * xd * yd

    def contains(self, p) -> bool:
        return self.value(p) > 0


def halfplane_through(p: Point2, q: Point2, inside: Point2,
                      contains_inside: bool = True) -> HalfPlane:
    """Open half-plane bounded by line pq, oriented by a sample point.

    With contains_inside=True the half-plane contains `inside`; otherwise it is
    the opposite side.  `inside` must be strictly off the line.  The
    coefficients are integers with no common factor: the line through p and
    q scaled by their common denominator m, its row (a, b, c) over the
    scaled points taken with a and b times m, divided by its gcd.
    """
    ((px, py), (qx, qy)), m = on_grid((p, q))
    a, b, c = (py - qy) * m, (qx - px) * m, px * qy - py * qx
    v = HalfPlane(a, b, c).value(inside)
    if v == 0:
        raise ValueError("sample point lies on the boundary line")
    g = gcd(a, b, c) if (v > 0) == contains_inside else -gcd(a, b, c)
    return HalfPlane(a // g, b // g, c // g)


def halfplane_shift(h: HalfPlane, offset: Point2) -> HalfPlane:
    """Translate a half-plane by a vector (the boundary line moves with it),
    scaled by the offset's common denominator m: integer coefficients stay
    integer."""
    ((ox, oy),), m = on_grid((offset,))
    a, b, c = h
    return HalfPlane(a * m, b * m, c * m - a * ox - b * oy)


def floor_log2(x, d: int = 1) -> int:
    """floor(log2(x / d)) of a positive rational x and a positive integer
    d, exactly, from bit lengths."""
    n, xd = x.as_integer_ratio()
    d *= xd
    j = n.bit_length() - d.bit_length()
    if (n << -j if j < 0 else n) < (d << j if j > 0 else d):
        j -= 1
    return j


def _between(lo, hi) -> Optional[Fraction]:
    """A dyadic value strictly between the bounds, each a `(num, den)`
    pair with den > 0 or None for no bound on its side; None when
    lo >= hi.

    Between two bounds it is the coarsest dyadic in the middle half
    [lo + w/4, hi - w/4] of the interval, w = hi - lo: the multiple of the
    largest power of two 2^s there, s of either sign.  The middle half is
    w/2 long, so with 2^j <= w/2 < 2^(j+1) it holds a multiple of 2^j and at
    most one of 2^(j+1); either way the answer is unique.  With one bound it
    is the integer one past it, with none 0.  All of it runs on integers
    over the common denominator 4 * lo_den * hi_den; only the result is a
    `Fraction`.
    """
    if lo is None:
        return Fraction(0) if hi is None else Fraction(-(-hi[0] // hi[1]) - 1)
    if hi is None:
        return Fraction(lo[0] // lo[1] + 1)
    (ln, ld), (hn, hd) = lo, hi
    w = hn * ld - ln * hd               # hi - lo, times ld * hd
    if w <= 0:
        return None
    den = 4 * ld * hd
    a, b = 4 * ln * hd + w, 4 * hn * ld - w     # the middle half, times den

    def least_multiple(s):
        """(num, den) of the least multiple of 2^s at or above a / den."""
        p, r = (1 << s, 1) if s >= 0 else (1, 1 << -s)     # 2^s = p / r
        return -(-a * r // (den * p)) * p, r

    s = floor_log2(b - a, den) + 1
    qn, qd = least_multiple(s)
    if qn * den > b * qd:
        qn, qd = least_multiple(s - 1)
    return Fraction(qn, qd)


def _row(h: HalfPlane) -> tuple[int, int, int]:
    """h scaled by the positive LCM of its coefficients' denominators (1 on
    integer coefficients): an integer row (a, b, c) of the same open
    half-plane."""
    a, b, c = h
    m = lcm(a.denominator, b.denominator, c.denominator)
    return (a.numerator * (m // a.denominator),
            b.numerator * (m // b.denominator),
            c.numerator * (m // c.denominator))


def _inside_rows(rows, p) -> bool:
    """True iff the rational point p satisfies a*x + b*y + c > 0 for every
    integer row (see `HalfPlane.value`)."""
    return all(HalfPlane.value(r, p) > 0 for r in rows)


def _tightest(bounds, sign: int):
    """The largest (sign 1) or smallest (sign -1) of `(num, den)` pairs,
    den > 0, compared by cross-multiplication; the first one on a tie, and
    None when there is none."""
    best = None
    for n, d in bounds:
        if best is None or sign * (n * best[1] - best[0] * d) > 0:
            best = (n, d)
    return best


def _fourier_motzkin_point(rows) -> Optional[Point2]:
    """A point inside every open half-plane a*x + b*y + c > 0 of the
    integer rows, or None when they share none.

    Classic two-variable Fourier-Motzkin elimination: x is eliminated by
    combining each lower bound on it with each upper bound, y is chosen
    strictly inside its derived bounds, and x strictly inside its bounds at
    that y.  Every combination stays an integer row, and every bound a
    `(num, den)` pair with den > 0; only the sample's two coordinates,
    which `_between` returns, are `Fraction`s.
    """
    lowers = [r for r in rows if r[0] > 0]   # x > (-c - b*y)/a
    uppers = [r for r in rows if r[0] < 0]   # x < (-c - b*y)/a
    derived = [(b, c) for a, b, c in rows if a == 0]
    for la, lb, lc in lowers:
        for ua, ub, uc in uppers:
            # (-ua)*lower + la*upper, both multipliers positive
            derived.append((la * ub - ua * lb, la * uc - ua * lc))
    if any(b == 0 and c <= 0 for b, c in derived):
        return None
    y = _between(_tightest(((-c, b) for b, c in derived if b > 0), 1),
                 _tightest(((c, -b) for b, c in derived if b < 0), -1))
    if y is None:
        return None
    yn, yd = y.numerator, y.denominator
    x = _between(
        _tightest(((-c * yd - b * yn, a * yd) for a, b, c in lowers), 1),
        _tightest(((c * yd + b * yn, -a * yd) for a, b, c in uppers), -1))
    if x is None:
        return None
    p = Point2(x, y)
    assert _inside_rows(rows, p)
    return p


class ConvexRegion:
    """Intersection of open half-planes, kept as integer rows (see `_row`):
    integer coefficients as they are, rational ones over their LCM.

    Construction runs one Fourier-Motzkin pass; its sample point decides
    whether the region is nonempty.  The elimination projects exactly, so a
    scaled copy or a looser parallel of a half-plane never moves a bound:
    redundant half-planes change neither the sample nor `is_subset_of`.
    """

    def __init__(self, halfplanes: Sequence[HalfPlane]):
        if not halfplanes:
            raise ValueError("need at least one half-plane")
        self.rows = tuple(map(_row, halfplanes))
        self._interior_sample = _fourier_motzkin_point(self.rows)

    @property
    def has_interior(self) -> bool:
        return self._interior_sample is not None

    def contains(self, p: Point2) -> bool:
        return _inside_rows(self.rows, p)

    def is_subset_of(self, other: "ConvexRegion") -> bool:
        """Exact containment: self lies in {h > 0} iff self meets no point
        of {h < 0}, since an open region touching the line h = 0 also holds
        points just beyond it."""
        return all(_fourier_motzkin_point(self.rows + ((-a, -b, -c),)) is None
                   for a, b, c in other.rows)


def interior_point(region: ConvexRegion) -> Point2:
    """Deterministic point strictly inside the region: its Fourier-Motzkin
    sample, whose coordinates are dyadic (see `_between`)."""
    if not region.has_interior:
        raise EmptyRegionError("region has no interior point")
    return region._interior_sample
