"""Channels and vertex gadgets.

A channel is a polygon made of two n-vertex reflex chains joined by two end
edges; every vertex of one chain sees every vertex of the other.  Channels
carry two extreme triangulations (all diagonals leaning left or right) and,
when capped by an outside vertex that sees the whole channel, an explicit
short transform script between them.

Vertex gadgets place four points C, D, E, F around a graph vertex so that a
convex quadrilateral CDEF with diagonal CE (the lock) separates each incident
channel from its designated potential cap, with per-channel two-flip capping
scripts.

Visibility inside a channel and the blocking sets of caps are decided by
straight walks in a triangulation (`triangulation.walk_segment`), which
visit only the triangles a segment crosses.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (EmptyFeasibleRegionError, IllegalFlipError,
                     InfeasibleSagError, SharpVertexError, ValidationError)
from .geometry import (ConvexRegion, HalfPlane, Point2, halfplane_shift,
                       halfplane_through, interior_point, on_grid,
                       orientation, polygon_signed_area2, sorted_ccw,
                       turn_reaches_pi)
from .triangulation import (Edge, FlipMove, PolygonalRegion, Triangulation,
                            edge, replay, validate, walk_segment)


# ---------------------------------------------------------------------------
# channels

@dataclass(frozen=True)
class Channel:
    """Two reflex chains; index 0 is one end edge, index n-1 the other."""

    upper: tuple[Point2, ...]
    lower: tuple[Point2, ...]

    @property
    def n(self) -> int:
        return len(self.upper)


def build_channel(end1: tuple[Point2, Point2], end2: tuple[Point2, Point2],
                  sag: Fraction, n: int = 7) -> Channel:
    """Channel between two end edges with strictly reflex chains.

    The chains start straight and each interior vertex is displaced toward
    the channel axis by sag * i * (n-1-i); the strictly concave profile makes
    the chains strictly reflex for every sag > 0 small enough to keep the
    channel invariants, which are re-checked exactly.
    """
    a1, b1 = end1
    an, bn = end2
    if n < 3:
        raise ValidationError("channel chains need at least 3 vertices")
    if sag <= 0:
        raise InfeasibleSagError("sag must be strictly positive")

    sn, sd = sag.as_integer_ratio()

    def chain(p_from: Point2, p_to: Point2, other_side: Point2):
        side = orientation(p_from, p_to, other_side)
        if side == 0:
            raise InfeasibleSagError("degenerate channel: end points collinear")
        # p_from + axis * i/(n-1) + perp * sag*i*(n-1-i), with the ends on
        # one grid of scale m: every point is an integer pair over m * t
        ((fx, fy), (tx, ty)), m = on_grid((p_from, p_to))
        ax, ay = tx - fx, ty - fy
        px, py = (-ay, ax) if side > 0 else (ay, -ax)
        t = (n - 1) * sd
        pts = []
        for i in range(n):
            k = sn * i * (n - 1 - i) * (n - 1)
            pts.append(Point2(Fraction(fx * t + ax * i * sd + px * k, m * t),
                              Fraction(fy * t + ay * i * sd + py * k, m * t)))
        return tuple(pts)

    ch = Channel(chain(a1, an, b1), chain(b1, bn, a1))
    report = channel_invariant_report(ch)
    if report:
        raise InfeasibleSagError("channel invariants fail: " + "; ".join(report))
    return ch


def channel_region(ch: Channel, cap_near: Optional[Point2] = None,
                   cap_far: Optional[Point2] = None) -> PolygonalRegion:
    """Standalone polygonal region for a channel, optionally with cap
    vertices spliced just outside the near (index 0) and far end edges.

    Point order: upper chain, lower chain, then caps; chain indices are
    0..n-1 (upper) and n..2n-1 (lower).
    """
    pts = list(ch.upper) + list(ch.lower)
    n = ch.n
    cycle = list(range(n))                      # A1 .. An
    next_id = 2 * n
    if cap_far is not None:
        pts.append(cap_far)
        far_id = next_id
        next_id += 1
        cycle.append(far_id)
    cycle.extend(range(2 * n - 1, n - 1, -1))   # Bn .. B1
    if cap_near is not None:
        pts.append(cap_near)
        cycle.append(next_id)
    if polygon_signed_area2([pts[i] for i in cycle]) < 0:
        cycle.reverse()
    return PolygonalRegion(pts, cycle)


def capped_transform_replays(ch: Channel, cap: Point2, far_end: bool) -> bool:
    """True iff the full capped transform replays legally with this cap.

    Builds the standalone capped channel, starts from the left-inclined
    triangulation, applies the canonical transform script and checks it lands
    exactly on the right-inclined triangulation.  Flip legality is local
    geometry, so success here carries over to the embedded channel.
    """
    n = ch.n
    try:
        _, t_left, t_right = channel_triangulations(
            ch, cap_near=None if far_end else cap,
            cap_far=cap if far_end else None)
    except ValidationError:
        return False
    if not validate(t_left).ok:
        return False
    moves = capped_transform_moves(list(range(n)), list(range(n, 2 * n)),
                                   2 * n, cap_at_far_end=far_end)
    try:
        return replay(t_left, moves).edges == t_right.edges
    except IllegalFlipError:
        return False


def channel_invariant_report(ch: Channel) -> list[str]:
    """Violated channel invariants (empty list = valid channel): strictly
    reflex chains, and every vertex of one chain sees every vertex of the
    other, decided by one `walk_segment` per pair in the left-inclined
    triangulation, which must be valid."""
    out: list[str] = []
    n = ch.n
    try:
        _, t_left, _ = channel_triangulations(ch)
    except ValidationError as exc:
        return [f"channel polygon invalid: {exc}"]
    # the chain points on one grid, times 2n, so that the centroid is the
    # integer sum of the grid points
    grid, _ = on_grid(ch.upper + ch.lower)
    centroid = (sum(x for x, _ in grid), sum(y for _, y in grid))
    grid = [(2 * n * x, 2 * n * y) for x, y in grid]

    def reflex(chain_pts):
        for i in range(1, n - 1):
            s = orientation(chain_pts[i - 1], chain_pts[i + 1], chain_pts[i])
            c = orientation(chain_pts[i - 1], chain_pts[i + 1], centroid)
            if s == 0 or s != c:
                return False
        return True

    if not reflex(grid[:n]):
        out.append("upper chain is not strictly reflex toward the interior")
    if not reflex(grid[n:]):
        out.append("lower chain is not strictly reflex toward the interior")

    # every chain pair sees each other iff the left fan, whose edges are
    # such pairs, is a triangulation and every walk in it passes
    violations = validate(t_left).violations
    if violations:
        out.append(f"left-inclined triangulation invalid: {violations[0]}")
        return out
    for i in range(n):
        for j in range(n, 2 * n):
            walk = walk_segment(t_left, i, j)
            if walk is None or walk[1]:
                out.append(f"chain vertices {i} and {j} do not see each other")
                return out
    return out


# --- inclined triangulations and transform scripts (index level) -----------

def left_edges(upper: Sequence[int], lower: Sequence[int]) -> set[Edge]:
    """Diagonals of the left-inclined triangulation, end edges included."""
    n = len(upper)
    out = {edge(upper[0], lower[j]) for j in range(n)}
    out |= {edge(upper[i], lower[n - 1]) for i in range(1, n)}
    return out


def right_edges(upper: Sequence[int], lower: Sequence[int]) -> set[Edge]:
    return left_edges(lower, upper)


def canonical_capped_edges(upper: Sequence[int], lower: Sequence[int],
                           cap: int) -> set[Edge]:
    """Fan from the cap to every chain vertex plus the end edge opposite the
    cap, `(upper[-1], lower[-1])`. This is the fan of a cap at the near end;
    for a cap at the far end pass the reversed chains, which keeps
    `(upper[0], lower[0])` instead."""
    out = {edge(cap, v) for v in list(upper) + list(lower)}
    out.add(edge(upper[-1], lower[-1]))
    return out


def left_to_canonical_moves(upper: Sequence[int], lower: Sequence[int],
                            cap: int) -> list[FlipMove]:
    """The explicit 2n-2 flip script from left-inclined to the canonical fan.

    Flips the near end edge and the whole left fan in order, walking the
    apex of the cap triangle across the far end.
    """
    n = len(upper)
    moves = []
    for j in range(n - 1):
        moves.append(FlipMove(edge(upper[0], lower[j]), edge(cap, lower[j + 1])))
    moves.append(FlipMove(edge(upper[0], lower[n - 1]), edge(cap, upper[1])))
    for i in range(1, n - 1):
        moves.append(FlipMove(edge(upper[i], lower[n - 1]), edge(cap, upper[i + 1])))
    return moves


def right_to_canonical_moves(upper, lower, cap) -> list[FlipMove]:
    return left_to_canonical_moves(lower, upper, cap)


def reverse_moves(moves: Sequence[FlipMove]) -> list[FlipMove]:
    return [m.reverse() for m in reversed(moves)]


def capped_transform_moves(upper: Sequence[int], lower: Sequence[int],
                           cap: int, cap_at_far_end: bool = False
                           ) -> list[FlipMove]:
    """The `2(2n-2)` move transform (24 moves for n=7) from the left- to the
    right-inclined triangulation of a capped channel, via the canonical fan.
    With `cap_at_far_end=True` the chains are reversed first, as for
    `canonical_capped_edges`."""
    u, l = list(upper), list(lower)
    if cap_at_far_end:
        # relabel from the far end; left and right swap roles
        u, l = list(reversed(u)), list(reversed(l))
    fwd = left_to_canonical_moves(u, l, cap) + \
        reverse_moves(right_to_canonical_moves(u, l, cap))
    return reverse_moves(fwd) if cap_at_far_end else fwd


def channel_triangulations(ch: Channel, cap_near: Optional[Point2] = None,
                           cap_far: Optional[Point2] = None):
    """(region, left, right) standalone triangulations of a channel."""
    region = channel_region(ch, cap_near, cap_far)
    n = ch.n
    upper = list(range(n))
    lower = list(range(n, 2 * n))
    base = set(region.mandatory_edges)
    t_left = Triangulation(region, base | left_edges(upper, lower))
    t_right = Triangulation(region, base | right_edges(upper, lower))
    return region, t_left, t_right


# ---------------------------------------------------------------------------
# mouths

@dataclass(frozen=True)
class Mouths:
    narrow: ConvexRegion
    wide: ConvexRegion


def channel_mouths(upper: Sequence[Point2], lower: Sequence[Point2],
                   end: int) -> Mouths:
    """Narrow and wide mouths at one end (0 = near upper[0], 1 = far end).

    The narrow mouth is bounded by the far chain segments' lines (a point
    below them sees the whole opposite chain past the end edge), the wide one
    by the near segments' lines; both are cut by the end edge line so the
    regions sit strictly outside the channel.  For straight chains the two
    coincide with the channel strip's extension.
    """
    if end == 1:
        upper = list(reversed(upper))
        lower = list(reversed(lower))
    gate_mid = Point2((upper[0].x + lower[0].x) / 2, (upper[0].y + lower[0].y) / 2)
    far_mid = Point2((upper[-1].x + lower[-1].x) / 2, (upper[-1].y + lower[-1].y) / 2)
    beyond_gate = halfplane_through(upper[0], lower[0], far_mid,
                                    contains_inside=False)
    narrow = ConvexRegion([
        halfplane_through(upper[-2], upper[-1], gate_mid),
        halfplane_through(lower[-2], lower[-1], gate_mid),
        beyond_gate,
    ])
    wide = ConvexRegion([
        halfplane_through(upper[0], upper[1], gate_mid),
        halfplane_through(lower[0], lower[1], gate_mid),
        beyond_gate,
    ])
    return Mouths(narrow=narrow, wide=wide)


# ---------------------------------------------------------------------------
# cap blocking sets

def blocking_set(t: Triangulation, cap: int, gate: Edge) -> set[Edge]:
    """Edges separating a potential cap from a channel gate.

    These are exactly the edges that must be flipped away before the cap
    triangle over the gate can exist: the edges crossed by the segments
    from the cap to the gate's two ends, found by walking `t` from the cap.
    A segment that leaves the domain raises `ValidationError`.
    """
    found: set[Edge] = set()
    for end in gate:
        walk = walk_segment(t, cap, end)
        if walk is None:
            raise ValidationError(f"segment {(cap, end)} leaves the domain")
        found.update(walk[0])
    return found


# ---------------------------------------------------------------------------
# vertex gadgets

@dataclass
class ChannelStub:
    """What a vertex gadget needs to know about one incident channel."""

    key: object                    # identifier (graph edge)
    direction: Point2              # from the vertex toward the other endpoint
    gate_left: Point2              # gate endpoint left of the direction ray
    gate_right: Point2


@dataclass
class VertexGadget:
    """Placed gadget: the four lock points and the pocket combinatorics.

    `cap_of` maps stub keys to the designated cap name; `cap_moves` holds the
    two-flip capping scripts in symbolic (name, name) edge form; `triangles`
    is the full pocket triangulation over symbolic names, where gate corners
    are named ('R', key) / ('L', key) and square corner points ('K', j).
    `arcs_ccw` lists, per counterclockwise-consecutive stub pair, the corner
    names on the pocket boundary walk between their gates.
    """

    center: Point2
    degree: int
    points: dict[str, Point2]          # 'C','D','E','F'
    order_ccw: list                    # stub keys in counterclockwise order
    cap_of: dict                       # stub key -> point name
    cap_moves: dict                    # stub key -> [(sym_edge, sym_edge), ...]
    blocking: dict                     # stub key -> set of symbolic edges
    triangles: list                    # list of symbolic triangles
    corner_points: dict                # ('K', j) -> Point2
    arcs_ccw: dict                     # (key_i, key_j) -> [corner names]
    lock: tuple = ("C", "E")
    unlock_inserts: tuple = ("D", "F")


def _sym_edge(a, b):
    return tuple(sorted((a, b), key=repr))


def build_vertex_gadget(center: Point2, half_side: Fraction,
                        stubs: Sequence[ChannelStub]) -> VertexGadget:
    """Place C, D, E, F for a degree-2 or degree-3 vertex.

    Every point is the deterministic interior point of an exact half-plane
    feasible region encoding the mouth membership rules: caps inside their
    channels' narrow mouths, everything else outside every wide mouth, the
    lock quadrilateral CDEF convex with diagonal CE separating each channel
    gate from its cap.
    """
    if len(stubs) == 2:
        return _build_degree2(center, half_side, stubs)
    if len(stubs) == 3:
        return _build_degree3(center, half_side, stubs)
    raise ValidationError(f"vertex gadgets exist for degree 2 and 3 only, "
                          f"got {len(stubs)}")


def inner_box(center: Point2, r: Fraction) -> list[HalfPlane]:
    """Four open half-planes cutting out the axis-aligned square of
    half-side r around center."""
    return [HalfPlane(1, 0, r - center.x), HalfPlane(-1, 0, center.x + r),
            HalfPlane(0, 1, r - center.y), HalfPlane(0, -1, center.y + r)]


def _strip(stub: ChannelStub, v: Point2) -> list[HalfPlane]:
    e = stub.direction
    return [
        halfplane_through(stub.gate_left, stub.gate_left + e, v),
        halfplane_through(stub.gate_right, stub.gate_right + e, v),
    ]


def _beyond_wall(stub: ChannelStub, v: Point2, side: str) -> HalfPlane:
    g = stub.gate_left if side == "L" else stub.gate_right
    return halfplane_through(g, g + stub.direction, v, contains_inside=False)


def _far_half(stub: ChannelStub, v: Point2) -> HalfPlane:
    return halfplane_through(v, v + stub.direction.perp(), v + stub.direction,
                             contains_inside=False)


def _hug(stub: ChannelStub, v: Point2, side: str,
         lo: Fraction, hi: Fraction) -> list[HalfPlane]:
    """Strip hugging the outside of one wall at lo..hi gate-half-widths."""
    g = stub.gate_left if side == "L" else stub.gate_right
    other = stub.gate_right if side == "L" else stub.gate_left
    w = Point2((g.x - other.x) / 2, (g.y - other.y) / 2)   # outward half-width
    outer = halfplane_through(g, g + stub.direction, v)    # toward v
    return [halfplane_shift(_beyond_wall(stub, v, side), w.scale(lo)),
            halfplane_shift(outer, w.scale(hi))]


def _place(name: str, halfplanes, fallbacks=()) -> Point2:
    region = ConvexRegion(list(halfplanes))
    if region.has_interior:
        return interior_point(region)
    for fb in fallbacks:
        region = ConvexRegion(list(fb))
        if region.has_interior:
            return interior_point(region)
    raise EmptyFeasibleRegionError(
        f"no admissible placement for gadget point {name}")


def _perimeter_walk(center: Point2, half: Fraction,
                    stubs: Sequence[ChannelStub]):
    """Pocket boundary corners between consecutive gates.

    Walks the square perimeter counterclockwise; corners that land inside a
    channel strip (they would become usable apexes for that channel) are cut
    off by a chamfer, whose two points straddle the strip.  Returns
    (corner_points, arcs) with arcs[(key_i, key_j)] the corner names on the
    counterclockwise walk from gate i's left point to gate j's right point.
    """
    def tau(p: Point2) -> Fraction:
        x, y = p.x - center.x, p.y - center.y
        if y == -half:
            return x + half                     # south, west to east
        if x == half:
            return 2 * half + (y + half)        # east, south to north
        if y == half:
            return 4 * half + (half - x)        # north, east to west
        if x == -half:
            return 6 * half + (half - y)        # west, north to south
        raise ValidationError("point not on the square perimeter")

    strips = [_strip(s, center) for s in stubs]

    def strictly_outside_strips(p: Point2) -> bool:
        for h1, h2 in strips:
            if h1.value(p) > 0 and h2.value(p) > 0:
                return False
            if h1.value(p) == 0 or h2.value(p) == 0:
                return False
        return True

    corners = [Point2(center.x + half, center.y - half),
               Point2(center.x + half, center.y + half),
               Point2(center.x - half, center.y + half),
               Point2(center.x - half, center.y - half)]
    walk_pts: list[tuple[Fraction, object, Point2]] = []
    j = 0
    for corner in corners:
        if strictly_outside_strips(corner):
            walk_pts.append((tau(corner), ("K", j), corner))
            j += 1
            continue
        # chamfer: back off along both adjacent sides
        dx = half / 4 if corner.x < center.x else -half / 4
        dy = half / 4 if corner.y < center.y else -half / 4
        for q in (Point2(corner.x + dx, corner.y), Point2(corner.x, corner.y + dy)):
            if not strictly_outside_strips(q):
                raise EmptyFeasibleRegionError(
                    "square corner cannot be kept outside the channel strips")
            walk_pts.append((tau(q), ("K", j), q))
            j += 1

    events = sorted(
        [(tau(s.gate_right), ("R", s.key)) for s in stubs]
        + [(tau(s.gate_left), ("L", s.key)) for s in stubs]
        + [(t, name) for t, name, _ in walk_pts])
    corner_points = {name: p for _, name, p in walk_pts}

    ordered = sorted_ccw(stubs, lambda s: s.direction)
    arcs = {}
    pos_of = {name: i for i, (_, name) in enumerate(events)}
    names = [name for _, name in events]
    m = len(names)
    for i, s in enumerate(ordered):
        nxt = ordered[(i + 1) % len(ordered)]
        start = pos_of[("L", s.key)]
        arc = []
        k = (start + 1) % m
        while names[k] != ("R", nxt.key):
            if not (isinstance(names[k], tuple) and names[k][0] == "K"):
                raise ValidationError(
                    f"unexpected gate point inside pocket arc: {names[k]}")
            arc.append(names[k])
            k = (k + 1) % m
        arcs[(s.key, nxt.key)] = arc
    return corner_points, arcs


def _fan(apex, seq):
    return [(apex, seq[i], seq[i + 1]) for i in range(len(seq) - 1)]


def _build_degree2(v: Point2, half_side: Fraction,
                   stubs: Sequence[ChannelStub]) -> VertexGadget:
    s1, s2 = stubs
    cr = s1.direction.cross(s2.direction)
    if cr == 0:
        raise SharpVertexError(
            "degree-2 vertex with collinear channels (angle exactly pi)")
    p, q = (s1, s2) if cr > 0 else (s2, s1)   # ccw sector p->q is < pi
    ep, eq = p.direction, q.direction
    box = inner_box(v, half_side / 2)
    sector_sample = v + ep + eq

    sec = [halfplane_through(v, v + ep, sector_sample),
           halfplane_through(v, v + eq, sector_sample)]
    C = _place("C", box + sec + [_beyond_wall(p, v, "L"), _beyond_wall(q, v, "R")])

    E = _place("E", box + [_far_half(p, v), _far_half(q, v),
                           _beyond_wall(p, v, "R"), _beyond_wall(q, v, "L")])

    gate_p_mid = Point2((p.gate_left.x + p.gate_right.x) / 2,
                        (p.gate_left.y + p.gate_right.y) / 2)
    gate_q_mid = Point2((q.gate_left.x + q.gate_right.x) / 2,
                        (q.gate_left.y + q.gate_right.y) / 2)
    A = p.gate_right
    Bq = q.gate_left

    d_main = box + _strip(p, v) + [_far_half(p, v), _beyond_wall(q, v, "L"),
                                   halfplane_through(C, E, gate_p_mid,
                                                     contains_inside=False)]
    d_order = [halfplane_through(Bq, C, E), halfplane_through(Bq, E, C)]
    D = _place("D", d_main + d_order, fallbacks=[d_main])

    f_main = box + _strip(q, v) + [_far_half(q, v), _beyond_wall(p, v, "R"),
                                   halfplane_through(C, E, gate_q_mid,
                                                     contains_inside=False)]
    f_order = [halfplane_through(A, E, C), halfplane_through(A, C, E)]
    F = _place("F", f_main + f_order, fallbacks=[f_main])

    pk, qk = p.key, q.key
    Rp, Lp, Rq, Lq = ("R", pk), ("L", pk), ("R", qk), ("L", qk)
    corner_points, arcs = _perimeter_walk(v, half_side, [p, q])
    triangles = [
        ("C", "D", "E"), ("C", "E", "F"),
        ("C", "F", Rp), ("C", Rp, Lp),
        ("C", "D", Lq), ("C", Rq, Lq),
        ("E", "D", Lq), ("E", Rp, "F"),
    ]
    # C fans the small-sector arc, E the large one
    triangles += _fan("C", [Lp] + arcs[(pk, qk)] + [Rq])
    triangles += _fan("E", [Lq] + arcs[(qk, pk)] + [Rp])
    cap_moves = {
        pk: [(_sym_edge("C", "F"), _sym_edge("D", Rp)),
             (_sym_edge("C", Rp), _sym_edge("D", Lp))],
        qk: [(_sym_edge("C", "D"), _sym_edge("F", Lq)),
             (_sym_edge("C", Lq), _sym_edge("F", Rq))],
    }
    blocking = {
        pk: {_sym_edge("C", "E"), _sym_edge("C", "F"), _sym_edge("C", Rp)},
        qk: {_sym_edge("C", "E"), _sym_edge("C", "D"), _sym_edge("C", Lq)},
    }
    return VertexGadget(
        center=v, degree=2,
        points={"C": C, "D": D, "E": E, "F": F},
        order_ccw=[pk, qk],
        cap_of={pk: "D", qk: "F"},
        cap_moves=cap_moves,
        blocking=blocking,
        triangles=triangles,
        corner_points=corner_points,
        arcs_ccw=arcs,
    )


def _build_degree3(v: Point2, half_side: Fraction,
                   stubs: Sequence[ChannelStub]) -> VertexGadget:
    ordered = sorted_ccw(stubs, lambda s: s.direction)
    if any(turn_reaches_pi(a.direction, b.direction)
           for a, b in zip(ordered, ordered[1:] + ordered[:1])):
        raise SharpVertexError(
            "degree-3 vertex has an incident angle of at least pi")
    # role rotation is combinatorially free; take the first that admits a
    # placement (tight angular slivers can starve individual rotations)
    last_error = None
    for start in range(3):
        rolled = ordered[start:] + ordered[:start]
        try:
            return _build_degree3_rolled(v, half_side, rolled)
        except EmptyFeasibleRegionError as exc:
            last_error = exc
    raise last_error


def _build_degree3_rolled(v: Point2, half_side: Fraction,
                          ordered: Sequence[ChannelStub]) -> VertexGadget:
    s1, s2, s3 = ordered
    box = inner_box(v, half_side / 2)
    gate_mid = {
        s.key: Point2((s.gate_left.x + s.gate_right.x) / 2,
                      (s.gate_left.y + s.gate_right.y) / 2)
        for s in ordered
    }
    half = Fraction(1, 2)
    two = Fraction(2)

    C = _place("C", box + _hug(s2, v, "L", half, two)
               + [_beyond_wall(s3, v, "R"), _beyond_wall(s1, v, "L")])
    E = _place("E", box + _hug(s1, v, "R", half, two)
               + [_beyond_wall(s2, v, "R"), _beyond_wall(s3, v, "L")])

    A1, B1 = s1.gate_right, s1.gate_left
    A3 = s3.gate_right

    d_main = box + _strip(s1, v) + _strip(s2, v) + [
        _beyond_wall(s3, v, "R"),
        halfplane_through(C, E, gate_mid[s1.key], contains_inside=False),
        halfplane_through(C, E, gate_mid[s2.key], contains_inside=False),
    ]
    d_order = [halfplane_through(A3, C, E), halfplane_through(A3, E, C)]
    D = _place("D", d_main + d_order, fallbacks=[d_main])

    f_main = box + _strip(s3, v) + [
        _far_half(s3, v), _beyond_wall(s1, v, "L"), _beyond_wall(s2, v, "R"),
        halfplane_through(C, E, gate_mid[s3.key], contains_inside=False),
    ]
    f_order = [halfplane_through(A1, E, B1)]
    F = _place("F", f_main + f_order, fallbacks=[f_main])

    k1, k2, k3 = s1.key, s2.key, s3.key
    R1, L1 = ("R", k1), ("L", k1)
    R2, L2 = ("R", k2), ("L", k2)
    R3, L3 = ("R", k3), ("L", k3)
    corner_points, arcs = _perimeter_walk(v, half_side, [s1, s2, s3])
    triangles = [
        ("C", "D", "E"), ("C", "E", "F"),
        ("E", "F", R1), ("F", R1, L1),
        ("C", "F", R2), ("C", R2, L2),
        ("D", "E", R3), ("E", R3, L3), ("C", "D", R3),
    ]
    triangles += _fan("F", [L1] + arcs[(k1, k2)] + [R2])
    triangles += _fan("C", [L2] + arcs[(k2, k3)] + [R3])
    triangles += _fan("E", [L3] + arcs[(k3, k1)] + [R1])
    cap_moves = {
        k1: [(_sym_edge("F", "E"), _sym_edge("D", R1)),
             (_sym_edge("F", R1), _sym_edge("D", L1))],
        k2: [(_sym_edge("C", "F"), _sym_edge("D", R2)),
             (_sym_edge("C", R2), _sym_edge("D", L2))],
        k3: [(_sym_edge("E", "D"), _sym_edge("F", R3)),
             (_sym_edge("E", R3), _sym_edge("F", L3))],
    }
    blocking = {
        k1: {_sym_edge("C", "E"), _sym_edge("F", "E"), _sym_edge("F", R1)},
        k2: {_sym_edge("C", "E"), _sym_edge("C", "F"), _sym_edge("C", R2)},
        k3: {_sym_edge("C", "E"), _sym_edge("E", "D"), _sym_edge("E", R3)},
    }
    return VertexGadget(
        center=v, degree=3,
        points={"C": C, "D": D, "E": E, "F": F},
        order_ccw=[k1, k2, k3],
        cap_of={k1: "D", k2: "D", k3: "F"},
        cap_moves=cap_moves,
        blocking=blocking,
        triangles=triangles,
        corner_points=corner_points,
        arcs_ccw=arcs,
    )
