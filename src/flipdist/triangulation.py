"""Triangulation domains (polygonal regions with holes, and point sets as
the regions their convex hulls bound) and edge-set triangulations over them
with flip legality and validation.

Domains scale their rational coordinates to a shared integer grid once at
construction; every predicate after that runs the `geometry` kernel on
integer tuples, which keeps exactness and makes validation and search cheap.
A region decides hole nesting by one sweep of rays over its boundary edges.

Every query here does work in proportion to what it touches: each edge's
apexes come, by side, from the neighbours its ends share, with no angular
sort, and `validate` checks that one map with no further orientation;
`replay` applies a script in place on one copy of the edges and apexes,
at two orientations a move, and `walk_segment` walks from a vertex through
only the triangles a segment crosses.  Both run on valid triangulations.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple, Optional, Sequence

from .errors import IllegalFlipError, ValidationError
from .geometry import (Point2, on_grid, orientation, polygon_signed_area2,
                       touching_pairs)

Edge = tuple[int, int]
Triangle = tuple[int, int, int]


def edge(u: int, v: int) -> Edge:
    return (u, v) if u < v else (v, u)


def tri(a: int, b: int, c: int) -> Triangle:
    return tuple(sorted((a, b, c)))  # type: ignore[return-value]


class FlipMove(NamedTuple):
    removed: Edge
    inserted: Edge

    def reverse(self) -> "FlipMove":
        return FlipMove(self.inserted, self.removed)


# perfbench/tracing.py counts the kernel's orientation calls through this
# name, so it stays bound to the one `geometry.orientation`.
_iorient = orientation


# ---------------------------------------------------------------------------
# domains

class _DomainBase:
    points: tuple[Point2, ...]

    def _setup_grid(self):
        self.ipoints, _ = on_grid(self.points)
        if len(set(self.ipoints)) != len(self.ipoints):
            raise ValidationError("points are not pairwise distinct")

    def orient(self, i: int, j: int, k: int) -> int:
        return orientation(self.ipoints[i], self.ipoints[j], self.ipoints[k])

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]


class PolygonalRegion(_DomainBase):
    """Simple polygon with polygonal holes; one-vertex holes are points."""

    def __init__(self, points: Sequence[Point2], outer: Sequence[int],
                 holes: Sequence[Sequence[int]] = ()):
        self.points = tuple(points)
        self._setup_grid()
        self._set_boundary(outer, holes)

    def _set_boundary(self, outer, holes):
        self.outer = tuple(outer)
        self.holes = tuple(tuple(h) for h in holes)
        self.poly_holes = [h for h in self.holes if len(h) >= 3]
        self.point_holes = [h[0] for h in self.holes if len(h) == 1]
        self.boundary_cycles = [list(self.outer)] + [list(h) for h in self.poly_holes]
        areas = self._check_structure()
        # each boundary edge with its dart along its cycle, which keeps the
        # region on its left (outer CCW, holes CW)
        self.boundary_darts = {edge(a, b): (a, b) for c in self.boundary_cycles
                               for a, b in zip(c, c[1:] + c[:1])}
        self.mandatory_edges = frozenset(self.boundary_darts)
        b = sum(len(c) for c in self.boundary_cycles)
        h = len(self.poly_holes)
        self.expected_edge_count = 3 * len(self.points) - b + 3 * h - 3
        self.expected_triangle_count = 2 * len(self.points) - b + 2 * h - 2
        # twice the area, exact on the grid; holes are clockwise and subtract
        self.area2 = sum(areas)

    def _key(self):
        return (self.points, self.outer, self.holes)

    def _check_structure(self) -> list[int]:
        """Check the boundaries read from input; return each cycle's area2."""
        if any(len(h) == 2 for h in self.holes):
            raise ValidationError("two-vertex holes are not polygons")
        seen: set[int] = set()
        for idx in list(self.outer) + [i for h in self.holes for i in h]:
            if not 0 <= idx < len(self.points):
                raise ValidationError(f"boundary index {idx} out of range")
            if idx in seen:
                raise ValidationError(f"index {idx} used twice on boundaries")
            seen.add(idx)
        if seen != set(range(len(self.points))):
            missing = sorted(set(range(len(self.points))) - seen)
            raise ValidationError(
                f"points {missing} belong to no boundary; list them as point holes")
        if len(self.outer) < 3:
            raise ValidationError("outer boundary needs at least 3 vertices")
        ip = self.ipoints
        areas = [polygon_signed_area2([ip[i] for i in c])
                 for c in self.boundary_cycles]
        if areas[0] <= 0:
            raise ValidationError("outer boundary must be counterclockwise")
        if any(a >= 0 for a in areas[1:]):
            raise ValidationError("hole boundaries must be clockwise")
        segs = [(c[i], c[(i + 1) % len(c)]) for c in self.boundary_cycles
                for i in range(len(c))]
        point_holes = sorted(self.point_holes)
        # indices are unique and cycles have 3+ vertices, so no two boundary
        # edges coincide; a cycle vertex inside a boundary edge makes its own
        # edges touch that edge.  A point hole k rides along as the
        # zero-length segment (k, k), which touches exactly the boundary
        # edges it lies inside.
        touching = touching_pairs(ip, segs + [(k, k) for k in point_holes])
        for i, j in touching:
            if j < len(segs):
                raise ValidationError(
                    f"boundary edges {segs[i]} and {segs[j]} intersect")
        if touching:
            i, j = touching[0]
            raise ValidationError(
                f"point {point_holes[j - len(segs)]} lies on boundary edge {segs[i]}")
        self._check_nesting()
        return areas

    def _check_nesting(self):
        """Every hole strictly inside the outer boundary, and no hole inside
        a polygonal hole.

        The points are pairwise distinct and no two boundaries touch, so a
        hole lies wholly inside or wholly outside any other cycle, and its
        first vertex, which lies on no boundary, locates it.  One sweep
        over the non-horizontal boundary edges casts a ray toward +x from
        each such vertex and counts, per cycle, the edges it crosses, with
        `point_in_cycle`'s half-open rule: an edge counts for a vertex whose
        height lies in [low end, high end), strictly left of the edge going
        up or strictly right of it going down.  The vertices are sorted by
        height, so an edge meets only the vertices in its slab.
        """
        ip = self.ipoints
        cycles = [self.outer] + self.poly_holes
        holes = self.poly_holes + [(p,) for p in self.point_holes]
        order = sorted(range(len(holes)), key=lambda k: ip[holes[k][0]][1])
        heights = [ip[holes[k][0]][1] for k in order]
        odd: set[tuple[int, int]] = set()   # (hole, cycle), crossed oddly
        for ci, c in enumerate(cycles):
            for a, b in zip(c, c[1:] + c[:1]):
                pa, pb = ip[a], ip[b]
                if pa[1] == pb[1]:
                    continue
                up = pa[1] < pb[1]
                lo, hi = (pa[1], pb[1]) if up else (pb[1], pa[1])
                want = 1 if up else -1
                for k in order[bisect_left(heights, lo):
                               bisect_left(heights, hi)]:
                    if orientation(pa, pb, ip[holes[k][0]]) == want:
                        odd ^= {(k, ci)}
        for k, h in enumerate(holes):
            if (k, 0) not in odd:
                raise ValidationError(
                    f"hole vertex {h[0]} is not strictly inside the outer boundary")
        n_poly = len(self.poly_holes)
        for ci in range(1, n_poly + 1):
            if any((k, ci) in odd for k in range(n_poly) if k != ci - 1):
                raise ValidationError("nested holes")
            for k in range(n_poly, len(holes)):
                if (k, ci) in odd:
                    raise ValidationError(
                        f"point hole {holes[k][0]} inside a polygonal hole")


class PointSet(PolygonalRegion):
    """Finite planar point set: the region its convex hull bounds, with
    every point off the hull a point hole, so triangulations cover the
    hull and use every point."""

    def __init__(self, points: Sequence[Point2]):
        self.points = tuple(points)
        if len(self.points) < 3:
            raise ValidationError("point set needs at least 3 points")
        self._setup_grid()
        outer = hull_cycle(self.ipoints)
        on_hull = set(outer)
        self._set_boundary(outer, [(k,) for k in range(len(self.points))
                                   if k not in on_hull])

    def _check_structure(self) -> list[int]:
        """Nothing to check but the hull's area2: the hull cycle and the
        point holes are computed from distinct points, not read from input."""
        return [polygon_signed_area2([self.ipoints[i] for i in self.outer])]


def hull_cycle(ipoints) -> list[int]:
    """Convex hull cycle (CCW) listing every point on the hull boundary;
    raises ValidationError when all points are collinear.

    Andrew's monotone chain that keeps collinear points: a point is popped
    only for a strict right turn, so each chain lists the points on its
    sides in order.  Points sort by x, then y, so a vertical side at the
    left end falls to the upper chain and one at the right end to the
    lower chain.  Only when all points are collinear do both chains hold
    every point."""
    idx = sorted(range(len(ipoints)), key=ipoints.__getitem__)

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and orientation(
                    ipoints[out[-2]], ipoints[out[-1]], ipoints[i]) < 0:
                out.pop()
            out.append(i)
        return out

    lower = build(idx)
    upper = build(reversed(idx))
    if len(lower) == len(upper) == len(idx):
        raise ValidationError("all points are collinear")
    return lower[:-1] + upper[:-1]


def ear_clip_with_triangles(domain, cycle: Sequence[int]):
    """Triangulate one simple polygon given as a vertex cycle.

    Deterministic: always clips the lowest-index available ear.  Returns
    (edges, triangles) where edges include the cycle edges.
    """
    ip = domain.ipoints
    cyc = list(cycle)
    if polygon_signed_area2([ip[i] for i in cyc]) < 0:
        cyc.reverse()
    edges: set[Edge] = set()
    triangles: list[Triangle] = []
    for i in range(len(cyc)):
        edges.add(edge(cyc[i], cyc[(i + 1) % len(cyc)]))

    def blocked(a, b, c, others):
        # any remaining vertex inside or on the candidate ear blocks it
        for w in others:
            pa, pb, pc, pw = ip[a], ip[b], ip[c], ip[w]
            if orientation(pa, pb, pw) >= 0 and orientation(pb, pc, pw) >= 0 \
                    and orientation(pc, pa, pw) >= 0:
                return True
        return False

    while len(cyc) > 3:
        clipped = False
        order = sorted(range(len(cyc)), key=lambda i: cyc[i])
        for i in order:
            a = cyc[(i - 1) % len(cyc)]
            b = cyc[i]
            c = cyc[(i + 1) % len(cyc)]
            if orientation(ip[a], ip[b], ip[c]) != 1:
                continue
            others = [w for w in cyc if w not in (a, b, c)]
            if blocked(a, b, c, others):
                continue
            edges.add(edge(a, c))
            triangles.append(tri(a, b, c))
            cyc.pop(i)
            clipped = True
            break
        if not clipped:
            raise ValidationError(f"ear clipping stuck on cycle {cyc}")
    triangles.append(tri(*cyc))
    return edges, triangles


# ---------------------------------------------------------------------------
# faces and triangles of a plane edge set

def walk_faces(rotation, edges) -> list[list[int]]:
    """Face cycles of a plane graph, each with its face left of every dart.

    `rotation` maps every vertex to its neighbours in counterclockwise
    order; faces are found in the order of `edges`, both darts of each.
    """
    index_of = {v: {w: i for i, w in enumerate(ws)} for v, ws in rotation.items()}
    faces = []
    seen: set[tuple[int, int]] = set()
    for u0, v0 in edges:
        for dart in ((u0, v0), (v0, u0)):
            if dart in seen:
                continue
            face = []
            u, v = dart
            while (u, v) not in seen:
                seen.add((u, v))
                face.append(u)
                ws = rotation[v]
                u, v = v, ws[(index_of[v][u] - 1) % len(ws)]
            faces.append(face)
    return faces


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotation- and reflection-independent canonical form of a cycle: the
    least of its rotations in either direction.  The least one starts at
    the smallest vertex, so only the rotations starting there are compared
    (more than one start when a face repeats a vertex)."""
    seq = list(cycle)
    lo = min(seq)
    return min(rot for s, v in enumerate(seq) if v == lo
               for rot in (tuple(seq[s:] + seq[:s]),
                           tuple(seq[s::-1] + seq[:s:-1])))


def derive_apexes(domain, edges) -> dict[Edge, list[Optional[int]]]:
    """Each edge's apexes by side, `{(u, v): [left, right]}`, for a plane
    edge set of `(u, v)` pairs, u < v, from the neighbours its ends share.

    One orientation per common neighbour w of u and v puts it on a side
    of the edge.  On each side inside the region (not the outer side of a
    boundary dart), the apex is the common neighbour that comes first
    counterclockwise around the dart's tail (u for the left side, v for
    the right), and one orientation per further candidate decides it; any
    other side is None.  On a valid triangulation these are exactly its
    faces; on any other edge set they are a family that `validate`'s
    certificate accepts or rejects.  A common neighbour collinear with an
    edge raises ValidationError.
    """
    ip = domain.ipoints
    orient = domain.orient
    darts = domain.boundary_darts
    nbrs: dict[int, set[int]] = {}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    apexes: dict[Edge, list[Optional[int]]] = {}
    for e in edges:
        u, v = e
        (ux, uy), (vx, vy) = ip[u], ip[v]
        dx, dy = vx - ux, vy - uy
        left = right = None
        for w in nbrs[u] & nbrs[v]:
            wx, wy = ip[w]
            s = dx * (wy - uy) - dy * (wx - ux)
            if s > 0:
                if left is None or orient(u, w, left) > 0:
                    left = w
            elif s < 0:
                if right is None or orient(v, w, right) > 0:
                    right = w
            else:
                raise ValidationError(
                    f"degenerate triangle face {tri(u, v, w)}")
        dart = darts.get(e)
        apexes[e] = [None if dart == (v, u) else left,
                     None if dart == e else right]
    return apexes


# ---------------------------------------------------------------------------
# triangulations

class ValidationReport:
    def __init__(self):
        self.violations: list[str] = []

    def add(self, msg: str):
        self.violations.append(msg)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, violations={self.violations!r})"


def flip_is_convex(domain, u: int, v: int, x: int, y: int) -> bool:
    """True iff the quadrilateral u, x, v, y is strictly convex, so that the
    diagonal uv between triangles uvx and uvy can be flipped to xy.  Every
    apex map puts x and y strictly on opposite sides of uv (`derive_apexes`
    raises on a collinear apex), so that holds iff u and v lie strictly on
    opposite sides of xy."""
    return domain.orient(x, y, u) * domain.orient(x, y, v) < 0


def quad_sides(removed: Edge, inserted: Edge):
    """The four sides of the quadrilateral around a flip of `removed` to
    `inserted`, each with the apex it loses and the apex it gains.

    Flipping uv to xy replaces triangles uvx and uvy by xyu and xyv, so
    side ux trades apex v for y, xv trades u for y, vy trades u for x and
    yu trades v for x; the apexes across the quadrilateral stay.
    """
    u, v = removed
    x, y = inserted
    return (((u, x) if u < x else (x, u), v, y),
            ((x, v) if x < v else (v, x), u, y),
            ((v, y) if v < y else (y, v), u, x),
            ((y, u) if y < u else (u, y), v, x))


def _listed(apexes) -> dict[Edge, list[int]]:
    """A by-side apex map with its empty sides left out."""
    return {e: [w for w in aps if w is not None] for e, aps in apexes.items()}


class Triangulation:
    """Immutable edge-set triangulation over a shared domain."""

    __slots__ = ("domain", "edges", "_apexes", "_neighbours")

    def __init__(self, domain, edges):
        self.domain = domain
        self.edges = frozenset(edge(u, v) for u, v in edges)
        self._apexes: Optional[dict[Edge, list[int]]] = None
        self._neighbours: Optional[dict[int, list[int]]] = None

    @property
    def triangles(self) -> frozenset[Triangle]:
        return frozenset(tri(u, v, w)
                         for (u, v), aps in self.edge_apexes().items()
                         for w in aps)

    def edge_apexes(self) -> dict[Edge, list[int]]:
        if self._apexes is None:
            self._apexes = _listed(derive_apexes(self.domain, self.edges))
        return self._apexes

    def neighbours(self) -> dict[int, list[int]]:
        """Every vertex's neighbours, listed once per triangulation."""
        if self._neighbours is None:
            nbrs: dict[int, list[int]] = {}
            for u, v in self.edges:
                nbrs.setdefault(u, []).append(v)
                nbrs.setdefault(v, []).append(u)
            self._neighbours = nbrs
        return self._neighbours

    def canonical_key(self) -> bytes:
        return ";".join(f"{u},{v}" for u, v in sorted(self.edges)).encode("ascii")

    def legal_flips(self) -> list[FlipMove]:
        out = []
        apexes = self.edge_apexes()
        for e in self.edges:
            aps = apexes.get(e)
            if aps is not None and len(aps) == 2 \
                    and flip_is_convex(self.domain, *e, *aps):
                out.append(FlipMove(e, edge(*aps)))
        out.sort()
        return out

    def apply_flip(self, move: FlipMove) -> "Triangulation":
        return replay(self, (move,))


def replay(t: Triangulation, moves, on_flip=None) -> Triangulation:
    """The triangulation that `moves` lead to from `t`, which stays as it is.

    The edge set and the apex map are copied once and then updated in
    place.  A move is legal when its removed edge has two apexes, its
    inserted edge joins them and the quadrilateral is strictly convex
    (`flip_is_convex`, two orientations); the apexes then change through
    `quad_sides`, and the edges are already normalised, so no triangle
    derivation and no `edge()` pass runs.  An illegal move raises
    `IllegalFlipError` carrying its index.  When given, `on_flip(move,
    edges)` sees the live edge set after each flip.  `t` must be a valid
    triangulation: its apexes are those `derive_apexes` gives it.
    """
    domain = t.domain
    edges = set(t.edges)
    apexes = dict(t.edge_apexes())
    for i, move in enumerate(moves):
        removed, inserted = move
        aps = apexes.get(removed)
        if aps is None or len(aps) != 2 or edge(*aps) != inserted \
                or not flip_is_convex(domain, *removed, *aps):
            raise IllegalFlipError(f"illegal flip {move}", index=i)
        del apexes[removed]
        apexes[inserted] = list(removed)
        for side, old, new in quad_sides(removed, inserted):
            apexes[side] = [new if w == old else w for w in apexes[side]]
        edges.discard(removed)
        edges.add(inserted)
        if on_flip is not None:
            on_flip(move, edges)
    out = Triangulation(domain, ())
    out.edges = frozenset(edges)
    out._apexes = apexes
    return out


def walk_segment(t: Triangulation, p: int, q: int):
    """The straight walk from vertex p toward vertex q (Devillers, Pion and
    Teillaud, "Walking in a triangulation", IJFCS 2002).

    Returns `(crossed, met)`: the edges whose interiors the open segment pq
    crosses and the vertices that lie inside it, each in the order met; or
    None when the segment leaves the domain.  The walk visits only the
    triangles the segment passes through.  From a vertex it rotates
    through the vertex's triangles for the one whose corner holds the
    direction to q, with one orientation per neighbour and at most two
    more; then it crosses one edge per step, with one orientation for the
    apex beyond.  From a vertex inside the segment it carries on the same
    way; at a boundary edge (one triangle) it would leave the domain.  `t`
    must be a valid triangulation.
    """
    orient = t.domain.orient
    ip = t.domain.ipoints
    apexes = t.edge_apexes()
    nbrs = t.neighbours()
    qx, qy = ip[q]
    crossed: list[Edge] = []
    met: list[int] = []
    v = p
    while True:
        vx, vy = ip[v]
        side = {}
        for w in nbrs[v]:
            s = side[w] = orient(v, w, q)
            wx, wy = ip[w]
            if s == 0 and (wx - vx) * (qx - vx) + (wy - vy) * (qy - vy) > 0:
                break               # w lies on the segment: q, or inside it
        else:
            w = None
        if w == q:
            return crossed, met
        if w is not None:
            met.append(w)
            v = w
            continue
        # q's direction lies strictly inside the corner at v of a triangle
        # (v, right, left), counterclockwise; the corner opposite it has
        # the same signs but turns clockwise
        corner = next(((a, b) for a in nbrs[v] if side[a] > 0
                       for b in apexes[edge(v, a)]
                       if side[b] < 0 and orient(v, a, b) > 0), None)
        if corner is None:
            return None             # the segment leaves the domain at v
        right, left = corner
        prev = v
        while True:
            e = edge(left, right)
            crossed.append(e)
            aps = apexes[e]
            if len(aps) < 2:
                return None         # a boundary edge: it leaves the domain
            c = aps[1] if aps[0] == prev else aps[0]
            if c == q:
                return crossed, met
            s = orient(v, q, c)
            if s > 0:
                left, prev = c, left
            elif s < 0:
                right, prev = c, right
            else:
                met.append(c)
                v = c
                break


def validate(t: Triangulation) -> ValidationReport:
    """Check every Triangulation invariant; an empty report means valid.

    The edges must be in range, include the domain's boundary edges, use
    every point and have the maximal count.  Each edge's apexes by side
    (`derive_apexes`) must then pass a local certificate (Devillers,
    Liotta, Preparata and Tamassia, "Checking the convexity of polytopes
    and the planarity of subdivisions", CGTA 1998), which proves validity
    whatever family of triangles the edges give it.  An apex w left of
    a->b names the triangle a, b, w, counterclockwise and not degenerate
    (`derive_apexes` rejects those); the outer side of a boundary edge
    names none.  The checks:

    - every side of an edge inside the region has an apex;
    - every triangle a, b, w is derived at its other two edges too: a is
      the apex left of b->w, and b the apex left of w->a;
    - the triangles, counted once each, number `expected_triangle_count`,
      and their areas sum exactly to the domain's `area2`.

    A triangle then holds the apex of each of its sides on its own side,
    and a side holds one apex, so every edge bounds exactly one triangle
    on each side inside the region and none outside.  Across an edge, the number of triangles over
    a point then stays the same, except at the boundary, where it grows by
    one going in; it is 0 far away, so the triangles cover the region
    exactly once, and no two edges can touch beyond a shared endpoint.
    All of this is integer arithmetic with no sort and no orientation
    beyond `derive_apexes`'s.  Only when a check fails does a sweep name
    the edges that touch; those pairs, with the failed count and cover
    checks, are the report, and the certificate's findings are reported
    only when the sweep finds none.
    """
    report = ValidationReport()
    domain = t.domain
    n = len(domain.points)
    for u, v in t.edges:
        if not (0 <= u < n and 0 <= v < n) or u == v:
            report.add(f"bad edge {(u, v)}")
            return report

    missing = domain.mandatory_edges - t.edges
    if missing:
        report.add(f"missing mandatory boundary edges: {sorted(missing)[:4]}")

    used = {u for e in t.edges for u in e}
    if used != set(range(n)):
        report.add(f"vertices without incident edges: {sorted(set(range(n)) - used)[:4]}")

    count_ok = len(t.edges) == domain.expected_edge_count
    if report.ok and count_ok:
        certificate = _certificate(t)
        if not certificate:
            return report

    # boundary edges never touch one another (the domain checked that), so
    # every touching pair names a non-boundary edge; it is reported first
    all_edges = sorted(t.edges)
    for i, j in touching_pairs(domain.ipoints, all_edges):
        e, f = all_edges[i], all_edges[j]
        if e in domain.mandatory_edges:
            e, f = f, e
        report.add(f"edges {e} and {f} "
                   f"{'overlap' if {*e} & {*f} else 'cross'}")

    if not count_ok:
        report.add(f"edge count {len(t.edges)} != maximal count "
                   f"{domain.expected_edge_count} (not a triangulation)")
    if report.ok:       # only the certificate failed, and nothing touches
        report.violations = certificate
    return report


def _certificate(t: Triangulation) -> list[str]:
    """The violations of `validate`'s local certificate, for edges that are
    in range, include the boundary, use every point and have the maximal
    count.  It derives the apexes afresh; `t` keeps them if they pass and
    it carries none (a replay's)."""
    domain = t.domain
    try:
        apexes = derive_apexes(domain, t.edges)
    except ValidationError as exc:
        return [str(exc)]

    def left_of(p, q):
        return apexes[(p, q)][0] if p < q else apexes[(q, p)][1]

    out = []
    ip = domain.ipoints
    darts = domain.boundary_darts
    count = area2 = 0
    for e, (left, right) in apexes.items():
        u, v = e
        want = 1 if e in darts else 2
        got = (left is not None) + (right is not None)
        if got != want:
            out.append(f"edge {e} bounds {got} triangles, expected {want}")
        for a, b, w in ((u, v, left), (v, u, right)):
            if w is None:
                continue
            if left_of(b, w) != a or left_of(w, a) != b:
                out.append(f"triangle {tri(a, b, w)} of edge {e} is not "
                           f"derived at its other sides")
            if w > v:       # once per triangle, opposite its largest vertex
                (ax, ay), (bx, by), (wx, wy) = ip[a], ip[b], ip[w]
                count += 1
                area2 += (bx - ax) * (wy - ay) - (by - ay) * (wx - ax)
    if count != domain.expected_triangle_count:
        out.append(f"triangle count {count} != expected "
                   f"{domain.expected_triangle_count}")
    if area2 != domain.area2:
        out.append(f"triangles cover twice-area {area2}, the domain "
                   f"{domain.area2}")
    if not out and t._apexes is None:
        t._apexes = _listed(apexes)
    return out
