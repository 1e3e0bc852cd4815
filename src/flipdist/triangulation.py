"""Triangulation domains (point sets, polygonal regions with holes) and
edge-set triangulations over them with flip legality and validation.

Domains scale their rational coordinates to a shared integer grid once at
construction; every predicate after that runs the `geometry` kernel on
integer tuples, which keeps exactness and makes validation and search cheap.
"""

from __future__ import annotations

import functools
from math import lcm
from typing import NamedTuple, Optional, Sequence

from .errors import DomainMismatchError, IllegalFlipError, ValidationError
from .geometry import (Point2, on_segment, orientation, point_in_cycle,
                       polygon_signed_area2, segments_share_interior)

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
        dens = [p.x.denominator for p in self.points] + \
               [p.y.denominator for p in self.points]
        scale = lcm(*dens) if dens else 1
        self.ipoints = [(int(p.x * scale), int(p.y * scale)) for p in self.points]
        self.ipoints2 = [(2 * x, 2 * y) for x, y in self.ipoints]
        if len(set(self.ipoints)) != len(self.ipoints):
            raise ValidationError("points are not pairwise distinct")

    def orient(self, i: int, j: int, k: int) -> int:
        return orientation(self.ipoints[i], self.ipoints[j], self.ipoints[k])

    def segment_inside(self, i: int, j: int) -> bool:
        """True iff segment ij can be an edge of a triangulation of the
        domain: its open interior passes through no other point.  A point
        set's convex hull holds every segment between its points."""
        a, b = self.ipoints[i], self.ipoints[j]
        for p in self.ipoints:
            if on_segment(p, a, b, closed=False):
                return False
        return True

    def __eq__(self, other):
        return type(self) is type(other) and self._key() == other._key()

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = None  # type: ignore[assignment]


class PointSet(_DomainBase):
    """Finite planar point set; triangulations cover its convex hull."""

    def __init__(self, points: Sequence[Point2]):
        self.points = tuple(points)
        if len(self.points) < 3:
            raise ValidationError("point set needs at least 3 points")
        self._setup_grid()
        cycle = hull_cycle(self.ipoints)
        self.boundary_cycles = [cycle]
        self.mandatory_edges = frozenset(
            edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle)))
        b = len(cycle)
        self.expected_edge_count = 3 * len(self.points) - b - 3
        self.expected_triangle_count = 2 * len(self.points) - b - 2

    def _key(self):
        return self.points


class PolygonalRegion(_DomainBase):
    """Simple polygon with polygonal holes; one-vertex holes are points."""

    def __init__(self, points: Sequence[Point2], outer: Sequence[int],
                 holes: Sequence[Sequence[int]] = ()):
        self.points = tuple(points)
        self.outer = tuple(outer)
        self.holes = tuple(tuple(h) for h in holes)
        self._setup_grid()
        self.poly_holes = [h for h in self.holes if len(h) >= 3]
        self.point_holes = [h[0] for h in self.holes if len(h) == 1]
        if any(len(h) == 2 for h in self.holes):
            raise ValidationError("two-vertex holes are not polygons")
        self._check_structure()
        self.boundary_cycles = [list(self.outer)] + [list(h) for h in self.poly_holes]
        self.mandatory_edges = frozenset(
            edge(c[i], c[(i + 1) % len(c)])
            for c in self.boundary_cycles for i in range(len(c)))
        b = sum(len(c) for c in self.boundary_cycles)
        h = len(self.poly_holes)
        self.expected_edge_count = 3 * len(self.points) - b + 3 * h - 3
        self.expected_triangle_count = 2 * len(self.points) - b + 2 * h - 2

    def _key(self):
        return (self.points, self.outer, self.holes)

    def _check_structure(self):
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
        if polygon_signed_area2([self.points[i] for i in self.outer]) <= 0:
            raise ValidationError("outer boundary must be counterclockwise")
        for h in self.poly_holes:
            if polygon_signed_area2([self.points[i] for i in h]) >= 0:
                raise ValidationError("hole boundaries must be clockwise")
        cycles = [list(self.outer)] + [list(h) for h in self.poly_holes]
        segs = []
        for c in cycles:
            for i in range(len(c)):
                segs.append((c[i], c[(i + 1) % len(c)]))
        ip = self.ipoints
        for i in range(len(segs)):
            a, b = segs[i]
            for j in range(i + 1, len(segs)):
                c, d = segs[j]
                shared = len({a, b} & {c, d})
                if shared == 2:
                    raise ValidationError(f"duplicate boundary edge {(a, b)}")
                if segments_share_interior(ip[a], ip[b], ip[c], ip[d]):
                    raise ValidationError(
                        f"boundary edges {(a, b)} and {(c, d)} intersect")
        for a, b in segs:
            for k in range(len(self.points)):
                if on_segment(ip[k], ip[a], ip[b], closed=False):
                    raise ValidationError(f"point {k} lies on boundary edge {(a, b)}")
        outer2 = [self.ipoints2[i] for i in self.outer]
        for h in list(self.poly_holes) + [[p] for p in self.point_holes]:
            for idx in h:
                if point_in_cycle(self.ipoints2[idx], outer2) <= 0:
                    raise ValidationError(
                        f"hole vertex {idx} is not strictly inside the outer boundary")
        for hi, h1 in enumerate(self.poly_holes):
            cyc2 = [self.ipoints2[i] for i in h1]
            for h2 in self.poly_holes[hi + 1:]:
                if point_in_cycle(self.ipoints2[h2[0]], cyc2) > 0:
                    raise ValidationError("nested holes")
            for p in self.point_holes:
                if point_in_cycle(self.ipoints2[p], cyc2) > 0:
                    raise ValidationError(f"point hole {p} inside a polygonal hole")

    def point_location(self, q2) -> int:
        """+1 strictly inside the region, 0 on a boundary, -1 outside."""
        loc = point_in_cycle(q2, [self.ipoints2[i] for i in self.outer])
        if loc <= 0:
            return loc
        for h in self.poly_holes:
            hl = point_in_cycle(q2, [self.ipoints2[i] for i in h])
            if hl == 0:
                return 0
            if hl > 0:
                return -1
        return 1

    def segment_inside(self, i: int, j: int) -> bool:
        """True iff segment ij can be an edge of a triangulation of the
        region: a boundary edge, or an open segment in the region's interior
        that touches no boundary edge and passes through no other point."""
        if edge(i, j) in self.mandatory_edges:
            return True
        ip = self.ipoints
        a, b = ip[i], ip[j]
        for u, v in self.mandatory_edges:
            if segments_share_interior(a, b, ip[u], ip[v]):
                return False
        if not super().segment_inside(i, j):
            return False
        return self.point_location((a[0] + b[0], a[1] + b[1])) > 0


def hull_cycle(ipoints) -> list[int]:
    """Convex hull cycle (CCW) listing every point on the hull boundary;
    raises ValidationError when all points are collinear."""
    idx = sorted(range(len(ipoints)), key=lambda i: ipoints[i])

    def build(seq):
        out: list[int] = []
        for i in seq:
            while len(out) >= 2 and orientation(
                    ipoints[out[-2]], ipoints[out[-1]], ipoints[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    lower = build(idx)
    upper = build(reversed(idx))
    corners = lower[:-1] + upper[:-1]
    if len(corners) < 3:
        raise ValidationError("all points are collinear")
    cycle: list[int] = []
    corner_set = set(corners)
    for k in range(len(corners)):
        a, b = corners[k], corners[(k + 1) % len(corners)]
        onway = [i for i in range(len(ipoints)) if i not in corner_set
                 and on_segment(ipoints[i], ipoints[a], ipoints[b], closed=False)]
        onway.sort(key=lambda i: (abs(ipoints[i][0] - ipoints[a][0]),
                                  abs(ipoints[i][1] - ipoints[a][1])))
        cycle.append(a)
        cycle.extend(onway)
    return cycle


def ear_clip_with_triangles(domain, cycle: Sequence[int]):
    """Triangulate one simple polygon given as a vertex cycle.

    Deterministic: always clips the lowest-index available ear.  Returns
    (edges, triangles) where edges include the cycle edges.
    """
    ip = domain.ipoints
    cyc = list(cycle)
    area2 = 0
    for i in range(len(cyc)):
        a, b = ip[cyc[i]], ip[cyc[(i + 1) % len(cyc)]]
        area2 += a[0] * b[1] - a[1] * b[0]
    if area2 < 0:
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


def ear_clip_triangulation(domain, cycle: Sequence[int]) -> set[Edge]:
    return ear_clip_with_triangles(domain, cycle)[0]


# ---------------------------------------------------------------------------
# face extraction from a plane edge set

def _sorted_rotations(domain, edges) -> dict[int, list[int]]:
    """Neighbors of every vertex in counterclockwise angular order."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    ip = domain.ipoints

    def around(v):
        vx, vy = ip[v]

        def cmp(w1, w2):
            d1 = (ip[w1][0] - vx, ip[w1][1] - vy)
            d2 = (ip[w2][0] - vx, ip[w2][1] - vy)
            h1 = 0 if (d1[1] > 0 or (d1[1] == 0 and d1[0] > 0)) else 1
            h2 = 0 if (d2[1] > 0 or (d2[1] == 0 and d2[0] > 0)) else 1
            if h1 != h2:
                return h1 - h2
            cr = d1[0] * d2[1] - d1[1] * d2[0]
            if cr != 0:
                return -1 if cr > 0 else 1
            return w1 - w2  # overlapping directions: deterministic fallback
        return cmp

    return {v: sorted(ws, key=functools.cmp_to_key(around(v)))
            for v, ws in adj.items()}


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


def extract_faces(domain, edges) -> list[list[int]]:
    """All face cycles of the plane graph (edges must be non-crossing)."""
    return walk_faces(_sorted_rotations(domain, edges), sorted(edges))


def canonical_cycle(cycle: Sequence[int]) -> tuple[int, ...]:
    """Rotation- and reflection-independent canonical form of a cycle."""
    best = None
    n = len(cycle)
    for seq in (list(cycle), list(reversed(cycle))):
        for s in range(n):
            cand = tuple(seq[(s + i) % n] for i in range(n))
            if best is None or cand < best:
                best = cand
    return best  # type: ignore[return-value]


def derive_triangles(domain, edges) -> frozenset[Triangle]:
    """Triangles of a triangulation given as a plane edge set.

    Matches non-triangular faces against the domain boundary cycles; anything
    else must be a triangle, otherwise the edge set is not a triangulation.
    """
    expected = {canonical_cycle(c) for c in domain.boundary_cycles}
    triangles: set[Triangle] = set()
    for face in extract_faces(domain, edges):
        if len(face) == 3:
            a, b, c = face
            if domain.orient(a, b, c) == 0:
                raise ValidationError(f"degenerate triangle face {face}")
            key = canonical_cycle(face)
            if key in expected:
                expected.discard(key)
                continue
            triangles.add(tri(a, b, c))
        else:
            key = canonical_cycle(face)
            if key in expected:
                expected.discard(key)
            else:
                raise ValidationError(f"non-triangular interior face {face}")
    if expected:
        raise ValidationError("boundary cycles missing from the face structure")
    return frozenset(triangles)


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
    diagonal uv between triangles uvx and uvy can be flipped to xy."""
    orient = domain.orient
    s = orient(u, x, v)
    return s != 0 and orient(x, v, y) == s and orient(v, y, u) == s \
        and orient(y, u, x) == s


def flip_triangles(triangles: frozenset, removed: Edge,
                   inserted: Edge) -> frozenset[Triangle]:
    """The triangles after the diagonal `removed` of a quadrilateral is
    flipped to `inserted`."""
    u, v = removed
    x, y = inserted
    return (triangles - {tri(u, v, x), tri(u, v, y)}) \
        | {tri(x, y, u), tri(x, y, v)}


class Triangulation:
    """Immutable edge-set triangulation over a shared domain."""

    __slots__ = ("domain", "edges", "_triangles", "_apexes")

    def __init__(self, domain, edges, triangles: Optional[frozenset] = None):
        self.domain = domain
        self.edges = frozenset(edge(u, v) for u, v in edges)
        self._triangles = triangles
        self._apexes: Optional[dict[Edge, list[int]]] = None

    @property
    def triangles(self) -> frozenset[Triangle]:
        if self._triangles is None:
            self._triangles = derive_triangles(self.domain, self.edges)
        return self._triangles

    def edge_apexes(self) -> dict[Edge, list[int]]:
        if self._apexes is None:
            apexes: dict[Edge, list[int]] = {}
            for a, b, c in self.triangles:
                apexes.setdefault(edge(a, b), []).append(c)
                apexes.setdefault(edge(a, c), []).append(b)
                apexes.setdefault(edge(b, c), []).append(a)
            self._apexes = apexes
        return self._apexes

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

    def flip_is_legal(self, move: FlipMove) -> bool:
        aps = self.edge_apexes().get(move.removed)
        if aps is None or len(aps) != 2:
            return False
        if edge(*aps) != move.inserted:
            return False
        return flip_is_convex(self.domain, *move.removed, *aps)

    def apply_flip(self, move: FlipMove) -> "Triangulation":
        if not self.flip_is_legal(move):
            raise IllegalFlipError(f"illegal flip {move}")
        new_edges = (self.edges - {move.removed}) | {move.inserted}
        return Triangulation(self.domain, new_edges,
                             flip_triangles(self.triangles, *move))

    def apply_script(self, moves) -> "Triangulation":
        t = self
        for m in moves:
            t = t.apply_flip(m)
        return t


def edge_difference(t1: Triangulation, t2: Triangulation):
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    return (t1.edges - t2.edges, t2.edges - t1.edges)


def validate(t: Triangulation) -> ValidationReport:
    """Check every Triangulation invariant; an empty report means valid."""
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

    # boundary edges hold no point by construction (a hull cycle lists every
    # point on the hull, and PolygonalRegion rejects points on its boundary)
    for e in t.edges:
        if e not in domain.mandatory_edges and not domain.segment_inside(*e):
            report.add(f"edge {e} does not lie inside the domain")

    # pairwise proper crossings, bounding-box prefiltered
    ip = domain.ipoints
    non_boundary = sorted(t.edges - domain.mandatory_edges)
    all_edges = sorted(t.edges)
    boxes = {}
    for e in all_edges:
        (x1, y1), (x2, y2) = ip[e[0]], ip[e[1]]
        boxes[e] = (min(x1, x2), max(x1, x2), min(y1, y2), max(y1, y2))
    by_minx = sorted(all_edges, key=lambda e: boxes[e][0])
    for e in non_boundary:
        ex0, ex1, ey0, ey1 = boxes[e]
        for f in by_minx:
            fb = boxes[f]
            if fb[0] > ex1:
                break
            # a pair of non-boundary edges is tested from its smaller edge
            if (f <= e and f not in domain.mandatory_edges) or fb[1] < ex0 \
                    or fb[2] > ey1 or fb[3] < ey0:
                continue
            if segments_share_interior(ip[e[0]], ip[e[1]], ip[f[0]], ip[f[1]]):
                report.add(f"edges {e} and {f} "
                           f"{'overlap' if {*e} & {*f} else 'cross'}")

    if len(t.edges) != domain.expected_edge_count:
        report.add(f"edge count {len(t.edges)} != maximal count "
                   f"{domain.expected_edge_count} (not a triangulation)")

    if report.ok:
        try:
            tris = derive_triangles(domain, t.edges)
        except ValidationError as exc:
            report.add(str(exc))
        else:
            if len(tris) != domain.expected_triangle_count:
                report.add(f"triangle count {len(tris)} != expected "
                           f"{domain.expected_triangle_count}")
            apexes: dict[Edge, int] = {}
            for a, b, c in tris:
                for e in (edge(a, b), edge(a, c), edge(b, c)):
                    apexes[e] = apexes.get(e, 0) + 1
            for e in t.edges:
                want = 1 if e in domain.mandatory_edges else 2
                if apexes.get(e, 0) != want:
                    report.add(f"edge {e} bounds {apexes.get(e, 0)} triangles, "
                               f"expected {want}")
    return report
