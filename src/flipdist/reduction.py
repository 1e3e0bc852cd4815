"""End-to-end hardness instance pipeline.

Takes a 3-connected cubic planar graph to a strictly convex drawing (exact
Tutte embedding), replaces sharp outer vertices by 3-vertex chains, then turns
every edge into a channel and every vertex into a lock gadget, producing a
polygonal region with two triangulations whose flip distance encodes vertex
cover via the threshold 2*k' + 28*|E'|.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import networkx as nx

from .errors import (EmptyFeasibleRegionError, EmptyRegionError,
                     IllegalFlipError, IllegalScriptError, InfeasibleSagError,
                     InvalidOuterFaceError, Not3ConnectedError, NotACoverError,
                     NotPlanarError, SharpVertexError, ValidationError)
from .gadgets import (Channel, ChannelStub, VertexGadget, blocking_set,
                      build_channel, build_vertex_gadget,
                      capped_transform_moves, capped_transform_replays,
                      channel_mouths, left_edges, left_to_canonical_moves,
                      reverse_moves, right_edges)
from .geometry import (ConvexRegion, HalfPlane, Point2, angular_key,
                       coord_bits, halfplane_through, interior_point,
                       orientation, polygon_signed_area2,
                       segments_share_interior)
from .instanceio import InstanceDoc
from .search import FlipScript
from .triangulation import (Edge, FlipMove, PolygonalRegion, PointSet,
                            Triangulation, canonical_cycle,
                            ear_clip_with_triangles, edge, hull_cycle,
                            validate, walk_faces)


# ---------------------------------------------------------------------------
# planar drawings

@dataclass
class PlanarGraphDrawing:
    pos: dict[int, Point2]
    edges: list[tuple[int, int]]
    outer_face: list[int]

    def __post_init__(self):
        self.edges = [tuple(sorted(e)) for e in self.edges]
        self.adj: dict[int, list[int]] = {v: [] for v in self.pos}
        for u, w in self.edges:
            self.adj[u].append(w)
            self.adj[w].append(u)

    def degree(self, v) -> int:
        return len(self.adj[v])

    def direction(self, v, w) -> Point2:
        return self.pos[w] - self.pos[v]

    def neighbors_ccw(self, v) -> list[int]:
        return sorted(self.adj[v],
                      key=lambda w: angular_key(self.direction(v, w)))

    def faces(self) -> list[list[tuple[int, int]]]:
        """Face cycles as dart lists, faces on the left of each dart."""
        rot = {v: self.neighbors_ccw(v) for v in self.pos}
        return [list(zip(f, f[1:] + f[:1])) for f in walk_faces(rot, self.edges)]

    def face_area2(self, face) -> Fraction:
        total = Fraction(0)
        for u, w in face:
            total += self.pos[u].cross(self.pos[w])
        return total

    def sharp_vertices(self) -> list[int]:
        """Vertices with an incident angle of at least pi.

        Degree-3 vertices are sharp when a gap between consecutive edge
        directions reaches pi; degree-2 vertices only at exactly pi.
        """
        out = []
        for v in self.pos:
            dirs = [self.direction(v, w) for w in self.neighbors_ccw(v)]
            k = len(dirs)
            if k <= 1:
                continue
            if k == 2:
                if dirs[0].cross(dirs[1]) == 0 and dirs[0].dot(dirs[1]) < 0:
                    out.append(v)
                continue
            for i in range(k):
                a, b = dirs[i], dirs[(i + 1) % k]
                cr = a.cross(b)
                if cr < 0 or (cr == 0 and a.dot(b) < 0):
                    out.append(v)
                    break
        return out


def convex_drawing(vertices: Sequence[int], edges: Sequence[tuple[int, int]],
                   outer: Optional[Sequence[int]] = None) -> PlanarGraphDrawing:
    """Exact Tutte (barycentric) drawing of a 3-connected planar graph.

    The outer face goes to rational points on a circle (strictly convex); the
    interior positions solve the uniform barycentric system exactly, which for
    3-connected planar graphs yields a plane drawing with strictly convex
    faces.  Audited by orientation predicates afterwards.
    """
    g = nx.Graph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    if g.number_of_nodes() != len(set(vertices)) or nx.number_of_selfloops(g):
        raise ValidationError("graph must be simple")
    is_planar, embedding = nx.check_planarity(g)
    if not is_planar:
        raise NotPlanarError("graph is not planar")
    if g.number_of_nodes() < 4 or not nx.is_connected(g) \
            or nx.node_connectivity(g) < 3:
        raise Not3ConnectedError("graph is not 3-connected")

    # faces of the (unique) combinatorial embedding
    face_set = {}
    for u in embedding:
        for w in embedding[u]:
            cyc = embedding.traverse_face(u, w)
            face_set[canonical_cycle(cyc)] = list(cyc)
    if outer is not None:
        key = canonical_cycle(list(outer))
        if key not in face_set:
            raise InvalidOuterFaceError(f"{list(outer)} is not a face")
        outer_cycle = list(outer)
    else:
        outer_cycle = face_set[min(face_set)]

    k = len(outer_cycle)
    radius = Fraction(1 << 12)
    ts = [Fraction(6 * j, k) - 3 for j in range(k)]
    ring = [Point2(radius * (1 - t * t) / (1 + t * t),
                   radius * 2 * t / (1 + t * t)) for t in ts]
    # order the ring counterclockwise along the outer cycle
    pos: dict[int, Point2] = {v: ring[j] for j, v in enumerate(outer_cycle)}

    inner = [v for v in vertices if v not in pos]
    if inner:
        index = {v: i for i, v in enumerate(inner)}
        m = len(inner)
        a = [[Fraction(0)] * m for _ in range(m)]
        bx = [Fraction(0)] * m
        by = [Fraction(0)] * m
        for v in inner:
            i = index[v]
            a[i][i] = Fraction(g.degree(v))
            for w in g.neighbors(v):
                if w in index:
                    a[i][index[w]] -= 1
                else:
                    bx[i] += pos[w].x
                    by[i] += pos[w].y
        xs = _solve([row[:] for row in a], list(bx))
        ys = _solve([row[:] for row in a], list(by))
        for v in inner:
            pos[v] = Point2(xs[index[v]], ys[index[v]])

    drawing = PlanarGraphDrawing(pos=pos, edges=list(edges),
                                 outer_face=outer_cycle)
    _audit_convex_faces(drawing)
    return drawing


def _solve(a, b):
    """Exact Gaussian elimination with partial pivoting over rationals."""
    m = len(a)
    for col in range(m):
        piv = next((r for r in range(col, m) if a[r][col] != 0), None)
        if piv is None:
            raise ValidationError("singular barycentric system")
        a[col], a[piv] = a[piv], a[col]
        b[col], b[piv] = b[piv], b[col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        b[col] *= inv
        for r in range(m):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                b[r] -= f * b[col]
    return b


def _audit_convex_faces(drawing: PlanarGraphDrawing):
    for face in drawing.faces():
        cyc = [u for u, _ in face]
        area = drawing.face_area2(face)
        n = len(cyc)
        want = -1 if area < 0 else 1
        for i in range(n):
            p, q, r = (drawing.pos[cyc[i]], drawing.pos[cyc[(i + 1) % n]],
                       drawing.pos[cyc[(i + 2) % n]])
            if orientation(p, q, r) != want:
                raise ValidationError(
                    f"face {cyc} is not strictly convex in the drawing")


def drawing_from_coords(pos: dict[int, Point2], edges,
                        outer: Optional[Sequence[int]] = None) -> PlanarGraphDrawing:
    d = PlanarGraphDrawing(pos=dict(pos), edges=list(edges), outer_face=[])
    if outer is None:
        faces = d.faces()
        outer_face = next(f for f in faces if d.face_area2(f) < 0)
        d.outer_face = [u for u, _ in outer_face]
    else:
        d.outer_face = list(outer)
    return d


# ---------------------------------------------------------------------------
# sharp vertex elimination

def eliminate_sharp(drawing: PlanarGraphDrawing):
    """Replace each sharp vertex by a 3-vertex chain bulging outward.

    Returns (new drawing, number of replaced vertices).  Covering the two
    chain edges takes either both chain ends (the old vertex in the cover) or
    the middle vertex alone (not in the cover), which shifts the minimum
    vertex cover by exactly the number of replacements.
    """
    sharp = set(drawing.sharp_vertices())
    if not sharp:
        return drawing, 0
    outer = list(drawing.outer_face)
    internal_sharp = sharp - set(outer)
    if internal_sharp:
        raise SharpVertexError(
            f"sharp vertices {sorted(internal_sharp)} are not on the outer face")

    pos = dict(drawing.pos)
    edges = {tuple(sorted(e)) for e in drawing.edges}
    next_id = max(pos) + 1
    t_count = 0
    cycle = list(outer)

    for v in [u for u in outer if u in sharp]:
        if drawing.degree(v) != 3:
            raise SharpVertexError(
                f"vertex {v} is sharp but not degree 3; cannot replace")
        i = cycle.index(v)
        u_prev = cycle[(i - 1) % len(cycle)]
        u_next = cycle[(i + 1) % len(cycle)]
        current_nbrs = {a if b == v else b for a, b in edges if v in (a, b)}
        u_in = next(w for w in sorted(current_nbrs)
                    if w not in (u_prev, u_next))
        pre_sharp = set(PlanarGraphDrawing(
            pos=pos, edges=sorted(edges), outer_face=[]).sharp_vertices())
        placed = None
        for shrink in range(10):
            t = Fraction(1, 8 * (1 << shrink))
            cand = _place_chain(pos, edges, v, u_prev, u_next, u_in, t,
                                next_id, pre_sharp)
            if cand is not None:
                placed = cand
                break
        if placed is None:
            raise SharpVertexError(f"could not replace sharp vertex {v}")
        (v1, v2, v3), new_pos, new_edges = placed
        pos.pop(v)
        pos.update(new_pos)
        edges = new_edges
        cycle[i:i + 1] = [v1, v2, v3]
        next_id += 3
        t_count += 1

    out = PlanarGraphDrawing(pos=pos, edges=sorted(edges), outer_face=cycle)
    if out.sharp_vertices():
        raise SharpVertexError(
            f"replacement left sharp vertices {out.sharp_vertices()}")
    _audit_plane(out)
    return out, t_count


def _place_chain(pos, edges, v, u_prev, u_next, u_in, t, next_id, pre_sharp):
    """Try one chain placement scale; None when the local audit fails."""
    p = pos[v]
    v1, v2, v3 = next_id, next_id + 1, next_id + 2
    d_in = pos[u_in] - p
    d_prev = pos[u_prev] - p
    d_next = pos[u_next] - p

    box_r = Fraction(max(abs(d_prev.x), abs(d_prev.y))) * t / 2
    box = [
        HalfPlane(Fraction(1), 0, -(p.x - box_r)),
        HalfPlane(Fraction(-1), 0, p.x + box_r),
        HalfPlane(0, Fraction(1), -(p.y - box_r)),
        HalfPlane(0, Fraction(-1), p.y + box_r),
    ]
    # two ways to hand out the three old edges; the middle vertex goes in the
    # window that keeps every gap at the degree-3 chain end below pi.  The
    # inner-face sector between the kept directions fixes the window side.
    def window(d_kept):
        if d_kept.cross(d_in) > 0:      # inner face runs ccw d_kept -> d_in
            return (d_in, d_kept)
        return (d_kept, d_in)

    variants = (
        (u_prev, u_next, window(d_prev)),   # v1 hugs u_prev and takes u_in
        (u_next, u_prev, window(d_next)),   # v1 hugs u_next and takes u_in
    )
    for ua, ub, (da, db) in variants:
        # w strictly in the counterclockwise sector from da to db
        sec = [halfplane_through(p, p + da, p + da.perp()),
               halfplane_through(p, p + db, p + db.perp(), contains_inside=False)]
        try:
            q2 = interior_point(ConvexRegion(box + sec))
        except EmptyRegionError:
            continue
        q1 = p + (pos[ua] - p).scale(t)
        q3 = p + (pos[ub] - p).scale(t)
        new_pos = {v1: q1, v2: q2, v3: q3}
        new_edges = {e for e in edges if v not in e}
        new_edges |= {tuple(sorted(e)) for e in
                      ((v1, ua), (v3, ub), (v1, u_in), (v1, v2), (v2, v3))}
        if _chain_audit(pos, new_pos, new_edges, (v, u_prev, u_next, u_in),
                        pre_sharp):
            return (v1, v2, v3), new_pos, new_edges
    return None


def _chain_audit(pos, new_pos, new_edges, touched, pre_sharp) -> bool:
    allpos = {**{k: v for k, v in pos.items() if k != touched[0]}, **new_pos}
    new_ids = set(new_pos)
    check = [e for e in new_edges if new_ids & set(e)]
    for e in check:
        a, b = e
        for f in new_edges:
            if f == e or set(e) & set(f):
                continue
            if segments_share_interior(allpos[a], allpos[b],
                                       allpos[f[0]], allpos[f[1]]):
                return False
    # the chain must be non-sharp and no neighbor may become newly sharp
    probe = PlanarGraphDrawing(pos=allpos, edges=sorted(new_edges), outer_face=[])
    bad = set(probe.sharp_vertices())
    if bad & new_ids:
        return False
    return not ((bad & set(touched[1:])) - pre_sharp)


def _audit_plane(drawing: PlanarGraphDrawing):
    pts = drawing.pos
    es = drawing.edges
    for i in range(len(es)):
        a, b = es[i]
        for j in range(i + 1, len(es)):
            c, d = es[j]
            if set((a, b)) & set((c, d)):
                continue
            if segments_share_interior(pts[a], pts[b], pts[c], pts[d]):
                raise ValidationError(f"drawing edges {es[i]} and {es[j]} cross")


# ---------------------------------------------------------------------------
# instance construction

@dataclass
class ChannelRecord:
    key: tuple[int, int]              # graph edge, u < w
    upper: list[int]                  # domain indices, u end to w end
    lower: list[int]
    gates: dict[int, tuple[int, int]]  # graph vertex -> (upper, lower) gate idx
    caps: dict[int, int]              # graph vertex -> cap domain index
    cap_scripts: dict[int, list[FlipMove]]
    blocking: dict[int, frozenset[Edge]]


@dataclass
class GadgetRecord:
    vertex: int
    degree: int
    points: dict[str, int]            # 'C','D','E','F' -> domain index
    lock: Edge
    unlock_insert: Edge


@dataclass
class AccountingReport:
    unlocked: set[int]
    uncapped: set[tuple[int, int]]
    channel_count: int
    script_length: int

    @property
    def lower_bound(self) -> int:
        return 2 * len(self.unlocked) + 36 * len(self.uncapped) \
            + 28 * (self.channel_count - len(self.uncapped))

    @property
    def implied_cover_size(self) -> int:
        return len(self.unlocked) + len(self.uncapped)


@dataclass
class ReductionInstance:
    region: PolygonalRegion
    t1: Triangulation
    t2: Triangulation
    channels: dict[tuple[int, int], ChannelRecord]
    gadgets: dict[int, GadgetRecord]
    k_input: int
    t_outer: int

    @property
    def k_prime(self) -> int:
        return self.k_input + self.t_outer

    @property
    def threshold(self) -> int:
        return 2 * self.k_prime + 28 * len(self.channels)

    @property
    def graph_edges(self) -> list[tuple[int, int]]:
        return sorted(self.channels)

    @property
    def graph_vertices(self) -> list[int]:
        return sorted(self.gadgets)

    def to_doc(self) -> InstanceDoc:
        meta = {
            "channels": [
                {
                    "edge": list(rec.key),
                    "upper": rec.upper,
                    "lower": rec.lower,
                    "gates": {str(v): list(g) for v, g in sorted(rec.gates.items())},
                    "caps": {str(v): c for v, c in sorted(rec.caps.items())},
                    "cap_scripts": {
                        str(v): [[list(m.removed), list(m.inserted)] for m in ms]
                        for v, ms in sorted(rec.cap_scripts.items())
                    },
                    "blocking": {
                        str(v): sorted(map(list, bl))
                        for v, bl in sorted(rec.blocking.items())
                    },
                }
                for rec in (self.channels[k] for k in sorted(self.channels))
            ],
            "gadgets": [
                {
                    "vertex": g.vertex,
                    "degree": g.degree,
                    "points": g.points,
                    "lock": list(g.lock),
                    "unlock_insert": list(g.unlock_insert),
                }
                for g in (self.gadgets[v] for v in sorted(self.gadgets))
            ],
        }
        accounting = {
            "k_input": self.k_input,
            "t_outer": self.t_outer,
            "k_prime": self.k_prime,
            "channel_count": len(self.channels),
            "threshold": self.threshold,
            "max_coord_bits": instance_coord_bits(self.region),
        }
        return InstanceDoc(domain=self.region, t1=self.t1, t2=self.t2,
                           gadget_metadata=meta, accounting=accounting)

    @classmethod
    def from_doc(cls, doc: InstanceDoc) -> "ReductionInstance":
        meta = doc.gadget_metadata
        if meta is None:
            raise ValidationError("instance carries no gadget metadata")
        channels = {}
        for c in meta["channels"]:
            key = tuple(c["edge"])
            channels[key] = ChannelRecord(
                key=key,
                upper=list(c["upper"]),
                lower=list(c["lower"]),
                gates={int(v): tuple(g) for v, g in c["gates"].items()},
                caps={int(v): cap for v, cap in c["caps"].items()},
                cap_scripts={
                    int(v): [FlipMove(edge(*r), edge(*i)) for r, i in ms]
                    for v, ms in c["cap_scripts"].items()
                },
                blocking={
                    int(v): frozenset(edge(*e) for e in bl)
                    for v, bl in c["blocking"].items()
                },
            )
        gadgets = {}
        for g in meta["gadgets"]:
            gadgets[g["vertex"]] = GadgetRecord(
                vertex=g["vertex"], degree=g["degree"],
                points=dict(g["points"]),
                lock=edge(*g["lock"]),
                unlock_insert=edge(*g["unlock_insert"]),
            )
        acc = doc.accounting or {}
        t1, t2 = doc.pair
        return cls(region=doc.domain, t1=t1, t2=t2, channels=channels,
                   gadgets=gadgets, k_input=acc.get("k_input", 0),
                   t_outer=acc.get("t_outer", 0))


def instance_coord_bits(domain) -> int:
    return max(coord_bits(p) for p in domain.points)


def _square_crossing(v: Point2, d: Point2, half: Fraction) -> tuple[Point2, str]:
    """Where the ray from v along d leaves the axis-aligned square |.|<=half."""
    ax, ay = abs(d.x), abs(d.y)
    if ax == ay:
        raise ValidationError("ray through square corner")
    if ax > ay:
        t = half / ax
        side = "E" if d.x > 0 else "W"
    else:
        t = half / ay
        side = "N" if d.y > 0 else "S"
    return v + d.scale(t), side


def _side_line(v: Point2, half: Fraction, side: str) -> tuple[Point2, Point2]:
    x0, x1 = v.x - half, v.x + half
    y0, y1 = v.y - half, v.y + half
    if side == "N":
        return Point2(x0, y1), Point2(x1, y1)
    if side == "S":
        return Point2(x0, y0), Point2(x1, y0)
    if side == "E":
        return Point2(x1, y0), Point2(x1, y1)
    return Point2(x0, y0), Point2(x0, y1)


def _gate_for(drawing, v, w, half, scale=Fraction(1)) -> tuple[Point2, Point2, Point2]:
    """Gate candidate (p1, left point, right point) for edge (v, w) at v.

    The gate half-width is a third of the distance to the nearest other
    crossing of incident edge lines (and their extensions) with the same
    square side, additionally capped at a 1/24 fraction of the square so all
    gadget feasible regions stay within the pocket.  `scale` narrows further
    when a gadget needs more room between nearly parallel strips.
    """
    p1, side = _square_crossing(drawing.pos[v], drawing.direction(v, w), half)
    sa, sb = _side_line(drawing.pos[v], half, side)
    s_points = [sa, sb]
    for u in drawing.adj[v]:
        if u == w:
            continue
        d = drawing.direction(v, u)
        for dd in (d, Point2(-d.x, -d.y)):
            try:
                q, qside = _square_crossing(drawing.pos[v], dd, half)
            except ValidationError:
                continue
            if qside == side:
                s_points.append(q)
    def along(p):  # position along the side
        return p.x - sa.x if sa.y == sb.y else p.y - sa.y
    base = along(p1)
    dists = sorted(abs(along(q) - base) for q in s_points if along(q) != base)
    if not dists:
        raise ValidationError("no reference points on the square side")
    delta = dists[0] / 3
    delta = min(delta, half / 12) * scale
    if sa.y == sb.y:
        off = Point2(delta, Fraction(0))
    else:
        off = Point2(Fraction(0), delta)
    g1, g2 = p1 + off, p1 - off
    if orientation(drawing.pos[v], drawing.pos[w], g1) > 0:
        return p1, g1, g2
    return p1, g2, g1


def _line_intersection_points(p1: Point2, d1: Point2,
                              p2: Point2, d2: Point2) -> Point2:
    det = d1.x * d2.y - d1.y * d2.x
    if det == 0:
        raise ValidationError("parallel lines in gate construction")
    t = ((p2.x - p1.x) * d2.y - (p2.y - p1.y) * d2.x) / det
    return p1 + d1.scale(t)


def build_instance(drawing: PlanarGraphDrawing, k_input: int,
                   t_outer: int = 0, validate_instance: bool = True
                   ) -> ReductionInstance:
    """Assemble the polygonal region, T1 (all channels left-inclined) and T2
    (all right-inclined) for a drawing with degrees in {2, 3} and no sharp
    vertices."""
    vids = sorted(drawing.pos)
    for v in vids:
        if drawing.degree(v) not in (2, 3):
            raise ValidationError(f"vertex {v} has degree {drawing.degree(v)}")
    if drawing.sharp_vertices():
        raise SharpVertexError(
            f"drawing has sharp vertices {drawing.sharp_vertices()}")

    # global square size: comfortably smaller than the shortest edge
    min_len = min(max(abs(drawing.direction(u, w).x),
                      abs(drawing.direction(u, w).y))
                  for u, w in drawing.edges)
    c_global = min_len / 4

    # per-vertex square, shrunk away from any corner degeneracy
    half_side: dict[int, Fraction] = {}
    for v in vids:
        half = c_global / 2
        for _ in range(64):
            try:
                for u in drawing.adj[v]:
                    _square_crossing(drawing.pos[v], drawing.direction(v, u), half)
                break
            except ValidationError:
                half *= Fraction(63, 64)
        else:
            raise ValidationError(f"cannot place square at vertex {v}")
        half_side[v] = half

    # gates (the narrower of the two end candidates wins per edge) and vertex
    # gadgets; when a gadget has no room between nearly parallel strips, its
    # incident channels are narrowed and everything is recomputed
    scale: dict[tuple[int, int], Fraction] = {e: Fraction(1)
                                              for e in map(tuple, map(sorted, drawing.edges))}
    gate_pts: dict[tuple[int, int], dict[int, tuple[Point2, Point2]]] = {}
    gadget_obj: dict[int, VertexGadget] = {}
    for _attempt in range(30):
        gate_pts = {}
        for (u, w) in sorted(drawing.edges):
            d = drawing.direction(u, w)
            p1u, lu, ru = _gate_for(drawing, u, w, half_side[u], scale[(u, w)])
            p1w, lw, rw = _gate_for(drawing, w, u, half_side[w], scale[(u, w)])
            width_u = abs((lu - p1u).cross(d))
            width_w = abs((lw - p1w).cross(d))
            if width_u <= width_w:
                # carry u's walls across to w's square side
                _, side_w = _square_crossing(drawing.pos[w],
                                             drawing.direction(w, u), half_side[w])
                sa, sb = _side_line(drawing.pos[w], half_side[w], side_w)
                side_dir = sb - sa
                lw2 = _line_intersection_points(lu, d, sa, side_dir)
                rw2 = _line_intersection_points(ru, d, sa, side_dir)
                # left of (u -> w) arrives as right of (w -> u)
                gate_pts[(u, w)] = {u: (lu, ru), w: (rw2, lw2)}
            else:
                _, side_u = _square_crossing(drawing.pos[u], d, half_side[u])
                sa, sb = _side_line(drawing.pos[u], half_side[u], side_u)
                side_dir = sb - sa
                lu2 = _line_intersection_points(lw, d, sa, side_dir)
                ru2 = _line_intersection_points(rw, d, sa, side_dir)
                gate_pts[(u, w)] = {u: (ru2, lu2), w: (lw, rw)}

        gadget_obj = {}
        failed_at = None
        last_exc = None
        for v in vids:
            stubs = []
            for u in drawing.adj[v]:
                key = edge(v, u)
                gl, gr = gate_pts[key][v]
                stubs.append(ChannelStub(key=key,
                                         direction=drawing.direction(v, u),
                                         gate_left=gl, gate_right=gr))
            try:
                gadget_obj[v] = build_vertex_gadget(drawing.pos[v],
                                                    half_side[v], stubs)
            except EmptyFeasibleRegionError as exc:
                failed_at = v
                last_exc = exc
                break
        if failed_at is None:
            break
        for u in drawing.adj[failed_at]:
            scale[edge(failed_at, u)] /= 2
    else:
        raise EmptyFeasibleRegionError(
            f"vertex {failed_at}: {last_exc}",
            constraints=getattr(last_exc, "constraints", None))

    # channels with reflex chains; sag halved until the mouth audit passes
    channel_obj: dict[tuple[int, int], Channel] = {}
    for (u, w) in sorted(drawing.edges):
        gl_u, gr_u = gate_pts[(u, w)][u]
        gl_w, gr_w = gate_pts[(u, w)][w]
        # upper chain = wall left of u->w: runs from gl_u to gr_w
        axis = gr_w - gl_u
        hw = gl_u - gr_u
        sag0 = max(abs(hw.x), abs(hw.y)) / (Fraction(512) *
                                            max(abs(axis.x), abs(axis.y)))
        ch = None
        sag = sag0
        for _ in range(40):
            try:
                cand = build_channel((gl_u, gr_u), (gr_w, gl_w), sag)
            except InfeasibleSagError:
                sag /= 2
                continue
            if _channel_mouth_audit(cand, (u, w), gadget_obj, gate_pts, drawing) \
                    and capped_transform_replays(
                        cand, gadget_obj[u].points[gadget_obj[u].cap_of[(u, w)]],
                        far_end=False) \
                    and capped_transform_replays(
                        cand, gadget_obj[w].points[gadget_obj[w].cap_of[(u, w)]],
                        far_end=True):
                ch = cand
                break
            sag /= 2
        if ch is None:
            raise InfeasibleSagError(
                f"no feasible sag for channel {(u, w)}")
        channel_obj[(u, w)] = ch

    return _assemble(drawing, gadget_obj, channel_obj, gate_pts,
                     k_input, t_outer, validate_instance)


def _channel_mouth_audit(ch: Channel, key, gadget_obj, gate_pts, drawing) -> bool:
    """Caps stay in the sagged narrow mouths; everything else stays outside
    the sagged wide mouths; narrow nests inside wide."""
    u, w = key
    for end_vertex, end in ((u, 0), (w, 1)):
        mouths = channel_mouths(list(ch.upper), list(ch.lower), end)
        if not mouths.narrow.is_subset_of(mouths.wide):
            return False
        g = gadget_obj[end_vertex]
        cap_name = g.cap_of[key]
        for name, p in g.points.items():
            if name == cap_name:
                if not mouths.narrow.strictly_contains(p):
                    return False
            elif mouths.wide.contains(p):
                return False
        # pocket corners and sibling gate endpoints stay outside the wide mouth
        for p in g.corner_points.values():
            if mouths.wide.contains(p):
                return False
        for other in drawing.adj[end_vertex]:
            okey = edge(end_vertex, other)
            if okey == key:
                continue
            for q in gate_pts[okey][end_vertex]:
                if mouths.wide.contains(q):
                    return False
    return True


def _assemble(drawing, gadget_obj, channel_obj, gate_pts, k_input, t_outer,
              validate_instance):
    points: list[Point2] = []
    index: dict = {}

    def add_point(tag, p: Point2) -> int:
        if tag in index:
            return index[tag]
        index[tag] = len(points)
        points.append(p)
        return index[tag]

    channels: dict[tuple[int, int], ChannelRecord] = {}
    for key in sorted(channel_obj):
        ch = channel_obj[key]
        u, w = key
        upper = [add_point(("ch", key, "U", i), p) for i, p in enumerate(ch.upper)]
        lower = [add_point(("ch", key, "L", i), p) for i, p in enumerate(ch.lower)]
        channels[key] = ChannelRecord(
            key=key, upper=upper, lower=lower,
            gates={u: (upper[0], lower[0]), w: (upper[-1], lower[-1])},
            caps={}, cap_scripts={}, blocking={})

    gadgets: dict[int, GadgetRecord] = {}
    sym_maps: dict[int, dict] = {}
    for v in sorted(gadget_obj):
        g = gadget_obj[v]
        names = {}
        for name in ("C", "D", "E", "F"):
            names[name] = add_point(("gp", v, name), g.points[name])
        sym = dict(names)
        for kname in sorted(g.corner_points):
            sym[kname] = add_point(("corner", v, kname), g.corner_points[kname])
        for key in g.order_ccw:
            rec = channels[key]
            a_idx, b_idx = rec.gates[v]   # (upper-chain end, lower-chain end)
            u, w = key
            # gate_right of the stub is the upper chain end at u, the lower at w
            if v == u:
                sym[("L", key)] = a_idx   # gate_left at u = upper[0]
                sym[("R", key)] = b_idx
            else:
                sym[("R", key)] = a_idx   # wall left of u->w arrives right of w->u
                sym[("L", key)] = b_idx
        sym_maps[v] = sym
        gadgets[v] = GadgetRecord(
            vertex=v, degree=g.degree, points=names,
            lock=edge(names["C"], names["E"]),
            unlock_insert=edge(names["D"], names["F"]))
        for key in g.order_ccw:
            rec = channels[key]
            rec.caps[v] = names[g.cap_of[key]]
            rec.cap_scripts[v] = [
                FlipMove(edge(sym[a0], sym[a1]), edge(sym[b0], sym[b1]))
                for (a0, a1), (b0, b1) in g.cap_moves[key]]
            rec.blocking[v] = frozenset(
                edge(sym[a0], sym[a1]) for a0, a1 in g.blocking[key])

    # region boundary cycles from the drawing's faces; between consecutive
    # channel walls the cycle follows the pocket arc around the square
    faces = drawing.faces()
    cycles = []
    outer_cycle = None
    for face in faces:
        cyc: list[int] = []
        for i, (x, y) in enumerate(face):
            key = edge(x, y)
            rec = channels[key]
            if x == min(key):
                cyc.extend(rec.upper)          # wall left of min->max
            else:
                cyc.extend(reversed(rec.lower))
            y2, z = face[(i + 1) % len(face)]
            assert y2 == y
            arc = gadget_obj[y].arcs_ccw[(edge(y, z), edge(y, x))]
            cyc.extend(sym_maps[y][name] for name in reversed(arc))
        if drawing.face_area2(face) < 0:
            outer_cycle = cyc
        else:
            cycles.append(cyc)
    if outer_cycle is None:
        raise ValidationError("drawing has no outer face")

    if polygon_signed_area2([points[i] for i in outer_cycle]) < 0:
        outer_cycle = list(reversed(outer_cycle))
    holes = []
    for cyc in cycles:
        if polygon_signed_area2([points[i] for i in cyc]) > 0:
            cyc = list(reversed(cyc))
        holes.append(cyc)
    holes.extend([[gadgets[v].points[n]] for v in sorted(gadgets)
                  for n in ("C", "D", "E", "F")])

    region = PolygonalRegion(points, outer_cycle, holes)

    shared: set[Edge] = set(region.mandatory_edges)
    for v in sorted(gadget_obj):
        sym = sym_maps[v]
        for a, b, c in gadget_obj[v].triangles:
            ia, ib, ic = sym[a], sym[b], sym[c]
            shared |= {edge(ia, ib), edge(ib, ic), edge(ia, ic)}
    t1_edges = set(shared)
    t2_edges = set(shared)
    for key, rec in channels.items():
        t1_edges |= left_edges(rec.upper, rec.lower)
        t2_edges |= right_edges(rec.upper, rec.lower)
    t1 = Triangulation(region, t1_edges)
    t2 = Triangulation(region, t2_edges)

    inst = ReductionInstance(region=region, t1=t1, t2=t2, channels=channels,
                             gadgets=gadgets, k_input=k_input, t_outer=t_outer)
    if validate_instance:
        for name, t in (("t1", t1), ("t2", t2)):
            rep = validate(t)
            if not rep.ok:
                raise ValidationError(
                    f"{name} is not a valid triangulation: {rep.violations[:3]}")
        _blocking_audit(inst)
    return inst


def _blocking_audit(inst: ReductionInstance):
    """The construction's promised blocking structure, checked exactly."""
    for key, rec in inst.channels.items():
        for v, cap in rec.caps.items():
            gate = rec.gates[v]
            found = blocking_set(inst.t1, cap, edge(*gate))
            if found != set(rec.blocking[v]):
                raise ValidationError(
                    f"channel {key} at {v}: blocking set {sorted(found)} != "
                    f"declared {sorted(rec.blocking[v])}")
            if len(found) != 3:
                raise ValidationError(
                    f"channel {key} at {v}: blocking set has {len(found)} edges")
        g = inst.gadgets
        for v in rec.caps:
            lock = g[v].lock
            if lock not in rec.blocking[v]:
                raise ValidationError(f"lock {lock} missing from blocking set")


# ---------------------------------------------------------------------------
# scripts and audits

def cover_to_script(inst: ReductionInstance, cover) -> FlipScript:
    """The constructive direction: a vertex cover yields a flip script of
    length exactly 2|cover| + 28|E| from t1 to t2."""
    cover = set(cover)
    for key in inst.graph_edges:
        if not (set(key) & cover):
            raise NotACoverError(f"edge {key} is uncovered", edge=key)
    moves: list[FlipMove] = []
    for v in sorted(cover):
        g = inst.gadgets[v]
        moves.append(FlipMove(g.lock, g.unlock_insert))
    for key in inst.graph_edges:
        rec = inst.channels[key]
        u, w = key
        capper = u if u in cover else w
        cap_moves = rec.cap_scripts[capper]
        moves.extend(cap_moves)
        moves.extend(capped_transform_moves(
            rec.upper, rec.lower, rec.caps[capper],
            cap_at_far_end=(capper == w)))
        moves.extend(reverse_moves(cap_moves))
    for v in sorted(cover):
        g = inst.gadgets[v]
        moves.append(FlipMove(g.unlock_insert, g.lock))
    assert len(moves) == 2 * len(cover) + 28 * len(inst.channels)
    return FlipScript(inst.t1.canonical_key(), tuple(moves))


def audit_script(inst: ReductionInstance, script: FlipScript) -> AccountingReport:
    """Replay a script from t1 and extract the lemma accounting: the set of
    gadgets ever unlocked and the channels never capped."""
    t = inst.t1
    if script.start_key != t.canonical_key():
        raise IllegalScriptError("script does not start at t1", index=-1)
    locks = {inst.gadgets[v].lock: v for v in inst.gadgets}
    cap_pairs = []
    for key, rec in inst.channels.items():
        for v, cap in rec.caps.items():
            a, b = rec.gates[v]
            cap_pairs.append((key, edge(cap, a), edge(cap, b)))
    unlocked: set[int] = set()
    capped: set[tuple[int, int]] = set()

    def scan(edges):
        for key, ea, eb in cap_pairs:
            if key not in capped and ea in edges and eb in edges:
                capped.add(key)

    scan(t.edges)
    for i, m in enumerate(script.moves):
        try:
            t = t.apply_flip(m)
        except IllegalFlipError as exc:
            raise IllegalScriptError(f"move {i} ({m}) is illegal",
                                     index=i) from exc
        if m.removed in locks:
            unlocked.add(locks[m.removed])
        scan(t.edges)
    if t.edges != inst.t2.edges:
        raise IllegalScriptError("script does not end at t2",
                                 index=len(script.moves))
    return AccountingReport(
        unlocked=unlocked,
        uncapped=set(inst.channels) - capped,
        channel_count=len(inst.channels),
        script_length=len(script.moves),
    )


# ---------------------------------------------------------------------------
# point-set conversion

@dataclass
class PointSetInstance:
    point_set: PointSet
    t1: Triangulation
    t2: Triangulation
    multiplicity: int
    protected_edges: list[Edge]
    sliver_points: dict[Edge, list[int]]

    def to_doc(self) -> InstanceDoc:
        return InstanceDoc(domain=self.point_set, t1=self.t1, t2=self.t2,
                           accounting={"multiplicity": self.multiplicity,
                                       "protected_edges":
                                           sorted(map(list, self.protected_edges))})


def region_to_pointset(inst: ReductionInstance,
                       multiplicity: Optional[int] = None) -> PointSetInstance:
    """Convert the region instance to a point-set instance.

    Holes and hull pockets are triangulated identically in both outputs, and
    every former boundary edge not on the convex hull is shielded by a stack
    of `multiplicity` sliver points inside its adjacent free face, so
    dismantling it costs many flips.  Defaults to threshold + 1 slivers.
    """
    if multiplicity is None:
        multiplicity = inst.threshold + 1
    if multiplicity < 1:
        raise ValidationError("multiplicity must be at least 1")
    region = inst.region
    pts: list[Point2] = list(region.points)

    fill_edges: set[Edge] = set()
    fill_triangles: list = []
    for cyc in region.poly_holes:
        es, ts = ear_clip_with_triangles(region, list(cyc))
        fill_edges.update(es)
        fill_triangles.extend(ts)

    # hull pockets: stretches of the outer boundary strictly inside the hull
    hull = hull_cycle(region.ipoints)
    hull_set = set(hull)
    outer = list(region.outer)
    n_out = len(outer)
    starts = [i for i, v in enumerate(outer) if v in hull_set]
    if not starts:
        raise ValidationError("outer boundary has no hull vertex")
    for si, i in enumerate(starts):
        j = starts[(si + 1) % len(starts)]
        path = [outer[i]]
        k = i
        while k != j or len(path) == 1:
            k = (k + 1) % n_out
            path.append(outer[k])
            if len(path) > n_out + 1:
                raise ValidationError("hull walk failed")
        if len(path) > 2:
            es, ts = ear_clip_with_triangles(region, path)
            fill_edges.update(es)
            fill_triangles.extend(ts)
        else:
            fill_edges.add(edge(path[0], path[1]))

    base1 = set(inst.t1.edges) | fill_edges
    base2 = set(inst.t2.edges) | fill_edges

    # protected edges: boundary edges not on the hull
    hull_edges = {edge(hull[i], hull[(i + 1) % len(hull)])
                  for i in range(len(hull))}
    protected = sorted(e for e in region.mandatory_edges if e not in hull_edges)

    # the fill triangle resting on each protected edge supplies the sliver
    # apex; triangles carrying several protected sides are subdivided at
    # their centroid so each stack owns a private sub-triangle
    apex: dict[Edge, int] = {}
    protected_set = set(protected)
    for a, b, c in fill_triangles:
        sides = [(edge(a, b), c), (edge(a, c), b), (edge(b, c), a)]
        hot = [s for s in sides if s[0] in protected_set]
        if len(hot) <= 1:
            for e, x in sides:
                apex.setdefault(e, x)
            continue
        g = len(pts)
        pts.append(Point2((pts[a].x + pts[b].x + pts[c].x) / 3,
                          (pts[a].y + pts[b].y + pts[c].y) / 3))
        for base in (base1, base2):
            base.update({edge(a, g), edge(b, g), edge(c, g)})
        for e, _ in sides:
            apex[e] = g

    sliver_points: dict[Edge, list[int]] = {}
    for e in protected:
        a, b = e
        if e not in apex:
            raise ValidationError(f"no fill triangle on protected edge {e}")
        x = apex[e]
        mid = Point2((pts[a].x + pts[b].x) / 2, (pts[a].y + pts[b].y) / 2)
        toward = pts[x] - mid
        ids = []
        for k in range(1, multiplicity + 1):
            p = mid + toward.scale(Fraction(k, 4 * (multiplicity + 1)))
            ids.append(len(pts))
            pts.append(p)
        sliver_points[e] = ids
        # replace triangle (a, b, x) by the sliver stack in both outputs
        chain = ids + [x]
        stack_edges = {edge(a, ids[0]), edge(b, ids[0])}
        for p_cur, p_next in zip(chain, chain[1:]):
            stack_edges.add(edge(p_cur, p_next))
            stack_edges.add(edge(a, p_next))
            stack_edges.add(edge(b, p_next))
        base1.update(stack_edges)
        base2.update(stack_edges)

    ps = PointSet(pts)
    t1p = Triangulation(ps, base1)
    t2p = Triangulation(ps, base2)
    return PointSetInstance(point_set=ps, t1=t1p, t2=t2p,
                            multiplicity=multiplicity,
                            protected_edges=protected,
                            sliver_points=sliver_points)


@dataclass
class GadgetScripts:
    """Per-channel script bundle of one gadget end: the one-flip unlock, the
    two-flip cap, the full capped transform and the canonical half, plus
    their reversals via `reverse_moves`. For the vertex at the channel's far
    end (`vertex == max(channel)`) the canonical half is taken on the
    mirrored chains (`reversed(lower)`, `reversed(upper)`), so it reaches
    `canonical_capped_edges(upper[::-1], lower[::-1], cap)`."""

    unlock: list[FlipMove]
    cap: list[FlipMove]
    capped_transform: list[FlipMove]
    canonical_half: list[FlipMove]


def gadget_scripts(inst: ReductionInstance, vertex: int,
                   channel: tuple[int, int]) -> GadgetScripts:
    g = inst.gadgets[vertex]
    rec = inst.channels[channel]
    far = vertex == max(channel)
    upper, lower = list(rec.upper), list(rec.lower)
    if far:
        # seen from the far end the left-inclined state is mirrored, which
        # swaps the chains as well as reversing them
        upper, lower = list(reversed(lower)), list(reversed(upper))
    return GadgetScripts(
        unlock=[FlipMove(g.lock, g.unlock_insert)],
        cap=list(rec.cap_scripts[vertex]),
        capped_transform=capped_transform_moves(
            rec.upper, rec.lower, rec.caps[vertex], cap_at_far_end=far),
        canonical_half=left_to_canonical_moves(upper, lower, rec.caps[vertex]),
    )
