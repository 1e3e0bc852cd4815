"""End-to-end hardness instance pipeline.

Takes a 3-connected cubic planar graph to a strictly convex drawing (exact
Tutte embedding), replaces sharp outer vertices by 3-vertex chains, then turns
every edge into a channel and every vertex into a lock gadget, producing a
polygonal region with two triangulations whose flip distance encodes vertex
cover via the threshold 2*k' + 28*|E'|.

The assembled instance is audited exactly: both triangulations are
validated, and each cap's blocking set is found by walking t1 from the cap
(`gadgets.blocking_set`).  A script is audited by one in-place replay from
t1; edges enter only by insertion, so a channel is found capped by looking
up each inserted edge's partner cap edge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (EmptyFeasibleRegionError, EmptyRegionError,
                     IllegalScriptError, InfeasibleSagError,
                     InvalidOuterFaceError, Not3ConnectedError, NotACoverError,
                     NotPlanarError, SharpVertexError, ValidationError)
from .gadgets import (Channel, ChannelStub, VertexGadget, blocking_set,
                      build_channel, build_vertex_gadget,
                      capped_transform_moves, capped_transform_replays,
                      channel_mouths, inner_box, left_edges, reverse_moves,
                      right_edges)
from .geometry import (ConvexRegion, Point2, coord_bits, floor_log2,
                       halfplane_through, interior_point, on_grid,
                       orientation, polygon_signed_area2, sorted_ccw,
                       touching_pairs, turn_reaches_pi)
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
        self.edges = list(dict.fromkeys(tuple(sorted(e)) for e in self.edges))
        self.adj: dict[int, list[int]] = {v: [] for v in self.pos}
        for u, w in self.edges:
            self.adj[u].append(w)
            self.adj[w].append(u)
        # `pos` on its grid, each dart's direction and each vertex's
        # neighbours counterclockwise there, once: nothing moves `pos`
        grid, _ = on_grid(self.pos.values())
        at = self.grid = dict(zip(self.pos, grid))
        self.dirs, self.rot = {}, {}
        for v, ws in self.adj.items():
            vx, vy = at[v]
            dirs = self.dirs[v] = {w: (at[w][0] - vx, at[w][1] - vy)
                                   for w in ws}
            self.rot[v] = sorted_ccw(ws, dirs.__getitem__)

    def degree(self, v) -> int:
        return len(self.adj[v])

    def direction(self, v, w) -> Point2:
        return self.pos[w] - self.pos[v]

    def faces(self) -> list[list[tuple[int, int]]]:
        """Face cycles as dart lists, faces on the left of each dart."""
        return [list(zip(f, f[1:] + f[:1])) for f in walk_faces(self.rot, self.edges)]

    def face_area2(self, face) -> int:
        return polygon_signed_area2([self.grid[u] for u, _ in face])

    def sharp_vertices(self) -> list[int]:
        """Vertices with an incident angle of at least pi.

        Degree-3 vertices are sharp when a gap between consecutive edge
        directions reaches pi; degree-2 vertices only at exactly pi, where
        both gaps do.
        """
        out = []
        for v, ws in self.rot.items():
            around = [self.dirs[v][w] for w in ws]
            if len(around) <= 1:
                continue
            gaps = map(turn_reaches_pi, around, around[1:] + around[:1])
            if (all if len(around) == 2 else any)(gaps):
                out.append(v)
        return out


def convex_drawing(vertices: Sequence[int], edges: Sequence[tuple[int, int]],
                   outer: Optional[Sequence[int]] = None) -> PlanarGraphDrawing:
    """Exact Tutte (barycentric) drawing of a 3-connected planar graph.

    The outer face goes to rational points on a circle (strictly convex); the
    interior positions solve the uniform barycentric system exactly, which for
    3-connected planar graphs yields a plane drawing with strictly convex
    faces.  Audited by orientation predicates afterwards.

    Without `outer`, the outer face is the least face under
    `canonical_cycle`, drawn in that vertex order, so the drawing does not
    depend on the order of `vertices` or `edges`.
    """
    adj, faces = _embedding(vertices, edges)
    face_set = {canonical_cycle(f) for f in faces}
    if outer is not None:
        if not outer or canonical_cycle(outer) not in face_set:
            raise InvalidOuterFaceError(f"{list(outer)} is not a face")
        outer_cycle = list(outer)
    else:
        outer_cycle = list(min(face_set))

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
            a[i][i] = Fraction(len(adj[v]))
            for w in adj[v]:
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


def _embedding(vertices, edges) -> tuple[dict[int, set[int]], list[list[int]]]:
    """Adjacency sets of a simple, planar, 3-connected graph and the face
    cycles of its plane embedding, which is unique (Tutte, 1963).

    Duplicate edges merge.  Raises ValidationError for a self-loop or an
    edge to an undeclared vertex, then NotPlanarError, then
    Not3ConnectedError.
    """
    adj: dict[int, set[int]] = {v: set() for v in vertices}
    for u, w in edges:
        if u == w or u not in adj or w not in adj:
            raise ValidationError("graph must be simple")
        adj[u].add(w)
        adj[w].add(u)
    blocks = _blocks(adj)
    faces: list[list[int]] = []
    for block in blocks:
        if len(block) > 1:
            faces = _block_faces(block)
            if faces is None:
                raise NotPlanarError("graph is not planar")
    # 3-connected: at least 4 vertices, and G and every G - v are one block
    n = len(adj)
    if n < 4 or not _is_one_block(blocks, n) or not all(
            _is_one_block(_blocks(adj, skip=v), n - 1) for v in adj):
        raise Not3ConnectedError("graph is not 3-connected")
    return adj, faces


def _blocks(adj: dict[int, set[int]], skip=None) -> list[list[tuple[int, int]]]:
    """Edge lists of the biconnected components of the graph minus `skip`.

    Hopcroft and Tarjan's low-point search with an explicit stack, so a long
    path cannot reach the interpreter's recursion limit.
    """
    disc: dict[int, int] = {}
    low: dict[int, int] = {}
    blocks = []
    for root in adj:
        if root == skip or root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        edge_stack: list[tuple[int, int]] = []
        while stack:
            v, parent, it = stack[-1]
            for w in it:
                if w == skip or w == parent:
                    continue
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if disc[w] < disc[v]:
                    edge_stack.append((v, w))
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if parent is not None:
                    low[parent] = min(low[parent], low[v])
                    if low[v] >= disc[parent]:
                        block = []
                        while not block or block[-1] != (parent, v):
                            block.append(edge_stack.pop())
                        blocks.append(block)
    return blocks


def _is_one_block(blocks, n: int) -> bool:
    """True when `blocks` is a single block spanning `n` vertices."""
    return len(blocks) == 1 and len({v for e in blocks[0] for v in e}) == n


def _block_faces(block: list[tuple[int, int]]) -> Optional[list[list[int]]]:
    """Face cycles of a plane embedding of a biconnected graph, or None if
    the graph is not planar (Demoucron, Malgrange and Pertuiset, 1964).

    The embedded part H starts as a cycle with its two faces.  Each round
    finds the fragments of H: an unplaced edge between two vertices of H, or
    a component of the unplaced vertices with the edges to its attachments
    in H.  A fragment whose attachments lie on no single face cannot be
    placed.  Otherwise a fragment that fits the fewest faces has a path
    between two of its attachments drawn into one of them, splitting it.
    """
    adj: dict[int, set[int]] = {}
    for u, w in block:
        adj.setdefault(u, set()).add(w)
        adj.setdefault(w, set()).add(u)
    u0, w0 = block[0]
    cycle = _bfs_path(adj, u0, adj.keys() - {u0, w0}, {w0})
    faces = [cycle, cycle[::-1]]
    placed = set(cycle)
    placed_edges = {frozenset(e) for e in zip(cycle, cycle[1:] + cycle[:1])}
    while len(placed_edges) < len(block):
        fragments = [({u, w}, [u, w]) for u, w in block
                     if u in placed and w in placed
                     and frozenset((u, w)) not in placed_edges]
        unplaced = adj.keys() - placed
        while unplaced:
            comp = {unplaced.pop()}
            todo = list(comp)
            while todo:
                for w in adj[todo.pop()]:
                    if w not in placed and w not in comp:
                        comp.add(w)
                        todo.append(w)
            unplaced -= comp
            attach = {w for x in comp for w in adj[x] if w in placed}
            a = min(attach)
            fragments.append((attach, _bfs_path(adj, a, comp, attach - {a})))
        face_sets = [set(f) for f in faces]
        fits = [[i for i, fs in enumerate(face_sets) if attach <= fs]
                for attach, _ in fragments]
        if not all(fits):
            return None
        best = min(range(len(fragments)), key=lambda i: len(fits[i]))
        path = fragments[best][1]
        face = faces.pop(fits[best][0])
        i = face.index(path[0])
        face = face[i:] + face[:i]
        j = face.index(path[-1])
        faces.append(face[:j + 1] + path[-2:0:-1])
        faces.append(face[j:] + face[:1] + path[1:-1])
        placed.update(path)
        placed_edges.update(frozenset(e) for e in zip(path, path[1:]))
    return faces


def _bfs_path(adj, source, inside, targets) -> list[int]:
    """A shortest path from `source` into `inside`, through `inside` vertices
    only, to a vertex of `targets`."""
    parent = {source: None}
    queue = [source]
    for x in queue:
        for y in adj[x]:
            if y in targets and x != source:
                path = [y]
                while x is not None:
                    path.append(x)
                    x = parent[x]
                return path[::-1]
            if y in inside and y not in parent:
                parent[y] = x
                queue.append(y)
    raise ValueError("no path: the graph is not biconnected")


def _audit_convex_faces(drawing: PlanarGraphDrawing):
    at = drawing.grid
    for face in drawing.faces():
        cyc = [u for u, _ in face]
        n = len(cyc)
        want = -1 if drawing.face_area2(face) < 0 else 1
        for i in range(n):
            p, q, r = at[cyc[i]], at[cyc[(i + 1) % n]], at[cyc[(i + 2) % n]]
            if orientation(p, q, r) != want:
                raise ValidationError(
                    f"face {cyc} is not strictly convex in the drawing")


def drawing_from_coords(pos: dict[int, Point2], edges,
                        outer: Optional[Sequence[int]] = None) -> PlanarGraphDrawing:
    d = PlanarGraphDrawing(pos=dict(pos), edges=list(edges), outer_face=[])
    outer_face = next((f for f in d.faces() if d.face_area2(f) < 0), None)
    if outer_face is None:
        raise ValidationError("the drawing has no face of negative "
                              "area (collinear or coincident vertices)")
    d.outer_face = [u for u, _ in outer_face]
    if outer is not None:
        if not outer or canonical_cycle(outer) != canonical_cycle(d.outer_face):
            raise InvalidOuterFaceError(
                f"{list(outer)} is not the outer face of the drawing")
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
    origin = {}                      # chain vertex -> the vertex it replaced

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
        pre_sharp = _sharp_among(pos, edges, {u_prev, u_next, u_in})
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
        chain, new_pos, new_edges = placed
        pos.pop(v)
        pos.update(new_pos)
        edges = new_edges
        cycle[i:i + 1] = chain
        origin.update(dict.fromkeys(chain, v))
        next_id += 3
        t_count += 1

    out = PlanarGraphDrawing(pos=pos, edges=sorted(edges), outer_face=cycle)
    if out.sharp_vertices():
        raise SharpVertexError(
            f"replacement left sharp vertices {out.sharp_vertices()}")
    _audit_plane(out)
    if canonical_cycle(cycle) not in {canonical_cycle([u for u, _ in f])
                                      for f in out.faces()}:
        # name the first step of the cycle that is not an edge
        a, b = next(((a, b) for a, b in zip(cycle, cycle[1:] + cycle[:1])
                     if (min(a, b), max(a, b)) not in edges), cycle[:2])
        chain = f", in the chain of sharp vertex {origin[b]}" \
            if b in origin else ""
        raise SharpVertexError(
            f"the outer cycle is not a face of the drawing at vertex {b} "
            f"(after {a}){chain}")
    return out, t_count


def _place_chain(pos, edges, v, u_prev, u_next, u_in, t, next_id, pre_sharp):
    """Try one chain placement scale; None when the local audit fails.

    Returns the chain's three ids in their order along the outer cycle,
    from `u_prev` to `u_next`, with the new positions and edges."""
    p = pos[v]
    v1, v2, v3 = next_id, next_id + 1, next_id + 2
    d_in = pos[u_in] - p
    d_prev = pos[u_prev] - p
    d_next = pos[u_next] - p

    box = inner_box(p, Fraction(max(abs(d_prev.x), abs(d_prev.y))) * t / 2)
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
            return ((v1, v2, v3) if ua == u_prev else (v3, v2, v1),
                    new_pos, new_edges)
    return None


def _sharp_among(pos, edges, watch: set) -> set:
    """The sharp vertices of `watch`: a vertex's sharpness reads only its
    own edges, so a drawing of the edges incident to `watch` decides it."""
    local = [e for e in edges if e[0] in watch or e[1] in watch]
    probe = PlanarGraphDrawing(pos={k: pos[k] for e in local for k in e},
                               edges=local, outer_face=[])
    return watch & set(probe.sharp_vertices())


def _chain_audit(pos, new_pos, new_edges, touched, pre_sharp) -> bool:
    """True iff the chain `new_pos` keeps the drawing plane, is not sharp,
    and makes none of `touched[1:]` newly sharp (`pre_sharp` lists the ones
    sharp before).  Only the new edges can cross, so they are tested
    against the edges whose bounding boxes meet theirs."""
    allpos = {**pos, **new_pos}
    new_ids = set(new_pos)
    fresh = [e for e in new_edges if e[0] in new_ids or e[1] in new_ids]
    xs = [allpos[k].x for e in fresh for k in e]
    ys = [allpos[k].y for e in fresh for k in e]
    x_lo, x_hi, y_lo, y_hi = min(xs), max(xs), min(ys), max(ys)
    near = []
    for e in new_edges:
        (ax, ay), (bx, by) = allpos[e[0]], allpos[e[1]]
        if e not in fresh and max(ax, bx) >= x_lo and min(ax, bx) <= x_hi \
                and max(ay, by) >= y_lo and min(ay, by) <= y_hi:
            near.append(e)
    segs = fresh + near
    for i, j in touching_pairs(allpos, segs):
        e, f = set(segs[i]), set(segs[j])
        if new_ids & (e | f) and not e & f:
            return False
    # the chain must be non-sharp and no neighbor may become newly sharp
    bad = _sharp_among(allpos, new_edges, new_ids | set(touched[1:]))
    return not (bad & new_ids or bad - pre_sharp)


def _audit_plane(drawing: PlanarGraphDrawing):
    es = drawing.edges
    for i, j in touching_pairs(drawing.grid, es):
        if not set(es[i]) & set(es[j]):
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
    # build counters: `sag_halvings` and `narrowing_rounds`; not serialised
    stats: dict = field(default_factory=dict, compare=False)

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
        try:
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
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad gadget metadata: {exc!r}") from exc
        _check_metadata(channels, gadgets, len(doc.domain.points))
        acc = {} if doc.accounting is None else doc.accounting
        if not isinstance(acc, dict):
            raise ValidationError("bad accounting: expected an object, got "
                                  f"{type(acc).__name__}")
        counts = {name: acc.get(name, 0) for name in ("k_input", "t_outer")}
        for name, value in counts.items():
            if type(value) is not int or value < 0:
                raise ValidationError(f"bad accounting: {name} must be a "
                                      f"nonnegative integer, got {value!r}")
        t1, t2 = doc.pair
        return cls(region=doc.domain, t1=t1, t2=t2, channels=channels,
                   gadgets=gadgets, **counts)


def _check_metadata(channels: dict[tuple[int, int], ChannelRecord],
                    gadgets: dict[int, GadgetRecord], n_points: int) -> None:
    """Cross-check loaded gadget metadata: every channel end has a gadget
    record, both chains hold 7 points (a channel's 28 flips assume it),
    every per-end record is keyed by exactly the channel's two ends, every
    gate is an index pair, every cap script two moves, and every point
    index is in range."""
    def in_range(owner, indices):
        for i in indices:
            if type(i) is not int or not 0 <= i < n_points:
                raise ValidationError(
                    f"bad gadget metadata: {owner} names point {i!r}, "
                    f"not one of the {n_points} points")

    for key, rec in channels.items():
        for v in key:
            if v not in gadgets:
                raise ValidationError(f"bad gadget metadata: channel {key} "
                                      f"ends at {v!r}, which has no gadget")
        if len(rec.upper) != 7 or len(rec.lower) != 7:
            raise ValidationError(
                f"bad gadget metadata: channel {key} has chains of "
                f"{len(rec.upper)} and {len(rec.lower)} points, not 7")
        for name in ("gates", "caps", "cap_scripts", "blocking"):
            per_end = getattr(rec, name)
            for v in per_end:
                if v not in key:
                    raise ValidationError(
                        f"bad gadget metadata: channel {key} has {name} "
                        f"for {v}, which is not one of its ends")
            for v in key:
                if v not in per_end:
                    raise ValidationError(f"bad gadget metadata: channel "
                                          f"{key} has no {name} for {v}")
        for v, g in rec.gates.items():
            if len(g) != 2:
                raise ValidationError(
                    f"bad gadget metadata: channel {key} has gate {list(g)} "
                    f"at {v}, not an index pair")
        for v, ms in rec.cap_scripts.items():
            if len(ms) != 2:
                raise ValidationError(
                    f"bad gadget metadata: channel {key} has a "
                    f"{len(ms)}-move cap script at {v}, not 2")
        in_range(f"channel {key}", [
            *rec.upper, *rec.lower, *rec.caps.values(),
            *(i for g in rec.gates.values() for i in g),
            *(i for ms in rec.cap_scripts.values() for m in ms
              for e in m for i in e),
            *(i for bl in rec.blocking.values() for e in bl for i in e)])
    for v, g in gadgets.items():
        in_range(f"gadget {v!r}",
                 [*g.points.values(), *g.lock, *g.unlock_insert])


def instance_coord_bits(domain) -> int:
    return max(coord_bits(p) for p in domain.points)


def grid_bits(domain) -> int:
    """The largest bit length of the domain's integer grid coordinates:
    the cost of every exact predicate on it."""
    return max(abs(c).bit_length() for p in domain.ipoints for c in p)


def _shear_off_diagonals(drawing: PlanarGraphDrawing) -> PlanarGraphDrawing:
    """The drawing, or, when an edge runs at exactly 45 degrees (it would
    leave every vertex square through a corner), its image under the shear
    (x, y) -> (x + y/m, y) with the least m >= 2 that leaves no such edge.

    An edge rules out at most two values of m.  The shear is affine with
    determinant 1, so it keeps orientations: the drawing stays plane, its
    faces strictly convex and its sharp vertices the same.
    """
    dirs = [drawing.direction(u, w) for u, w in drawing.edges]
    if all(abs(d.x) != abs(d.y) for d in dirs):
        return drawing
    m = 2
    while any(abs(d.x + d.y / m) == abs(d.y) for d in dirs):
        m += 1
    out = PlanarGraphDrawing(
        pos={v: Point2(p.x + p.y / m, p.y) for v, p in drawing.pos.items()},
        edges=drawing.edges, outer_face=drawing.outer_face)
    _audit_plane(out)
    return out


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


def _gate_for(drawing, dirs, v, w, half,
              scale=Fraction(1)) -> tuple[Point2, Point2, Point2]:
    """Gate candidate (p1, left point, right point) for edge (v, w) at v.

    The gate half-width is a third of the distance to the nearest other
    crossing of incident edge lines (and their extensions) with the same
    square side, additionally capped at a 1/24 fraction of the square so all
    gadget feasible regions stay within the pocket.  `scale` narrows further
    when a gadget needs more room between nearly parallel strips.  `dirs`
    maps each dart to its direction.
    """
    p1, side = _square_crossing(drawing.pos[v], dirs[v, w], half)
    sa, sb = _side_line(drawing.pos[v], half, side)
    s_points = [sa, sb]
    for u in drawing.adj[v]:
        if u == w:
            continue
        d = dirs[v, u]
        for dd in (d, Point2(-d.x, -d.y)):
            q, qside = _square_crossing(drawing.pos[v], dd, half)
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
    d = dirs[v, w]      # g1 - pos[v] is off plus a positive multiple of d
    if (-d.y if sa.y == sb.y else d.x) > 0:     # d x off > 0: g1 is left
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
                   t_outer: int = 0) -> ReductionInstance:
    """Assemble the polygonal region, T1 (all channels left-inclined) and T2
    (all right-inclined) for a drawing with degrees in {2, 3} and no sharp
    vertices."""
    if k_input < 0:
        raise ValidationError(f"cover bound k must be nonnegative, got {k_input}")
    vids = sorted(drawing.pos)
    for v in vids:
        if drawing.degree(v) not in (2, 3):
            raise ValidationError(f"vertex {v} has degree {drawing.degree(v)}")
    if drawing.sharp_vertices():
        raise SharpVertexError(
            f"drawing has sharp vertices {drawing.sharp_vertices()}")

    drawing = _shear_off_diagonals(drawing)
    dirs = {(v, w): drawing.direction(v, w)
            for v, ws in drawing.adj.items() for w in ws}

    # one square size, comfortably smaller than the shortest edge; with no
    # diagonal edge, no edge leaves a square through a corner
    half = min(max(abs(dirs[u, w].x), abs(dirs[u, w].y))
               for u, w in drawing.edges) / 8

    # gates (the narrower of the two end candidates wins per edge) and vertex
    # gadgets; when a gadget has no room between nearly parallel strips, its
    # incident channels are narrowed and everything is recomputed
    scale: dict[tuple[int, int], Fraction] = {e: Fraction(1)
                                              for e in map(tuple, map(sorted, drawing.edges))}
    gate_pts: dict[tuple[int, int], dict[int, tuple[Point2, Point2]]] = {}
    gadget_obj: dict[int, VertexGadget] = {}
    for attempt in range(30):
        gate_pts = {}
        for (u, w) in sorted(drawing.edges):
            d = dirs[u, w]
            width, walls = {}, {}
            for x, y in ((u, w), (w, u)):
                p1, left, right = _gate_for(drawing, dirs, x, y, half,
                                            scale[(u, w)])
                width[x] = abs((left - p1).cross(d))
                walls[x] = (left, right)
            # carry the narrower end's walls across to the other end's square
            # side, where left of (a -> b) arrives as right of (b -> a)
            a, b = (u, w) if width[u] <= width[w] else (w, u)
            left, right = walls[a]
            _, side = _square_crossing(drawing.pos[b], dirs[b, a], half)
            sa, sb = _side_line(drawing.pos[b], half, side)
            gate_pts[(u, w)] = {a: (left, right), b: tuple(
                _line_intersection_points(p, d, sa, sb - sa)
                for p in (right, left))}

        gadget_obj = {}
        failed_at = None
        last_exc = None
        for v in vids:
            stubs = []
            for u in drawing.adj[v]:
                key = edge(v, u)
                gl, gr = gate_pts[key][v]
                stubs.append(ChannelStub(key=key,
                                         direction=dirs[v, u],
                                         gate_left=gl, gate_right=gr))
            try:
                gadget_obj[v] = build_vertex_gadget(drawing.pos[v],
                                                    half, stubs)
            except EmptyFeasibleRegionError as exc:
                failed_at = v
                last_exc = exc
                break
        if failed_at is None:
            narrowing_rounds = attempt
            break
        for u in drawing.adj[failed_at]:
            scale[edge(failed_at, u)] /= 2
    else:
        raise EmptyFeasibleRegionError(f"vertex {failed_at}: {last_exc}")

    # channels with reflex chains; sag halved until the mouth audit passes
    channel_obj: dict[tuple[int, int], Channel] = {}
    sag_halvings = 0
    for (u, w) in sorted(drawing.edges):
        gl_u, gr_u = gate_pts[(u, w)][u]
        gl_w, gr_w = gate_pts[(u, w)][w]
        # upper chain = wall left of u->w: runs from gl_u to gr_w
        axis = gr_w - gl_u
        hw = gl_u - gr_u
        # a power of two, so every halving keeps the chain points dyadic
        sag = Fraction(2) ** floor_log2(
            max(abs(hw.x), abs(hw.y))
            / (512 * max(abs(axis.x), abs(axis.y))))
        ch = None
        for halvings in range(40):
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
        sag_halvings += halvings

    inst = _assemble(drawing, gadget_obj, channel_obj, k_input, t_outer)
    inst.stats = {"sag_halvings": sag_halvings,
                  "narrowing_rounds": narrowing_rounds}
    return inst


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
                if not mouths.narrow.contains(p):
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


def _assemble(drawing, gadget_obj, channel_obj, k_input, t_outer):
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
    outer_cycle = None
    holes = []
    for face in drawing.faces():
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
        # the face walk keeps the face, not the region, on its left
        cyc.reverse()
        if drawing.face_area2(face) < 0:
            outer_cycle = cyc
        else:
            holes.append(cyc)
    if outer_cycle is None:
        raise ValidationError("drawing has no outer face")
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
    unknown = cover - inst.gadgets.keys()
    if unknown:
        raise ValidationError(
            f"cover names vertices {sorted(unknown)} that are not in the graph")
    for key in inst.graph_edges:
        if not (set(key) & cover):
            raise NotACoverError(f"edge {key} is uncovered")
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
    gadgets ever unlocked and the channels never capped.  The replay is
    one in-place `FlipScript.replay`, which checks each inserted edge
    against its partner cap edges; t1 must pass `validate` first, so that
    the replay starts from its faces."""
    t = inst.t1
    if script.start_key != t.canonical_key():
        raise IllegalScriptError("script does not start at t1", index=-1)
    rep = validate(t)
    if not rep.ok:
        raise ValidationError(f"t1 is not a valid triangulation: "
                              f"{rep.violations[:3]}")
    locks = {inst.gadgets[v].lock: v for v in inst.gadgets}
    unlocked: set[int] = set()
    capped: set[tuple[int, int]] = set()
    # each cap edge, with the channel it caps and the other edge it needs;
    # edges enter only by insertion, so only an inserted edge can cap
    partners: dict[Edge, list[tuple[tuple[int, int], Edge]]] = {}
    for key, rec in inst.channels.items():
        for v, cap in rec.caps.items():
            a, b = rec.gates[v]
            ea, eb = edge(cap, a), edge(cap, b)
            if ea in t.edges and eb in t.edges:
                capped.add(key)
            partners.setdefault(ea, []).append((key, eb))
            partners.setdefault(eb, []).append((key, ea))

    def on_flip(m, edges):
        if m.removed in locks:
            unlocked.add(locks[m.removed])
        for key, other in partners.get(m.inserted, ()):
            if other in edges:
                capped.add(key)

    t = script.replay(t, on_flip)
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
