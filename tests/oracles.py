"""Slow reference implementations that the tests compare fast paths
against, and the greedy walk that only the tests use."""

from fractions import Fraction
from math import ceil, floor
from typing import NamedTuple

import networkx as nx

from flipdist.errors import (CapExceededError, DomainMismatchError,
                             IllegalFlipError, Not3ConnectedError,
                             NotPlanarError, ValidationError)
from flipdist.gadgets import channel_region
from flipdist.geometry import (HalfPlane, Point2, _collinear_overlap,
                               _in_box, floor_log2, on_segment, orientation,
                               point_in_cycle, polygon_signed_area2,
                               segments_share_interior, sorted_ccw,
                               touching_pairs)
from flipdist.reduction import PlanarGraphDrawing
from flipdist.search import FlipScript, _FlipKernel
from flipdist.triangulation import (Edge, Triangulation, ValidationReport,
                                    _certificate, _DomainBase, canonical_cycle,
                                    edge, quad_sides, tri, walk_faces)


def sorted_rotations(domain, edges) -> dict[int, list[int]]:
    """Neighbors of every vertex in counterclockwise angular order."""
    adj: dict[int, list[int]] = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    ip = domain.ipoints

    def around(v):
        vx, vy = ip[v]
        return lambda w: (ip[w][0] - vx, ip[w][1] - vy)

    # overlapping directions fall back to the neighbour index
    return {v: sorted_ccw(sorted(ws), around(v)) for v, ws in adj.items()}


def derive_triangles_by_faces(domain, edges) -> frozenset:
    """The faces that `triangulation.derive_apexes` must give, by the
    oracle `apexes_by_side`: the triangular faces of the edges' rotation
    system, sorted by angle around every vertex and
    walked.  Non-triangular faces must be the domain's boundary cycles;
    any other raises ValidationError, as does a degenerate triangle."""
    expected = {canonical_cycle(c) for c in domain.boundary_cycles}
    triangles = set()
    for face in walk_faces(sorted_rotations(domain, edges), sorted(edges)):
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


def triangle_apexes(triangles) -> dict[Edge, list[int]]:
    """Every side of the triangles, with the apexes opposite it."""
    apexes: dict[Edge, list[int]] = {}
    for a, b, c in triangles:
        apexes.setdefault(edge(a, b), []).append(c)
        apexes.setdefault(edge(a, c), []).append(b)
        apexes.setdefault(edge(b, c), []).append(a)
    return apexes


def apexes_by_side(domain, edges, triangles) -> dict[Edge, list]:
    """The oracle of `triangulation.derive_apexes`: every edge's apexes in
    a family of triangles, `[left, right]`, each put on its side by its own
    orientation; a side with none is None."""
    apexes: dict[Edge, list] = {e: [None, None] for e in edges}
    for a, b, c in triangles:       # sorted, so each side's pair is too
        for u, v, w in ((a, b, c), (a, c, b), (b, c, a)):
            apexes[(u, v)][domain.orient(u, v, w) < 0] = w
    return apexes


def validate_by_segments(t) -> ValidationReport:
    """The O(E·n) oracle of `triangulation.validate`: every non-boundary
    edge must pass `segment_inside`, which tests it against every
    boundary edge and every point, before the faces are counted.  The
    triangles come from the face walk (`derive_triangles_by_faces`), so
    nothing here shares the library's triangle derivation."""
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
        if e not in domain.mandatory_edges and not segment_inside(domain, *e):
            report.add(f"edge {e} does not lie inside the domain")

    all_edges = sorted(t.edges)
    for i, j in touching_pairs(domain.ipoints, all_edges):
        e, f = all_edges[i], all_edges[j]
        if e in domain.mandatory_edges:
            e, f = f, e
        report.add(f"edges {e} and {f} "
                   f"{'overlap' if {*e} & {*f} else 'cross'}")

    if len(t.edges) != domain.expected_edge_count:
        report.add(f"edge count {len(t.edges)} != maximal count "
                   f"{domain.expected_edge_count} (not a triangulation)")

    if report.ok:
        try:
            tris = derive_triangles_by_faces(domain, t.edges)
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


def validate_with_sweep(t) -> ValidationReport:
    """The oracle of `triangulation.validate` that sweeps every pair of
    touching edges before the edge count and the local certificate, on
    valid input too.  It checks that order, so it runs the library's
    certificate (`_certificate`) itself."""
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

    all_edges = sorted(t.edges)
    for i, j in touching_pairs(domain.ipoints, all_edges):
        e, f = all_edges[i], all_edges[j]
        if e in domain.mandatory_edges:
            e, f = f, e
        report.add(f"edges {e} and {f} "
                   f"{'overlap' if {*e} & {*f} else 'cross'}")

    if len(t.edges) != domain.expected_edge_count:
        report.add(f"edge count {len(t.edges)} != maximal count "
                   f"{domain.expected_edge_count} (not a triangulation)")
    if not report.ok:
        return report

    report.violations += _certificate(t)
    return report


def canonical_cycle_all_rotations(cycle) -> tuple:
    """The oracle of `triangulation.canonical_cycle`: the least of all
    rotations of the cycle and of its reversal."""
    best = None
    n = len(cycle)
    for seq in (list(cycle), list(reversed(cycle))):
        for s in range(n):
            cand = tuple(seq[(s + i) % n] for i in range(n))
            if best is None or cand < best:
                best = cand
    return best


def edges_crossing_segment(t, p, q) -> set:
    """The oracle of `triangulation.walk_segment`'s crossed edges: every
    edge of t properly crossing the open segment p-q, by a scan.

    Every point's side of line pq is computed once; only an edge whose
    endpoints lie strictly on opposite sides can cross, and only such an
    edge has p and q tested against its own line.
    """
    ip = t.domain.ipoints
    a, b = ip[p], ip[q]
    side = [orientation(a, b, c) for c in ip]
    out = set()
    for (u, v) in t.edges:
        if side[u] * side[v] < 0:
            c, d = ip[u], ip[v]
            if orientation(c, d, a) * orientation(c, d, b) < 0:
                out.add((u, v))
    return out


def edges_crossing_segment_four_tests(t, p, q) -> set:
    """The oracle of `edges_crossing_segment`: the four orientation tests
    of a proper crossing on every edge not incident to p or q."""
    ip = t.domain.ipoints
    a, b = ip[p], ip[q]
    out = set()
    for (u, v) in t.edges:
        if u in (p, q) or v in (p, q):
            continue
        c, d = ip[u], ip[v]
        o1 = orientation(a, b, c)
        o2 = orientation(a, b, d)
        o3 = orientation(c, d, a)
        o4 = orientation(c, d, b)
        if o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4):
            out.add((u, v))
    return out


class SidedHalfPlane(NamedTuple):
    """{p : a*x + b*y + c > 0}, or >= 0 when not strict."""

    a: Fraction
    b: Fraction
    c: Fraction
    strict: bool = True

    def value(self, p):
        return self.a * p.x + self.b * p.y + self.c

    def contains(self, p):
        v = self.value(p)
        return v > 0 if self.strict else v >= 0


def coarsest_dyadic_by_scan(lo, hi):
    """The oracle of `between_on_fractions` on two bounds lo < hi: the powers
    of two 2^s are scanned downward from one above the bounds' size, and
    the first with a multiple in the middle half [lo + w/4, hi - w/4],
    w = hi - lo, gives the answer, so no coarser dyadic lies there."""
    a, b = lo + (hi - lo) / 4, hi - (hi - lo) / 4
    if a <= 0 <= b:
        return Fraction(0)
    # 2^s > |a| and |b|, so the only multiple of 2^s near them is 0
    s = max(abs(a), abs(b)).numerator.bit_length() + 1
    while True:
        q = ceil(a / Fraction(2) ** s) * Fraction(2) ** s
        if q <= b:
            return q
        s -= 1


def fourier_motzkin_with_strictness(constraints):
    """The oracle of `geometry._fourier_motzkin_point`: two-variable
    Fourier-Motzkin elimination over a mix of open and closed half-planes
    (`SidedHalfPlane`), keeping strictness when bounds are combined.  Open
    bounds on both sides pick `coarsest_dyadic_by_scan`, one bound the
    integer one past it."""
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
        y = y_lo[0] if y_lo[0] == y_hi[0] else \
            coarsest_dyadic_by_scan(y_lo[0], y_hi[0])
    elif y_lo is not None:
        y = Fraction(floor(y_lo[0]) + 1)
    elif y_hi is not None:
        y = Fraction(ceil(y_hi[0]) - 1)
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
        x = x_lo[0] if x_lo[0] == x_hi[0] else \
            coarsest_dyadic_by_scan(x_lo[0], x_hi[0])
    elif x_lo is not None:
        x = Fraction(floor(x_lo[0]) + 1)
    elif x_hi is not None:
        x = Fraction(ceil(x_hi[0]) - 1)
    else:
        x = Fraction(0)
    p = Point2(x, y)
    assert all(h.contains(p) for h in constraints)
    return p


def is_subset_by_closed_complement(inner, outer) -> bool:
    """The oracle of `ConvexRegion.is_subset_of` on two regions' open
    half-planes: inner is empty, or meets no closed complement {h <= 0} of
    a constraint of outer."""
    opened = [SidedHalfPlane(h.a, h.b, h.c) for h in inner]
    if fourier_motzkin_with_strictness(opened) is None:
        return True
    return all(fourier_motzkin_with_strictness(
        opened + [SidedHalfPlane(-h.a, -h.b, -h.c, False)]) is None
        for h in outer)


def embedding_faces_by_networkx(vertices, edges) -> set:
    """The networkx oracle of `reduction._embedding`, the graph checks of
    `convex_drawing`: raises what it raises, in the same order, or returns
    the `canonical_cycle` keys of the faces of the unique plane embedding."""
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
    return {canonical_cycle(embedding.traverse_face(u, w))
            for u in embedding for w in embedding[u]}


def flip_graph_by_triangulations(seed):
    """Flip-graph nodes (canonical key -> sorted tuple of edges) and
    adjacency (key -> sorted neighbour keys) reachable from `seed`, built
    from `Triangulation.legal_flips` and `apply_flip` alone: the oracle of
    `search.enumerate_flip_graph`.  The last node found is expanded first,
    as there, so the node order and the adjacency order compare too."""
    nodes = {seed.canonical_key(): tuple(sorted(seed.edges))}
    adjacency, stack = {}, [seed]
    while stack:
        t = stack.pop()
        nbrs = []
        for m in t.legal_flips():
            t_new = t.apply_flip(m)
            nbrs.append(t_new.canonical_key())
            if nbrs[-1] not in nodes:
                nodes[nbrs[-1]] = tuple(sorted(t_new.edges))
                stack.append(t_new)
        adjacency[t.canonical_key()] = sorted(nbrs)
    return nodes, adjacency


def angular_key(d):
    """The oracle of `geometry.ccw_compare`: a sort key ordering directions
    `(x, y)` counterclockwise from +x, by half-turn and then by the
    `Fraction` -x/y, which grows with the angle within a half-turn."""
    x, y = d
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    if y == 0:
        return (half, 0, Fraction(0))
    return (half, 1, Fraction(-x, y))


def between_on_fractions(lo, hi):
    """The oracle of `geometry._between`, on `Fraction` bounds (None for no
    bound on a side): the coarsest dyadic in the middle half of (lo, hi),
    its step 2^(floor_log2(w/2) + 1) halved once when no multiple of it
    lies there, or the integer past a lone bound, or 0."""
    if lo is None:
        return Fraction(0) if hi is None else Fraction(ceil(hi) - 1)
    if hi is None:
        return Fraction(floor(lo) + 1)
    if lo >= hi:
        return None
    quarter = (hi - lo) / 4
    a, b = lo + quarter, hi - quarter
    step = Fraction(2) ** (floor_log2(b - a) + 1)
    q = ceil(a / step) * step
    if q > b:
        step /= 2
        q = ceil(a / step) * step
    return q


def chain_by_point_arithmetic(p_from, p_to, other_side, sag, n):
    """The oracle of `gadgets.build_channel`'s chains: the chain from
    p_from to p_to bulging away from other_side, each point built with
    `Point2` arithmetic as p_from + axis * i/(n-1) + perp * sag*i*(n-1-i)."""
    axis = p_to - p_from
    perp = axis.perp()
    if orientation(p_from, p_to, other_side) < 0:
        perp = Point2(-perp.x, -perp.y)
    return tuple(p_from + axis.scale(Fraction(i, n - 1))
                 + perp.scale(sag * i * (n - 1 - i)) for i in range(n))


def reflex_report_by_fractions(ch):
    """The oracle of `gadgets.channel_invariant_report`'s reflex checks:
    its two messages, each chain decided against the `Fraction` centroid
    of all chain points."""
    pts = ch.upper + ch.lower
    centroid = Point2(sum((p.x for p in pts), Fraction(0)) / len(pts),
                      sum((p.y for p in pts), Fraction(0)) / len(pts))

    def reflex(c):
        return all(0 != orientation(c[i - 1], c[i + 1], c[i])
                   == orientation(c[i - 1], c[i + 1], centroid)
                   for i in range(1, len(c) - 1))

    return [f"{name} chain is not strictly reflex toward the interior"
            for name, c in (("upper", ch.upper), ("lower", ch.lower))
            if not reflex(c)]


def fourier_motzkin_on_fractions(constraints):
    """The oracle of `geometry._fourier_motzkin_point` on `HalfPlane`s:
    the same elimination with every coefficient and bound a `Fraction`."""
    lowers = [h for h in constraints if h.a > 0]
    uppers = [h for h in constraints if h.a < 0]
    derived = [(h.b, h.c) for h in constraints if h.a == 0]
    for lo in lowers:
        for up in uppers:
            derived.append((-up.a * lo.b + lo.a * up.b,
                            -up.a * lo.c + lo.a * up.c))
    if any(b == 0 and c <= 0 for b, c in derived):
        return None
    y = between_on_fractions(
        max((-c / b for b, c in derived if b > 0), default=None),
        min((-c / b for b, c in derived if b < 0), default=None))
    if y is None:
        return None
    x = between_on_fractions(
        max(((-h.c - h.b * y) / h.a for h in lowers), default=None),
        min(((-h.c - h.b * y) / h.a for h in uppers), default=None))
    if x is None:
        return None
    p = Point2(x, y)
    assert all(side_by_fractions(h, p) > 0 for h in constraints)
    return p


def is_subset_on_fractions(inner, outer) -> bool:
    """The oracle of `ConvexRegion.is_subset_of` on two regions' `Fraction`
    half-planes: inner meets no open complement {h < 0} of outer's."""
    return all(fourier_motzkin_on_fractions(
        tuple(inner) + (HalfPlane(-h.a, -h.b, -h.c),)) is None
        for h in outer)


def point_location(region, q2) -> int:
    """+1 strictly inside the region, 0 on a boundary, -1 outside, for a
    point `q2` on the region's grid doubled."""
    def doubled(cycle):
        return [(2 * region.ipoints[i][0], 2 * region.ipoints[i][1])
                for i in cycle]

    loc = point_in_cycle(q2, doubled(region.outer))
    if loc <= 0:
        return loc
    for h in region.poly_holes:
        hl = point_in_cycle(q2, doubled(h))
        if hl == 0:
            return 0
        if hl > 0:
            return -1
    return 1


def segment_inside(region, i: int, j: int) -> bool:
    """True iff segment ij can be an edge of a triangulation of the
    region: a boundary edge, or an open segment in the region's interior.

    The open segment must touch no boundary edge and pass through no
    point hole; a boundary vertex inside it would touch that vertex's
    own edges.  It then lies wholly inside the region or wholly outside,
    and its start decides which: it leaves `i` strictly inside the
    boundary's corner at `i` (darts keep the region on their left), and
    from a point hole every direction leads inside.
    """
    if edge(i, j) in region.mandatory_edges:
        return True
    ip = region.ipoints
    a, b = ip[i], ip[j]
    for u, v in region.mandatory_edges:
        if segments_share_interior(a, b, ip[u], ip[v]):
            return False
    for k in region.point_holes:
        if k not in (i, j) and on_segment(ip[k], a, b):
            return False
    corner = next(((c[k - 1], c[(k + 1) % len(c)])
                   for c in region.boundary_cycles
                   for k in range(len(c)) if c[k] == i), None)
    if corner is None:
        return True
    prev, nxt = ip[corner[0]], ip[corner[1]]
    left_of_out = orientation(a, nxt, b) > 0
    left_of_in = orientation(prev, a, b) > 0
    if orientation(prev, a, nxt) >= 0:      # convex or straight corner
        return left_of_out and left_of_in
    return left_of_out or left_of_in


def segment_inside_by_midpoint(region, i, j) -> bool:
    """The oracle of `segment_inside`: a boundary edge, or
    an open segment that touches no boundary edge, holds no point of the
    region and has its midpoint strictly inside, by `point_location`."""
    if edge(i, j) in region.mandatory_edges:
        return True
    ip = region.ipoints
    a, b = ip[i], ip[j]
    for u, v in region.mandatory_edges:
        if segments_share_interior(a, b, ip[u], ip[v]):
            return False
    if any(on_segment(ip[k], a, b) for k in range(len(ip)) if k not in (i, j)):
        return False
    return point_location(region, (a[0] + b[0], a[1] + b[1])) > 0


def segment_in_domain_by_pieces(region, p, q) -> bool:
    """The oracle of `triangulation.walk_segment` staying in the domain:
    the points on the closed segment pq, in order along it, cut it into
    pieces, and each piece must pass `segment_inside`."""
    ip = region.ipoints
    a, b = ip[p], ip[q]
    on = sorted((k for k in range(len(ip)) if on_segment(ip[k], a, b)),
                key=lambda k: abs(ip[k][0] - a[0]) + abs(ip[k][1] - a[1]))
    return all(segment_inside(region, u, v) for u, v in zip(on, on[1:]))


def check_nesting_unfiltered(region):
    """The oracle of `PolygonalRegion._check_nesting`: the same checks and
    messages, locating every hole's first vertex with `point_in_cycle`
    against every other cycle, each pair of holes both ways."""
    ip = region.ipoints
    outer = [ip[i] for i in region.outer]
    for h in list(region.poly_holes) + [[p] for p in region.point_holes]:
        if point_in_cycle(ip[h[0]], outer) <= 0:
            raise ValidationError(
                f"hole vertex {h[0]} is not strictly inside the outer boundary")
    for h1 in region.poly_holes:
        cyc = [ip[i] for i in h1]
        for h2 in region.poly_holes:
            if h2 is not h1 and point_in_cycle(ip[h2[0]], cyc) > 0:
                raise ValidationError("nested holes")
        for p in region.point_holes:
            if point_in_cycle(ip[p], cyc) > 0:
                raise ValidationError(f"point hole {p} inside a polygonal hole")


def segments_share_interior_four_orientations(a, b, c, d,
                                              orient=orientation) -> bool:
    """The oracle of `geometry.segments_share_interior`: all four
    orientations first, then the endpoint and collinear cases."""
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    if o1 and o2 and o3 and o4:
        return o1 != o2 and o3 != o4
    if (o1 == 0 and c != a and c != b and _in_box(c, a, b)) \
            or (o2 == 0 and d != a and d != b and _in_box(d, a, b)) \
            or (o3 == 0 and a != c and a != d and _in_box(a, c, d)) \
            or (o4 == 0 and b != c and b != d and _in_box(b, c, d)):
        return True
    return o1 == o2 == o3 == o4 == 0 and _collinear_overlap(a, b, c, d)


def flip_is_convex_four_orientations(domain, u, v, x, y) -> bool:
    """The oracle of `triangulation.flip_is_convex`: the quadrilateral
    u, x, v, y turns the same strict way at all four corners."""
    orient = domain.orient
    s = orient(u, x, v)
    return s != 0 and orient(x, v, y) == s and orient(v, y, u) == s \
        and orient(y, u, x) == s


def chain_pair_blocked_by_segments(ch):
    """The oracle of `gadgets.channel_invariant_report`'s visibility check:
    the first chain pair (i, j), upper then lower, that fails
    `segment_inside` in the channel's own region, or None
    when every pair sees each other."""
    region = channel_region(ch)
    n = ch.n
    for i in range(n):
        for j in range(n, 2 * n):
            if not segment_inside(region, i, j):
                return i, j
    return None


def apply_flip_by_copy(t, move):
    """The oracle of `triangulation.replay` for one move: a new
    triangulation with a fresh copy of the apex map, five entries changed."""
    removed, inserted = move
    aps = t.edge_apexes().get(removed)
    if aps is None or len(aps) != 2 or edge(*aps) != inserted \
            or not flip_is_convex_four_orientations(t.domain, *removed, *aps):
        raise IllegalFlipError(f"illegal flip {move}")
    apexes = t.edge_apexes().copy()
    del apexes[removed]
    apexes[inserted] = list(removed)
    for side, old, new in quad_sides(removed, inserted):
        apexes[side] = [new if w == old else w for w in apexes[side]]
    child = Triangulation(t.domain, (t.edges - {removed}) | {inserted})
    child._apexes = apexes
    return child


def replay_by_copies(t, moves):
    """The oracle of `triangulation.replay`: the chain of
    `apply_flip_by_copy` calls, one triangulation per move.  Returns the
    end, or the index of the first illegal move."""
    for i, m in enumerate(moves):
        try:
            t = apply_flip_by_copy(t, m)
        except IllegalFlipError:
            return i
    return t


def hull_cycle_by_scans(ipoints) -> list[int]:
    """The oracle of `triangulation.hull_cycle`: the strict monotone-chain
    corners, then, per hull side, every point found on it by an
    `on_segment` scan over all points, sorted by its distance from the
    side's first corner; O(corners · n)."""
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
                 and on_segment(ipoints[i], ipoints[a], ipoints[b])]
        onway.sort(key=lambda i: (abs(ipoints[i][0] - ipoints[a][0]),
                                  abs(ipoints[i][1] - ipoints[a][1])))
        cycle.append(a)
        cycle.extend(onway)
    return cycle


class PointSetByFormulas(_DomainBase):
    """The oracle of `PointSet`: a domain of its own whose boundary, counts
    and area come from the point-set formulas over the hull cycle, and whose
    `segment_inside` scans every point for one inside the open segment."""

    def __init__(self, points):
        self.points = tuple(points)
        self._setup_grid()
        cycle = hull_cycle_by_scans(self.ipoints)
        self.boundary_cycles = [cycle]
        self.mandatory_edges = frozenset(
            edge(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle)))
        b = len(cycle)
        self.expected_edge_count = 3 * len(self.points) - b - 3
        self.expected_triangle_count = 2 * len(self.points) - b - 2
        self.area2 = polygon_signed_area2([self.ipoints[i] for i in cycle])

    def segment_inside(self, i, j) -> bool:
        a, b = self.ipoints[i], self.ipoints[j]
        return not any(on_segment(self.ipoints[k], a, b)
                       for k in range(len(self.ipoints)) if k not in (i, j))


def greedy_upper_bound(t1, t2, move_cap=None) -> FlipScript:
    """Heuristic script from t1 to t2, an upper bound on their flip
    distance: prefer flips that create target edges.

    Hill-climbs on the edge difference with deterministic tie-breaking (the
    flip's `FlipMove` order) and a seen-state guard for plateau escapes,
    on the flip kernel: a candidate's state is its mask, and only the flip
    taken builds a child.  No approximation guarantee is claimed beyond
    convex polygons; raises CapExceededError past the cap.
    """
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    if move_cap is None:
        move_cap = 8 * len(t1.domain.points) ** 2 + 64
    kernel = _FlipKernel(t1.domain)
    delta, inserted = kernel.delta, kernel.inserted
    goal, target, _ = kernel.state(t2)
    target = frozenset(target)
    mask, ids, opp = kernel.state(t1)
    seen = {mask}
    moves = []
    while mask != goal:
        if len(moves) >= move_cap:
            raise CapExceededError(f"no script within {move_cap} moves")
        # a flip that inserts a target edge first, one that removes one
        # last; ids sort like the edges, so ties go by the removed edge
        for _, i in sorted(((ids[i] in target) - (inserted[f] in target), i)
                           for i, f in enumerate(opp) if f >= 0):
            f = opp[i]
            m_new = mask ^ delta[f]
            if m_new not in seen:
                break
        else:
            raise CapExceededError("greedy walk ran out of unvisited states")
        seen.add(m_new)
        moves.append(kernel.move(f))
        mask = m_new
        ids, opp, _ = kernel.child(ids, opp, i, f)
    return FlipScript(t1.canonical_key(), tuple(moves))


def greedy_by_triangulations(t1, t2, move_cap=None) -> FlipScript:
    """The oracle of `greedy_upper_bound`: the same hill-climb on
    `Triangulation`s, building the child of every candidate flip with
    `apply_flip` until one reaches an unseen canonical key."""
    if move_cap is None:
        move_cap = 8 * len(t1.domain.points) ** 2 + 64
    target = t2.edges
    goal = t2.canonical_key()
    t = t1
    seen = {t1.canonical_key()}
    moves = []
    while t.canonical_key() != goal:
        if len(moves) >= move_cap:
            raise CapExceededError(f"no script within {move_cap} moves")
        candidates = sorted(((m.removed in target) - (m.inserted in target), m)
                            for m in t.legal_flips())
        for _, m in candidates:
            t_new = t.apply_flip(m)
            k = t_new.canonical_key()
            if k not in seen:
                seen.add(k)
                moves.append(m)
                t = t_new
                break
        else:
            raise CapExceededError("greedy walk ran out of unvisited states")
    return FlipScript(t1.canonical_key(), tuple(moves))


# ---------------------------------------------------------------------------
# `Fraction` arithmetic: the oracles of the integer-decided predicates on
# `Point2` values, computed as written, with every intermediate a `Fraction`

def _sign(v) -> int:
    return (v > 0) - (v < 0)


def orientation_by_fractions(p, q, r) -> int:
    """The oracle of `geometry.orientation` on `Point2`s."""
    return _sign((q.x - p.x) * (r.y - p.y) - (q.y - p.y) * (r.x - p.x))


def area2_by_fractions(points) -> Fraction:
    """The oracle of `geometry.polygon_signed_area2` on `Point2`s."""
    return sum((p.x * q.y - p.y * q.x
                for p, q in zip(points, points[1:] + points[:1])), Fraction(0))


def side_by_fractions(h, p) -> int:
    """The oracle of the sign of `HalfPlane.value`."""
    return _sign(Fraction(h.a) * p.x + Fraction(h.b) * p.y + Fraction(h.c))


def halfplane_through_by_fractions(p, q, inside, contains_inside=True):
    """The oracle of `geometry.halfplane_through`: the line's row with
    `Fraction` coefficients, negated when `inside` is on the wrong side."""
    a = p.y - q.y
    b = q.x - p.x
    c = -(a * p.x + b * p.y)
    v = side_by_fractions(HalfPlane(a, b, c), inside)
    if v == 0:
        raise ValueError("sample point lies on the boundary line")
    return HalfPlane(a, b, c) if (v > 0) == contains_inside \
        else HalfPlane(-a, -b, -c)


def touching_pairs_by_fractions(points, segments) -> list[tuple[int, int]]:
    """The oracle of `geometry.touching_pairs` on `Point2`s: every pair,
    tested with `Fraction` orientations."""
    return [(i, j) for i in range(len(segments))
            for j in range(i + 1, len(segments))
            if segments_share_interior_four_orientations(
                points[segments[i][0]], points[segments[i][1]],
                points[segments[j][0]], points[segments[j][1]],
                orient=orientation_by_fractions)]


def turn_reaches_pi_by_fractions(d, e) -> bool:
    """The oracle of `geometry.turn_reaches_pi` on `Point2`s."""
    c = d.x * e.y - d.y * e.x
    return c < 0 or (c == 0 and d.x * e.x + d.y * e.y < 0)


def chain_audit_by_whole_drawing(pos, new_pos, new_edges, touched,
                                 pre_sharp) -> bool:
    """The oracle of `reduction._chain_audit`: every pair of the drawing's
    edges is swept, and the sharp vertices of the whole drawing found."""
    allpos = {**{k: v for k, v in pos.items() if k != touched[0]}, **new_pos}
    new_ids = set(new_pos)
    segs = sorted(new_edges)
    for i, j in touching_pairs(allpos, segs):
        e, f = set(segs[i]), set(segs[j])
        if new_ids & (e | f) and not e & f:
            return False
    probe = PlanarGraphDrawing(pos=allpos, edges=segs, outer_face=[])
    bad = set(probe.sharp_vertices())
    if bad & new_ids:
        return False
    return not ((bad & set(touched[1:])) - pre_sharp)


def edge_difference(t1, t2):
    """The edges only t1 has and the edges only t2 has."""
    if t1.domain != t2.domain:
        raise DomainMismatchError("triangulations live on different domains")
    return (t1.edges - t2.edges, t2.edges - t1.edges)
