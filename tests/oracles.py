"""Slow reference implementations that the tests compare fast paths against."""

from fractions import Fraction
from math import gcd
from typing import NamedTuple

import networkx as nx

from flipdist.errors import Not3ConnectedError, NotPlanarError, ValidationError
from flipdist.geometry import (COLLINEAR, Point2, angular_key, orientation,
                               touching_pairs)
from flipdist.triangulation import (Edge, ValidationReport, canonical_cycle,
                                    derive_triangles, edge)


def validate_by_segments(t) -> ValidationReport:
    """The O(E·n) oracle of `triangulation.validate`: every non-boundary
    edge must pass `domain.segment_inside`, which tests it against every
    boundary edge and every point, before the faces are counted."""
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


def edges_crossing_segment_four_tests(t, p, q) -> set:
    """The oracle of `gadgets.edges_crossing_segment`: the four orientation
    tests of a proper crossing on every edge not incident to p or q."""
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


def line_intersection(h1, h2):
    """The meeting point of two half-planes' boundary lines, or None when
    they are parallel."""
    det = h1.a * h2.b - h2.a * h1.b
    if det == 0:
        return None
    x = (h1.b * h2.c - h2.b * h1.c) / det
    y = (h2.a * h1.c - h1.a * h2.c) / det
    return Point2(x, y)


def vertex_cycle_by_fractions(halfplanes) -> tuple:
    """The oracle of `geometry._vertex_cycle`: every pair of boundary lines
    is intersected in `Fraction`s and the point tested against every
    half-plane; consecutive cycle vertices must share a boundary line,
    found by evaluating every half-plane at both."""
    pts = []
    n = len(halfplanes)
    for i in range(n):
        for j in range(i + 1, n):
            p = line_intersection(halfplanes[i], halfplanes[j])
            if p is None:
                continue
            if all(h.value(p) >= 0 for h in halfplanes) and p not in pts:
                pts.append(p)
    if len(pts) < 3:
        return ()
    center = Point2(sum((p.x for p in pts), Fraction(0)) / len(pts),
                    sum((p.y for p in pts), Fraction(0)) / len(pts))
    ordered = sorted(pts, key=lambda p: angular_key(p - center))
    m = len(ordered)
    out = [ordered[k] for k in range(m)
           if orientation(ordered[k - 1], ordered[k],
                          ordered[(k + 1) % m]) != COLLINEAR]
    for p, q in zip(out, out[1:] + out[:1]):
        if not any(h.value(p) == 0 == h.value(q) for h in halfplanes):
            return ()
    return tuple(out)


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


def fourier_motzkin_with_strictness(constraints):
    """The oracle of `geometry._fourier_motzkin_point`: two-variable
    Fourier-Motzkin elimination over a mix of open and closed half-planes
    (`SidedHalfPlane`), keeping strictness when bounds are combined."""
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


def _recession_direction_exists(halfplanes) -> bool:
    """A nonempty intersection is unbounded iff consecutive inward normals,
    in angular order, leave a gap of at least pi."""
    def primitive(a, b):
        an, bn = a.numerator * b.denominator, b.numerator * a.denominator
        g = gcd(abs(an), abs(bn))
        return (an // g, bn // g)

    dirs = sorted({primitive(h.a, h.b) for h in halfplanes}, key=angular_key)
    n = len(dirs)
    if n == 1:
        return True
    for i in range(n):
        d1, d2 = dirs[i], dirs[(i + 1) % n]
        cross = d1[0] * d2[1] - d1[1] * d2[0]
        if cross < 0 or (cross == 0 and d1[0] * d2[0] + d1[1] * d2[1] < 0):
            return True
    return False


def interior_point_by_recession(halfplanes):
    """The oracle of `geometry.interior_point` on a region's canonical
    open half-planes, or None when the region is empty: the centroid of
    the vertex cycle of a bounded region (boundedness decided from the
    normals' angular gaps) when strictly inside, else the Fourier-Motzkin
    sample."""
    sample = fourier_motzkin_with_strictness(
        [SidedHalfPlane(h.a, h.b, h.c) for h in halfplanes])
    if sample is None or _recession_direction_exists(halfplanes):
        return sample
    pts = []
    for i, h1 in enumerate(halfplanes):
        for h2 in halfplanes[i + 1:]:
            p = line_intersection(h1, h2)
            if p is not None and p not in pts and \
                    all(h.value(p) >= 0 for h in halfplanes):
                pts.append(p)
    center = Point2(sum(p.x for p in pts) / len(pts),
                    sum(p.y for p in pts) / len(pts))
    ordered = sorted(pts, key=lambda p: angular_key(p - center))
    m = len(ordered)
    cycle = [ordered[k] for k in range(m)
             if orientation(ordered[k - 1], ordered[k],
                            ordered[(k + 1) % m]) != COLLINEAR]
    p = Point2(sum(q.x for q in cycle) / len(cycle),
               sum(q.y for q in cycle) / len(cycle))
    return p if all(h.value(p) > 0 for h in halfplanes) else sample


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
    """Flip-graph nodes (canonical key -> edges) and adjacency (key ->
    sorted neighbour keys) reachable from `seed`, built from
    `Triangulation.legal_flips` and `apply_flip` alone: the oracle of
    `search.enumerate_flip_graph`.  The last node found is expanded first,
    as there, so the node order and the adjacency order compare too."""
    nodes, adjacency, stack = {seed.canonical_key(): seed.edges}, {}, [seed]
    while stack:
        t = stack.pop()
        nbrs = []
        for m in t.legal_flips():
            t_new = t.apply_flip(m)
            nbrs.append(t_new.canonical_key())
            if nbrs[-1] not in nodes:
                nodes[nbrs[-1]] = t_new.edges
                stack.append(t_new)
        adjacency[t.canonical_key()] = sorted(nbrs)
    return nodes, adjacency
