"""Slow reference implementations that the tests compare fast paths against."""

from flipdist.errors import ValidationError
from flipdist.geometry import touching_pairs
from flipdist.triangulation import (Edge, ValidationReport, derive_triangles,
                                    edge)


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
