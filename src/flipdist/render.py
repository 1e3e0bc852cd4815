"""Deterministic SVG rendering of instances.

Geometry stays exact in the instance; coordinates are formatted to fixed
decimal precision only for display.  Element order is sorted so snapshots are
stable.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ValidationError
from .instanceio import InstanceDoc
from .reduction import ReductionInstance
from .triangulation import validate


def _fmt(x: Fraction) -> str:
    return f"{float(x):.3f}"


def render_instance_svg(doc: InstanceDoc) -> str:
    """The instance as SVG: its domain, and the triangles and edges of
    its t1 (or its lone triangulation), which must pass `validate`."""
    domain = doc.domain
    tri_source = doc.t1 or doc.edges
    if tri_source is not None:
        rep = validate(tri_source)
        if not rep.ok:
            raise ValidationError(
                f"triangulation to render is invalid: {rep.violations[:3]}")
    pts = domain.points
    xs = [p.x for p in pts]
    ys = [p.y for p in pts]
    pad = (max(xs) - min(xs) + max(ys) - min(ys)) / 20 + 1
    x0, y0 = min(xs) - pad, min(ys) - pad
    w, h = max(xs) - x0 + pad, max(ys) - y0 + pad

    def xy(i):
        p = pts[i]
        # flip y so the picture is not mirrored
        return _fmt(p.x), _fmt(y0 + h - (p.y - y0))

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{_fmt(x0)} {_fmt(y0)} {_fmt(w)} {_fmt(h)}">',
    ]

    locks, caps = set(), set()
    if doc.gadget_metadata is not None:
        inst = ReductionInstance.from_doc(doc)
        locks = {g.lock for g in inst.gadgets.values()}
        caps = {c for rec in inst.channels.values() for c in rec.caps.values()}

    def segments(attrs, es):
        lines.append(f'<g {attrs}>')
        for u, v in sorted(es):
            (xa, ya), (xb, yb) = xy(u), xy(v)
            lines.append(f'<line x1="{xa}" y1="{ya}" x2="{xb}" y2="{yb}"/>')
        lines.append('</g>')

    if tri_source is not None:
        lines.append('<g fill="#dce9f5" stroke="none" class="triangles">')
        for a, b, c in sorted(tri_source.triangles):
            pa, pb, pc = xy(a), xy(b), xy(c)
            lines.append(
                f'<polygon points="{pa[0]},{pa[1]} {pb[0]},{pb[1]} '
                f'{pc[0]},{pc[1]}"/>')
        lines.append('</g>')
        segments('stroke="#3b6ea5" stroke-width="0.6" class="edges"',
                 tri_source.edges - locks)
    if locks:
        segments('stroke="#c0392b" stroke-width="1.4" '
                 'stroke-dasharray="3,2" class="locks"', locks)
    segments('stroke="#1b1b1b" stroke-width="1.0" class="boundary"',
             domain.mandatory_edges)

    lines.append('<g class="points">')
    for i in range(len(pts)):
        x, y = xy(i)
        color = "#c0392b" if i in caps else "#1b1b1b"
        r = "1.6" if i in caps else "0.9"
        lines.append(f'<circle cx="{x}" cy="{y}" r="{r}" fill="{color}"/>')
    lines.append('</g>')
    lines.append('</svg>')
    return "\n".join(lines) + "\n"
