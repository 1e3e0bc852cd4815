"""Command-line surface for the reduction pipeline and flip-distance tools.

Exit codes: 0 ok, 2 validation failure, 3 infeasible geometry, 4 search
budget or state cap, enumeration cap or vertex-cover budget exceeded, 5 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import instanceio
from .errors import FlipdistError, ValidationError
from .reduction import (ReductionInstance, audit_script, build_instance,
                        convex_drawing, cover_to_script, drawing_from_coords,
                        eliminate_sharp, grid_bits, region_to_pointset)
from .render import render_instance_svg
from .search import enumerate_flip_graph, exact_distance
from .triangulation import validate
from .vertexcover import Graph, exact_vc, is_cover

EXIT_CODES = "exit codes: 0 ok, 2 validation, 3 infeasible geometry, " \
    "4 budget or cap exceeded, 5 I/O"


def _emit(args, payload: dict, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _load_graph(path):
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except OSError as exc:
        raise SystemExit(_io_fail(f"cannot read {path}: {exc}"))
    return instanceio.parse_graph_text(text)


def _io_fail(msg) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 5


def _write(path, text) -> None:
    try:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)
    except OSError as exc:
        raise SystemExit(_io_fail(f"cannot write {path}: {exc}"))


def cmd_reduce(args) -> int:
    # checked before the graph is read, so no build runs on a bad flag
    if args.multiplicity is not None:
        if not args.pointset:
            raise ValidationError("--multiplicity needs --pointset")
        if args.multiplicity < 1:
            raise ValidationError(f"multiplicity must be at least 1, "
                                  f"got {args.multiplicity}")
    ids, coords, edges, outer = _load_graph(args.graph)
    if coords is not None and set(coords) >= set(ids):
        drawing = drawing_from_coords(coords, edges, outer)
    else:
        drawing = convex_drawing(ids, edges, outer)
    drawing, t_outer = eliminate_sharp(drawing)
    inst = build_instance(drawing, k_input=args.k, t_outer=t_outer)
    doc = inst.to_doc()
    if args.pointset:
        psd = region_to_pointset(inst, args.multiplicity)
        out_doc = psd.to_doc()
        out_doc.accounting.update(doc.accounting)
        doc = out_doc
    _write(args.out, instanceio.dumps(doc))
    acc = doc.accounting
    _emit(args, {**acc, "stats": {**inst.stats,
                                  "grid_bits": grid_bits(doc.domain)}},
          f"instance written to {args.out}\n"
          f"k' = {acc['k_prime']}  |E'| = {acc['channel_count']}  "
          f"threshold = {acc['threshold']}  max coord bits = "
          f"{acc['max_coord_bits']}")
    return 0


def cmd_distance(args) -> int:
    doc = instanceio.load(args.instance)
    t1, t2 = doc.pair
    for name, t in (("t1", t1), ("t2", t2)):
        rep = validate(t)
        if not rep.ok:
            raise FlipdistError(f"{name} invalid: {rep.violations[:3]}")
    res = exact_distance(t1, t2, budget=args.budget,
                         max_states=args.max_states)
    if res.exceeds_budget:
        _emit(args, {"distance": None, "exceeds_budget": True,
                     "reason": res.reason,
                     "nodes_expanded": res.nodes_expanded,
                     "frontier_peak": res.frontier_peak,
                     "states_recorded": res.states_recorded},
              f"EXCEEDS_BUDGET (> {args.budget})" if res.reason == "budget"
              else f"EXCEEDS_STATES (> {args.max_states} states recorded)")
        return 4
    if args.witness:
        _write(args.witness, instanceio.script_dumps(res.script))
    _emit(args, {"distance": res.distance, "exceeds_budget": False,
                 "nodes_expanded": res.nodes_expanded,
                 "frontier_peak": res.frontier_peak,
                 "states_recorded": res.states_recorded},
          f"distance = {res.distance}  (nodes expanded: {res.nodes_expanded})")
    return 0


def cmd_verify(args) -> int:
    doc = instanceio.load(args.instance)
    inst = ReductionInstance.from_doc(doc)
    script = instanceio.script_load(args.script)
    report = audit_script(inst, script)
    over = report.script_length > inst.threshold
    payload = {
        "verdict": "PASS",
        "length": report.script_length,
        "unlocked": sorted(report.unlocked),
        "uncapped": sorted(map(list, report.uncapped)),
        "lower_bound": report.lower_bound,
        "implied_cover_size": report.implied_cover_size,
        "threshold": inst.threshold,
        "over_threshold": over,
    }
    _emit(args, payload,
          f"PASS  length={report.script_length}  |L|={len(report.unlocked)}  "
          f"|C|={len(report.uncapped)}  bound={report.lower_bound}  "
          f"threshold={inst.threshold}"
          + ("  OVER-THRESHOLD" if over else ""))
    return 0


def cmd_script(args) -> int:
    doc = instanceio.load(args.instance)
    inst = ReductionInstance.from_doc(doc)
    if args.cover is not None:
        try:
            cover = {int(x) for x in args.cover.split(",") if x.strip() != ""}
        except ValueError:
            raise ValidationError(
                f"--cover must list vertex ids, got {args.cover!r}") from None
    else:
        g = Graph(inst.graph_vertices, inst.graph_edges)
        _, cover = exact_vc(g)
    script = cover_to_script(inst, cover)
    _write(args.out, instanceio.script_dumps(script))
    _emit(args, {"length": len(script), "cover": sorted(cover)},
          f"script of {len(script)} moves written to {args.out} "
          f"(cover size {len(cover)})")
    return 0


def cmd_vc(args) -> int:
    ids, _, edges, _ = _load_graph(args.graph)
    g = Graph(ids, edges)
    size, witness = exact_vc(g)
    ok, _ = is_cover(g, witness)
    assert ok
    _emit(args, {"size": size, "witness": sorted(witness)},
          f"minimum vertex cover size = {size}: {sorted(witness)}")
    return 0


def cmd_render(args) -> int:
    doc = instanceio.load(args.instance)
    if doc.t1 is None and doc.edges is None:
        raise FlipdistError("instance has no triangulation to render")
    _write(args.out, render_instance_svg(doc))
    _emit(args, {"out": args.out}, f"svg written to {args.out}")
    return 0


def cmd_enumerate(args) -> int:
    doc = instanceio.load(args.instance)
    seed = doc.edges or doc.t1
    if seed is None:
        raise FlipdistError("instance has no triangulation to enumerate from")
    rep = validate(seed)
    if not rep.ok:
        raise FlipdistError(f"seed invalid: {rep.violations[:3]}")
    graph = enumerate_flip_graph(seed, cap=args.cap)
    _emit(args, {"nodes": len(graph), "edges": graph.flip_count},
          f"flip graph: {len(graph)} triangulations, "
          f"{graph.flip_count} flips")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="flipdist", epilog=EXIT_CODES)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reduce", help="vertex cover graph -> flip instance",
                       epilog=EXIT_CODES)
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True,
                   help="vertex cover bound for the input graph")
    p.add_argument("--pointset", action="store_true",
                   help="convert the region instance to a point set")
    p.add_argument("--multiplicity", type=int, default=None,
                   help="sliver layers per protected edge (default threshold+1)")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("distance", help="exact flip distance of an instance",
                       epilog=EXIT_CODES)
    p.add_argument("--instance", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--max-states", type=int, default=2 * 10 ** 6,
                   help="exit 4 once the search has recorded more than this "
                        "many states (default 2,000,000)")
    p.add_argument("--witness", help="write the witness script here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="replay a script and audit it",
                       epilog=EXIT_CODES)
    p.add_argument("--instance", required=True)
    p.add_argument("--script", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("script", help="vertex cover -> transform script",
                       epilog=EXIT_CODES)
    p.add_argument("--instance", required=True)
    p.add_argument("--cover", help="comma-separated vertex ids; "
                                   "omitted = solve minimum vertex cover")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_script)

    p = sub.add_parser("vc", help="exact minimum vertex cover",
                       epilog=EXIT_CODES)
    p.add_argument("--graph", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_vc)

    p = sub.add_parser("render", help="instance -> SVG", epilog=EXIT_CODES)
    p.add_argument("--instance", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("enumerate", help="enumerate the flip graph",
                       epilog=EXIT_CODES)
    p.add_argument("--instance", required=True)
    p.add_argument("--cap", type=int, default=10 ** 6,
                   help="exit 4 past this many triangulations; each one "
                        "kept costs about 300 traced bytes")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit:
        raise
    except FlipdistError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
