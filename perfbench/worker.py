"""One pass of one workload, in its own interpreter.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR
        --mode {plain,traced,memory,setup} --spawned-at T

`--spawned-at` is the parent's `time.monotonic()` just before it started
this interpreter, so set-up time counts interpreter start, the import of
flipdist and the making of the inputs.  The pass then runs the workload's
CLI operations in-process through `flipdist.cli.main`, one after another,
and only afterwards checks their answers.  Prints one JSON object.

Modes: `plain` times the pass; `traced` also installs the spans of
`tracing.py`; `memory` runs the pass with tracemalloc on around flip-graph
enumeration only; `setup` stops after making the inputs.
"""

from __future__ import annotations

import time

_START = time.monotonic()

import argparse                                  # noqa: E402
import contextlib                                # noqa: E402
import gc                                        # noqa: E402
import io                                        # noqa: E402
import json                                      # noqa: E402
import resource                                  # noqa: E402
import sys                                       # noqa: E402
import tracemalloc                               # noqa: E402
from pathlib import Path                         # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import flipdist.cli as cli                       # noqa: E402

import tracing                                   # noqa: E402
import workloads                                 # noqa: E402


def observe_results(observed: dict, memory: bool) -> None:
    """Keep what checks and layer metrics need from inside the CLI: the
    enumerated flip graph and each search's statistics.  Installed the same
    way in every mode, so plain and traced passes run the same code."""

    def wrap_enumerate(fn):
        def enumerate_flip_graph(*args, **kwargs):
            if memory:
                tracemalloc.start()
            try:
                graph = fn(*args, **kwargs)
                if memory:
                    observed["enum_traced_peak_bytes"] = \
                        tracemalloc.get_traced_memory()[1]
            finally:
                if memory:
                    tracemalloc.stop()
            observed["graph"] = graph
            return graph
        return enumerate_flip_graph

    def wrap_search(fn):
        def exact_distance(*args, **kwargs):
            result = fn(*args, **kwargs)
            observed.setdefault("frontier_peaks", []).append(
                result.frontier_peak)
            return result
        return exact_distance

    tracing.replace_everywhere("search", "enumerate_flip_graph",
                               wrap_enumerate)
    tracing.replace_everywhere("search", "exact_distance", wrap_search)


def run_op(argv):
    """Run one CLI command; returns (exit code or None, seconds, stdout,
    error text)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:                     # counted as a failed op
        code, error = None, f"{type(exc).__name__}: {exc}"
    took = time.perf_counter() - start
    stdout = out.getvalue()
    return code, took, stdout, error or (err.getvalue() or stdout).strip()


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.MAKERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["plain", "traced", "memory", "setup"],
                    default="plain")
    ap.add_argument("--spawned-at", type=float, default=_START)
    args = ap.parse_args()

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"flipdist imported from {cli.__file__}, not from {ROOT}/src",
              file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(args.workload, args.seed,
                                   Path(args.workdir))
    setup_s = time.monotonic() - args.spawned_at
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    observed: dict = {}
    observe_results(observed, memory=args.mode == "memory")
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.install(tracer)

    gc.collect()
    ops = []
    pass_start = time.perf_counter()
    for op in inputs.ops:
        calls_before = dict(tracer.calls) if tracer else {}
        code, took, stdout, error = run_op(op.argv)
        rec = {"name": op.name, "stage": op.stage, "seconds": took,
               "code": code, "stdout": stdout, "error": error}
        if tracer:
            rec["apply_flip_calls"] = \
                tracer.calls.get("triangulation.apply_flip", 0) \
                - calls_before.get("triangulation.apply_flip", 0)
        ops.append(rec)
    wall_s = time.perf_counter() - pass_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    trace = tracer.snapshot() if tracer else None

    # checks run after the timed pass; a wrong answer fails its operation
    results = []
    for op, rec in zip(inputs.ops, ops):
        out, reason = {}, None
        if rec["code"] != 0:
            reason = f"exit {rec['code']}: {rec['error']}"
        else:
            try:
                out = workloads.parse_output(rec["stdout"])
                reason = workloads.check_op(inputs, op, out, observed)
            except Exception as exc:             # a failed check, not a crash
                reason = f"check raised {type(exc).__name__}: {exc}"
        entry = {"name": op.name, "stage": op.stage,
                 "seconds": rec["seconds"], "ok": reason is None,
                 "reason": reason, "out": out}
        if reason is None and "distance" in out:
            entry["heuristic_gap"] = workloads.lower_bound_gap(inputs, op, out)
            if "apply_flip_calls" in rec:
                # neighbours generated: every flip the search applied, less
                # the replay of the witness that certifies the result
                entry["generated"] = rec["apply_flip_calls"] - out["distance"]
        results.append(entry)

    report = {"setup_s": setup_s, "wall_s": wall_s,
              "peak_rss_mb": peak_rss_mb, "ops": results,
              "frontier_peaks": observed.get("frontier_peaks", []),
              "enum_nodes": len(observed["graph"]) if "graph" in observed
              else 0}
    if "enum_traced_peak_bytes" in observed:
        report["enum_traced_peak_mb"] = \
            observed["enum_traced_peak_bytes"] / 2 ** 20
    if trace:
        report["trace"] = trace
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
