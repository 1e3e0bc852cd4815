"""flipdist benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload {reduce,search,enumerate} --seed N
        --seconds S --trace {0,1}

Run from the root of a source checkout; flipdist is imported from `src/`.
The load is a closed loop with one caller: passes run one after another,
each in a fresh interpreter (`worker.py`), so heap and GC state never carry
over and each pass's peak RSS is its own.  Passes start until `--seconds`
have been spent (at least MIN_PASSES), and each timing is reported as the
median over passes.

`--trace 0` prints the end-to-end metrics; `--trace 1` runs the same plain
passes and then one traced pass (and, for enumeration, one tracemalloc
pass) and prints the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is the result object; the line
before it holds the run's context, every timing's samples with their median,
maximum and count, and any failures.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reduce", "search", "enumerate")
MIN_PASSES = 3
SETUP_SAMPLES = 7          # set-ups measured per run, passes included
DEADLINE_S = 165           # a run must end within 180 s

# untraced stage timings, summed per pass over the operations of that stage
STAGES = ("reduce_s", "script_s", "verify_s", "pointset_s", "distance_s",
          "distance_small_s", "enumerate_s")


def git_commit(root: Path):
    """HEAD of the checkout, read without running git (None if no .git)."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over flipdist's sources: names the code when git cannot."""
    h = hashlib.sha256()
    for path in sorted((root / "src" / "flipdist").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def context(args) -> dict:
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(), "nproc": os.cpu_count(),
            "git_commit": git_commit(ROOT),
            "source_sha256": source_digest(ROOT),
            "load": "closed loop, one caller, one pass per interpreter"}


def spawn(args, workdir: Path, mode: str, deadline: float) -> dict:
    """Run one worker interpreter; it is killed at `deadline` (monotonic)."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--workdir", str(workdir), "--mode", mode]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned-at", repr(spawned_at)],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=max(1.0, deadline - spawned_at))
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} pass exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{mode} pass printed nothing")
    report = json.loads(lines[-1])
    report["process_s"] = time.monotonic() - spawned_at
    return report


def summary(values) -> dict:
    return {"median": statistics.median(values), "max": max(values),
            "n": len(values), "values": values}


def stage_times(report: dict) -> dict:
    """Seconds of each stage in one pass (operations of a stage summed)."""
    out: dict = {}
    for op in report["ops"]:
        out[op["stage"]] = out.get(op["stage"], 0.0) + op["seconds"]
    return out


def layer_metrics(names, plain: list, traced: dict, memory) -> dict:
    """Per-layer metrics from the traced pass and the plain passes.

    `<span>.calls` and `<span>_s` (self time) come straight from the spans
    and counters of `tracing.py`; the rest are derived below.
    """
    trace = traced["trace"]
    m = {}
    searches = [op for op in traced["ops"] if "distance" in op["out"]]
    expanded = sum(op["out"]["nodes_expanded"] for op in searches)
    generated = sum(op.get("generated", 0) for op in searches)
    m["search.nodes_expanded"] = expanded
    m["search.frontier_peak"] = max(traced["frontier_peaks"], default=0)
    m["search.generated_per_expanded"] = generated / expanded if expanded else 0
    m["search.heuristic_gap"] = max((op.get("heuristic_gap", 0)
                                     for op in searches), default=0)
    m["geometry.max_coord_bits"] = max(
        (op["out"].get("max_coord_bits", 0) for op in traced["ops"]),
        default=0)
    m["instanceio.instance_bytes"] = trace["instance_bytes"]

    stages = [stage_times(r) for r in plain]
    for stage in STAGES:
        m[stage] = statistics.median(s.get(stage, 0.0) for s in stages)
    search_s = m["distance_s"] + m["distance_small_s"]
    m["search.expansions_per_s"] = expanded / search_s if search_s else 0
    m["search.enum_nodes"] = traced["enum_nodes"]
    m["search.enum_nodes_per_s"] = (traced["enum_nodes"] / m["enumerate_s"]
                                    if m["enumerate_s"] else 0)
    m["search.enum_traced_peak_mb"] = (memory or {}).get(
        "enum_traced_peak_mb", 0.0)
    m["trace_overhead_ratio"] = traced["wall_s"] / statistics.median(
        r["wall_s"] for r in plain)

    spans = {name for name, _, _ in tracing.SPANS}
    counted = spans | {name for name, _, _ in tracing.COUNTERS}
    for name in names:
        if name.endswith(".calls") and name[:-6] in counted:
            m[name] = trace["calls"].get(name[:-6], 0)
        elif name.endswith("_s") and name[:-2] in spans:
            m[name] = trace["self_s"].get(name[:-2], 0.0)
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    # on SIGTERM, unwind so that subprocess.run kills the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "flipdist" / "cli.py").is_file() \
            or not spec_path.is_file():
        print(f"error: {ROOT} is not a flipdist source checkout "
              "(needs src/flipdist and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    started = time.monotonic()
    deadline = started + DEADLINE_S
    # a traced run keeps half of its time for the traced and memory passes
    plain_until = started + (DEADLINE_S / 2 if args.trace else DEADLINE_S)
    try:
        # warm-up: compiles bytecode and fills the file cache; not measured
        spawn(args, workdir, "setup", deadline)
        plain = []
        while True:
            now = time.monotonic()
            pass_est = max((r["process_s"] for r in plain), default=0.0)
            if plain and (now + 1.5 * pass_est > plain_until
                          or (len(plain) >= MIN_PASSES
                              and now + pass_est > started + args.seconds)):
                break
            plain.append(spawn(args, workdir, "plain", deadline))
        setups = [r["setup_s"] for r in plain]
        while len(setups) < SETUP_SAMPLES:
            setups.append(spawn(args, workdir, "setup", deadline)["setup_s"])
        traced = memory = None
        if args.trace:
            traced = spawn(args, workdir, "traced", deadline)
            if traced["enum_nodes"]:
                memory = spawn(args, workdir, "memory", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass

    reports = plain + [r for r in (traced, memory) if r]
    ops = [op for r in reports for op in r["ops"]]
    failures = [{"op": op["name"], "reason": op["reason"]}
                for op in ops if not op["ok"]]
    walls = [r["wall_s"] for r in plain]
    peaks = [r["peak_rss_mb"] for r in plain]
    if args.trace:
        values = layer_metrics([m["name"] for m in wanted], plain, traced,
                               memory)
        values["fail_ratio"] = len(failures) / len(ops)
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls),
                  "peak_rss_mb": statistics.median(peaks)}
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        print(f"error: no value for metrics {missing}", file=sys.stderr)
        return 1

    stages = [stage_times(r) for r in plain]
    detail = {"context": context(args), "passes": len(plain),
              "run_s": time.monotonic() - started,
              "timings": {"setup_s": summary(setups),
                          "wall_s": summary(walls),
                          "peak_rss_mb": summary(peaks),
                          **{s: summary([st[s] for st in stages])
                             for s in STAGES if s in stages[0]}},
              "fail_ratio": len(failures) / len(ops),
              "failures": failures}
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": not failures, "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
