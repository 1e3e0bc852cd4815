"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/series.py --workloads reduce search enumerate \
        --seeds 1-10 [--trace 0] [--out BENCH_label.json]

For every workload, runs `run.py` once per seed with BENCHMARK.json's
`run_seconds`, one run at a time, and reports each metric's median, first
and third quartile (`statistics.quantiles(values, n=4)`) and their spread
as a share of the median, next to the metric's bound.  `--out` writes the
summary, every run's result line and the machine context as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: "
                           f"{proc.stderr.strip()[-1000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def spread(values: list) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / med if med else None}


def dump(report: dict) -> str:
    """JSON with the summary indented and each run on one line, so that a
    committed baseline stays short."""
    head = json.dumps({k: v for k, v in report.items() if k != "runs"},
                      indent=1, sort_keys=True)
    runs = ",\n  ".join(json.dumps(r, sort_keys=True) for r in report["runs"])
    return head[:-1].rstrip() + f',\n "runs": [\n  {runs}\n ]\n}}\n'


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary, runs, machine = {}, [], None
    for workload in args.workloads:
        values: dict = {}
        for seed in args.seeds:
            detail, result = run_once(workload, seed, spec["run_seconds"],
                                      args.trace)
            machine = machine or detail["context"]
            runs.append({"workload": workload, "seed": seed,
                         "result": result, "passes": detail["passes"],
                         "run_s": detail["run_s"],
                         "timings": detail["timings"]})
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: passes {detail['passes']} "
                  f"run {detail['run_s']:.1f} s correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.4g}"
                             for k, v in result["metrics"].items()
                             if k in bounds), flush=True)
        summary[workload] = {name: dict(spread(vs), bound=bounds.get(name))
                             for name, vs in values.items()}
        for name in bounds:
            if "iqr_share" in summary[workload].get(name, {}):
                s = summary[workload][name]
                print(f"  {workload} {name}: median {s['median']:.4g} "
                      f"IQR/median {s['iqr_share']:.3f} bound {s['bound']}")
    if args.out:
        context = {k: machine[k] for k in ("python", "implementation",
                                           "platform", "nproc", "git_commit",
                                           "source_sha256")}
        Path(args.out).write_text(dump(
            {"context": context, "run_seconds": spec["run_seconds"],
             "seeds": args.seeds, "trace": args.trace, "summary": summary,
             "runs": runs}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
