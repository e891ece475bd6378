"""Run the benchmark over several seeds per workload and summarise the spread.

    python3 perfbench/suite.py [--seeds 10] [--trace 0|1] [--out summary.json]

Runs every workload of BENCHMARK.json with seeds 0 .. seeds-1, each run a
fresh ``run.py`` process.  For every metric the summary
gives the median over runs, the quartiles as
``statistics.quantiles(values, n=4)`` computes them, and the spread
``(q3 - q1) / median``; end-to-end spreads are compared with the metric's
bound in BENCHMARK.json and with a third of it.  Exits non-zero if any run
fails.
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict, int]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    info = next((json.loads(line[5:]) for line in lines if line.startswith("info ")), {})
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else {}
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
    return result, info, proc.returncode


def summarise(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return {"median": mid, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(mid) if mid else float("inf"), "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    if args.seeds < 2:
        parser.error("--seeds must be at least 2 to give quartiles")

    metrics = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}
    units = {m["name"]: m["unit"] for m in metrics}
    summary: dict = {"run_seconds": spec["run_seconds"], "trace": args.trace, "workloads": {}}
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {name: [] for name in units}
        runs = []
        for seed in range(args.seeds):
            result, info, code = run_once(workload, seed, spec["run_seconds"], args.trace)
            status |= code != 0 or not result.get("correct", False)
            runs.append({"seed": seed, "exit": code, "attempted": result.get("attempted"),
                         "failed": result.get("failed"), "plan_samples": info.get("plan_samples"),
                         "episodes": info.get("episodes"), "csv_sha256": info.get("csv_sha256"),
                         "content_hash": info.get("content_hash")})
            for name, metric in result.get("metrics", {}).items():
                values[name].append(metric["value"])
            print(f"{workload} seed={seed} exit={code} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result.get("metrics", {}).items()),
                  flush=True)
        stats = {name: summarise(v) for name, v in values.items() if len(v) >= 2}
        summary["workloads"][workload] = {"metrics": stats, "runs": runs}
        if not summary.get("machine"):
            summary["machine"] = info.get("machine")
        samples = [r["plan_samples"] or 0 for r in runs]
        print(f"\n{workload}: {len(runs)} runs, plan samples per run "
              f"{min(samples)}..{max(samples)}")
        for name, s in stats.items():
            bound = bounds[name]
            verdict = ""
            if bound is not None:
                verdict = ("below a third of" if s["spread"] < bound / 3
                           else "within" if s["spread"] <= bound else "OVER")
                verdict = f"{verdict} bound {bound:g}"
            print(f"  {name:34s} {s['median']:12.5g} {units[name]:6s} q1 {s['q1']:.5g} "
                  f"q3 {s['q3']:.5g} spread {s['spread']:.4f} {verdict}")
        print(flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 1 if status else 0


if __name__ == "__main__":
    sys.exit(main())
