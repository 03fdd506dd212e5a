"""Run the benchmark over several seeds and report each metric's spread.

Usage, from the root of a checkout::

    python3 perfbench/spread.py --workload mlp_grid --workload serve_tree \\
        --seeds 1-10 --seconds 30 --out perfbench/results/spread.json

For every workload and end-to-end metric it prints the median, the first and
third quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median, and flags a spread above the metric's bound in
``BENCHMARK.json``. Runs are sequential: one benchmark process at a time.
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


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(v) for v in text.split("-"))
        return list(range(low, high + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "trace": args.trace, "workloads": {}}
    worst = 0.0
    for workload in args.workload:
        runs = [run_once(workload, seed, seconds, args.trace) for seed in seeds]
        failed = sum(r["failed"] for r in runs)
        metrics = {}
        for name in runs[0]["metrics"]:
            summary = summarize([r["metrics"][name]["value"] for r in runs])
            summary["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = summary
            bound = bounds.get(name)
            flag = ""
            if bound is not None and summary["spread"] is not None:
                worst = max(worst, summary["spread"] / bound)
                flag = "  OVER BOUND" if summary["spread"] > bound else ""
            print(
                f"{workload:17s} {name:26s} median {summary['median']:.6g} {summary['unit']:8s} "
                f"q1 {summary['q1']:.6g} q3 {summary['q3']:.6g} spread {summary['spread']}"
                f" bound {bound}{flag}"
            )
        report["workloads"][workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed": failed,
            "metrics": metrics,
        }
    print(f"largest spread / bound: {worst:.3f}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
