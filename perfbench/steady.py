"""Steadiness command: two alternating sets of runs of every workload.

    python3 perfbench/steady.py [--runs 5] [--seconds S] [--seed-base 100]
        [--workloads serve_cold serve_warm sweep]

Runs set A and set B alternately (A1 B1 A2 B2 ...; every run of every
workload gets its own seed) and, for each end-to-end metric, prints the
median, the quartiles and the spread (IQR / median) over all runs, plus
the drift between the two sets' medians, both raw and calibrated.  Use it
to choose which metrics are calibrated (``pins.json``), to set the bounds
in ``BENCHMARK.json`` and to show that two sets of runs agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def one_run(workload: str, seed: int, seconds: float) -> Dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0"]
    if seconds:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    detail = json.loads(lines[-2].split(" ", 1)[1])
    final = json.loads(lines[-1])
    return {"detail": detail, "final": final}


def summary(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=5, help="runs per set")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument(
        "--workloads", nargs="+", default=["serve_cold", "serve_warm", "sweep"],
    )
    args = parser.parse_args()
    records: Dict[str, Dict[str, List[Dict]]] = {
        w: {"A": [], "B": []} for w in args.workloads
    }
    seed = args.seed_base
    for index in range(args.runs):
        for side in ("A", "B"):
            for workload in args.workloads:
                record = one_run(workload, seed, args.seconds)
                records[workload][side].append(record)
                final = record["final"]
                print(
                    f"{side}{index + 1} {workload} seed {seed}: correct="
                    f"{final['correct']} attempted={final['attempted']} "
                    f"failed={final['failed']} "
                    + " ".join(
                        f"{k}={v['value']:.4g}" for k, v in final["metrics"].items()
                    ),
                    flush=True,
                )
                seed += 1
    report = {}
    for workload, sides in records.items():
        report[workload] = {}
        metrics = list(sides["A"][0]["final"]["metrics"])
        print(f"\n== {workload}: {2 * args.runs} runs")
        print(f"{'metric':18} {'kind':5} {'median':>11} {'q1':>11} {'q3':>11} "
              f"{'spread':>7} {'drift':>7}  used")
        for metric in metrics:
            used = "cal" if metric in sides["A"][0]["detail"]["calibrated_metrics"] else "raw"
            for kind, key in (("raw", "raw"), ("cal", "calibrated")):
                a = [r["detail"][key][metric] for r in sides["A"]]
                b = [r["detail"][key][metric] for r in sides["B"]]
                stats = summary(a + b)
                stats["drift"] = statistics.median(b) / statistics.median(a) - 1.0
                stats["values"] = a + b
                report[workload][f"{metric}.{kind}"] = stats
                print(
                    f"{metric:18} {kind:5} {stats['median']:11.4f} {stats['q1']:11.4f} "
                    f"{stats['q3']:11.4f} {100 * stats['spread']:6.1f}% "
                    f"{100 * stats['drift']:+6.1f}%  {'*' if kind == used else ''}"
                )
    print("PERFBENCH-STEADY " + json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
