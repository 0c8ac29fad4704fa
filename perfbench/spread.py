"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workloads sim_n49_pbd,replay_po --seeds 1-10

Runs the benchmark once per (workload, seed), one process at a time,
and prints per workload and metric the median, the quartiles, and the
interquartile range as a share of the median next to the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_from(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_from(args.seeds):
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
            )
            lines = proc.stdout.splitlines()
            runs.append({"result": json.loads(lines[-1]),
                         "detail": json.loads(lines[-2])["detail"]})
        metrics = {}
        for name, bound in bounds.items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            metrics[name] = {"median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med, "bound": bound}
        methods = sorted({m for r in runs for m in r["detail"]["ms_per_trial"]})
        report[workload] = {
            "seeds": seeds_from(args.seeds),
            "correct": all(r["result"]["correct"] for r in runs),
            "failed": sum(r["result"]["failed"] for r in runs),
            "results_identical": all(r["detail"]["results_identical"] is not False
                                     for r in runs),
            "metrics": metrics,
            "ms_per_trial_median": {
                m: statistics.median(r["detail"]["ms_per_trial"][m] for r in runs)
                for m in methods
            },
            "machine": runs[0]["detail"]["machine"],
        }
        for name, m in metrics.items():
            print(f"{workload:14s} {name:12s} median {m['median']:10.4f}  "
                  f"spread {m['spread']:.4f}  bound {m['bound']}", file=sys.stderr)
    print(json.dumps(report, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
