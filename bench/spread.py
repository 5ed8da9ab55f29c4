"""Run the benchmark once per seed and summarize each end-to-end metric.

    python3 bench/spread.py --workloads anneal,oracle,verify --seeds 1-10 --seconds 30 [--out FILE]

Runs are made one after another, each in its own process, from the root
of the checkout.  For every workload and metric it prints the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, which the bounds in ``BENCHMARK.json`` are
chosen against.  All values go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="anneal,oracle,verify")
    ap.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            lines = proc.stdout.splitlines()
            runs.append(dict(json.loads(lines[-1]), seed=seed, notes=lines[:-1]))
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        names = runs[0]["metrics"]
        report[workload] = {
            "correct": all(r["correct"] for r in runs),
            "failed_share": [r["failed"] / r["attempted"] for r in runs],
            "notes": {r["seed"]: r["notes"] for r in runs},
            "metrics": {k: summarize([r["metrics"][k]["value"] for r in runs]) for k in names},
        }
        for k, s in report[workload]["metrics"].items():
            print(f"  {workload:7s} {k:12s} median {s['median']:.4f}  q1 {s['q1']:.4f}  "
                  f"q3 {s['q3']:.4f}  spread {100 * s['spread']:.2f}%", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
