"""Steadiness check: run one workload over several seeds and report spreads.

    python3 lexbench/steady.py --workload wordnet-80k [--first-seed 0]

Runs the benchmark once for each of RUNS consecutive seeds, one run at a
time, with the settings in BENCHMARK.json.  For each end-to-end metric it
prints the median and the distance between the first and third quartile
as a share of the median (``statistics.quantiles(values, n=4)``), next to
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--first-seed", type=int, default=0)
    ns = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    values: dict[str, list[float]] = {}
    ok = True
    for seed in range(ns.first_seed, ns.first_seed + RUNS):
        argv = [sys.executable, *spec["command"][1:], "--workload", ns.workload,
                "--seed", str(seed), "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        ok &= done.returncode == 0 and result["correct"] and result["failed"] == 0
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(f"{k}={v['value']:.5g}"
                                                   for k, v in result["metrics"].items()))
    for metric in spec["end_to_end"]:
        vals = values[metric["name"]]
        q1, median, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / median
        print(f"{metric['name']:>15}: median {median:.5g} {metric['unit']}, spread {spread:.2%} "
              f"(bound {metric['bound']:.0%}, a third of it {metric['bound'] / 3:.1%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
