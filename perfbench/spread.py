#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload single_test_empirical --seeds 1-10

Runs ``perfbench/run.py --trace 0`` once per seed, one run at a time, for
``run_seconds`` of BENCHMARK.json at the repository root, and prints for
every end-to-end metric the median and the quartile spread
(Q3 - Q1) / median, with the quartiles of
``statistics.quantiles(values, n=4)``, next to the metric's bound. Also
reports whether every run passed its checks.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> tuple[float, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs = []
    for seed in args.seeds:
        result = run_once(args.workload, seed, seconds)
        runs.append(result)
        print(json.dumps({"seed": seed, **result}), file=sys.stderr, flush=True)

    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": seconds,
               "all_correct": all(r["correct"] for r in runs), "metrics": {}}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median, rel = spread(values)
        summary["metrics"][name] = {"median": median, "spread": rel, "values": values,
                                    "bound": bounds[name],
                                    "within_third_of_bound": rel < bounds[name] / 3}
        print(f"{name:40s} median {median:.6g}  spread {rel:.4f}  bound {bounds[name]}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
