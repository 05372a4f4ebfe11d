#!/usr/bin/env python3
"""tailtest benchmark: one closed-loop workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The benchmark imports tailtest from ``src/``
next to this directory, generates the workload's inputs from ``--seed``,
then one client in this process runs ops back to back (a closed loop) for
about ``--seconds`` and checks every op's output. With ``--trace 0`` the
last stdout line holds the end-to-end metrics; with ``--trace 1`` the run
measures half the time untraced and half traced and
reports the per-layer metrics. Details (environment, digests, per-kind
times, predicted counts) are printed above the last line. See README.md.
"""

from __future__ import annotations

import os

# Single-threaded numerics: set before numpy is first imported.
THREAD_SETTINGS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                        "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
                                        "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_SETTINGS)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
SETUP_REPEATS = 5

END_TO_END = {"ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
# Per-layer metrics of the traced run: ``.calls`` and ``.self_s`` are per
# cycle of the workload's op schedule.
PER_LAYER = (
    "numerics.stream_init.calls", "numerics.stream_init.self_s",
    "numerics.permutation.calls", "numerics.permutation.self_s",
    "numerics.permutation.distinct_ratio",
    "margins.rank_transform.calls", "margins.rank_transform.self_s",
    "margins.ordinal_ranks.self_s",
    "partitions.count_cells.calls", "partitions.count_cells.self_s",
    "partitions.classify.self_s", "partitions.risk.self_s",
    "divergence.kl_divergence.calls", "divergence.kl_divergence.self_s",
    "inference.bootstrap_null.calls", "inference.bootstrap_null.self_s",
    "inference.bootstrap_null.streams_per_call", "inference.run_test.self_s",
    "copulas.sample.calls", "copulas.sample.self_s", "copulas.conditional_cdf.calls",
    "margins.to_pareto.self_s", "numerics.chisq.calls", "numerics.chisq.self_s",
    "margins.to_pseudo.self_s", "experiments.ks_one_sample.self_s",
    "experiments.study.self_s",
    "ingest.load_csv.self_s", "ingest.load_csv.rows_per_s",
    "ingest.build_pairs.calls", "ingest.build_pairs.distinct_ratio",
    "ingest.seasonal_tests.self_s", "cli.main.self_s",
    "trace.overhead_frac", "trace.span_coverage",
)
UNITS = {"calls": "1/cycle", "self_s": "s/cycle", "distinct_ratio": "ratio",
         "streams_per_call": "1/call", "rows_per_s": "rows/s", "overhead_frac": "ratio",
         "span_coverage": "ratio"}


def import_tailtest() -> float:
    """Import tailtest from this checkout's sources; return the import time."""
    if not (SRC / "tailtest" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tailtest sources at {SRC}")
    sys.path.insert(0, str(SRC))
    start = perf_counter()
    import tailtest
    elapsed = perf_counter() - start
    if Path(tailtest.__file__).resolve().parent != SRC / "tailtest":
        raise SystemExit(f"perfbench: imported tailtest from {tailtest.__file__}, not {SRC}")
    return elapsed


def import_times(first_s: float) -> list[float]:
    """This process's import time and that of fresh child interpreters,
    ``SETUP_REPEATS`` samples in all."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import tailtest; print(time.perf_counter() - t)")
    times = [first_s]
    for _ in range(SETUP_REPEATS - 1):
        done = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                              text=True, check=True, timeout=120)
        times.append(float(done.stdout))
    return times


def environment() -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "loadavg": os.getloadavg(),
        "thread_settings": THREAD_SETTINGS,
    }


class Phase:
    """The ops of one closed loop: wall times, outcomes and digests."""

    def __init__(self, prefix_ops: int):
        self.walls: list[float] = []
        self.kinds: list[str] = []
        self.passed: list[bool] = []
        self._digest = hashlib.sha256()
        self.prefix_ops = prefix_ops
        self.prefix_digest = None

    def record(self, index: int, kind: str, wall: float, values):
        self.walls.append(wall)
        self.kinds.append(kind)
        self.passed.append(values is not None)
        if values is None:
            self._digest.update(f"{index}|{kind}|failed\n".encode())
        else:
            text = ",".join(float(v).hex() for v in values)
            self._digest.update(f"{index}|{kind}|{text}\n".encode())
        if len(self.walls) == self.prefix_ops:
            self.prefix_digest = self._digest.hexdigest()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    @property
    def failed(self) -> int:
        return self.passed.count(False)

    def ops_per_s(self, count=None) -> float:
        """Ops that passed their checks per second of op wall time, over
        the first ``count`` ops (all by default)."""
        return sum(self.passed[:count]) / sum(self.walls[:count])


def closed_loop(workload, budget_s: float, tracer=None) -> Phase:
    """Run ops 0, 1, ... back to back, in whole cycles, until the budget is
    spent.

    At least ``workload.min_ops`` ops run. A further cycle starts only while
    the elapsed time plus half the last cycle's time stays within the budget,
    so every run holds the cycle's op mix exactly.
    """
    phase = Phase(workload.min_ops)
    cycle = len(workload.cycle)
    start = perf_counter()
    index = 0
    while True:
        if index >= workload.min_ops and index % cycle == 0:
            last_cycle_s = sum(phase.walls[-cycle:])
            if perf_counter() - start + 0.5 * last_cycle_s >= budget_s:
                break
        kind = workload.kind(index)
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            output = workload.op(index)
            wall = perf_counter() - t0
        except Exception:  # an op that raises counts as failed; the loop goes on
            wall = perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            output = None
        if tracer is not None:
            tracer.end_op(kind)
        values = None
        if output is not None:
            try:
                values = workload.check(index, output)
            except Exception:
                traceback.print_exc(file=sys.stderr)
        phase.record(index, kind, wall, values)
        index += 1
    return phase


def tail(walls: list[float]) -> tuple[float, float, int]:
    """The p90 op time by nearest rank: (value, percentile, ops beyond).

    A 20-second run of the bootstrap workloads holds 3 to 30 ops, too few
    for a percentile with ten ops beyond it below the median, so the same
    p90 is used everywhere and the ops beyond it are reported."""
    ordered = sorted(walls)
    rank = -(-9 * len(ordered) // 10)  # ceil(0.9 n) in integers
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered) - rank


def per_kind(phase: Phase) -> dict:
    out = {}
    for kind in dict.fromkeys(phase.kinds):
        walls = [w for k, w in zip(phase.kinds, phase.walls) if k == kind]
        out[kind] = {"ops": len(walls), "median_s": statistics.median(walls)}
    return out


def end_to_end(phase: Phase, setup_s: float) -> dict:
    tail_s, _, _ = tail(phase.walls)
    return {
        "ops_per_s": phase.ops_per_s(),
        "op_p50_s": statistics.median(phase.walls),
        "op_tail_s": tail_s,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced: Phase, untraced: Phase, cycles: int) -> dict:
    values = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = tracer.calls[layer] / cycles
        elif field == "self_s":
            values[name] = tracer.self_s[layer] / cycles
        elif field == "distinct_ratio":
            values[name] = tracer.distinct_ratio(layer) or 0.0
    boot_calls = tracer.calls["inference.bootstrap_null"]
    inner_streams = tracer.calls_by_parent["numerics.stream_init", "inference.bootstrap_null"]
    values["inference.bootstrap_null.streams_per_call"] = (
        inner_streams / boot_calls if boot_calls else 0.0)
    load_s = tracer.total_s["ingest.load_csv"]
    values["ingest.load_csv.rows_per_s"] = tracer.rows_parsed / load_s if load_s else 0.0
    common = min(len(traced.walls), len(untraced.walls))
    values["trace.overhead_frac"] = 1.0 - traced.ops_per_s(common) / untraced.ops_per_s(common)
    inner_s = sum(tracer.self_s.values()) - tracer.top_self_s
    values["trace.span_coverage"] = inner_s / sum(traced.walls)
    return values


def trace_report(workload, tracer, traced: Phase, untraced: Phase) -> dict:
    """Per-kind work-sharing ratios against the predicted ones, calls per
    op, layer shares of op time, and the tracing overhead."""
    predictions = []
    for kind, layers in workload.predicted_ratios.items():
        for layer, predicted in layers.items():
            measured = tracer.distinct_ratio(layer, kind)
            predictions.append({"kind": kind, "layer": layer, "predicted_distinct_ratio": predicted,
                                "measured": measured,
                                "holds": measured is not None and abs(measured - predicted) < 1e-12})
    wall = sum(traced.walls)
    shares = {layer: tracer.self_s[layer] / wall for layer in sorted(tracer.self_s)}
    common = min(len(traced.walls), len(untraced.walls))
    return {
        "distinct_ratio_predictions": predictions,
        "calls_per_op": {layer: tracer.calls[layer] / len(traced.walls)
                         for layer in sorted(tracer.calls)},
        "self_time_share_of_op_wall": shares,
        "overhead": {"compared_ops": common,
                     "untraced_ops_per_s": untraced.ops_per_s(common),
                     "traced_ops_per_s": traced.ops_per_s(common),
                     "traced_minus_untraced_ops_per_s":
                         traced.ops_per_s(common) - untraced.ops_per_s(common)},
    }


def phase_report(phase: Phase) -> dict:
    tail_s, percentile, beyond = tail(phase.walls)
    return {"ops": len(phase.walls), "failed": phase.failed, "busy_s": sum(phase.walls),
            "tail": {"value_s": tail_s, "percentile": percentile, "ops_beyond": beyond},
            "per_kind": per_kind(phase), "prefix_ops": phase.prefix_ops,
            "prefix_digest": phase.prefix_digest, "digest": phase.digest}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("single_test_empirical", "study_known", "study_empirical",
                                 "rainfall_cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_tailtest()
    import spans
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    work_root = BENCH_DIR / ".work"
    work_root.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root)
    try:
        generation = []
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            workload.setup(args.seed, workdir)
            generation.append(perf_counter() - start)
        imports = import_times(import_s)
        setup_s = statistics.median(imports) + statistics.median(generation)
        details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "cycle": list(workload.cycle),
                   "environment": environment(),
                   "setup": {"import_s": imports, "generation_s": generation,
                             "setup_s": setup_s}}
        if args.trace == 0:
            phase = closed_loop(workload, args.seconds)
            details["run"] = phase_report(phase)
            metrics = end_to_end(phase, setup_s)
            units = END_TO_END
            attempted, failed, correct = len(phase.walls), phase.failed, phase.failed == 0
        else:
            untraced = closed_loop(workload, args.seconds / 2)
            tracer = spans.Tracer()
            with spans.instrumented(tracer):
                traced = closed_loop(workload, args.seconds / 2, tracer=tracer)
            cycles = len(traced.walls) // len(workload.cycle)
            metrics = per_layer(tracer, traced, untraced, cycles)
            units = {name: UNITS[name.rpartition(".")[2]] for name in PER_LAYER}
            same = traced.prefix_digest == untraced.prefix_digest
            details["untraced"] = phase_report(untraced)
            details["traced"] = dict(phase_report(traced), cycles=cycles,
                                     prefix_digest_matches_untraced=same)
            details["trace"] = trace_report(workload, tracer, traced, untraced)
            attempted = len(untraced.walls) + len(traced.walls)
            failed = untraced.failed + traced.failed
            correct = failed == 0 and same
        details["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                              for name in units}
        print(json.dumps(details, indent=1))
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": details["metrics"]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
