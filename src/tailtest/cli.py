"""Command-line entry point.

Subcommands: simulate, standardize, test, power, nulls, rainfall. Every
run prints one JSON document to stdout (a report or a manifest) and
artifact-producing runs write the same manifest next to their outputs, so
any run can be reproduced from its recorded flags, seed and version.

Exit codes: 0 success / null not rejected, 2 invalid flags, 3 null
rejected by ``test``, 4 numerical or data failure. ``rainfall`` exits 0
whatever its season pairs decide: its six tests form one family, and an exit
code can only say "rejected" for it once a multiplicity adjustment (Holm)
is applied across them. Each pair's decision is in its report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import __version__
from .copulas import CopulaModel, sample
from .errors import FormatError, TailTestError
from .experiments import (ExperimentPlan, k_sensitivity_study, null_histogram_study,
                          size_power_study, write_nulls_outputs, write_power_outputs)
from .inference import TestConfig, run_test
from .ingest import load_csv, seasonal_tests
from .margins import KNOWN_CDF_STUBS, Sample, standardize
from .numerics import RngStream

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECT = 3
EXIT_FAILURE = 4

_FAMILIES = {
    "logistic": "logistic",
    "outer-power-clayton": "outer_power_clayton",
    "asymmetric-logistic": "asymmetric_logistic",
}


def _sets_type(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("at least 2 partition sets are required")
    return value


def _grid_type(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}")


def _add_model_args(parser, suffix=""):
    parser.add_argument(f"--family{suffix}", required=True, choices=sorted(_FAMILIES))
    parser.add_argument(f"--theta{suffix}", type=float, required=True)
    parser.add_argument(f"--psi{suffix}", type=float, nargs=2, default=None,
                        metavar=("PSI1", "PSI2"))


def _model_from_args(args, suffix=""):
    family = _FAMILIES[getattr(args, f"family{suffix}".replace("-", "_"))]
    theta = getattr(args, f"theta{suffix}".replace("-", "_"))
    psi = getattr(args, f"psi{suffix}".replace("-", "_"))
    return CopulaModel(family, theta, tuple(psi) if psi else None)


def _add_test_flags(parser, k_help=None):
    """Flags of ``TestConfig`` shared by test, power and rainfall; --k-exceedances
    is required unless ``k_help`` says when it is read."""
    parser.add_argument("--risk", default="l2", choices=["max", "min", "l2", "l1"])
    parser.add_argument("--sets", type=_sets_type, default=None,
                        help="number of partition cells (required for l1/l2)")
    parser.add_argument("--k-exceedances", type=int, required=k_help is None, help=k_help)
    parser.add_argument("--level", type=float, default=0.05)
    parser.add_argument("--seed", type=int, default=0)


def _test_config(args, **fields) -> TestConfig:
    return TestConfig(k_exceedances=args.k_exceedances, risk=args.risk, num_cells=args.sets,
                      level=args.level, bootstrap_replicates=args.bootstrap, seed=args.seed,
                      **fields)


def _add_margins_flag(parser):
    parser.add_argument("--margins", default="empirical", choices=["known", "empirical"])


def _add_bootstrap_flag(parser):
    """--bootstrap, shared by test, power, nulls and rainfall."""
    parser.add_argument("--bootstrap", type=int, default=1000,
                        help="split-half bootstrap replicates (test and power read "
                             "it only with empirical margins)")


def _default_outdir(args) -> str:
    if getattr(args, "outdir", None):
        return args.outdir
    return os.environ.get("TAILTEST_OUTDIR", ".")


def _read_sample(path: str) -> Sample:
    try:
        with open(path) as fh:
            header = fh.readline()
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise TailTestError(f"could not read sample CSV {path!r}: {exc}") from exc
    try:
        [float(field) for field in header.split(",")]
    except ValueError:
        return Sample(data)
    raise FormatError(f"sample CSV {path!r} has no header row: its first record "
                      f"{header.strip()!r} parses as numbers")


def _write_sample(path: str, data: np.ndarray):
    """``data`` as CSV under an ``x1,x2,...`` header, each value as ``%.17g``:
    the bytes of ``np.savetxt(..., fmt="%.17g")``, formatted in one pass."""
    n, d = data.shape
    with open(path, "w") as fh:
        fh.write(",".join(f"x{j + 1}" for j in range(d)) + "\n")
        fh.write((",".join(["%.17g"] * d) + "\n") * n % tuple(data.ravel().tolist()))


def _write_json(doc: dict, path: str):
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)


def _publish(doc: dict, path: str | None = None):
    """Write ``doc`` to ``path`` (if any), then print it as the run's stdout document."""
    if path:
        _write_json(doc, path)
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _cmd_simulate(args) -> int:
    model = _model_from_args(args)
    drawn = sample(model, args.size, RngStream(args.seed))
    _write_sample(args.out, drawn.data)
    manifest_path = args.out + ".manifest.json"
    doc = {
        "command": "simulate",
        "model": dataclasses.asdict(model),
        "n": args.size,
        "seed": args.seed,
        "outputs": {"csv": args.out, "manifest": manifest_path},
        "version": __version__,
    }
    _publish(doc, manifest_path)
    return EXIT_OK


def _cmd_standardize(args) -> int:
    raw = _read_sample(args.input)
    out = standardize(raw, args.margins, [KNOWN_CDF_STUBS[args.known_cdf]] * raw.d)
    _write_sample(args.out, out.data)
    manifest_path = args.out + ".manifest.json"
    doc = {
        "command": "standardize",
        "input": args.input,
        "margins": args.margins,
        "known_cdf": args.known_cdf if args.margins == "known" else None,
        "n": out.n,
        "dim": out.d,
        "rank_ties": out.ties,
        "outputs": {"csv": args.out, "manifest": manifest_path},
        "version": __version__,
    }
    _publish(doc, manifest_path)
    return EXIT_OK


def _cmd_test(args) -> int:
    config = _test_config(args, margins=args.margins, bootstrap_source=args.bootstrap_source)
    x = _read_sample(args.x)
    y = _read_sample(args.y)
    report = run_test(x, y, config, known_cdfs=[KNOWN_CDF_STUBS[args.known_cdf]] * x.d)
    _publish(report.to_dict(), args.out)
    return EXIT_REJECT if report.reject else EXIT_OK


def _cmd_power(args) -> int:
    if (args.k_grid is None) == (args.set_grid is None):
        raise TailTestError("pass exactly one of --k-grid and --set-grid")
    plan = ExperimentPlan(
        model_x=_model_from_args(args, "-x"),
        model_y=_model_from_args(args, "-y"),
        n=args.size,
        repetitions=args.reps,
        risk=args.risk,
        num_cells=args.sets,
        k_grid=args.k_grid,
        K_grid=args.set_grid,
        k_exceedances=args.k_exceedances,
        margins=args.margins,
        level=args.level,
        bootstrap_replicates=args.bootstrap,
        seed=args.seed,
        workers=args.workers,
    )
    study, name = ((size_power_study, "power") if plan.k_grid is not None
                   else (k_sensitivity_study, "ksets"))
    _publish(write_power_outputs(study(plan), plan, _default_outdir(args), name=name))
    return EXIT_OK


def _cmd_nulls(args) -> int:
    model = _model_from_args(args)
    result = null_histogram_study(model, args.size, args.k_exceedances, args.sets,
                                  args.bootstrap, seed=args.seed, risk=args.risk)
    _publish(write_nulls_outputs(result, _default_outdir(args)))
    return EXIT_OK


def _cmd_rainfall(args) -> int:
    config = _test_config(args, margins="empirical")
    series = load_csv(args.input, timestamp_col=args.timestamp_col,
                      depth_col=args.depth_col, missing_token=args.missing_token,
                      station_id=args.station)
    outcomes = seasonal_tests(series, config,
                              drop_incomplete_days=not args.keep_incomplete_days,
                              drop_dry_days=not args.keep_dry_days)
    outdir = _default_outdir(args)
    os.makedirs(outdir, exist_ok=True)

    seasons_doc = {}
    outputs = {}
    for season, pairs in outcomes.seasons.items():
        if isinstance(pairs, str):
            seasons_doc[season] = {"days": None, "error": pairs}
            continue
        path = os.path.join(outdir, f"pairs_{season}.csv")
        _write_sample(path, pairs.data)
        outputs[f"pairs_{season}"] = path
        seasons_doc[season] = {"days": pairs.n, "error": None}

    pairs_doc = {}
    for (sx, sy), outcome in outcomes.items():
        key = f"{sx}_{sy}"
        if outcome.report is None:
            pairs_doc[key] = {"error": outcome.error}
            continue
        report_path = os.path.join(outdir, f"report_{key}.json")
        _write_json(outcome.report.to_dict(), report_path)
        outputs[f"report_{key}"] = report_path
        pairs_doc[key] = {
            "error": None,
            "p_value": outcome.report.p_value,
            "reject": outcome.report.reject,
            "statistic": outcome.report.statistic,
            "k_used": outcome.k_used,
        }
    doc = {
        "command": "rainfall",
        "input": args.input,
        "station": args.station,
        "seasons": seasons_doc,
        "pairs": pairs_doc,
        "outputs": outputs,
        "version": __version__,
    }
    _publish(doc, os.path.join(outdir, "rainfall_summary.json"))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailtest",
        description="Two-sample divergence test for multivariate extremal dependence.",
    )
    parser.add_argument("--version", action="version", version=f"tailtest {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="draw a bivariate copula sample to CSV")
    _add_model_args(p_sim)
    p_sim.add_argument("-n", "--size", type=int, required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=_cmd_simulate)

    p_std = sub.add_parser("standardize", help="transform a sample to the Pareto scale")
    p_std.add_argument("input")
    _add_margins_flag(p_std)
    p_std.add_argument("--known-cdf", default="uniform", choices=sorted(KNOWN_CDF_STUBS))
    p_std.add_argument("--out", required=True)
    p_std.set_defaults(func=_cmd_standardize)

    p_test = sub.add_parser("test", help="two-sample extremal dependence test")
    p_test.add_argument("x")
    p_test.add_argument("y")
    _add_test_flags(p_test)
    _add_margins_flag(p_test)
    _add_bootstrap_flag(p_test)
    p_test.add_argument("--known-cdf", default="uniform", choices=sorted(KNOWN_CDF_STUBS))
    p_test.add_argument("--bootstrap-source", default="x", choices=["x", "symmetric"])
    p_test.add_argument("--out", default=None, help="also write the report JSON here")
    p_test.set_defaults(func=_cmd_test)

    p_power = sub.add_parser("power", help="size/power study over a grid")
    _add_model_args(p_power, "-x")
    _add_model_args(p_power, "-y")
    p_power.add_argument("-n", "--size", type=int, required=True)
    p_power.add_argument("--reps", type=int, default=500)
    p_power.add_argument("--k-grid", type=_grid_type, default=None,
                         help="comma-separated exceedance numbers")
    p_power.add_argument("--set-grid", type=_grid_type, default=None,
                         help="comma-separated cell counts (angular risks)")
    _add_test_flags(p_power, k_help="fixed k for the --set-grid study")
    p_power.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    p_power.add_argument("--outdir", default=None)
    _add_margins_flag(p_power)
    _add_bootstrap_flag(p_power)
    p_power.set_defaults(func=_cmd_power)

    p_nulls = sub.add_parser("nulls", help="bootstrap vs fresh null replicates")
    _add_model_args(p_nulls)
    p_nulls.add_argument("-n", "--size", type=int, required=True)
    p_nulls.add_argument("--k-exceedances", type=int, required=True)
    p_nulls.add_argument("--sets", type=_sets_type, required=True)
    p_nulls.add_argument("--risk", default="l2", choices=["l2", "l1"])
    _add_bootstrap_flag(p_nulls)
    p_nulls.add_argument("--seed", type=int, default=0)
    p_nulls.add_argument("--outdir", default=None)
    p_nulls.set_defaults(func=_cmd_nulls)

    p_rain = sub.add_parser("rainfall", help="seasonal precipitation pipeline")
    p_rain.add_argument("input")
    p_rain.add_argument("--timestamp-col", default="timestamp")
    p_rain.add_argument("--depth-col", default="depth")
    p_rain.add_argument("--missing-token", default="")
    p_rain.add_argument("--station", default="")
    _add_test_flags(p_rain)
    _add_bootstrap_flag(p_rain)
    p_rain.add_argument("--keep-dry-days", action="store_true")
    p_rain.add_argument("--keep-incomplete-days", action="store_true")
    p_rain.add_argument("--outdir", default=None)
    p_rain.set_defaults(func=_cmd_rainfall)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        # An angular partition has no implied cell count; only a --set-grid supplies one.
        if getattr(args, "risk", None) in ("l1", "l2") and args.sets is None \
                and getattr(args, "set_grid", None) is None:
            parser.error(f"{args.command}: angular risks (l1, l2) need --sets")
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except TailTestError as exc:
        print(f"tailtest: error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except FloatingPointError as exc:
        print(f"tailtest: numerical failure: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
