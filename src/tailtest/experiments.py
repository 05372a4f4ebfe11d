"""Monte Carlo studies: size/power over a k_n grid, the role of the cell
count K, and bootstrap-vs-fresh null comparisons.

Repetition r of any study draws its data from streams keyed by the plan
seed and r, so results are reproducible and independent of the worker
count; partial re-runs of a repetition range produce identical numbers.
The k study and the K study run the same repetition: ``_targets`` turns the
grid into ``(partition, k)`` targets once per plan, both samples of a
repetition are counted over all of them in one ``count_cells`` pass, and one
calibration serves every grid point. ``_aggregate`` reduces
all grid points in one array pass.
Studies emit plot-ready long-format CSV rows plus a JSON manifest carrying
the plan, seed and package version.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import __version__
from .copulas import CopulaModel, sample
from .divergence import jeffreys, kl_divergence
from .errors import ConfigError
from .inference import (_CHUNK_POINTS, RISK_ALIASES, TestConfig, _check_bootstrap_size,
                        bootstrap_null, build_partition, calibrate)
from .margins import _pareto, _pseudo, standardize, uniform_cdf
from .numerics import RngStream, chisq_cdf
from .partitions import (Partition, cell_counts, count_cells, make_angular_partition,
                         make_max_partition)

_UNIFORM_PAIR = (uniform_cdf, uniform_cdf)


@dataclass(frozen=True)
class ExperimentPlan:
    """One simulation study: two models, a grid, and aggregation settings."""

    model_x: CopulaModel
    model_y: CopulaModel
    n: int
    repetitions: int
    risk: str = "euclidean"
    num_cells: Optional[int] = None
    k_grid: Optional[tuple[int, ...]] = None
    K_grid: Optional[tuple[int, ...]] = None
    k_exceedances: Optional[int] = None
    margins: str = "known"
    level: float = 0.05
    bootstrap_replicates: int = 1000
    seed: int = 0
    workers: int = 1

    def __post_init__(self):
        if self.repetitions < 1:
            raise ConfigError(f"repetitions must be >= 1, got {self.repetitions}")
        if self.risk not in RISK_ALIASES:
            raise ConfigError(f"risk must be one of {sorted(RISK_ALIASES)}, got {self.risk!r}")
        if (self.k_grid is None) == (self.K_grid is None):
            raise ConfigError("exactly one of k_grid and K_grid must be set")
        if self.k_grid is not None:
            object.__setattr__(self, "k_grid", tuple(int(k) for k in self.k_grid))
            if not self.k_grid:
                raise ConfigError("k_grid must be non-empty")
            if min(self.k_grid) < 1:
                raise ConfigError(f"k_grid values must be >= 1, got {self.k_grid}")
            if self.k_exceedances is not None:
                raise ConfigError("the k study takes its k values from k_grid; "
                                  "k_exceedances must not be set")
        else:
            object.__setattr__(self, "K_grid", tuple(int(K) for K in self.K_grid))
            if not self.K_grid:
                raise ConfigError("K_grid must be non-empty")
            if any(not 2 <= K <= 12 for K in self.K_grid):
                raise ConfigError(f"K grid must lie within 2..12, got {self.K_grid}")
            if RISK_ALIASES[self.risk] not in ("euclidean", "sum"):
                raise ConfigError("the K study varies angular partitions; risk must be euclidean or sum")
            if self.k_exceedances is None:
                raise ConfigError("the K study needs a fixed k_exceedances")
            if self.num_cells is not None:
                raise ConfigError("the K study takes its cell counts from K_grid; "
                                  "num_cells must not be set")
        if self.workers < 1:
            raise ConfigError(f"workers must be >= 1, got {self.workers}")
        # Every size, test and partition rule fires here, before any repetition samples.
        for k in self.k_grid or (self.k_exceedances,):
            if k >= self.n:
                raise ConfigError(f"every k must be below n={self.n}, got k={k}")
            if self.margins == "empirical":
                _check_bootstrap_size(self.n, k, "x")
        # Kept for every repetition: no repetition's seed changes the targets.
        object.__setattr__(self, "_grid_targets", _targets(self, _rep_config(self, 0)))

    def to_manifest(self) -> dict:
        plan = dataclasses.asdict(self)
        return {"plan": plan, "seed": self.seed, "version": __version__}


@dataclass(frozen=True)
class PowerCurvePoint:
    grid_value: int
    mean_statistic: float
    q05: float
    q95: float
    rejection_rate: float
    critical_value: float


@dataclass(frozen=True)
class PowerCurve:
    """Aggregates over repetitions, one point per grid value."""

    grid_name: str
    points: tuple[PowerCurvePoint, ...]
    baseline: Optional[dict] = None  # max-risk reference in the K study

    def rejection_rates(self) -> dict[int, float]:
        return {p.grid_value: p.rejection_rate for p in self.points}

    def to_rows(self) -> list[tuple]:
        rows = []
        for p in self.points:
            for aggregate in ("mean_statistic", "q05", "q95", "rejection_rate", "critical_value"):
                rows.append((self.grid_name, p.grid_value, aggregate, getattr(p, aggregate)))
        if self.baseline is not None:
            for key, value in self.baseline.items():
                rows.append(("baseline", "", key, value))
        return rows


def derived_seed(master_seed: int, index: int) -> int:
    """Deterministic per-repetition seed, collision-free across indices."""
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(index,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _rep_config(plan: ExperimentPlan, rep: int) -> TestConfig:
    """Test settings shared by every grid point of repetition ``rep``; each
    grid point brings its own partition and k to ``calibrate``."""
    return TestConfig(
        k_exceedances=plan.k_grid[0] if plan.k_grid else plan.k_exceedances,
        risk=plan.risk,
        num_cells=plan.num_cells,
        level=plan.level,
        margins=plan.margins,
        bootstrap_replicates=plan.bootstrap_replicates,
        seed=derived_seed(plan.seed, rep),
    )


def _targets(plan: ExperimentPlan, config: TestConfig) -> list[tuple[Partition, int]]:
    """The ``(partition, k)`` target of each grid point: the configured
    partition at every k of the k study, or the angular partition of every K
    of the K study at its fixed k with the max-risk baseline last."""
    if plan.k_grid is not None:
        partition = build_partition(config, 2)      # every copula sample is bivariate
        return [(partition, k) for k in plan.k_grid]
    partitions = [make_angular_partition(config.risk, K) for K in plan.K_grid]
    partitions.append(make_max_partition(2))
    return [(part, plan.k_exceedances) for part in partitions]


def _study_rep(args: tuple[ExperimentPlan, int]) -> np.ndarray:
    """Statistic, p-value and D-scale critical value (one row per target) of
    repetition ``rep``: both samples are counted in one pass over all of the
    plan's targets, and all targets share one calibration."""
    plan, rep = args
    targets = plan._grid_targets
    # Streams (rep, 0) and (rep, 1): RngStream(plan.seed, (rep,)).child(side),
    # without building the repetition's own stream, which draws nothing.
    x = sample(plan.model_x, plan.n, RngStream(plan.seed, (rep, 0)))
    y = sample(plan.model_y, plan.n, RngStream(plan.seed, (rep, 1)))
    xs, ys = (standardize(s, plan.margins, _UNIFORM_PAIR) for s in (x, y))
    config = _rep_config(plan, rep)
    divs = [kl_divergence(cx, cy) for cx, cy in zip(*count_cells((xs, ys), targets))]
    [calibrations] = calibrate([(divs, targets, xs, ys)], config)
    return np.array([(div.value, cal.p_value, cal.critical_value(config.level))
                     for div, cal in zip(divs, calibrations)])


def _map_reps(plan: ExperimentPlan) -> np.ndarray:
    """The (repetitions, targets, 3) rows of every repetition of ``plan``, all
    on the targets the plan built once."""
    args = [(plan, r) for r in range(plan.repetitions)]
    workers = min(plan.workers, plan.repetitions)
    if workers > 1:
        chunk = max(1, plan.repetitions // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return np.stack(list(pool.map(_study_rep, args, chunksize=chunk)))
    return np.stack([_study_rep(a) for a in args])


def _aggregate(grid_values, results: np.ndarray, level: float) -> list[PowerCurvePoint]:
    """One point per grid value from the (repetitions, G, 3) study rows. Each
    reduction runs along a contiguous axis of repetitions, which numpy sums
    pairwise like each grid point's own 1-D run (over axis 0 it would not)."""
    stats, pvals, crits = np.ascontiguousarray(results.T)      # each (G, repetitions)
    q05, q95 = np.quantile(stats, [0.05, 0.95], axis=-1)
    return [PowerCurvePoint(int(g), float(mean), float(lo), float(hi), float(rate), float(crit))
            for g, mean, lo, hi, rate, crit in zip(grid_values, stats.mean(axis=-1), q05, q95,
                                                   (pvals < level).mean(axis=-1),
                                                   crits.mean(axis=-1))]


def size_power_study(plan: ExperimentPlan) -> PowerCurve:
    """Rejection rate and statistic quantiles over the k_n grid."""
    if plan.k_grid is None:
        raise ConfigError("size_power_study needs a k_grid plan")
    return PowerCurve("k_exceedances", tuple(_aggregate(plan.k_grid, _map_reps(plan), plan.level)))


def k_sensitivity_study(plan: ExperimentPlan) -> PowerCurve:
    """Rejection rate over the number of angular cells, with a max-risk baseline."""
    if plan.K_grid is None:
        raise ConfigError("k_sensitivity_study needs a K_grid plan")
    *points, base = _aggregate((*plan.K_grid, 2 ** 2 - 1), _map_reps(plan), plan.level)
    baseline = {
        "risk": "max",
        "num_cells": base.grid_value,
        "mean_statistic": base.mean_statistic,
        "rejection_rate": base.rejection_rate,
    }
    return PowerCurve("num_cells", tuple(points), baseline=baseline)


def ks_statistic_one_sample(values: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF."""
    vals = np.sort(np.asarray(values, dtype=np.float64))
    n = vals.size
    cdf_vals = np.asarray([cdf(v) for v in vals])
    grid = np.arange(1, n + 1) / n
    return float(max(np.max(grid - cdf_vals), np.max(cdf_vals - (grid - 1.0 / n))))


def ks_statistic_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    pooled = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, pooled, side="right") / a.size
    cdf_b = np.searchsorted(b, pooled, side="right") / b.size
    return float(np.max(np.abs(cdf_a - cdf_b)))


@dataclass(frozen=True)
class NullModeResult:
    """Bootstrap and fresh-simulation null replicates for one margin mode."""

    bootstrap: np.ndarray
    fresh: np.ndarray
    ks_bootstrap_vs_fresh: float
    ks_fresh_vs_chisq: Optional[float]


@dataclass(frozen=True)
class NullStudyResult:
    known: NullModeResult
    empirical: NullModeResult
    model: CopulaModel
    n: int
    k_exceedances: int
    num_cells: int
    seed: int


def null_histogram_study(model: CopulaModel, n: int, k_exceedances: int,
                         num_cells: int, bootstrap_replicates: int,
                         seed: int = 0, risk: str = "euclidean") -> NullStudyResult:
    """Bootstrap null from one dataset vs the true null from fresh datasets.

    Both margin modes are produced. For known margins the fresh replicates,
    normalized by k_n/2, are additionally compared against chi-squared(K-1).
    """
    if bootstrap_replicates < 1:
        raise ConfigError(f"bootstrap_replicates must be >= 1, got {bootstrap_replicates}")
    # Checks k, risk and cell count; known margins set no replicate floor.
    config = TestConfig(k_exceedances=k_exceedances, risk=risk, num_cells=num_cells,
                        margins="known")
    _check_bootstrap_size(n, k_exceedances, "x")
    partition = make_angular_partition(config.risk, num_cells)
    base_stream = RngStream(seed)
    raw = sample(model, n, base_stream.child(0))
    dof = num_cells - 1

    fresh_nulls = _fresh_nulls(model, n, k_exceedances, partition, bootstrap_replicates,
                               base_stream.child(2))
    modes = {}
    for mode_ix, margins in enumerate(("known", "empirical")):
        source = standardize(raw, margins, _UNIFORM_PAIR)
        [null] = bootstrap_null(source, [(partition, k_exceedances)], bootstrap_replicates,
                                base_stream.child(1).child(mode_ix))
        boot = null.replicates
        fresh = fresh_nulls[margins]

        ks_chisq = None
        if margins == "known":
            ks_chisq = ks_statistic_one_sample(k_exceedances * fresh / 2.0,
                                               lambda v: chisq_cdf(v, dof))
        modes[margins] = NullModeResult(
            bootstrap=boot,
            fresh=fresh,
            ks_bootstrap_vs_fresh=ks_statistic_two_sample(boot, fresh),
            ks_fresh_vs_chisq=ks_chisq,
        )
    return NullStudyResult(modes["known"], modes["empirical"], model, n,
                           k_exceedances, num_cells, seed)


def _fresh_nulls(model: CopulaModel, n: int, k_n: int, partition: Partition, count: int,
                 stream: RngStream) -> dict[str, np.ndarray]:
    """Statistic of each of ``count`` fresh null pairs in both margin modes.

    Pair b draws its two samples from ``stream.child(b, side)``, once for both
    modes. Pairs are standardized, counted and scored max(1, _CHUNK_POINTS // n)
    at a time.
    """
    fresh = {"known": np.empty(count), "empirical": np.empty(count)}
    chunk = max(1, _CHUNK_POINTS // n)
    for start in range(0, count, chunk):
        stop = min(count, start + chunk)
        raw = np.array([[sample(model, n, stream.child(b, side)).data for side in (0, 1)]
                        for b in range(start, stop)])
        for margins in fresh:
            # to_pareto with uniform CDFs, or to_pseudo, of every sample at once.
            data = _pareto(raw) if margins == "known" else _pseudo(raw)
            counts = cell_counts(data, [(partition, k_n)])[0][1]    # (pairs, 2, K)
            fresh[margins][start:stop] = jeffreys(counts[:, 0], counts[:, 1], k_n)[0]
    return fresh


def write_power_outputs(curve: PowerCurve, plan: ExperimentPlan, outdir: str,
                        name: str = "power") -> dict:
    """Long-format CSV (grid point x aggregate) plus a reproducibility manifest."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, f"{name}.csv")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["grid_name", "grid_value", "aggregate", "value"])
        writer.writerows(curve.to_rows())
    manifest = plan.to_manifest()
    manifest["command"] = name
    manifest_path = os.path.join(outdir, f"{name}_manifest.json")
    manifest["outputs"] = {"csv": csv_path, "manifest": manifest_path}
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest


def write_nulls_outputs(result: NullStudyResult, outdir: str) -> dict:
    """Replicate vectors per margin mode plus KS distances and a manifest."""
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "null_replicates.csv")
    manifest_path = os.path.join(outdir, "nulls_manifest.json")
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["margins", "source", "replicate", "value"])
        for margins, mode in (("known", result.known), ("empirical", result.empirical)):
            for b, v in enumerate(mode.bootstrap):
                writer.writerow([margins, "bootstrap", b, repr(float(v))])
            for b, v in enumerate(mode.fresh):
                writer.writerow([margins, "fresh", b, repr(float(v))])
    manifest = {
        "command": "nulls",
        "model": dataclasses.asdict(result.model),
        "n": result.n,
        "k_exceedances": result.k_exceedances,
        "num_cells": result.num_cells,
        "seed": result.seed,
        "version": __version__,
        "ks": {
            "known_bootstrap_vs_fresh": result.known.ks_bootstrap_vs_fresh,
            "empirical_bootstrap_vs_fresh": result.empirical.ks_bootstrap_vs_fresh,
            "known_fresh_vs_chisq": result.known.ks_fresh_vs_chisq,
        },
        "outputs": {"csv": csv_path, "manifest": manifest_path},
    }
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
    return manifest
