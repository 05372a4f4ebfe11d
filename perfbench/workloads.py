"""The four closed-loop workloads.

Each workload generates its inputs from the workload seed in ``setup`` and
then serves ops by index: op ``i`` is the ``i mod len(cycle)`` entry of a
fixed cycle, and everything random in it derives from ``(seed, i)``, so the
same seed and index always give the same op and the same results. ``op``
calls the program and returns its raw output (this is the timed part);
``check`` validates that output and returns the numbers the results digest
hashes. Ops call tailtest through module attributes so the traced run's
rebinding reaches them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os

import numpy as np
from tailtest import cli, experiments, inference
from tailtest.copulas import CopulaModel, match_chi, sample, theoretical_chi
from tailtest.experiments import ExperimentPlan
from tailtest.inference import TestConfig
from tailtest.ingest import SEASONS, SLOTS_PER_DAY, season_of_month
from tailtest.numerics import RngStream

import checks

N = 2000
K_GRID = (50, 100, 200, 400)
CELL_GRID = tuple(range(2, 9))
OPC_PAIR = (CopulaModel("outer_power_clayton", 0.45), CopulaModel("outer_power_clayton", 0.55))


def op_seed(seed: int, index: int) -> int:
    """Seed of op ``index``: distinct per op, a pure function of (seed, index)."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=(index,)).generate_state(1)
    return int(state[0])


def asymmetric_pair() -> tuple[CopulaModel, CopulaModel]:
    """Asymmetric logistic with the same extremal correlation as logistic(0.5)."""
    psi = (0.85, 0.6)
    target = theoretical_chi(CopulaModel("logistic", 0.5))
    return CopulaModel("asymmetric_logistic", match_chi(target, psi), psi), CopulaModel("logistic", 0.5)


class Workload:
    name = ""
    cycle: tuple[str, ...] = ()
    min_ops = 1              # ops every run completes; the digest prefix
    predicted_ratios: dict = {}  # kind -> layer -> distinct keys / draws

    def kind(self, index: int) -> str:
        return self.cycle[index % len(self.cycle)]

    def setup(self, seed: int, workdir: str):
        """Generate the inputs from ``seed``; files go under ``workdir``."""
        self.seed = seed

    def op(self, index: int):
        raise NotImplementedError

    def check(self, index: int, output) -> list[float]:
        raise NotImplementedError


class SingleTestEmpirical(Workload):
    """One empirical-margin ``run_test`` (n=2000, k=200, B=1000) on a
    pre-generated pair; a fixed mix of partitions and bootstrap sources."""

    name = "single_test_empirical"
    # Five of eight ops share one kind, so the median op is always of that kind.
    cycle = ("euclidean-5", "max-3", "euclidean-5", "euclidean-5-symmetric", "euclidean-5",
             "euclidean-5", "sum-4", "euclidean-5")
    min_ops = len(cycle)
    predicted_ratios = {kind: {"numerics.permutation": 1.0} for kind in dict.fromkeys(cycle)}
    _options = {
        "euclidean-5": dict(risk="euclidean", num_cells=5),
        "euclidean-5-symmetric": dict(risk="euclidean", num_cells=5, bootstrap_source="symmetric"),
        "max-3": dict(risk="max"),
        "sum-4": dict(risk="sum", num_cells=4),
    }
    _pairs = 3

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.pairs = [tuple(sample(model, N, RngStream(seed, (p, side)))
                            for side, model in enumerate(OPC_PAIR))
                      for p in range(self._pairs)]

    def op(self, index):
        x, y = self.pairs[index % self._pairs]
        config = TestConfig(k_exceedances=200, margins="empirical", bootstrap_replicates=1000,
                            seed=op_seed(self.seed, index), **self._options[self.kind(index)])
        return inference.run_test(x, y, config).to_dict()

    def check(self, index, doc):
        x, y = self.pairs[index % self._pairs]
        checks.check_report(doc, x.data, y.data)
        return [doc["statistic"], doc["p_value"]]


class _Study(Workload):
    """One repetition of a study per op, with its own plan seed."""

    margins = "known"
    replicates = 1000

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.asymmetric = asymmetric_pair()

    def _plan(self, index, **grid) -> ExperimentPlan:
        return ExperimentPlan(n=N, repetitions=1, margins=self.margins,
                              bootstrap_replicates=self.replicates,
                              seed=op_seed(self.seed, index), workers=1, **grid)

    def op(self, index):
        kind = self.kind(index)
        if kind == "k-grid":
            return experiments.size_power_study(self._plan(
                index, model_x=OPC_PAIR[0], model_y=OPC_PAIR[1], risk="euclidean",
                num_cells=5, k_grid=K_GRID))
        if kind == "K-grid":
            return experiments.k_sensitivity_study(self._plan(
                index, model_x=self.asymmetric[0], model_y=self.asymmetric[1],
                risk="euclidean", K_grid=CELL_GRID, k_exceedances=200))
        return experiments.null_histogram_study(CopulaModel("logistic", 0.45), N, 200, 5,
                                                self.replicates, seed=op_seed(self.seed, index))

    def check(self, index, output):
        kind = self.kind(index)
        if kind == "nulls":
            checks.check_nulls(output, self.replicates)
            values = []
            for mode in (output.known, output.empirical):
                values += mode.bootstrap.tolist() + mode.fresh.tolist()
                values.append(mode.ks_bootstrap_vs_fresh)
            return values + [output.known.ks_fresh_vs_chisq]
        grid = K_GRID if kind == "k-grid" else CELL_GRID
        checks.check_curve(output, grid, baseline=kind == "K-grid")
        values = [v for p in output.points
                  for v in (p.mean_statistic, p.rejection_rate, p.critical_value)]
        if output.baseline is not None:
            values += [output.baseline["mean_statistic"], output.baseline["rejection_rate"]]
        return values


class StudyKnown(_Study):
    """Known-margin k-grid repetition alternating with a K-grid repetition."""

    name = "study_known"
    cycle = ("k-grid", "K-grid")
    min_ops = 40


class StudyEmpirical(_Study):
    """Empirical k-grid, K-grid and null-histogram repetitions, B=200."""

    name = "study_empirical"
    cycle = ("k-grid", "K-grid", "nulls")
    min_ops = len(cycle)
    margins = "empirical"
    replicates = 200
    # Every grid point redraws the repetition's permutations.
    predicted_ratios = {"k-grid": {"numerics.permutation": 1 / len(K_GRID)},
                        "K-grid": {"numerics.permutation": 1 / (len(CELL_GRID) + 1)},
                        "nulls": {"numerics.permutation": 1.0}}


RAIN_DAYS = 360
RAIN_K = 60
RAIN_B = 1000
RAIN_MODELS = {
    "DJF": CopulaModel("outer_power_clayton", 0.3),
    "MAM": CopulaModel("outer_power_clayton", 0.7),
    "JJA": CopulaModel("logistic", 0.45),
    "SON": CopulaModel("outer_power_clayton", 0.5),
}


def season_days(season: str, n_days: int, start_year: int = 2006) -> np.ndarray:
    """The first ``n_days`` calendar days of ``season`` from ``start_year`` on."""
    days = np.arange(np.datetime64(f"{start_year}-01-01"), np.datetime64(f"{start_year + 8}-01-01"))
    months = days.astype("datetime64[M]").astype(int) % 12 + 1
    in_season = np.array([season_of_month(int(m)) for m in months]) == season
    return days[in_season][:n_days]


def write_rain_csv(path: str, season_pairs: dict[str, np.ndarray]):
    """6-minute series whose daily (6-min max, hourly max) pairs are
    (1 + u, 2 + 7 v) for the given per-season (u, v) rows.

    A wet day holds 1 + u in its first slot and spreads 2 + 7 v evenly over
    the ten slots of hour 1; every other slot is dry.
    """
    stamps, depths = [], []
    offsets = (np.arange(SLOTS_PER_DAY) * 6).astype("timedelta64[m]")
    for season, uv in season_pairs.items():
        days = season_days(season, uv.shape[0])
        day_depths = np.zeros((uv.shape[0], SLOTS_PER_DAY))
        day_depths[:, 0] = 1.0 + uv[:, 0]
        day_depths[:, 10:20] = ((2.0 + 7.0 * uv[:, 1]) / 10.0)[:, None]
        stamps.append((days.astype("datetime64[m]")[:, None] + offsets).ravel())
        depths.append(day_depths.ravel())
    stamps = np.concatenate(stamps)
    depths = np.concatenate(depths)
    order = np.argsort(stamps, kind="stable")
    stamps, depths = stamps[order], depths[order]
    text = np.full(depths.size, "0", dtype=object)
    wet = depths != 0.0
    text[wet] = [repr(v) for v in depths[wet].tolist()]
    rows = map(",".join, zip(np.datetime_as_string(stamps, unit="m").tolist(), text.tolist()))
    with open(path, "w") as fh:
        fh.write("timestamp,depth\n")
        fh.write("\n".join(rows))
        fh.write("\n")


class RainfallCli(Workload):
    """In-process ``tailtest rainfall`` on a synthetic four-season CSV."""

    name = "rainfall_cli"
    cycle = ("rainfall",)
    min_ops = 1
    predicted_ratios = {"rainfall": {"ingest.build_pairs": 0.5}}

    def setup(self, seed, workdir):
        super().setup(seed, workdir)
        self.uv = {season: sample(RAIN_MODELS[season], RAIN_DAYS, RngStream(seed, (i,))).data
                   for i, season in enumerate(SEASONS)}
        self.csv_path = os.path.join(workdir, "rain.csv")
        self.outdir = os.path.join(workdir, "rainfall_out")
        write_rain_csv(self.csv_path, self.uv)

    def op(self, index):
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured):
            code = cli.main(["rainfall", self.csv_path, "--risk", "l2", "--sets", "4",
                             "--k-exceedances", str(RAIN_K), "--bootstrap", str(RAIN_B),
                             "--seed", str(op_seed(self.seed, index)), "--outdir", self.outdir])
        return code, captured.getvalue()

    def check(self, index, output):
        code, stdout = output
        checks.require(code in (cli.EXIT_OK, cli.EXIT_REJECT), f"rainfall exited with {code}")
        doc = json.loads(stdout)
        checks.validate_schema(doc, "rainfall")
        for season in SEASONS:
            checks.require(doc["seasons"][season] == {"days": RAIN_DAYS, "error": None},
                           f"season {season}: {doc['seasons'][season]}")
        expected = [f"{a}_{b}" for i, a in enumerate(SEASONS) for b in SEASONS[i + 1:]]
        checks.require(sorted(doc["pairs"]) == sorted(expected), f"pairs {sorted(doc['pairs'])}")
        values = []
        for key in expected:
            pair = doc["pairs"][key]
            checks.require(pair["error"] is None, f"pair {key} failed: {pair['error']}")
            checks.require(pair["k_used"] == RAIN_K, f"pair {key} used k={pair['k_used']}")
            checks.check_decision(pair["p_value"], pair["reject"], 0.05, pair["statistic"])
            checks.check_bootstrap_p(pair["p_value"], RAIN_B)
            sx, sy = key.split("_")
            checks.check_statistic(pair["statistic"], self.uv[sx], self.uv[sy], "euclidean", 4, RAIN_K)
            values += [pair["statistic"], pair["p_value"]]
        return values


WORKLOADS = {w.name: w for w in (SingleTestEmpirical, StudyKnown, StudyEmpirical, RainfallCli)}
