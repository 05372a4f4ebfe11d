"""Study harness: determinism, aggregation, null comparisons, artifacts."""

import dataclasses
import json
from unittest import mock

import numpy as np
import pytest
from scipy import stats as spstats

from tailtest import ConfigError, CopulaModel, InsufficientDataError, experiments
from tailtest.experiments import (ExperimentPlan, NullStudyResult, k_sensitivity_study,
                                  ks_statistic_one_sample, ks_statistic_two_sample,
                                  null_histogram_study, size_power_study,
                                  write_nulls_outputs, write_power_outputs)


def small_plan(**overrides):
    base = dict(
        model_x=CopulaModel("logistic", 0.45),
        model_y=CopulaModel("logistic", 0.45),
        n=500, repetitions=20, num_cells=4, k_grid=(40, 80),
        margins="known", seed=5,
    )
    base.update(overrides)
    return ExperimentPlan(**base)


class TestPlanValidation:
    def test_needs_exactly_one_grid(self):
        with pytest.raises(ConfigError):
            small_plan(k_grid=None)
        with pytest.raises(ConfigError):
            small_plan(K_grid=(2, 4), num_cells=None)

    def test_k_grid_values_positive(self):
        with pytest.raises(ConfigError, match="k_grid values"):
            small_plan(k_grid=(0, 40))

    def test_unknown_risk_rejected_when_built(self):
        with pytest.raises(ConfigError, match="risk must be one of"):
            small_plan(risk="median", k_grid=(10,), num_cells=3)
        with pytest.raises(ConfigError, match="risk must be one of"):
            small_plan(risk="median", k_grid=None, K_grid=(2, 4), k_exceedances=50,
                       num_cells=None)
        small_plan(risk="l1", k_grid=None, K_grid=(2, 4), k_exceedances=50, num_cells=None)

    @pytest.mark.parametrize("overrides, error", [
        (dict(n=100, k_grid=(50, 200)), ConfigError),
        (dict(k_grid=None, K_grid=(2, 4), k_exceedances=500, num_cells=None), ConfigError),
        (dict(margins="empirical", n=300, k_grid=(40, 80)), InsufficientDataError),
        (dict(margins="empirical", bootstrap_replicates=50), ConfigError),
        (dict(k_grid=None, K_grid=(2, 4), k_exceedances=0, num_cells=None), ConfigError),
        (dict(risk="max", num_cells=4), ConfigError),
        (dict(num_cells=None), ConfigError),
        (dict(workers=0), ConfigError),
        # Each study reads only its own grid, so the other study's fixed value is refused.
        (dict(k_exceedances=40), ConfigError),
        (dict(k_grid=None, K_grid=(2, 4), k_exceedances=50), ConfigError),
    ])
    def test_sizes_and_rules_checked_when_built(self, overrides, error):
        with mock.patch.object(experiments, "sample", side_effect=AssertionError("sampled")):
            with pytest.raises(error):
                small_plan(**overrides)

    def test_k_study_constraints(self):
        with pytest.raises(ConfigError):
            ExperimentPlan(CopulaModel("logistic", 0.5), CopulaModel("logistic", 0.5),
                           n=500, repetitions=5, K_grid=(2, 14), k_exceedances=50)
        with pytest.raises(ConfigError):
            ExperimentPlan(CopulaModel("logistic", 0.5), CopulaModel("logistic", 0.5),
                           n=500, repetitions=5, K_grid=(2, 4), risk="max",
                           k_exceedances=50)


class TestSizePowerStudy:
    def test_deterministic_across_workers(self):
        a = size_power_study(small_plan(workers=1))
        b = size_power_study(small_plan(workers=2))
        assert a == b

    @pytest.mark.parametrize("workers, repetitions, pool_size", [(8, 3, 3), (4, 1, None)])
    def test_pool_no_larger_than_repetitions(self, workers, repetitions, pool_size):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, args, chunksize):
                return map(fn, args)

        plan = small_plan(repetitions=repetitions)
        with mock.patch.object(experiments, "ProcessPoolExecutor", RecordingPool):
            curve = size_power_study(dataclasses.replace(plan, workers=workers))
        assert sizes == ([] if pool_size is None else [pool_size])
        assert curve == size_power_study(plan)

    def test_alternative_beats_null_mean(self):
        null_curve = size_power_study(small_plan(repetitions=60))
        alt_curve = size_power_study(small_plan(
            model_y=CopulaModel("logistic", 0.7), repetitions=60))
        for k in (40, 80):
            null_point = next(p for p in null_curve.points if p.grid_value == k)
            alt_point = next(p for p in alt_curve.points if p.grid_value == k)
            assert alt_point.mean_statistic > null_point.mean_statistic
            assert alt_point.rejection_rate > null_point.rejection_rate

    def test_quantiles_bracket_mean(self):
        curve = size_power_study(small_plan(repetitions=40))
        for p in curve.points:
            assert p.q05 <= p.mean_statistic <= p.q95

    def test_empirical_study_deterministic_across_workers(self):
        plan = small_plan(margins="empirical", repetitions=3, n=240, k_grid=(20, 40),
                          bootstrap_replicates=100)
        single = size_power_study(plan)
        assert size_power_study(dataclasses.replace(plan, workers=2)) == single

    def test_empirical_margin_branch_runs(self):
        plan = small_plan(margins="empirical", repetitions=5, n=400, k_grid=(40,),
                          bootstrap_replicates=120)
        curve = size_power_study(plan)
        assert 0.0 <= curve.points[0].rejection_rate <= 1.0


class TestKSensitivityStudy:
    def test_symmetric_models_blind_at_two_cells(self):
        # Exchangeable populations split along the diagonal are indistinguishable.
        plan = ExperimentPlan(
            CopulaModel("outer_power_clayton", 0.45),
            CopulaModel("outer_power_clayton", 0.55),
            n=2000, repetitions=80, K_grid=(2, 4), k_exceedances=200,
            margins="known", seed=6,
        )
        curve = k_sensitivity_study(plan)
        rates = curve.rejection_rates()
        assert rates[2] <= 0.1
        assert rates[4] > rates[2] + 0.2
        assert curve.baseline is not None
        assert curve.baseline["risk"] == "max"

    def test_baseline_uses_max_partition(self):
        plan = ExperimentPlan(
            CopulaModel("logistic", 0.5), CopulaModel("logistic", 0.5),
            n=400, repetitions=10, K_grid=(3,), k_exceedances=40,
            margins="known", seed=7,
        )
        curve = k_sensitivity_study(plan)
        assert curve.baseline["num_cells"] == 3
        assert 0.0 <= curve.baseline["rejection_rate"] <= 1.0

    def test_empirical_study_deterministic_across_workers(self):
        plan = ExperimentPlan(
            CopulaModel("logistic", 0.5), CopulaModel("logistic", 0.6),
            n=240, repetitions=3, K_grid=(2, 5), k_exceedances=30,
            margins="empirical", bootstrap_replicates=100, seed=8,
        )
        single = k_sensitivity_study(plan)
        assert k_sensitivity_study(dataclasses.replace(plan, workers=2)) == single


class TestKsHelpers:
    def test_one_sample_against_scipy(self):
        rng = np.random.default_rng(8)
        vals = rng.chisquare(3, size=400)
        mine = ks_statistic_one_sample(vals, lambda v: spstats.chi2.cdf(v, 3))
        ref = spstats.ks_1samp(vals, spstats.chi2(3).cdf).statistic
        assert mine == pytest.approx(ref, abs=1e-12)

    def test_two_sample_against_scipy(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=300)
        b = rng.normal(0.3, size=450)
        assert ks_statistic_two_sample(a, b) == pytest.approx(
            spstats.ks_2samp(a, b).statistic, abs=1e-12)


class TestNullHistogramStudy:
    def test_single_replicate_well_formed(self):
        result = null_histogram_study(CopulaModel("logistic", 0.5), 600, 60, 4,
                                      bootstrap_replicates=1, seed=10)
        assert isinstance(result, NullStudyResult)
        for mode in (result.known, result.empirical):
            assert mode.bootstrap.shape == (1,)
            assert mode.fresh.shape == (1,)
            assert 0.0 <= mode.ks_bootstrap_vs_fresh <= 1.0
        assert result.known.ks_fresh_vs_chisq is not None
        assert result.empirical.ks_fresh_vs_chisq is None

    def test_moderate_replicates_track_chisq(self):
        result = null_histogram_study(CopulaModel("outer_power_clayton", 0.45),
                                      1000, 100, 4, bootstrap_replicates=300, seed=11)
        assert result.known.ks_fresh_vs_chisq <= 0.12
        assert result.known.ks_bootstrap_vs_fresh <= 0.15
        assert result.empirical.ks_bootstrap_vs_fresh <= 0.15


class TestArtifactWriters:
    def test_power_outputs(self, tmp_path):
        plan = small_plan(repetitions=4)
        curve = size_power_study(plan)
        manifest = write_power_outputs(curve, plan, str(tmp_path), name="power")
        rows = (tmp_path / "power.csv").read_text().strip().splitlines()
        assert rows[0] == "grid_name,grid_value,aggregate,value"
        # 2 grid points x 5 aggregates
        assert len(rows) == 1 + 10
        stored = json.loads((tmp_path / "power_manifest.json").read_text())
        assert stored == json.loads(json.dumps(manifest))     # tuples read back as lists
        assert stored["plan"]["n"] == 500

    def test_nulls_outputs(self, tmp_path):
        result = null_histogram_study(CopulaModel("logistic", 0.5), 400, 40, 3,
                                      bootstrap_replicates=5, seed=12)
        manifest = write_nulls_outputs(result, str(tmp_path))
        rows = (tmp_path / "null_replicates.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 2 * 2 * 5
        assert "ks" in manifest
        assert json.loads((tmp_path / "nulls_manifest.json").read_text()) == manifest
