"""Shared study repetitions against the per-grid-point definitions.

A study repetition counts each sample once over all of its grid points and
calibrates them through one multi-target bootstrap, and the null-histogram
study draws each fresh pair once for both margin modes. The oracles below
are the loops these replaced: each repetition's samples drawn and
standardized on their own, one single-target count and calibration per grid
point, every grid point on the repetition's own bootstrap stream, and one
fresh pair drawn per replicate and per margin mode. Every number must agree
bit for bit.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tailtest import (CopulaModel, RngStream, Sample, TestConfig, bootstrap_null,
                      bootstrap_p_value, build_partition, count_cells, kl_divergence,
                      make_angular_partition, make_max_partition, make_min_partition,
                      sample, to_pareto, to_pseudo, uniform_cdf)
from tailtest import experiments
from tailtest.experiments import (ExperimentPlan, k_sensitivity_study, null_histogram_study,
                                  size_power_study)
from tailtest.inference import bootstrap_stream
from tailtest.numerics import chisq_quantile, chisq_sf

UNIFORM_PAIR = (uniform_cdf, uniform_cdf)
OPC_PAIR = (CopulaModel("outer_power_clayton", 0.45), CopulaModel("outer_power_clayton", 0.55))


def _reference_seed(master_seed, rep):
    seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(rep,))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


def _reference_config(plan, rep, k, num_cells, risk=None):
    return TestConfig(k_exceedances=k, risk=risk or plan.risk, num_cells=num_cells,
                      level=plan.level, margins=plan.margins,
                      bootstrap_replicates=plan.bootstrap_replicates,
                      seed=_reference_seed(plan.seed, rep))


def _reference_samples(plan, rep):
    rep_stream = RngStream(plan.seed, (rep,))
    x = sample(plan.model_x, plan.n, rep_stream.child(0))
    y = sample(plan.model_y, plan.n, rep_stream.child(1))
    if plan.margins == "known":
        return to_pareto(x, UNIFORM_PAIR), to_pareto(y, UNIFORM_PAIR)
    return to_pseudo(x), to_pseudo(y)


def _reference_evaluate(xs, ys, partition, k, plan, config):
    [cells_x], [cells_y] = count_cells(xs, [(partition, k)]), count_cells(ys, [(partition, k)])
    div = kl_divergence(cells_x, cells_y)
    dof = partition.num_cells - 1
    if plan.margins == "known":
        p_value = chisq_sf(div.normalized, dof)
        critical = 2.0 * chisq_quantile(1.0 - plan.level, dof) / k
    else:
        [null] = bootstrap_null(xs, [(partition, config.k_exceedances)],
                                config.bootstrap_replicates, bootstrap_stream(config.seed))
        p_value = bootstrap_p_value(div, null)
        critical = float(np.quantile(null.replicates, 1.0 - plan.level))
    return div.value, p_value, critical


def reference_power_rep(plan, rep):
    xs, ys = _reference_samples(plan, rep)
    rows = []
    for k in plan.k_grid:
        config = _reference_config(plan, rep, k, plan.num_cells)
        rows.append(_reference_evaluate(xs, ys, build_partition(config, xs.d), k, plan, config))
    return np.array(rows)


def reference_k_sensitivity_rep(plan, rep):
    xs, ys = _reference_samples(plan, rep)
    k = plan.k_exceedances
    rows = []
    for K in plan.K_grid:
        config = _reference_config(plan, rep, k, K)
        rows.append(_reference_evaluate(xs, ys, make_angular_partition(config.risk, K), k,
                                        plan, config))
    config = _reference_config(plan, rep, k, None, risk="max")
    rows.append(_reference_evaluate(xs, ys, make_max_partition(xs.d), k, plan, config))
    return np.array(rows)


def reference_fresh(model, n, k, partition, count, seed, margins):
    fresh = np.empty(count)
    for b in range(count):
        pair_stream = RngStream(seed).child(2).child(b)
        fx = sample(model, n, pair_stream.child(0))
        fy = sample(model, n, pair_stream.child(1))
        if margins == "known":
            sx, sy = to_pareto(fx, UNIFORM_PAIR), to_pareto(fy, UNIFORM_PAIR)
        else:
            sx, sy = to_pseudo(fx), to_pseudo(fy)
        [cx], [cy] = count_cells(sx, [(partition, k)]), count_cells(sy, [(partition, k)])
        fresh[b] = kl_divergence(cx, cy).value
    return fresh


def k_plan(margins, seed=3, **overrides):
    base = dict(model_x=OPC_PAIR[0], model_y=OPC_PAIR[1], n=600, repetitions=2,
                k_grid=(20, 40, 75, 150), num_cells=5, margins=margins,
                bootstrap_replicates=110, seed=seed)
    base.update(overrides)
    return ExperimentPlan(**base)


def K_plan(margins, seed=4, **overrides):
    base = dict(model_x=OPC_PAIR[0], model_y=OPC_PAIR[1], n=600, repetitions=2,
                K_grid=(2, 3, 5, 9, 12), k_exceedances=60, margins=margins,
                bootstrap_replicates=110, seed=seed)
    base.update(overrides)
    return ExperimentPlan(**base)


@pytest.mark.parametrize("margins", ["empirical", "known"])
class TestGridRowsMatchPerPointLoop:
    def test_k_grid_rows(self, margins):
        plan = k_plan(margins)
        for rep in range(plan.repetitions):
            assert np.array_equal(experiments._study_rep((plan, rep)),
                                  reference_power_rep(plan, rep))

    def test_k_grid_rows_max_risk(self, margins):
        plan = k_plan(margins, risk="max", num_cells=None, k_grid=(15, 31, 60))
        assert np.array_equal(experiments._study_rep((plan, 1)), reference_power_rep(plan, 1))

    def test_K_grid_rows_with_max_baseline(self, margins):
        plan = K_plan(margins)
        for rep in range(plan.repetitions):
            rows = experiments._study_rep((plan, rep))
            assert rows.shape == (len(plan.K_grid) + 1, 3)
            assert np.array_equal(rows, reference_k_sensitivity_rep(plan, rep))

    def test_K_grid_sum_risk_alias(self, margins):
        plan = K_plan(margins, risk="l1", K_grid=(3, 7))
        assert np.array_equal(experiments._study_rep((plan, 0)),
                              reference_k_sensitivity_rep(plan, 0))


class TestMultiTargetBootstrap:
    def _targets(self):
        return [(make_angular_partition("euclidean", 5), 40), (make_max_partition(2), 40),
                (make_angular_partition("euclidean", 3), 60),
                (make_angular_partition("sum", 4), 40), (make_max_partition(2), 21),
                (make_min_partition(2), 40), (make_angular_partition("euclidean", 5), 40)]

    def _assert_matches_single_calls(self, source, replicates, seed):
        targets = self._targets()
        nulls = bootstrap_null(source, targets, replicates, bootstrap_stream(seed))
        assert len(nulls) == len(targets)
        for null, target in zip(nulls, targets):
            [single] = bootstrap_null(source, [target], replicates, bootstrap_stream(seed))
            assert null.B == replicates
            assert np.array_equal(null.replicates, single.replicates)
            assert null.k_half == single.k_half

    # 37 is below the empirical test's floor of 100, as the null study may ask.
    @pytest.mark.parametrize("replicates", [100, 37])
    def test_tied_pseudo_source(self, replicates):
        # A caller-built pseudo sample with repeated values in one column.
        u = RngStream(21).uniform((301, 2))
        data = np.column_stack([1.0 + np.floor(u[:, 0] * 20.0), 1.0 / (1.0 - u[:, 1])])
        self._assert_matches_single_calls(Sample(data, "pseudo"), replicates, 22)

    @pytest.mark.parametrize("replicates", [100, 37])
    def test_known_margin_source(self, replicates):
        source = to_pareto(sample(OPC_PAIR[0], 400, RngStream(23)), UNIFORM_PAIR)
        self._assert_matches_single_calls(source, replicates, 24)


class TestNullHistogramStudy:
    @pytest.mark.parametrize("count", [37, 100])
    def test_bootstrap_and_fresh_vectors(self, count):
        model, n, k, cells, seed = CopulaModel("logistic", 0.45), 700, 60, 5, 27
        result = null_histogram_study(model, n, k, cells, count, seed=seed)
        partition = make_angular_partition("euclidean", cells)
        base_stream = RngStream(seed)
        raw = sample(model, n, base_stream.child(0))
        for mode_ix, margins in enumerate(("known", "empirical")):
            mode = getattr(result, margins)
            source = to_pareto(raw, UNIFORM_PAIR) if margins == "known" else to_pseudo(raw)
            [null] = bootstrap_null(source, [(partition, k)], max(count, 100),
                                    base_stream.child(1).child(mode_ix))
            boot = null.replicates[:count]
            assert np.array_equal(mode.bootstrap, boot)
            assert np.array_equal(mode.fresh,
                                  reference_fresh(model, n, k, partition, count, seed, margins))

    def test_engine_runs_the_requested_replicates(self, monkeypatch):
        # Below the empirical test's floor of 100, the study still asks the
        # engine for exactly its own count, in both margin modes.
        real, counts = experiments.bootstrap_null, []

        def spy(*args, **kwargs):
            counts.append(inspect.signature(real).bind(*args, **kwargs).arguments["replicates"])
            return real(*args, **kwargs)

        monkeypatch.setattr(experiments, "bootstrap_null", spy)
        result = null_histogram_study(CopulaModel("logistic", 0.45), 400, 40, 4,
                                      bootstrap_replicates=37, seed=28)
        assert counts == [37, 37]
        assert result.known.bootstrap.size == result.empirical.bootstrap.size == 37


@st.composite
def empirical_plans(draw):
    seed = draw(st.integers(0, 2 ** 32))
    reps = draw(st.integers(2, 3))
    if draw(st.booleans()):
        return k_plan("empirical", seed=seed, n=320, repetitions=reps,
                      k_grid=tuple(sorted(draw(st.sets(st.integers(5, 80), min_size=1,
                                                       max_size=3)))),
                      bootstrap_replicates=100)
    return K_plan("empirical", seed=seed, n=320, repetitions=reps,
                  K_grid=tuple(sorted(draw(st.sets(st.integers(2, 12), min_size=1, max_size=3)))),
                  k_exceedances=draw(st.integers(5, 80)), bootstrap_replicates=100)


@settings(max_examples=3, deadline=None)
@given(empirical_plans())
def test_curves_independent_of_worker_count(plan):
    study = size_power_study if plan.k_grid is not None else k_sensitivity_study
    assert study(plan) == study(replace(plan, workers=2))


def reference_aggregate(grid_values, results, level):
    points = []
    for i, g in enumerate(grid_values):
        stats, pvals, crits = results[:, i, 0], results[:, i, 1], results[:, i, 2]
        points.append(experiments.PowerCurvePoint(
            grid_value=int(g),
            mean_statistic=float(stats.mean()),
            q05=float(np.quantile(stats, 0.05)),
            q95=float(np.quantile(stats, 0.95)),
            rejection_rate=float(np.mean(pvals < level)),
            critical_value=float(crits.mean()),
        ))
    return points


@settings(max_examples=60, deadline=None)
@example(reps=1, grid=1, seed=0)
@example(reps=600, grid=9, seed=1)
@given(reps=st.integers(1, 600), grid=st.integers(1, 9), seed=st.integers(0, 2 ** 32 - 1))
def test_aggregate_matches_per_point_loop(reps, grid, seed):
    # Statistics spread over many magnitudes, so that any change in the order
    # of summation shows in the last bits of a mean.
    rng = np.random.default_rng(seed)
    results = np.stack([rng.lognormal(0.0, 4.0, (reps, grid)), rng.uniform(size=(reps, grid)),
                        rng.lognormal(0.0, 4.0, (reps, grid))], axis=-1)
    grid_values = range(2, 2 + grid)
    assert experiments._aggregate(grid_values, results, 0.05) == \
        reference_aggregate(grid_values, results, 0.05)
