"""End-to-end test behavior: both calibration branches and the bootstrap."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import inference
from tailtest import (ConfigError, CopulaModel, Divergence, DomainError, InsufficientDataError,
                      NullDistribution, RngStream, Sample, TestConfig,
                      bootstrap_null, bootstrap_p_value, run_test, sample,
                      to_pareto, to_pseudo, uniform_cdf)
from tailtest.numerics import chisq_cdf

UNIFORM_PAIR = [uniform_cdf, uniform_cdf]


def simulate(model, n, seed, stream_id=0):
    return sample(model, n, RngStream(seed, stream_id))


class TestConfigValidation:
    def test_level_domain(self):
        with pytest.raises(ConfigError):
            TestConfig(k_exceedances=100, level=0.0)

    def test_bootstrap_minimum(self):
        with pytest.raises(ConfigError):
            TestConfig(k_exceedances=100, margins="empirical", bootstrap_replicates=50)
        TestConfig(k_exceedances=100, margins="known", bootstrap_replicates=50)

    def test_risk_aliases(self):
        assert TestConfig(k_exceedances=10, risk="l2", num_cells=4).risk == "euclidean"
        assert TestConfig(k_exceedances=10, risk="l1", num_cells=4).risk == "sum"

    def test_exceedance_rule_not_a_field(self):
        # The bootstrap has one rule, k/2 exceedances per half; it is not configurable.
        with pytest.raises(TypeError):
            TestConfig(k_exceedances=10, bootstrap_exceedances="proportional")


class TestRunTestKnownMargins:
    def test_identical_samples(self):
        x = simulate(CopulaModel("logistic", 0.5), 1000, 1)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins="known", level=0.05)
        report = run_test(x, x, config, known_cdfs=UNIFORM_PAIR)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject
        assert report.method == "chisq"

    def test_swap_consistency(self):
        x = simulate(CopulaModel("logistic", 0.45), 2000, 2, 0)
        y = simulate(CopulaModel("logistic", 0.55), 2000, 2, 1)
        config = TestConfig(k_exceedances=200, risk="euclidean", num_cells=5,
                            margins="known")
        a = run_test(x, y, config, known_cdfs=UNIFORM_PAIR)
        b = run_test(y, x, config, known_cdfs=UNIFORM_PAIR)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value

    def test_p_value_decreasing_in_statistic(self):
        dof = 4
        stats = [0.001, 0.01, 0.05, 0.2]
        k = 200
        pvals = [1.0 - chisq_cdf(k * s / 2.0, dof) for s in stats]
        assert all(a > b for a, b in zip(pvals, pvals[1:]))

    def test_h0_p_values_cover_level(self):
        # 200 seeded H0 runs, known margins: rejection near the 5% level.
        model = CopulaModel("logistic", 0.45)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins="known", level=0.05)
        rejections = 0
        for seed in range(200):
            x = simulate(model, 1000, seed, 0)
            y = simulate(model, 1000, seed, 1)
            rejections += run_test(x, y, config, known_cdfs=UNIFORM_PAIR).reject
        assert 0.01 <= rejections / 200 <= 0.10

    def test_k_must_fit_sample(self):
        x = simulate(CopulaModel("logistic", 0.5), 100, 3)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4, margins="known")
        with pytest.raises(ConfigError):
            run_test(x, x, config, known_cdfs=UNIFORM_PAIR)

    @pytest.mark.parametrize("side", ["x", "y"])
    def test_pseudo_sample_rejected(self, side):
        # Rank-based data must not get the chi-squared calibration.
        raw = simulate(CopulaModel("logistic", 0.5), 400, 30)
        samples = {"x": raw, "y": raw, side: to_pseudo(raw)}
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4, margins="known")
        with pytest.raises(ConfigError, match="pseudo-observations need empirical margins"):
            run_test(samples["x"], samples["y"], config, known_cdfs=UNIFORM_PAIR)

    def test_dimension_mismatch(self):
        x = Sample(np.ones((50, 2)) + np.arange(50)[:, None])
        y = Sample(np.ones((50, 3)) + np.arange(50)[:, None])
        with pytest.raises(ConfigError):
            run_test(x, y, TestConfig(k_exceedances=10, risk="max", margins="known"))


class TestRowOrderInvariance:
    @settings(max_examples=24, deadline=None)
    @given(risk=st.sampled_from(["max", "min", "euclidean", "sum"]),
           family=st.sampled_from(["logistic", "outer_power_clayton"]),
           k=st.integers(5, 60), seed=st.integers(0, 2 ** 16))
    def test_known_margin_report_ignores_row_order(self, risk, family, k, seed):
        # Continuous copula data has no risk ties, so the top-k exceedances,
        # and with them the whole report, do not depend on the row order.
        x = simulate(CopulaModel(family, 0.45), 300, seed, 0)
        y = simulate(CopulaModel(family, 0.6), 300, seed, 1)
        config = TestConfig(k_exceedances=k, risk=risk, margins="known", seed=seed,
                            num_cells=None if risk in ("max", "min") else 4)
        perms = RngStream(seed, 2)
        px, py = (Sample(s.data[perms.child(i).permutation(s.n)]) for i, s in enumerate((x, y)))
        expected = run_test(x, y, config, known_cdfs=UNIFORM_PAIR).to_dict()
        assert run_test(px, py, config, known_cdfs=UNIFORM_PAIR).to_dict() == expected


class TestRunTestInputChecks:
    def test_non_finite_data_rejected(self):
        x = simulate(CopulaModel("logistic", 0.5), 400, 24, 0).data.copy()
        y = simulate(CopulaModel("logistic", 0.5), 400, 24, 1).data
        x[3, 0] = np.nan
        x[7, 1] = np.inf
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=25)
        with pytest.raises(DomainError, match="row 3, column 0"):
            run_test(Sample(x), Sample(y), config)

    @pytest.mark.parametrize("source, n_x, n_y", [("x", 300, 800), ("symmetric", 800, 300)])
    def test_bootstrap_size_checked_before_any_work(self, source, n_x, n_y):
        # 4*k = 400 exceeds the size of the (short) bootstrap source sample.
        x = simulate(CopulaModel("logistic", 0.5), n_x, 26, 0)
        y = simulate(CopulaModel("logistic", 0.5), n_y, 26, 1)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            bootstrap_replicates=1000, bootstrap_source=source, seed=27)
        with mock.patch.object(inference, "standardize", side_effect=AssertionError("ran")), \
                mock.patch.object(inference, "bootstrap_null",
                                  side_effect=AssertionError("ran")):
            with pytest.raises(InsufficientDataError, match="sample " + ("x" if n_x < n_y else "y")):
                run_test(x, y, config)

    def test_short_y_allowed_when_only_x_is_resampled(self):
        x = simulate(CopulaModel("logistic", 0.5), 800, 28, 0)
        y = simulate(CopulaModel("logistic", 0.5), 300, 28, 1)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=29)
        assert run_test(x, y, config).method == "bootstrap"


class TestRunTestEmpiricalMargins:
    def test_rank_invariance_bit_identical(self):
        x = simulate(CopulaModel("outer_power_clayton", 0.4), 900, 4, 0)
        y = simulate(CopulaModel("outer_power_clayton", 0.6), 900, 4, 1)
        config = TestConfig(k_exceedances=90, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=150, seed=11)
        base = run_test(x, y, config)
        # strictly increasing margins: exp on one column, cube-shift on the other
        warp_x = Sample(np.column_stack([np.exp(x.data[:, 0]), x.data[:, 1] ** 3 + x.data[:, 1]]))
        warp_y = Sample(np.column_stack([np.log(y.data[:, 0] + 1.0), 5.0 * y.data[:, 1] - 2.0]))
        warped = run_test(warp_x, warp_y, config)
        assert warped.statistic == base.statistic
        assert warped.p_value == base.p_value

    def test_seed_determinism(self):
        x = simulate(CopulaModel("logistic", 0.5), 800, 5, 0)
        y = simulate(CopulaModel("logistic", 0.5), 800, 5, 1)
        config = TestConfig(k_exceedances=80, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=120, seed=21)
        a = run_test(x, y, config)
        b = run_test(x, y, config)
        assert a.p_value == b.p_value
        assert a.statistic == b.statistic

    @pytest.mark.parametrize("source", ["x", "symmetric"])
    def test_tied_pseudo_input_reports_like_its_raw_data(self, source):
        # Average-rank pseudo-observations keep the raw data's ties; the test
        # re-ranks them by row order, as it ranks the raw data.
        def average_rank_pseudo(raw):
            n, out = raw.n, np.empty_like(raw.data)
            for j in range(raw.d):
                _, inverse, counts = np.unique(raw.data[:, j], return_inverse=True,
                                               return_counts=True)
                average = np.cumsum(counts) - (counts - 1) / 2.0
                out[:, j] = (n + 1.0) / (n + 1.0 - average[inverse])
            return Sample(out, "pseudo")

        x, y = (Sample(np.round(simulate(CopulaModel("logistic", 0.5), 400, 8, i).data * 40.0)
                       / 40.0) for i in (0, 1))
        config = TestConfig(k_exceedances=40, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, bootstrap_source=source, seed=24)
        expected = run_test(x, y, config).to_dict()
        assert expected["rank_ties"]["x"] > 0 and expected["rank_ties"]["y"] > 0
        assert run_test(average_rank_pseudo(x), average_rank_pseudo(y),
                        config).to_dict() == expected

    def test_symmetric_source_option(self):
        x = simulate(CopulaModel("logistic", 0.5), 800, 6, 0)
        y = simulate(CopulaModel("logistic", 0.5), 800, 6, 1)
        config = TestConfig(k_exceedances=80, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=120, seed=22,
                            bootstrap_source="symmetric")
        report = run_test(x, y, config)
        assert report.method == "bootstrap"
        assert 0.0 <= report.p_value <= 1.0

    @pytest.mark.parametrize("n_y, rows", [(800, 120), (700, 240)])
    def test_symmetric_source_draws_shared_permutations(self, n_y, rows):
        # Samples of one size share each replicate's permutation; otherwise
        # each sample draws its own. The report equals the one-sample-at-a-time
        # calibration either way.
        x = simulate(CopulaModel("logistic", 0.5), 800, 6, 0)
        y = simulate(CopulaModel("logistic", 0.6), n_y, 6, 1)
        config = TestConfig(k_exceedances=80, risk="euclidean", num_cells=4,
                            bootstrap_replicates=120, seed=22, bootstrap_source="symmetric")
        real, drawn = RngStream.jumped_permutations, []

        def counting(stream, start, stop, n, out=None):
            drawn.append(stop - start)
            return real(stream, start, stop, n, out=out)

        with mock.patch.object(RngStream, "jumped_permutations", counting):
            report = run_test(x, y, config)
        assert sum(drawn) == rows
        targets = [(inference.build_partition(config, 2), 80)]
        p_x, p_y = (float(np.mean(null.replicates > report.statistic))
                    for [null] in (bootstrap_null(to_pseudo(s), targets, 120,
                                                  inference.bootstrap_stream(22)) for s in (x, y)))
        assert report.p_value == 0.5 * (p_x + p_y)

    def test_report_serializes(self):
        x = simulate(CopulaModel("logistic", 0.5), 600, 7, 0)
        y = simulate(CopulaModel("logistic", 0.5), 600, 7, 1)
        config = TestConfig(k_exceedances=60, risk="max", margins="empirical",
                            bootstrap_replicates=100, seed=23)
        doc = run_test(x, y, config).to_dict()
        assert doc["method"] == "bootstrap"
        assert len(doc["cells"]["labels"]) == doc["num_cells"] == 3
        assert doc["bootstrap"]["k_half"] == 30
        assert doc["bootstrap"]["exceedance_rule"] == "proportional"
        assert doc["rank_ties"]["policy"] == "stable-ordinal"

    def test_zero_p_value_warns(self):
        # All 1200 x 2 entries tied: the statistic and every replicate are 0.
        tied = Sample(np.ones((1200, 2)))
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            bootstrap_replicates=200, seed=0)
        report = run_test(tied, tied, config)
        assert report.p_value == 0.0
        assert report.warnings == ["no bootstrap replicate exceeded the statistic: p < 1/200"]

    def test_positive_p_value_does_not_warn(self):
        x = simulate(CopulaModel("logistic", 0.5), 800, 5, 0)
        config = TestConfig(k_exceedances=80, risk="euclidean", num_cells=4,
                            bootstrap_replicates=120, seed=21)
        report = run_test(x, x, config)
        assert report.p_value > 0.0
        assert report.warnings == []


class TestSymmetricSourceSwap:
    def test_clayton_pair(self):
        x = simulate(CopulaModel("outer_power_clayton", 0.45), 800, 0, 0)
        y = simulate(CopulaModel("outer_power_clayton", 0.55), 800, 0, 1)
        config = TestConfig(k_exceedances=80, risk="euclidean", num_cells=4,
                            bootstrap_replicates=200, bootstrap_source="symmetric", seed=0)
        a, b = run_test(x, y, config), run_test(y, x, config)
        assert (a.statistic, a.p_value) == (b.statistic, b.p_value)

    @settings(max_examples=8, deadline=None)
    @given(risk=st.sampled_from(["max", "min", "euclidean", "sum"]),
           n_y=st.sampled_from([400, 401, 520]), k=st.integers(10, 100),
           seed=st.integers(0, 2 ** 16))
    def test_statistic_and_p_value_unchanged_under_swap(self, risk, n_y, k, seed):
        x = simulate(CopulaModel("outer_power_clayton", 0.45), 400, seed, 0)
        y = simulate(CopulaModel("outer_power_clayton", 0.6), n_y, seed, 1)
        config = TestConfig(k_exceedances=k, risk=risk, bootstrap_replicates=100,
                            bootstrap_source="symmetric", seed=seed,
                            num_cells=None if risk in ("max", "min") else 4)
        a, b = run_test(x, y, config), run_test(y, x, config)
        assert a.statistic == b.statistic
        assert a.p_value == b.p_value


def bootstrap_own_null(source, config):
    """The bootstrap null of the test's own partition and k on its bootstrap stream."""
    [null] = bootstrap_null(source, [(inference.build_partition(config, source.d),
                                      config.k_exceedances)],
                            config.bootstrap_replicates, inference.bootstrap_stream(config.seed))
    return null


class TestBootstrapNull:
    def test_replicates_non_negative_finite(self):
        src = to_pareto(simulate(CopulaModel("logistic", 0.5), 1000, 8), UNIFORM_PAIR)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins="known", bootstrap_replicates=200, seed=31)
        null = bootstrap_own_null(src, config)
        assert null.B == 200
        assert (null.replicates >= 0).all()
        assert np.isfinite(null.replicates).all()

    def test_insufficient_data(self):
        src = to_pareto(simulate(CopulaModel("logistic", 0.5), 300, 9), UNIFORM_PAIR)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins="known", bootstrap_replicates=100)
        with pytest.raises(InsufficientDataError):
            bootstrap_own_null(src, config)

    def test_known_margin_replicates_match_chisq(self):
        # Normalized replicates k_n D/2 against the chi-squared(K-1) limit.
        src = to_pareto(simulate(CopulaModel("outer_power_clayton", 0.45), 2000, 10),
                        UNIFORM_PAIR)
        config = TestConfig(k_exceedances=200, risk="euclidean", num_cells=4,
                            margins="known", bootstrap_replicates=1000, seed=32)
        null = bootstrap_own_null(src, config)
        assert null.k_half == 100
        norm = np.sort(config.k_exceedances * null.replicates / 2.0)
        cdf_vals = np.array([chisq_cdf(v, 3) for v in norm])
        grid = np.arange(1, len(norm) + 1) / len(norm)
        ks = max(np.max(grid - cdf_vals), np.max(cdf_vals - (grid - 1.0 / len(norm))))
        assert ks <= 0.08

    @pytest.mark.parametrize("k, k_half", [(100, 50), (101, 50), (1, 1)])
    def test_k_half_is_half_of_k(self, k, k_half):
        # Each half of n/2 points keeps max(1, k // 2) exceedances.
        src = to_pareto(simulate(CopulaModel("logistic", 0.5), 1000, 11), UNIFORM_PAIR)
        config = TestConfig(k_exceedances=k, risk="max", margins="known",
                            bootstrap_replicates=100, seed=33)
        null = bootstrap_own_null(src, config)
        assert null.k_half == k_half
        assert null.B == 100

    @pytest.mark.parametrize("replicates, ks, error, message", [
        (0, [40], ConfigError, "at least 1 replicate, got 0"),
        (-5, [40], ConfigError, "at least 1 replicate, got -5"),
        (100, [], ConfigError, "at least one"),
        (100, [0], DomainError, "need 1 <= k_n, got k_n=0"),
        (100, [40, -3], DomainError, "need 1 <= k_n, got k_n=-3"),
    ])
    def test_bad_arguments_raise_typed_errors(self, replicates, ks, error, message):
        src = to_pseudo(simulate(CopulaModel("logistic", 0.5), 400, 13))
        partition = inference.build_partition(TestConfig(k_exceedances=40, risk="max"), 2)
        with pytest.raises(error, match=message):
            bootstrap_null(src, [(partition, k) for k in ks], replicates,
                           inference.bootstrap_stream(0))

    @pytest.mark.parametrize("margins", ["known", "empirical"])
    def test_raw_source_rejected(self, margins):
        # The source's margin state sets the mode, and raw data has none.
        raw = simulate(CopulaModel("logistic", 0.5), 1000, 12)
        config = TestConfig(k_exceedances=100, risk="euclidean", num_cells=4,
                            margins=margins, bootstrap_replicates=100)
        with pytest.raises(ConfigError, match="raw"):
            bootstrap_own_null(raw, config)


class TestBootstrapPValue:
    def _null(self, values):
        return NullDistribution(np.asarray(values, dtype=float), 10)

    def test_below_all(self):
        div = Divergence(0.0, 0.0, 4)
        assert bootstrap_p_value(div, self._null([0.1, 0.2, 0.3])) == 1.0

    def test_above_all(self):
        div = Divergence(9.0, 450.0, 4)
        assert bootstrap_p_value(div, self._null([0.1, 0.2, 0.3])) == 0.0

    def test_median_gives_half(self):
        reps = [0.1, 0.2, 0.3, 0.4]
        div = Divergence(0.25, 12.5, 4)
        assert bootstrap_p_value(div, self._null(reps)) == 0.5


def test_calibrate_batch_bootstraps_each_sample_once():
    # The symmetric source bootstraps both samples of each test; the swapped
    # test reads the same two samples, so the batch makes one lockstep call
    # with two sources, and each calibration equals its test calibrated alone.
    xs = to_pseudo(sample(CopulaModel("logistic", 0.5), 200, RngStream(31)))
    ys = to_pseudo(sample(CopulaModel("logistic", 0.6), 200, RngStream(32)))
    config = TestConfig(k_exceedances=20, risk="euclidean", num_cells=4,
                        bootstrap_replicates=100, bootstrap_source="symmetric", seed=3)
    partition = inference.build_partition(config, 2)
    targets = [(partition, 20)]
    div = inference.kl_divergence(inference.count_cells(xs, targets)[0],
                                  inference.count_cells(ys, targets)[0])
    tests = [([div], targets, xs, ys), ([div], targets, ys, xs)]
    with mock.patch.object(inference, "bootstrap_null", wraps=inference.bootstrap_null) as spy:
        batch = inference.calibrate(tests, config)
    assert spy.call_count == 1
    sources = spy.call_args.args[0]
    assert len(sources) == 2 and sources[0] is xs and sources[1] is ys
    for test, [calibration] in zip(tests, batch):
        [alone] = inference.calibrate([test], config)[0]
        assert calibration.p_value == alone.p_value
        assert np.array_equal(calibration.null.replicates, alone.null.replicates)
    assert batch[0][0].p_value == batch[1][0].p_value
