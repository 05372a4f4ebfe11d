"""Acceptance suite: every criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion. The expensive simulation fixtures are module-scoped and shared
between criteria that reuse the same setting.
"""

import math

import numpy as np
import pytest

from tailtest import (CopulaModel, RngStream, Sample, TestConfig, bootstrap_null,
                      count_cells, d3_from_chi, kl_divergence, make_angular_partition,
                      make_max_partition, make_min_partition, match_chi, RiskFunctional,
                      run_test, sample, symmetric_kl, theoretical_chi, to_pareto,
                      to_pseudo, uniform_cdf)
from tailtest.experiments import (ExperimentPlan, k_sensitivity_study,
                                  ks_statistic_one_sample, ks_statistic_two_sample,
                                  size_power_study)
from tailtest.inference import bootstrap_stream
from tailtest.ingest import seasonal_tests
from tailtest.numerics import chisq_cdf
from .conftest import make_rain_series

UNIFORM_PAIR = [uniform_cdf, uniform_cdf]
K_GRID = (50, 100, 200, 400)


def report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def size_curve():
    # Criterion 1 setting, reused by criterion 4 as the H0 reference.
    plan = ExperimentPlan(CopulaModel("logistic", 0.45), CopulaModel("logistic", 0.45),
                          n=2000, repetitions=500, risk="euclidean", num_cells=5,
                          k_grid=K_GRID, margins="known", seed=202)
    return size_power_study(plan)


@pytest.fixture(scope="module")
def fresh_null_statistics():
    """1000 fresh H0 statistic pairs (known and empirical margins) from the
    outer power Clayton model at n=2000, k_n=200, K=4."""
    model = CopulaModel("outer_power_clayton", 0.45)
    part = make_angular_partition("euclidean", 4)
    known = np.empty(1000)
    empirical = np.empty(1000)
    base = RngStream(203)
    for b in range(1000):
        pair_stream = base.child(b)
        x = sample(model, 2000, pair_stream.child(0))
        y = sample(model, 2000, pair_stream.child(1))
        kx = count_cells(to_pareto(x, UNIFORM_PAIR), [(part, 200)])[0]
        ky = count_cells(to_pareto(y, UNIFORM_PAIR), [(part, 200)])[0]
        known[b] = kl_divergence(kx, ky).value
        ex = count_cells(to_pseudo(x), [(part, 200)])[0]
        ey = count_cells(to_pseudo(y), [(part, 200)])[0]
        empirical[b] = kl_divergence(ex, ey).value
    return known, empirical


class TestCriterion1SizeUnderNull:
    def test_size_within_band(self, size_curve):
        rates = size_curve.rejection_rates()
        ok = all(0.02 <= rates[k] <= 0.09 for k in K_GRID)
        report("criterion 1 (size under H0, known margins)", ok,
               f"rejection rates {rates} vs band [0.02, 0.09]")


class TestCriterion1bEmpiricalSize:
    def test_size_within_band(self):
        # Criterion 1's band for the rank-standardized test, calibrated by the bootstrap.
        grid = (50, 100, 200)
        plan = ExperimentPlan(CopulaModel("logistic", 0.45), CopulaModel("logistic", 0.45),
                              n=1000, repetitions=400, risk="euclidean", num_cells=5,
                              k_grid=grid, margins="empirical", bootstrap_replicates=200,
                              seed=219, workers=2)
        rates = size_power_study(plan).rejection_rates()
        ok = all(0.02 <= rates[k] <= 0.09 for k in grid)
        report("criterion 1b (size under H0, empirical margins)", ok,
               f"rejection rates {rates} vs band [0.02, 0.09]")


class TestCriterion2NullLimit:
    def test_ks_against_chisq(self, fresh_null_statistics):
        known, _ = fresh_null_statistics
        ks = ks_statistic_one_sample(200 * known / 2.0, lambda v: chisq_cdf(v, 3))
        report("criterion 2 (chi-squared null limit)", ks <= 0.08,
               f"one-sample KS of k*D/2 vs chi2(3) = {ks:.4f} (<= 0.08)")


class TestCriterion3BootstrapFidelity:
    def test_bootstrap_matches_fresh_null(self, fresh_null_statistics):
        known_fresh, empirical_fresh = fresh_null_statistics
        model = CopulaModel("outer_power_clayton", 0.45)
        part = make_angular_partition("euclidean", 4)
        raw = sample(model, 2000, RngStream(204))
        results = {}
        for margins, fresh in (("known", known_fresh), ("empirical", empirical_fresh)):
            config = TestConfig(k_exceedances=200, risk="euclidean", num_cells=4,
                                margins=margins, bootstrap_replicates=1000, seed=205)
            source = to_pareto(raw, UNIFORM_PAIR) if margins == "known" else to_pseudo(raw)
            [null] = bootstrap_null(source, [(part, config.k_exceedances)],
                                    config.bootstrap_replicates, bootstrap_stream(config.seed))
            results[margins] = ks_statistic_two_sample(null.replicates, fresh)
        ok = results["known"] <= 0.10 and results["empirical"] <= 0.10
        report("criterion 3 (bootstrap fidelity)", ok,
               f"two-sample KS bootstrap vs fresh: known {results['known']:.4f}, "
               f"empirical {results['empirical']:.4f} (<= 0.10)")


class TestCriterion4Power:
    def test_power_above_half_and_above_size(self, size_curve):
        plan = ExperimentPlan(CopulaModel("outer_power_clayton", 0.45),
                              CopulaModel("outer_power_clayton", 0.55),
                              n=2000, repetitions=500, risk="euclidean", num_cells=5,
                              k_grid=(200,), margins="known", seed=206)
        power = size_power_study(plan).rejection_rates()[200]
        size_at_200 = size_curve.rejection_rates()[200]
        ok = power > 0.5 and power > size_at_200
        report("criterion 4 (power against a different tail)", ok,
               f"power {power:.3f} > 0.5 and > size {size_at_200:.3f}")


class TestCriterion5TailEquivalence:
    def test_same_tail_different_body(self):
        plan = ExperimentPlan(CopulaModel("outer_power_clayton", 0.45),
                              CopulaModel("logistic", 0.45),
                              n=2000, repetitions=500, risk="euclidean", num_cells=5,
                              k_grid=(50, 400), margins="known", seed=207)
        rates = size_power_study(plan).rejection_rates()
        ok = 0.02 <= rates[50] <= 0.15 and rates[50] < rates[400]
        report("criterion 5 (tail equivalence at small k)", ok,
               f"rejection at k=50 {rates[50]:.3f} in [0.02, 0.15], "
               f"at k=400 {rates[400]:.3f} (must exceed)")


class TestCriterion6RoleOfK:
    def test_angular_beats_max_baseline(self):
        plan = ExperimentPlan(CopulaModel("outer_power_clayton", 0.45),
                              CopulaModel("outer_power_clayton", 0.55),
                              n=5000, repetitions=500, K_grid=(2, 4, 5),
                              k_exceedances=200, margins="known", seed=208)
        curve = k_sensitivity_study(plan)
        rates = curve.rejection_rates()
        base = curve.baseline["rejection_rate"]
        ok = (rates[4] > base and rates[5] > base and 0.02 <= rates[2] <= 0.09)
        report("criterion 6a (angular cells beat the max baseline)", ok,
               f"angular {rates} vs max-risk {base:.3f}; K=2 within size band")

    def test_matched_chi_asymmetry(self):
        theta_sym = 0.5
        psi = (0.85, 0.6)
        target = theoretical_chi(CopulaModel("outer_power_clayton", theta_sym))
        theta_asym = match_chi(target, psi)
        plan = ExperimentPlan(CopulaModel("asymmetric_logistic", theta_asym, psi),
                              CopulaModel("outer_power_clayton", theta_sym),
                              n=5000, repetitions=500, K_grid=(3, 4, 5),
                              k_exceedances=200, margins="known", seed=209)
        curve = k_sensitivity_study(plan)
        rates = curve.rejection_rates()
        base = curve.baseline["rejection_rate"]
        ok = 0.02 <= base <= 0.12 and all(rates[K] > 0.5 for K in (3, 4, 5))
        report("criterion 6b (matched-chi asymmetry detected by angular cells)", ok,
               f"max-risk {base:.3f} in [0.02, 0.12]; angular {rates} all > 0.5")


class TestCriterion7ClosedForm:
    def test_d3_matches_generic(self):
        chis = RngStream(210).uniform((1000, 2)) * 0.98
        worst = 0.0
        for cx, cy in chis:
            p = np.array([cx / (2 - cx), (1 - cx) / (2 - cx), (1 - cx) / (2 - cx)])
            q = np.array([cy / (2 - cy), (1 - cy) / (2 - cy), (1 - cy) / (2 - cy)])
            worst = max(worst, abs(d3_from_chi(cx, cy) - symmetric_kl(p, q)))
        report("criterion 7 (closed form vs generic evaluator)", worst <= 1e-12,
               f"max |d3_from_chi - generic| = {worst:.2e} (<= 1e-12)")


class TestCriterion8OracleEquivalence:
    def test_count_cells_vs_brute_force(self):
        rng = RngStream(211)
        failures = 0
        for trial in range(100):
            n = 10 + int(rng.uniform() * 41)
            data = 1.0 / (1.0 - rng.uniform((n, 2)))
            choice = trial % 3
            if choice == 0:
                part = make_max_partition(2)
            elif choice == 1:
                part = make_min_partition(2)
            else:
                part = make_angular_partition("euclidean", 2 + trial % 5)
            k_n = 1 + int(rng.uniform() * (n - 1))
            cells = count_cells(Sample(data, "pareto"), [(part, k_n)])[0]
            # independent O(n*K) oracle: explicit loops over points and cells
            r = np.array([part.risk(row) for row in data])
            order = np.argsort(r, kind="stable")
            u = r[order[n - k_n - 1]]
            counts = np.zeros(part.num_cells, dtype=int)
            for i in order[n - k_n:]:
                counts[part.classify(data[i] / u) - 1] += 1
            if not (np.array_equal(cells.counts, counts) and cells.threshold == u):
                failures += 1
        report("criterion 8a (cell counting vs brute force)", failures == 0,
               f"{failures} mismatches over 100 random instances (exact match required)")

    def test_divergence_vs_hand_evaluation(self):
        from tailtest import CellProbabilities

        rng = RngStream(212)
        worst = 0.0
        for _ in range(100):
            counts_p = (rng.uniform(6) * 40).astype(int) + 1
            counts_q = (rng.uniform(6) * 40).astype(int) + 1
            diff = int(counts_p.sum() - counts_q.sum())
            counts_q[0] += diff
            if counts_q[0] < 1:
                continue
            p = CellProbabilities.from_counts(counts_p)
            q = CellProbabilities.from_counts(counts_q)
            hand = sum((pj - qj) * (math.log(pj) - math.log(qj))
                       for pj, qj in zip(p.probs, q.probs))
            worst = max(worst, abs(kl_divergence(p, q).value - hand))
        report("criterion 8b (divergence vs term-by-term evaluation)", worst <= 1e-12,
               f"max deviation {worst:.2e} (<= 1e-12)")


class TestCriterion9InvarianceSuite:
    def test_rank_invariance_bit_identical(self):
        x = sample(CopulaModel("outer_power_clayton", 0.4), 1200, RngStream(213, 0))
        y = sample(CopulaModel("outer_power_clayton", 0.6), 1200, RngStream(213, 1))
        config = TestConfig(k_exceedances=120, risk="euclidean", num_cells=4,
                            margins="empirical", bootstrap_replicates=150, seed=214)
        base = run_test(x, y, config)
        warp_x = Sample(np.column_stack([np.exp(x.data[:, 0]),
                                         x.data[:, 1] ** 3 + x.data[:, 1]]))
        warp_y = Sample(np.column_stack([-1.0 / (1.0 + y.data[:, 0]),
                                         np.log(y.data[:, 1] + 2.0)]))
        warped = run_test(warp_x, warp_y, config)
        ok = (warped.statistic == base.statistic and warped.p_value == base.p_value)
        report("criterion 9a (rank invariance, bit-identical)", ok,
               f"statistic {base.statistic!r} reproduced under monotone distortion")

    def test_swap_symmetry_exact(self):
        x = sample(CopulaModel("logistic", 0.45), 1500, RngStream(215, 0))
        y = sample(CopulaModel("logistic", 0.6), 1500, RngStream(215, 1))
        config = TestConfig(k_exceedances=150, risk="euclidean", num_cells=5,
                            margins="known", seed=216)
        a = run_test(x, y, config, known_cdfs=UNIFORM_PAIR)
        b = run_test(y, x, config, known_cdfs=UNIFORM_PAIR)
        ok = a.statistic == b.statistic and a.p_value == b.p_value
        report("criterion 9b (swap symmetry, exact)", ok,
               f"statistic {a.statistic:.6f} identical under sample swap")

    def test_partition_exhaustiveness(self):
        rng = RngStream(217)
        pts = rng.uniform((100_000, 2)) * 5.0
        ok = True
        for part in (make_max_partition(2), make_min_partition(2),
                     make_angular_partition("euclidean", 5),
                     make_angular_partition("sum", 4)):
            inside = pts[part.risk(pts) > 1.0]
            cells = part.classify(inside)
            ok &= bool(((cells >= 1) & (cells <= part.num_cells)).all())
            ok &= cells.shape[0] == inside.shape[0]
        report("criterion 9c (partition exhaustiveness on 1e5 points)", ok,
               "every exceedance-region point classified exactly once")

    def test_risk_homogeneity(self):
        rng = RngStream(218)
        x = rng.uniform((2000, 3)) * 10.0
        t = rng.uniform(2000) * 99.9 + 0.05
        worst = 0.0
        for kind in ("max", "min", "euclidean", "sum"):
            r = RiskFunctional(kind)
            base = r(x)
            scaled = r(x * t[:, None])
            worst = max(worst, float(np.max(np.abs(scaled - t * base) / (t * base))))
        report("criterion 9d (risk homogeneity)", worst <= 1e-12,
               f"max relative homogeneity error {worst:.2e} (<= 1e-12)")


class TestCriterion10RainfallFixture:
    def test_synthetic_two_season_pipeline(self):
        k4_rejections = 0
        k2_rejections = 0
        n_seeds = 8
        canonical_rejects = None
        for seed in range(n_seeds):
            series = make_rain_series({
                "DJF": (1600, CopulaModel("outer_power_clayton", 0.3)),
                "MAM": (1600, CopulaModel("outer_power_clayton", 0.7)),
            }, seed=300 + seed)
            outcomes = {}
            for K in (4, 2):
                config = TestConfig(k_exceedances=220, risk="euclidean", num_cells=K,
                                    margins="empirical", bootstrap_replicates=500,
                                    seed=400 + seed)
                outcome = seasonal_tests(series, config)[("DJF", "MAM")]
                assert outcome.report is not None, outcome.error
                outcomes[K] = outcome.report.reject
            k4_rejections += outcomes[4]
            k2_rejections += outcomes[2]
            if seed == 0:
                canonical_rejects = outcomes[4]
        ok = canonical_rejects and k2_rejections < k4_rejections
        report("criterion 10 (rainfall pipeline fixture)", ok,
               f"K=4 rejects {k4_rejections}/{n_seeds} (canonical seed rejects: "
               f"{canonical_rejects}); K=2 rejects {k2_rejections}/{n_seeds} (strictly fewer)")
