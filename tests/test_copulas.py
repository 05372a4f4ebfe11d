"""Copula samplers, tail quantities, and chi matching."""

from unittest import mock

import numpy as np
import pytest

from tailtest import (CopulaModel, DomainError, RngStream, copula_cdf, copulas, count_cells,
                      make_angular_partition, match_chi, sample, theoretical_chi,
                      to_pareto, uniform_cdf)
from tailtest.copulas import conditional_cdf


def ks_uniform(values):
    n = len(values)
    vals = np.sort(values)
    grid = np.arange(1, n + 1) / n
    return max(np.max(grid - vals), np.max(vals - (grid - 1.0 / n)))


def assert_matches_cdf_on_grid(model, n, seed):
    # Empirical CDF on a 9x9 grid within four worst-case standard errors
    # (4 * 0.5 / sqrt(n)) of the closed form at every grid point.
    data = sample(model, n, RngStream(seed)).data
    grid = np.linspace(0.1, 0.9, 9)
    below = data[:, :, None] <= grid                       # (n, 2, 9)
    emp = np.mean(below[:, 0, :, None] & below[:, 1, None, :], axis=0)
    exact = copula_cdf(model, grid[:, None], grid[None, :])
    err = float(np.max(np.abs(emp - exact)))
    assert err <= 2.0 / np.sqrt(n), f"{model}: max CDF error {err:.5f}"


class TestModelValidation:
    def test_theta_domain(self):
        with pytest.raises(DomainError):
            CopulaModel("logistic", 0.0)
        with pytest.raises(DomainError):
            CopulaModel("logistic", 1.2)

    def test_asymmetric_needs_psi(self):
        with pytest.raises(DomainError):
            CopulaModel("asymmetric_logistic", 0.5)
        with pytest.raises(DomainError):
            CopulaModel("asymmetric_logistic", 0.5, (0.0, 1.0))
        with pytest.raises(DomainError):
            CopulaModel("logistic", 0.5, (1.0, 1.0))

    def test_unknown_family(self):
        with pytest.raises(DomainError):
            CopulaModel("gaussian", 0.5)


class TestSampling:
    def test_logistic_theta_one_is_independence(self):
        n = 40_000
        data = sample(CopulaModel("logistic", 1.0), n, RngStream(51)).data
        emp = np.mean((data[:, 0] <= 0.5) & (data[:, 1] <= 0.5))
        assert emp == pytest.approx(0.25, abs=3.0 / np.sqrt(n))

    @pytest.mark.parametrize("model", [
        CopulaModel("logistic", 0.45),
        CopulaModel("outer_power_clayton", 0.45),
        CopulaModel("asymmetric_logistic", 0.45, (1.0, 0.5)),
    ])
    def test_margins_uniform(self, model):
        n = 10_000
        data = sample(model, n, RngStream(52)).data
        for j in range(2):
            assert ks_uniform(data[:, j]) <= 1.63 / np.sqrt(n)

    def test_clayton_matches_closed_form_cdf(self):
        for theta in (0.3, 0.45, 1.0):
            assert_matches_cdf_on_grid(CopulaModel("outer_power_clayton", theta), 200_000, 53)

    def test_asymmetric_matches_closed_form_cdf(self):
        for theta, psi in ((0.3, (1.0, 0.6)), (0.45, (0.85, 0.6)), (1.0, (0.5, 1.0))):
            assert_matches_cdf_on_grid(CopulaModel("asymmetric_logistic", theta, psi),
                                       200_000, 54)

    def test_unit_weights_reproduce_logistic_draws(self):
        for theta in (0.3, 0.45, 1.0):
            asym = sample(CopulaModel("asymmetric_logistic", theta, (1.0, 1.0)), 1000,
                          RngStream(61, (2,))).data
            logistic = sample(CopulaModel("logistic", theta), 1000, RngStream(61, (2,))).data
            assert np.array_equal(asym, logistic)

    def test_sampling_never_inverts_the_conditional_cdf(self):
        with mock.patch.object(copulas, "conditional_cdf",
                               side_effect=AssertionError("conditional_cdf called")):
            for model in (CopulaModel("logistic", 0.45),
                          CopulaModel("outer_power_clayton", 0.45),
                          CopulaModel("asymmetric_logistic", 0.45, (1.0, 0.5))):
                sample(model, 500, RngStream(62))

    def test_conditional_cdf_limits(self):
        for model in (CopulaModel("outer_power_clayton", 0.6),
                      CopulaModel("asymmetric_logistic", 0.6, (0.9, 0.4)),
                      CopulaModel("logistic", 0.6)):
            u1 = np.array([0.2, 0.5, 0.9])
            near_one = conditional_cdf(model, u1, np.full(3, 1.0 - 1e-12))
            near_zero = conditional_cdf(model, u1, np.full(3, 1e-14))
            assert np.allclose(near_one, 1.0, atol=1e-6)
            assert np.all(near_zero < 1e-8)

    def test_sample_size_validation(self):
        with pytest.raises(DomainError):
            sample(CopulaModel("logistic", 0.5), 0, RngStream(1))

    def test_deterministic_given_stream(self):
        model = CopulaModel("outer_power_clayton", 0.45)
        a = sample(model, 100, RngStream(55)).data
        b = sample(model, 100, RngStream(55)).data
        assert np.array_equal(a, b)


CHI_MODELS = (CopulaModel("logistic", 0.45),
              CopulaModel("outer_power_clayton", 0.45),
              CopulaModel("asymmetric_logistic", 0.45, (0.85, 0.6)))


def _finite_level_chi(model, v):
    return (1.0 - 2.0 * v + float(copula_cdf(model, v, v))) / (1.0 - v)


class TestTheoreticalChi:
    def test_independence(self):
        assert theoretical_chi(CopulaModel("logistic", 1.0)) == 0.0

    def test_complete_dependence_limit(self):
        assert theoretical_chi(CopulaModel("logistic", 1e-12)) == pytest.approx(1.0, abs=1e-9)

    def test_reference_value(self):
        assert theoretical_chi(CopulaModel("logistic", 0.45)) == pytest.approx(0.63396, abs=1e-5)
        assert theoretical_chi(CopulaModel("outer_power_clayton", 0.45)) == \
            pytest.approx(2.0 - 2.0 ** 0.45, abs=1e-12)

    def test_monte_carlo_consistency(self):
        # chi_hat at v = 0.99 on 1e6 draws (about 1e4 conditioning points, so
        # 0.02 is about four standard errors) within 0.02 of the finite-level
        # chi(v) = P(U2 > v | U1 > v) = (1 - 2v + C(v, v)) / (1 - v).
        v = 0.99
        for model in CHI_MODELS:
            data = sample(model, 1_000_000, RngStream(56)).data
            cond = data[:, 0] > v
            chi_hat = float(np.mean(data[cond, 1] > v))
            assert chi_hat == pytest.approx(_finite_level_chi(model, v), abs=0.02), model

    def test_finite_level_chi_near_limit(self):
        # The closed-form chi(0.999) is already within 0.001 of the limit.
        for model in CHI_MODELS:
            assert _finite_level_chi(model, 0.999) == \
                pytest.approx(theoretical_chi(model), abs=0.001), model

    def test_asymmetric_reduces_to_logistic_at_unit_weights(self):
        asym = CopulaModel("asymmetric_logistic", 0.45, (1.0, 1.0))
        assert theoretical_chi(asym) == pytest.approx(2.0 - 2.0 ** 0.45, abs=1e-12)


class TestMatchChi:
    def test_symmetric_weights_reduce_to_logistic(self):
        theta = match_chi(2.0 - 2.0 ** 0.45, (1.0, 1.0))
        assert theta == pytest.approx(0.45, abs=1e-8)

    def test_round_trip(self):
        psi = (1.0, 0.5)
        theta = match_chi(0.3, psi)
        achieved = theoretical_chi(CopulaModel("asymmetric_logistic", theta, psi))
        assert achieved == pytest.approx(0.3, abs=1e-8)

    def test_fixed_point(self):
        psi = (0.8, 0.6)
        model = CopulaModel("asymmetric_logistic", 0.37, psi)
        theta = match_chi(theoretical_chi(model), psi)
        assert theta == pytest.approx(0.37, abs=1e-7)

    def test_unattainable_target_reports_range(self):
        with pytest.raises(DomainError) as exc:
            match_chi(0.7, (1.0, 0.5))
        assert "0.5" in str(exc.value)


class TestTailProperties:
    def test_exchangeable_families_have_mirror_symmetric_cells(self):
        part = make_angular_partition("euclidean", 4)
        k_n = 1000
        for family in ("logistic", "outer_power_clayton"):
            model = CopulaModel(family, 0.45)
            raw = sample(model, 50_000, RngStream(57))
            std = to_pareto(raw, [uniform_cdf, uniform_cdf])
            counts = count_cells(std, [(part, k_n)])[0].counts
            for j in range(part.num_cells // 2):
                assert abs(counts[j] - counts[part.num_cells - 1 - j]) <= 3.0 * np.sqrt(k_n)

    def test_asymmetric_family_breaks_mirror_symmetry(self):
        part = make_angular_partition("euclidean", 4)
        model = CopulaModel("asymmetric_logistic", 0.45, (1.0, 0.4))
        raw = sample(model, 200_000, RngStream(58))
        std = to_pareto(raw, [uniform_cdf, uniform_cdf])
        counts = count_cells(std, [(part, 4000)])[0].counts
        gaps = [abs(counts[j] - counts[part.num_cells - 1 - j])
                for j in range(part.num_cells // 2)]
        assert max(gaps) > 3.0 * np.sqrt(4000)

    def test_tail_equivalence_but_body_difference(self):
        # Same theta: angular cell probabilities agree in the tail while the
        # copulas differ measurably at the center.
        theta = 0.45
        log_model = CopulaModel("logistic", theta)
        clay_model = CopulaModel("outer_power_clayton", theta)
        part = make_angular_partition("euclidean", 5)
        n, k_n = 100_000, 2000
        cells = {}
        for name, model, seed in (("log", log_model, 59), ("clay", clay_model, 60)):
            std = to_pareto(sample(model, n, RngStream(seed)), [uniform_cdf, uniform_cdf])
            cells[name] = count_cells(std, [(part, k_n)])[0].probs
        assert np.max(np.abs(cells["log"] - cells["clay"])) <= 0.04
        body_gap = abs(float(copula_cdf(log_model, 0.5, 0.5)) -
                       float(copula_cdf(clay_model, 0.5, 0.5)))
        assert body_gap > 0.02
