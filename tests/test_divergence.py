"""The symmetrized KL statistic, zero-cell handling, chi estimation, closed form."""

import math

import numpy as np
import pytest
from scipy.stats import norm

from tailtest import (CellProbabilities, CopulaModel, DomainError,
                      InsufficientTailError, RngStream, Sample, ShapeError,
                      d3_from_chi, extremal_correlation, kl_divergence, sample,
                      symmetric_kl, to_pareto, uniform_cdf)


def cells_from_counts(counts):
    return CellProbabilities.from_counts(np.asarray(counts))


def hand_divergence(p, q):
    """Term-by-term oracle for the Jeffreys sum."""
    return sum((pj - qj) * (math.log(pj) - math.log(qj)) for pj, qj in zip(p, q))


class TestKlDivergence:
    def test_identical_vectors_give_zero(self):
        p = cells_from_counts([50, 30, 20])
        q = cells_from_counts([50, 30, 20])
        div = kl_divergence(p, q)
        assert div.value == 0.0
        assert div.normalized == 0.0
        assert not div.zero_adjusted

    def test_reference_value(self):
        # (0.5,0.3,0.2) vs (0.4,0.4,0.2): 0.1*ln(1.25) + 0.1*ln(4/3) + 0.
        p = cells_from_counts([50, 30, 20])
        q = cells_from_counts([40, 40, 20])
        div = kl_divergence(p, q)
        expected = 0.1 * math.log(1.25) + 0.1 * math.log(4.0 / 3.0)
        assert div.value == pytest.approx(expected, abs=1e-6)
        assert div.value == pytest.approx(hand_divergence(p.probs, q.probs), abs=1e-15)
        assert div.normalized == pytest.approx(100 * div.value / 2.0)

    def test_swap_symmetry_exact(self):
        rng = RngStream(41)
        for _ in range(20):
            counts_p = (rng.uniform(4) * 50).astype(int) + 1
            counts_q = (rng.uniform(4) * 50).astype(int) + 1
            counts_q[-1] += counts_p.sum() - counts_q.sum()
            if counts_q[-1] <= 0 or counts_p.sum() != counts_q.sum():
                continue
            p, q = cells_from_counts(counts_p), cells_from_counts(counts_q)
            assert kl_divergence(p, q).value == kl_divergence(q, p).value

    def test_zero_cell_correction(self):
        p = cells_from_counts([60, 0, 40])
        q = cells_from_counts([50, 30, 20])
        div = kl_divergence(p, q)
        assert div.zero_adjusted
        assert np.isfinite(div.value)
        denom = 100 + 1.5
        pv = (np.array([60, 0, 40]) + 0.5) / denom
        qv = (np.array([50, 30, 20]) + 0.5) / denom
        assert div.value == pytest.approx(hand_divergence(pv, qv), abs=1e-15)

    def test_shape_and_kn_mismatch(self):
        with pytest.raises(ShapeError):
            kl_divergence(cells_from_counts([5, 5]), cells_from_counts([4, 3, 3]))
        with pytest.raises(DomainError):
            kl_divergence(cells_from_counts([5, 5]), cells_from_counts([6, 6]))

    def test_non_negative_on_random_counts(self):
        rng = RngStream(42)
        for _ in range(200):
            cp = (rng.uniform(5) * 30).astype(int)
            cq = (rng.uniform(5) * 30).astype(int)
            cp[0] += 1
            cq[0] += 1 + cp.sum() - cq.sum() if cq.sum() < cp.sum() else 1
            if cp.sum() != cq.sum():
                continue
            assert kl_divergence(cells_from_counts(cp), cells_from_counts(cq)).value >= 0.0


class TestSymmetricKl:
    def test_zero_on_equal(self):
        assert symmetric_kl(np.array([0.2, 0.8]), np.array([0.2, 0.8])) == 0.0

    def test_infinite_on_single_zero(self):
        assert symmetric_kl(np.array([0.0, 1.0]), np.array([0.5, 0.5])) == math.inf

    def test_both_zero_cells_ignored(self):
        assert symmetric_kl(np.array([0.0, 0.5, 0.5]), np.array([0.0, 0.5, 0.5])) == 0.0


class TestExtremalCorrelation:
    def test_comonotone_sample(self):
        x = 1.0 / (1.0 - RngStream(43).uniform(5000))
        data = np.column_stack([x, x])
        est = extremal_correlation(Sample(data, "pareto"), 0.9)
        assert est.chi == 1.0
        assert est.ci_high == 1.0

    def test_independent_pareto(self):
        # chi(v) = 1 - v exactly under independence; Monte Carlo at n = 1e5.
        rng = RngStream(44)
        data = 1.0 / (1.0 - rng.uniform((100_000, 2)))
        est = extremal_correlation(Sample(data, "pareto"), 0.95)
        assert est.chi == pytest.approx(0.05, abs=0.01)
        assert est.ci_low <= est.chi <= est.ci_high

    def test_logistic_tail(self):
        # chi = 2 - 2^0.45 for the logistic family; sampler as Monte Carlo oracle.
        model = CopulaModel("logistic", 0.45)
        raw = sample(model, 1_000_000, RngStream(45))
        std = to_pareto(raw, [uniform_cdf, uniform_cdf])
        est = extremal_correlation(std, 0.99)
        assert est.chi == pytest.approx(2.0 - 2.0 ** 0.45, abs=0.02)

    def test_normal_interval_half_width(self):
        # 40 of 100 rows exceed u = 2 in coordinate 1, 10 of them jointly:
        # chi-hat = 1/4 with the 95% Wald half-width z_0.975 sqrt(chi(1-chi)/m).
        x1 = np.where(np.arange(100) < 40, 3.0, 1.5)
        x2 = np.where(np.arange(100) < 10, 3.0, 1.5)
        est = extremal_correlation(Sample(np.column_stack([x1, x2]), "pareto"), 0.5)
        half = norm.ppf(0.975) * math.sqrt(0.25 * 0.75 / 40)
        assert (est.chi, est.num_conditioning) == (0.25, 40)
        assert est.ci_low == pytest.approx(0.25 - half, rel=1e-14, abs=0)
        assert est.ci_high == pytest.approx(0.25 + half, rel=1e-14, abs=0)

    def test_insufficient_tail(self):
        data = 1.0 + RngStream(46).uniform((50, 2))
        with pytest.raises(InsufficientTailError):
            extremal_correlation(Sample(data, "pareto"), 0.99)

    def test_requires_bivariate(self):
        data = 1.0 / (1.0 - RngStream(47).uniform((100, 3)))
        with pytest.raises(DomainError):
            extremal_correlation(Sample(data, "pareto"), 0.5)


class TestD3FromChi:
    def test_null_case(self):
        assert d3_from_chi(0.4, 0.4) == 0.0

    def test_reference_mapping(self):
        # chi = 0.5 -> (1/3,1/3,1/3); chi = 0.25 -> (1/7,3/7,3/7).
        expected = symmetric_kl(np.array([1 / 3, 1 / 3, 1 / 3]),
                                np.array([1 / 7, 3 / 7, 3 / 7]))
        assert d3_from_chi(0.5, 0.25) == pytest.approx(expected, abs=1e-15)
        # also equal to the empirical evaluator on matching integer counts
        p = cells_from_counts([7, 7, 7])
        q = cells_from_counts([3, 9, 9])
        assert d3_from_chi(0.5, 0.25) == pytest.approx(kl_divergence(p, q).value, abs=1e-12)

    def test_symmetry(self):
        assert d3_from_chi(0.7, 0.2) == d3_from_chi(0.2, 0.7)

    def test_domain(self):
        with pytest.raises(DomainError):
            d3_from_chi(1.0, 0.5)
        with pytest.raises(DomainError):
            d3_from_chi(0.5, -0.1)

    def test_matches_generic_evaluator_on_random_pairs(self):
        rng = RngStream(48)
        chis = rng.uniform((1000, 2)) * 0.98
        for cx, cy in chis:
            p = np.array([cx / (2 - cx), (1 - cx) / (2 - cx), (1 - cx) / (2 - cx)])
            q = np.array([cy / (2 - cy), (1 - cy) / (2 - cy), (1 - cy) / (2 - cy)])
            assert abs(d3_from_chi(cx, cy) - symmetric_kl(p, q)) <= 1e-12


class TestCellConsistencyMonteCarlo:
    def test_empirical_cells_approach_limit(self):
        # p-hat at k_n = 2000 of n = 1e5 vs a fresh 1e6-draw conditional
        # frequency at the same threshold, per cell within 0.03.
        from tailtest import count_cells, make_angular_partition

        model = CopulaModel("logistic", 0.45)
        part = make_angular_partition("euclidean", 5)
        raw = sample(model, 100_000, RngStream(49))
        std = to_pareto(raw, [uniform_cdf, uniform_cdf])
        cells = count_cells(std, [(part, 2000)])[0]

        fresh = sample(model, 1_000_000, RngStream(50))
        fresh_std = to_pareto(fresh, [uniform_cdf, uniform_cdf]).data
        r = part.risk(fresh_std)
        exceed = fresh_std[r > cells.threshold]
        oracle_counts = np.bincount(part.classify(exceed / cells.threshold),
                                    minlength=part.num_cells + 1)[1:]
        oracle = oracle_counts / oracle_counts.sum()
        assert np.max(np.abs(cells.probs - oracle)) <= 0.03
