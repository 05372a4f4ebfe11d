"""Pareto standardization, pseudo-observations, and their invariances."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tailtest import (ConfigError, DegenerateMarginError, DomainError, InsufficientDataError,
                      RngStream, Sample, to_pareto, to_pseudo, uniform_cdf,
                      unit_exponential_cdf, unit_pareto_cdf)
from tailtest.margins import _ordinal_ranks, _rank_transform, standardize

from .test_bootstrap_engine import (_reference_rank_transform, reference_ordinal_ranks,
                                    reference_tied)


TIE_DENSITIES = ("none", "sparse", "fiftieths", "seven_values", "all_equal", "signed_zero")


def _with_ties(values, density, rng):
    """``values`` with ties of the given density."""
    if density == "sparse":
        flat = values.ravel()
        picks = rng.integers(0, flat.size, size=(2, max(1, flat.size // 20)))
        flat[picks[0]] = flat[picks[1]]
    elif density == "fiftieths":
        values = np.round(values * 50.0) / 50.0
    elif density == "seven_values":
        values = np.floor(rng.random(values.shape) * 7.0)
    elif density == "all_equal":
        values = np.full_like(values, 0.7)
    elif density == "signed_zero":
        zeros = rng.random(values.shape) < 0.5
        signs = np.where(rng.random(values.shape) < 0.5, -0.0, 0.0)
        values = np.where(zeros, signs, values)
    return values


@st.composite
def rank_cases(draw, ndim=None):
    """(values, axis): a batch of lanes of one tie density along ``axis``."""
    ndim = draw(st.integers(1, 4)) if ndim is None else ndim
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=ndim, max_size=ndim)))
    axis = draw(st.integers(-ndim, ndim - 1))
    shape = shape[:axis % ndim] + (draw(st.integers(1, 60)),) + shape[axis % ndim + 1:]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from(TIE_DENSITIES))
    return _with_ties(rng.standard_normal(shape), density, rng), axis


class TestSampleType:
    def test_rejects_non_matrix(self):
        with pytest.raises(Exception):
            Sample(np.ones(5))

    def test_rejects_bad_state(self):
        with pytest.raises(DomainError):
            Sample(np.ones((3, 2)), "weird")

    def test_pareto_entries_must_exceed_one(self):
        with pytest.raises(DomainError):
            Sample(np.array([[0.5, 2.0]]), "pareto")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("state", ["raw", "pareto", "pseudo"])
    def test_rejects_non_finite_entries(self, bad, state):
        data = np.full((4, 2), 2.0)
        data[2, 1] = bad
        with pytest.raises(DomainError, match="row 2, column 1"):
            Sample(data, state)


class TestToPareto:
    def test_direct_formula(self):
        # F = 0.5 maps to 2, F = 0 maps to the lower endpoint 1.
        raw = Sample(np.array([[0.5], [0.0]]))
        out = to_pareto(raw, [uniform_cdf])
        assert out.data[0, 0] == pytest.approx(2.0)
        assert out.data[1, 0] == pytest.approx(1.0)
        assert out.margin_state == "pareto"

    def test_degenerate_margin_reports_location(self):
        raw = Sample(np.array([[0.2, 0.3], [0.4, 1.0]]))
        with pytest.raises(DegenerateMarginError) as exc:
            to_pareto(raw, [uniform_cdf, uniform_cdf])
        assert exc.value.coordinate == 1
        assert exc.value.row == 1

    def test_median_of_transformed_uniforms(self):
        # Monte Carlo oracle: median of unit Pareto is 2.
        u = RngStream(123).uniform((100_000, 1))
        out = to_pareto(Sample(u), [uniform_cdf])
        assert np.median(out.data) == pytest.approx(2.0, abs=0.05)

    def test_pareto_margin_ks(self):
        # Empirical 1 - 1/x transform of true-margin data is uniform;
        # KS distance at n = 1e5 stays below 0.01.
        n = 100_000
        u = RngStream(7).uniform((n, 2))
        out = to_pareto(Sample(u), [uniform_cdf, uniform_cdf])
        for j in range(2):
            vals = np.sort(1.0 - 1.0 / out.data[:, j])
            grid = np.arange(1, n + 1) / n
            ks = np.max(np.abs(vals - grid + 0.5 / n)) + 0.5 / n
            assert ks <= 0.01

    def test_exponential_and_pareto_stubs(self):
        x = np.array([[1.0], [2.0]])
        out = to_pareto(Sample(x), [unit_pareto_cdf])
        assert out.data[0, 0] == pytest.approx(1.0)
        assert out.data[1, 0] == pytest.approx(2.0)
        e = to_pareto(Sample(np.array([[0.0], [np.log(2.0)]])), [unit_exponential_cdf])
        assert e.data[0, 0] == pytest.approx(1.0)
        assert e.data[1, 0] == pytest.approx(2.0)


class TestToPseudo:
    def test_known_column(self):
        raw = Sample(np.array([[3.2], [7.1], [0.4], [5.0]]))
        out = to_pseudo(raw)
        assert out.data[:, 0] == pytest.approx([5 / 3, 5.0, 5 / 4, 5 / 2])
        assert out.margin_state == "pseudo"

    def test_needs_two_rows(self):
        with pytest.raises(InsufficientDataError):
            to_pseudo(Sample(np.array([[1.0, 2.0]])))

    def test_max_entry_is_n_plus_one(self):
        rng = RngStream(5)
        raw = Sample(rng.uniform((40, 3)))
        out = to_pseudo(raw)
        assert out.data.max() == pytest.approx(41.0)
        for j in range(3):
            assert out.data[:, j].max() == pytest.approx(41.0)

    def test_pseudo_column_is_exact_grid(self):
        n = 25
        raw = Sample(RngStream(6).uniform((n, 1)))
        out = to_pseudo(raw)
        expected = np.sort((n + 1.0) / (n + 1.0 - np.arange(1, n + 1)))
        assert np.sort(out.data[:, 0]) == pytest.approx(expected)

    @given(arrays(np.float64, (17, 2), elements=st.floats(-100, 100, allow_nan=False)))
    @settings(max_examples=40, deadline=None)
    def test_rank_invariance_under_monotone_maps(self, data):
        raw = Sample(data)
        warped_cols = [np.exp(data[:, 0] / 50.0), data[:, 1] ** 3 + 2.0 * data[:, 1]]
        # The maps are strictly increasing; skip draws where rounding collapses
        # distinct doubles, which would genuinely change the tie structure.
        for j in range(2):
            assume(np.unique(data[:, j]).size == np.unique(warped_cols[j]).size)
        base = to_pseudo(raw).data
        assert np.array_equal(base, to_pseudo(Sample(np.column_stack(warped_cols))).data)

    def test_permutation_equivariance(self):
        rng = RngStream(8)
        data = rng.uniform((30, 2))
        perm = RngStream(9).permutation(30)
        out = to_pseudo(Sample(data)).data
        out_perm = to_pseudo(Sample(data[perm])).data
        assert np.array_equal(out[perm], out_perm)

    def test_tie_handling_stable_ordinal(self):
        # Equal values keep row order: first occurrence gets the lower rank.
        raw = Sample(np.array([[2.0], [1.0], [2.0], [3.0]]))
        out = to_pseudo(raw)
        # ranks: 2, 1, 3, 4
        assert out.data[:, 0] == pytest.approx([5 / 3, 5 / 4, 5 / 2, 5.0])
        assert out.ties == 2

    @given(rank_cases(ndim=2))
    @settings(max_examples=60, deadline=None)
    def test_tie_count_matches_value_counts(self, case):
        data = case[0]
        assume(data.shape[0] >= 2)
        expected = 0
        for j in range(data.shape[1]):
            counts = np.unique(data[:, j], return_counts=True)[1]
            expected += int(counts[counts > 1].sum())
        pseudo, ties = _rank_transform(data)
        assert np.array_equal(pseudo, _reference_rank_transform(data))
        assert ties == expected == to_pseudo(Sample(data)).ties


class TestOrdinalRanks:
    @given(rank_cases())
    @settings(max_examples=150, deadline=None)
    def test_ranks_and_tie_mask_equal_the_stable_sort(self, case):
        values, axis = case
        ranks, tied = _ordinal_ranks(values, axis=axis)
        assert ranks.dtype == np.int64
        assert np.array_equal(ranks, reference_ordinal_ranks(values, axis=axis))
        assert np.array_equal(tied, reference_tied(values, axis=axis))

    def test_signed_zeros_tie_in_row_order(self):
        values = np.array([0.0, -0.0, 1.0, -0.0, 0.0])
        ranks, tied = _ordinal_ranks(values)
        assert ranks.tolist() == [1, 2, 5, 3, 4]
        assert tied.tolist() == [True, True, False, True, True]

    def test_tied_lanes_repaired_beside_untied_ones(self):
        # Columns 0 and 2 hold ties; column 1 does not.
        data = np.array([[2.0, 0.3, 5.0], [1.0, 0.1, 5.0], [2.0, 0.2, 4.0], [2.0, 0.4, 5.0]])
        ranks, tied = _ordinal_ranks(data)
        assert ranks.T.tolist() == [[2, 1, 3, 4], [3, 1, 2, 4], [2, 3, 1, 4]]
        assert tied.any(axis=0).tolist() == [True, False, True]


class TestStandardize:
    raw = Sample(RngStream(10).uniform((50, 2)))

    def test_known_raw_is_to_pareto(self):
        out = standardize(self.raw, "known", [uniform_cdf] * 2)
        assert np.array_equal(out.data, to_pareto(self.raw, [uniform_cdf] * 2).data)
        assert out.margin_state == "pareto"

    def test_empirical_raw_is_to_pseudo(self):
        out = standardize(self.raw, "empirical", [uniform_cdf] * 2)
        assert np.array_equal(out.data, to_pseudo(self.raw).data)

    def test_empirical_pareto_is_reranked(self):
        pareto = to_pareto(self.raw, [uniform_cdf] * 2)
        out = standardize(pareto, "empirical")
        assert out.margin_state == "pseudo"
        assert np.array_equal(out.data, to_pseudo(self.raw).data)

    def test_standardized_samples_pass_through(self):
        pareto = to_pareto(self.raw, [uniform_cdf] * 2)
        assert standardize(pareto, "known") is pareto
        # Re-ranking pseudo-observations returns them bit for bit, with the
        # ties of the raw data they were ranked from.
        tied = to_pseudo(Sample(np.round(self.raw.data * 8.0)))
        assert tied.ties > 0
        for pseudo in (to_pseudo(self.raw), tied):
            out = standardize(pseudo, "empirical")
            assert np.array_equal(out.data, pseudo.data)
            assert out.ties == pseudo.ties

    def test_tied_pseudo_input_ranks_like_its_raw_data(self):
        # A caller-built pseudo sample with repeated values: ties by row order.
        data = 1.0 + np.floor(self.raw.data * 6.0)
        out = standardize(Sample(data, "pseudo"), "empirical")
        expected = to_pseudo(Sample(data))
        assert np.array_equal(out.data, expected.data)
        assert out.ties == expected.ties == 100

    def test_known_mode_errors(self):
        with pytest.raises(ConfigError, match="needs marginal CDFs"):
            standardize(self.raw, "known")
        with pytest.raises(ConfigError, match="pseudo-observations need empirical margins"):
            standardize(to_pseudo(self.raw), "known", [uniform_cdf] * 2)

    @pytest.mark.parametrize("state", ["raw", "pareto", "pseudo"])
    def test_empirical_mode_needs_two_rows(self, state):
        # One rule for every empirical input: a single row has no ranks to compare.
        with pytest.raises(InsufficientDataError, match="need n >= 2, got n=1"):
            standardize(Sample(np.full((1, 2), 2.0), state), "empirical")
