"""Special functions validated against quadrature oracles, and stream behavior."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.stats import chi2

from tailtest import DomainError, RngStream, chisq_cdf, chisq_quantile, chisq_sf


def _chisq_pdf(t, dof):
    a = dof / 2.0
    return 0.5 * math.exp((a - 1.0) * math.log(t / 2.0) - t / 2.0 - math.lgamma(a))


def quad_chisq_cdf(x, dof):
    """Independent oracle: adaptive quadrature of the chi-squared density."""
    val, err = integrate.quad(_chisq_pdf, 0.0, x, args=(dof,), limit=500,
                              epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


# Degrees of freedom checked against scipy: every K - 1 up to 40, and the
# max-orthant counts 2^d - 2 for d = 3..10 with their looser bound.
ORACLE_DOFS = [(dof, 1e-12) for dof in range(1, 41)] + \
    [(2 ** d - 2, 2e-12) for d in range(3, 11)]


def oracle_grid(dof):
    """x on a linear grid to 4 dof + 200 plus geometric points down to 1e-8."""
    top = 4.0 * dof + 200.0
    return np.concatenate([np.linspace(top / 200, top, 200), np.geomspace(1e-8, top, 60)])


class TestChisqCdf:
    def test_lower_endpoint(self):
        assert chisq_cdf(0.0, 3) == 0.0

    def test_reference_value(self):
        # 7.8147 is the 95% point of chi-squared(3); oracle-checked below.
        assert chisq_cdf(7.8147, 3) == pytest.approx(0.9500, abs=1e-4)
        assert chisq_cdf(7.8147, 3) == pytest.approx(quad_chisq_cdf(7.8147, 3), abs=1e-10)

    @pytest.mark.parametrize("x,dof", [(0.5, 1), (3.2, 4), (25.0, 10), (1.0, 1),
                                       (50.0, 2), (0.001, 3), (12.0, 7)])
    def test_against_quadrature(self, x, dof):
        assert chisq_cdf(x, dof) == pytest.approx(quad_chisq_cdf(x, dof), abs=1e-10)

    def test_mean_point_between_half_and_seventy_percent(self):
        for k in range(1, 21):
            val = chisq_cdf(float(k), k)
            assert 0.5 < val < 0.7
            assert val == pytest.approx(quad_chisq_cdf(float(k), k), abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            chisq_cdf(-0.1, 3)
        with pytest.raises(DomainError):
            chisq_cdf(1.0, 0)

    def test_against_scipy(self):
        for dof, _ in ORACLE_DOFS:
            xs = oracle_grid(dof)
            ref = chi2.cdf(xs, dof)
            got = np.array([chisq_cdf(x, dof) for x in xs])
            assert np.abs(got - ref).max() <= 1e-12, dof

    @given(st.floats(0.0, 60.0), st.floats(0.0, 60.0), st.integers(1, 25))
    @settings(max_examples=60, deadline=None)
    def test_nondecreasing(self, x1, x2, dof):
        lo, hi = sorted((x1, x2))
        assert chisq_cdf(lo, dof) <= chisq_cdf(hi, dof) + 1e-15


class TestChisqQuantile:
    def test_reference_value(self):
        assert chisq_quantile(0.95, 3) == pytest.approx(7.8147, abs=1e-3)

    def test_exponential_closed_form(self):
        # chi-squared(2) is exponential with mean 2, so the median is 2 ln 2.
        assert chisq_quantile(0.5, 2) == pytest.approx(2.0 * math.log(2.0), abs=1e-3)

    def test_round_trip_identity(self):
        # Away from CDF saturation (tail mass >= 1e-9) the inverse recovers x;
        # inside the saturated corner double precision caps the attainable
        # accuracy for any implementation, so those points are excluded.
        for x in np.linspace(0.01, 50, 40):
            for dof in (1, 2, 3, 5, 11, 20):
                if chisq_sf(x, dof) < 1e-9:
                    continue
                p = chisq_cdf(x, dof)
                assert chisq_quantile(p, dof) == pytest.approx(x, abs=1e-6)

    def test_against_scipy(self):
        # The far lower tail holds quantiles far below any absolute tolerance.
        for dof, _ in ORACLE_DOFS:
            for p in (1e-100, 1e-30, 1e-15, 1e-8, 1e-6, 0.01, 0.5, 0.9, 0.95, 0.99, 0.999):
                ref = chi2.ppf(p, dof)
                assert chisq_quantile(p, dof) == pytest.approx(ref, rel=1e-12, abs=0), (p, dof)
        # Astronomically small p at large dof, where Newton from the right stalls.
        for p, dof in ((1e-200, 510), (1e-300, 1022)):
            ref = chi2.ppf(p, dof)
            assert chisq_quantile(p, dof) == pytest.approx(ref, rel=1e-12, abs=0), (p, dof)

    def test_monotone_in_p(self):
        grid = [chisq_quantile(p, 4) for p in np.linspace(0.01, 0.99, 25)]
        assert all(a < b for a, b in zip(grid, grid[1:]))

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(DomainError):
                chisq_quantile(p, 3)

    def test_via_bisected_quadrature_oracle(self):
        # Bisection on the quadrature CDF, fully independent of the implementation.
        target = 0.95
        lo, hi = 0.0, 40.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if quad_chisq_cdf(mid, 3) < target:
                lo = mid
            else:
                hi = mid
        assert chisq_quantile(0.95, 3) == pytest.approx(0.5 * (lo + hi), abs=1e-6)


class TestChiSquaredType:
    def test_dof_invariant(self):
        for fn, arg in ((chisq_cdf, 1.0), (chisq_sf, 1.0), (chisq_quantile, 0.5)):
            with pytest.raises(DomainError):
                fn(arg, 0)

    def test_sf_complements_cdf(self):
        assert chisq_sf(7.8147, 3) == pytest.approx(1.0 - chisq_cdf(7.8147, 3), abs=1e-12)
        assert chisq_cdf(chisq_quantile(0.5, 3), 3) == pytest.approx(0.5)

    def test_sf_against_scipy(self):
        # Relative error wherever the reference tail is a normal double.
        for dof, bound in ORACLE_DOFS:
            xs = oracle_grid(dof)
            ref = chi2.sf(xs, dof)
            keep = ref >= 1e-300
            got = np.array([chisq_sf(x, dof) for x in xs[keep]])
            assert (np.abs(got - ref[keep]) / ref[keep]).max() <= bound, dof

    def test_extreme_arguments(self):
        for dof in (1, 2, 3, 4, 1022):
            # The smallest subnormal halves to zero: the endpoint values.
            assert chisq_sf(5e-324, dof) == 1.0
            assert chisq_cdf(5e-324, dof) == 0.0
            assert chisq_sf(1e308, dof) == 0.0
            assert chisq_cdf(1e308, dof) == 1.0
            for x in (math.nan, math.inf, -math.inf):
                for fn in (chisq_cdf, chisq_sf):
                    with pytest.raises(DomainError):
                        fn(x, dof)


class TestRngStream:
    def test_reproducible_across_runs(self):
        a = RngStream(42, 7).uniform(100)
        b = RngStream(42, 7).uniform(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).uniform(100)
        b = RngStream(42, 1).uniform(100)
        assert not np.array_equal(a, b)

    def test_uniform_open_interval(self):
        u = RngStream(3).uniform(200_000)
        assert u.min() > 0.0 and u.max() < 1.0

    @pytest.mark.parametrize("size", [None, 2])
    def test_uniform_extreme_bits_stay_inside(self, size):
        # Generator.random() returns a 53-bit integer times 2**-53.
        stream = RngStream(3)
        for bits, want in [((1 << 53) - 1, 1.0 - 2.0 ** -53), (0, 2.0 ** -54)]:
            raw = bits * 2.0 ** -53 if size is None else np.full(size, bits * 2.0 ** -53)
            with mock.patch.object(stream, "_gen") as gen:
                gen.random.return_value = raw
                u = stream.uniform(size)
                e = stream.exponential(size)
            assert np.all(u == want)
            assert np.all(e > 0.0)

    def test_uniform_below_top_bits_unchanged(self):
        bits = np.arange((1 << 53) - 4, (1 << 53) - 1, dtype=np.int64)
        stream = RngStream(3)
        with mock.patch.object(stream, "_gen") as gen:
            gen.random.return_value = bits * 2.0 ** -53
            assert np.array_equal(stream.uniform(3), (bits + 0.5) * 2.0 ** -53)

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (3, 7), (2 ** 40, (5, 2)), (2 ** 200 + 3, 1)])
    def test_uniform_equals_the_53_bit_integer_formula(self, seed, stream_id):
        # uniform() is defined as (b + 0.5) / 2**53, capped below 1, for b drawn by
        # integers(0, 2**53); reading Generator.random() must give it draw for draw.
        stream, reference = RngStream(seed, stream_id), RngStream(seed, stream_id)._gen
        for size in (None, 1, 1000, (40, 3), None):
            bits = reference.integers(0, 1 << 53, size=size)
            want = np.minimum((bits + 0.5) * (1.0 / (1 << 53)), 1.0 - 2.0 ** -53)
            got = stream.uniform(size)
            assert type(got) is type(want)
            assert np.array_equal(got, want)

    def test_exponential_positive(self):
        e = RngStream(4).exponential(10_000)
        assert (e > 0).all()
        assert e.mean() == pytest.approx(1.0, abs=0.05)

    def test_stream_independence(self):
        n = 10_000
        a = RngStream(11, 0).uniform(n)
        b = RngStream(11, 1).uniform(n)
        corr = np.corrcoef(a, b)[0, 1]
        assert abs(corr) < 0.03

    def test_stable_alpha_one_degenerate(self):
        s = RngStream(5).positive_stable(1.0, 50)
        assert np.array_equal(s, np.ones(50))
        assert RngStream(5).positive_stable(1.0) == 1.0

    def test_stable_laplace_transform(self):
        # Monte Carlo oracle: E exp(-t S) = exp(-t^alpha) for S ~ Stable(alpha).
        s = RngStream(17).positive_stable(0.5, 100_000)
        for t in (0.5, 1.0, 2.0):
            assert np.exp(-t * s).mean() == pytest.approx(math.exp(-t ** 0.5), abs=0.01)

    def test_stable_domain(self):
        with pytest.raises(DomainError):
            RngStream(1).positive_stable(0.0, 5)
        with pytest.raises(DomainError):
            RngStream(1).positive_stable(1.2, 5)

    def test_child_streams_reproducible(self):
        a = RngStream(9).child(3).uniform(10)
        b = RngStream(9).child(3).uniform(10)
        c = RngStream(9).child(4).uniform(10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("stream_id", [0, (1_000_003, 4), (2, 3, 5)])
    def test_child_of_several_indices_is_the_grandchild(self, stream_id):
        stream = RngStream(9, stream_id)
        one, two = stream.child(6, 1), stream.child(6).child(1)
        assert one.stream_id == two.stream_id
        assert np.array_equal(one.uniform(20), two.uniform(20))
        assert np.array_equal(one.jumped_permutations(0, 3, 50), two.jumped_permutations(0, 3, 50))
        assert not np.array_equal(stream.child(6, 0).uniform(20), stream.child(6, 1).uniform(20))


# Master seeds and stream-id parts of one to seven 32-bit words.
MASTER_SEEDS = st.one_of(st.just(0), st.integers(1, 2 ** 32 - 1), st.integers(2 ** 32, 2 ** 64 - 1),
                         st.integers(2 ** 64, 2 ** 96), st.just(2 ** 200 + 3))
ID_PARTS = st.integers(0, 2 ** 32 - 1) | st.integers(2 ** 32, 2 ** 80)
STREAM_IDS = ID_PARTS | st.lists(ID_PARTS, min_size=1, max_size=3).map(tuple)


def replicate_key(stream_id):
    return (stream_id,) if isinstance(stream_id, int) else tuple(stream_id)


def stacked_children(seed, stream_id, start, stop, n):
    """Rows b - start: numpy's Philox of the seed and id jumped b + 1 times, permuting range(n)."""
    bit_generator = np.random.Philox(np.random.SeedSequence(seed, spawn_key=replicate_key(stream_id)))
    rows = [np.random.Generator(bit_generator.jumped(b + 1)).permutation(n)
            for b in range(start, stop)]
    return np.array(rows, dtype=np.int64).reshape(-1, n)


class TestChildPermutations:
    """Replicate b of a stream, its bootstrap child, is the stream's Philox jumped
    b + 1 times; ``jumped_permutations`` draws a run of them."""

    @settings(max_examples=60, deadline=None)
    @given(MASTER_SEEDS, STREAM_IDS, st.integers(0, 5000), st.integers(1, 10),
           st.sampled_from([1, 2, 361, 2000]))
    def test_equal_to_stacked_children(self, seed, stream_id, start, count, n):
        got = RngStream(seed, stream_id).jumped_permutations(start, start + count, n)
        want = stacked_children(seed, stream_id, start, start + count, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 40), st.data(), st.sampled_from([1, 2, 361]))
    def test_split_ranges_concatenate(self, replicates, data, n):
        split = data.draw(st.integers(0, replicates))
        stream = RngStream(6, (1_000_003, 0))
        parts = [stream.jumped_permutations(0, split, n),
                 stream.jumped_permutations(split, replicates, n)]
        assert np.array_equal(np.concatenate(parts), stream.jumped_permutations(0, replicates, n))

    @pytest.mark.parametrize("seed", [0, 12345, 2 ** 32 + 1, 2 ** 64 + 3, 2 ** 200 + 3])
    @pytest.mark.parametrize("stream_id", [0, 2 ** 40, (1_000_003, 0), (2 ** 33, 5, 2 ** 70)])
    def test_seed_and_id_word_counts(self, seed, stream_id):
        assert np.array_equal(RngStream(seed, stream_id).jumped_permutations(3, 9, 360),
                              stacked_children(seed, stream_id, 3, 9, 360))

    @pytest.mark.parametrize("start", [2 ** 32 - 2, 2 ** 64 - 2])
    def test_child_indices_across_a_word_boundary(self, start):
        # From b = 2**64 - 1 the jump count b + 1 carries into counter word 3.
        assert np.array_equal(RngStream(8, (4,)).jumped_permutations(start, start + 4, 50),
                              stacked_children(8, (4,), start, start + 4, 50))

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (7, (1_000_003, 0)), (2 ** 200 + 3, 2 ** 40),
                                                 (2 ** 32, (2 ** 33, 1))])
    def test_keys_are_the_seed_sequence_keys(self, seed, stream_id):
        # Replicate b is the SeedSequence's Philox key at counter (0, 0, b + 1, 0).
        key = np.random.SeedSequence(seed, spawn_key=replicate_key(stream_id)).generate_state(
            2, np.uint64)
        stream = RngStream(seed, stream_id)
        for b in (*range(10, 40), 2 ** 32, 2 ** 70 + 1):
            bit_generator = np.random.Philox(counter=(b + 1) << 128, key=key)
            want = np.random.Generator(bit_generator).permutation(30)
            assert np.array_equal(stream.jumped_permutations(b, b + 1, 30), want[None])

    @pytest.mark.parametrize("seed, stream_id", [(0, 0), (7, (1_000_003, 0)), (2 ** 200 + 3, 2 ** 40)])
    @pytest.mark.parametrize("start, stop", [(0, 3000), (2 ** 32 - 700, 2 ** 32 + 300),
                                             (2 ** 32, 2 ** 32 + 500), (2 ** 64 - 3, 2 ** 64 + 3),
                                             (0, 0), (2 ** 32 + 9, 2 ** 32 + 9)])
    def test_key_ranges_below_across_and_above_two_words(self, seed, stream_id, start, stop):
        # Long ranges, and jump counts that fill one or two counter words.
        got = RngStream(seed, stream_id).jumped_permutations(start, stop, 5)
        assert got.shape == (stop - start, 5)
        assert np.array_equal(got, stacked_children(seed, stream_id, start, stop, 5))

    def test_own_draws_untouched(self):
        # A stream that has drawn gives the same rows, and goes on drawing its own numbers.
        stream, fresh = RngStream(21, 3), RngStream(21, 3)
        stream.uniform(7)
        rows = stream.jumped_permutations(0, 5, 100)
        assert np.array_equal(rows, fresh.jumped_permutations(0, 5, 100))
        fresh.uniform(7)
        assert np.array_equal(stream.uniform(20), fresh.uniform(20))

    @pytest.mark.parametrize("start, stop", [(-1, 3), (-2 ** 40, 0), (5, 4)])
    def test_bad_child_range(self, start, stop):
        with pytest.raises(DomainError):
            RngStream(3).jumped_permutations(start, stop, 10)

    def test_empty_child_range(self):
        assert RngStream(3).jumped_permutations(4, 4, 10).shape == (0, 10)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
    @pytest.mark.parametrize("n", [1, 2, 361, 2000])
    def test_rows_land_in_a_compact_buffer(self, dtype, n):
        # The bootstrap reuses one int16 buffer (int32 from n = 2**15) per call.
        stream = RngStream(5, (1_000_003, 0))
        out = np.full((9, n), -1, dtype=dtype)
        got = stream.jumped_permutations(40, 47, n, out=out[1:8])
        assert got.base is out and got.dtype == dtype
        assert np.array_equal(out[1:8], stacked_children(5, (1_000_003, 0), 40, 47, n))
        assert (out[[0, 8]] == -1).all()

    def test_buffer_of_the_wrong_shape(self):
        with pytest.raises(DomainError):
            RngStream(5).jumped_permutations(0, 3, 10, out=np.empty((2, 10), dtype=np.int16))

    @pytest.mark.parametrize("dtype, n", [(np.int8, 300), (np.uint8, 258), (np.int16, 2 ** 15 + 1),
                                          (np.float32, 10), (np.float64, 10), (bool, 2)])
    def test_buffer_that_cannot_hold_the_rows(self, dtype, n):
        # An int8 buffer at n = 300 would wrap row indices to 256 values.
        out = np.ones((2, n), dtype=dtype)
        with pytest.raises(DomainError, match="cannot hold"):
            RngStream(5).jumped_permutations(0, 2, n, out=out)
        assert (out == 1).all()

    @pytest.mark.parametrize("dtype, n", [(np.int8, 128), (np.uint8, 256), (np.uint16, 2 ** 16)])
    def test_buffer_at_its_dtype_limit(self, dtype, n):
        got = RngStream(5, 2).jumped_permutations(0, 2, n, out=np.empty((2, n), dtype=dtype))
        assert np.array_equal(got, stacked_children(5, 2, 0, 2, n))
