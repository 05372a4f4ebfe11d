"""The chunked bootstrap engine against the one-replicate-at-a-time definition.

``reference_bootstrap_null`` is the per-replicate loop the engine replaced,
kept here (with the stable-sort top-k and the Jeffreys sum it called) as the
oracle: every replicate must agree bit for bit. ``reference_ordinal_ranks``
is the stable-argsort ranking that every rank in the package must equal.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (CellProbabilities, CopulaModel, RngStream, Sample, TestConfig,
                      bootstrap_null, build_partition, sample, to_pareto, to_pseudo,
                      uniform_cdf)
from tailtest import inference
from tailtest.inference import bootstrap_stream


def _reference_rank_transform(data):
    n = data.shape[0]
    out = np.empty_like(data, dtype=np.float64)
    for j in range(data.shape[1]):
        order = np.argsort(data[:, j], kind="stable")
        ranks = np.empty(n, dtype=np.int64)
        ranks[order] = np.arange(1, n + 1)
        out[:, j] = (n + 1.0) / (n + 1.0 - ranks)
    return out


def reference_ordinal_ranks(values, axis=0):
    """Ordinal ranks 1..n along ``axis`` from one stable argsort per lane."""
    order = np.argsort(np.moveaxis(values, axis, -1), axis=-1, kind="stable")
    ranks = np.empty(order.shape, dtype=np.int64)
    np.put_along_axis(ranks, order, np.arange(1, order.shape[-1] + 1), axis=-1)
    return np.moveaxis(ranks, -1, axis)


def reference_tied(values, axis=0):
    """True where an entry's value occurs more than once along ``axis``."""
    lanes = np.moveaxis(values, axis, -1)
    equal = lanes[..., :, None] == lanes[..., None, :]
    return np.moveaxis(equal.sum(axis=-1) > 1, -1, axis)


def _reference_count_cells(sample, partition, k_n):
    n = sample.n
    r_vals = partition.risk(sample.data)
    order = np.argsort(r_vals, kind="stable")
    threshold = float(r_vals[order[n - k_n - 1]])
    exceed = sample.data[order[n - k_n:]]
    cells = partition.classify(exceed / threshold)
    counts = np.bincount(cells, minlength=partition.num_cells + 1)[1:]
    return CellProbabilities(counts, k_n, threshold)


def _reference_kl_value(p, q):
    zero_adjusted = bool((p.counts == 0).any() or (q.counts == 0).any())
    if zero_adjusted:
        denom = p.k_n + p.K / 2.0
        pv = (p.counts + 0.5) / denom
        qv = (q.counts + 0.5) / denom
    else:
        pv = p.probs
        qv = q.probs
    value = float(np.sum((pv - qv) * (np.log(pv) - np.log(qv))))
    return max(value, 0.0)


def reference_bootstrap_null(source, config, partition, stream):
    n = source.n
    k_n = config.k_exceedances
    half = n // 2
    k_half = max(1, k_n // 2) if config.bootstrap_exceedances == "proportional" else k_n

    data = source.data
    state = source.margin_state if config.margins == "known" else "pseudo"
    replicates = np.empty(config.bootstrap_replicates)
    for b in range(config.bootstrap_replicates):
        perm = stream.child(b).permutation(n)
        first = data[perm[:half]]
        second = data[perm[half:]]
        if config.margins == "empirical":
            first = _reference_rank_transform(first)
            second = _reference_rank_transform(second)
        cells_a = _reference_count_cells(Sample(first, state), partition, k_half)
        cells_b = _reference_count_cells(Sample(second, state), partition, k_half)
        replicates[b] = _reference_kl_value(cells_a, cells_b) / 2.0
    return replicates


def assert_matches_reference(source, config, chunk_points=None):
    partition = build_partition(config, source.d)
    expected = reference_bootstrap_null(source, config, partition,
                                        bootstrap_stream(config.seed))
    targets = [(partition, config.k_exceedances)]
    if chunk_points is None:
        [null] = bootstrap_null(source, targets, config, bootstrap_stream(config.seed))
    else:
        with mock.patch.object(inference, "_CHUNK_POINTS", chunk_points):
            [null] = bootstrap_null(source, targets, config, bootstrap_stream(config.seed))
    assert np.array_equal(null.replicates, expected)
    return null


def _raw(n, seed, d=2):
    if d == 2:
        return sample(CopulaModel("logistic", 0.5), n, RngStream(seed))
    return Sample(RngStream(seed).uniform((n, d)))


SCHEMES = [dict(risk="max"), dict(risk="min"), dict(risk="euclidean", num_cells=5),
           dict(risk="sum", num_cells=4)]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("margins", ["empirical", "known"])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s["risk"])
    @pytest.mark.parametrize("rule", ["proportional", "same"])
    def test_schemes_margins_rules(self, margins, scheme, rule):
        raw = _raw(401, 3)                       # odd n: halves of 200 and 201
        source = to_pseudo(raw) if margins == "empirical" else to_pareto(raw, [uniform_cdf] * 2)
        config = TestConfig(k_exceedances=40, margins=margins, bootstrap_replicates=130,
                            bootstrap_exceedances=rule, seed=11, **scheme)
        null = assert_matches_reference(source, config)
        assert null.B == 130

    def test_chunks_do_not_divide_replicates(self):
        source = to_pseudo(_raw(500, 4))
        config = TestConfig(k_exceedances=50, risk="euclidean", num_cells=6,
                            bootstrap_replicates=101, seed=12)
        assert (101 % max(1, inference._CHUNK_POINTS // 500)) != 0
        assert_matches_reference(source, config)
        assert_matches_reference(source, config, chunk_points=7 * 500)

    def test_orthant_schemes_in_three_dimensions(self):
        source = to_pseudo(_raw(300, 5, d=3))
        for risk in ("max", "min"):
            config = TestConfig(k_exceedances=30, risk=risk, bootstrap_replicates=100, seed=13)
            assert_matches_reference(source, config)

    def test_max_risk_threshold_ties(self):
        # Pareto values on a coarse grid: many points share the threshold risk.
        grid = RngStream(14).uniform((400, 2))
        data = 1.0 + np.floor(grid * 6.0)
        config = TestConfig(k_exceedances=50, risk="max", margins="known",
                            bootstrap_replicates=120, seed=15)
        assert_matches_reference(Sample(data, "pareto"), config)

    def test_tied_pseudo_source(self):
        # A caller-built pseudo sample with repeated values: within-half ties
        # must be broken by position in the permuted half.
        u = RngStream(16).uniform((300, 2))
        data = np.column_stack([1.0 + np.floor(u[:, 0] * 20.0), 1.0 / (1.0 - u[:, 1])])
        for scheme in SCHEMES:
            config = TestConfig(k_exceedances=30, bootstrap_replicates=100, seed=17, **scheme)
            assert_matches_reference(Sample(data, "pseudo"), config)

    def test_run_test_uses_the_bootstrap_stream(self):
        raw_x, raw_y = _raw(300, 18), _raw(300, 19)
        config = TestConfig(k_exceedances=30, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=20)
        report = inference.run_test(raw_x, raw_y, config)
        null = assert_matches_reference(to_pseudo(raw_x), config)
        assert report.p_value == float(np.mean(null.replicates > report.statistic))


@st.composite
def bootstrap_cases(draw):
    scheme = draw(st.sampled_from(["max", "min", "euclidean", "sum"]))
    d = 2 if scheme in ("euclidean", "sum") else draw(st.integers(2, 3))
    n = draw(st.integers(16, 240))
    k = draw(st.integers(1, n // 4))
    num_cells = draw(st.integers(2, 12)) if scheme in ("euclidean", "sum") else None
    margins = draw(st.sampled_from(["empirical", "known"]))
    rule = draw(st.sampled_from(["proportional", "same"]))
    seed = draw(st.integers(0, 2 ** 32))
    tie_density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    pre_ranked = draw(st.booleans())
    chunk_points = draw(st.integers(1, 4 * n))
    return scheme, d, n, k, num_cells, margins, rule, seed, tie_density, pre_ranked, chunk_points


@settings(max_examples=40, deadline=None)
@given(bootstrap_cases())
def test_engine_matches_reference_property(case):
    scheme, d, n, k, num_cells, margins, rule, seed, tie_density, pre_ranked, chunk_points = case
    stream = RngStream(seed % 1000, (7,))
    u = stream.child(0).uniform((n, d))
    coarse = 1.0 + np.floor(stream.child(1).uniform((n, d)) * 5.0)
    pareto = np.where(stream.child(2).uniform((n, d)) < tie_density, coarse, 1.0 / (1.0 - u))
    if margins == "known":
        source = Sample(pareto, "pareto")
    elif pre_ranked:
        source = Sample(pareto, "pseudo")        # may carry ties
    else:
        source = to_pseudo(Sample(pareto))
    config = TestConfig(k_exceedances=k, risk=scheme, num_cells=num_cells, margins=margins,
                        bootstrap_replicates=100, bootstrap_exceedances=rule, seed=seed)
    assert_matches_reference(source, config, chunk_points=chunk_points)
