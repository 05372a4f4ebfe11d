"""The chunked bootstrap engine against the one-replicate-at-a-time definition.

``reference_bootstrap_null`` is the per-replicate loop the engine replaced,
kept here (with the stable-sort top-k and the Jeffreys sum it called) as the
oracle: every replicate must agree bit for bit. Its permutations come from
numpy's Philox jumped b + 1 times (``jumped_permutation``), never from the
stream method the engine calls. ``reference_ordinal_ranks``
is the stable-argsort ranking that every rank in the package must equal.
"""

import contextlib
import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (CellProbabilities, ConfigError, CopulaModel, RngStream, Sample,
                      TestConfig, bootstrap_null, build_partition, make_angular_partition,
                      make_max_partition, make_min_partition, sample, to_pareto, to_pseudo,
                      uniform_cdf)
from tailtest import inference
from tailtest.inference import bootstrap_stream
from tailtest.margins import standardize


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


def jumped_permutation(stream, b, n):
    """Replicate b's permutation from numpy alone: the stream's Philox jumped b + 1 times."""
    key = stream.stream_id if isinstance(stream.stream_id, tuple) else (stream.stream_id,)
    bit_generator = np.random.Philox(np.random.SeedSequence(stream.master_seed, spawn_key=key))
    return np.random.Generator(bit_generator.jumped(b + 1)).permutation(n)


def reference_bootstrap_null(source, config, partition, stream):
    n = source.n
    half = n // 2
    k_half = max(1, config.k_exceedances // 2)

    state = source.margin_state
    # Ties fall by row order: re-rank the whole pseudo sample, as standardize does.
    data = _reference_rank_transform(source.data) if state == "pseudo" else source.data
    replicates = np.empty(config.bootstrap_replicates)
    for b in range(config.bootstrap_replicates):
        perm = jumped_permutation(stream, b, n)
        first = data[perm[:half]]
        second = data[perm[half:]]
        if state == "pseudo":
            first = _reference_rank_transform(first)
            second = _reference_rank_transform(second)
        cells_a = _reference_count_cells(Sample(first, state), partition, k_half)
        cells_b = _reference_count_cells(Sample(second, state), partition, k_half)
        replicates[b] = _reference_kl_value(cells_a, cells_b) / 2.0
    return replicates


def _engine_constants(chunk_points=None, block_points=None, candidate_points=None,
                      depth=None):
    """Patch the engine's chunk, block and candidate group sizes and its
    prefix depth rule (to a fixed depth) where given."""
    stack = contextlib.ExitStack()
    if chunk_points is not None:
        stack.enter_context(mock.patch.object(inference, "_CHUNK_POINTS", chunk_points))
    if block_points is not None:
        stack.enter_context(mock.patch.object(inference, "_BLOCK_POINTS", block_points))
    if candidate_points is not None:
        stack.enter_context(mock.patch.object(inference, "_CANDIDATE_POINTS", candidate_points))
    if depth is not None:
        stack.enter_context(mock.patch.object(inference, "_prefix_depth",
                                              lambda source, ks_by_risk: depth))
    return stack


@contextlib.contextmanager
def stop_checks():
    """Record (replicates, failed) of each block's candidate pass."""
    calls = []
    engine = inference._Prefix.exceedances

    def spy(prefix, perms, rows, buffers):
        failed = engine(prefix, perms, rows, buffers)
        calls.append((rows.size, failed.size))
        return failed

    with mock.patch.object(inference._Prefix, "exceedances", spy):
        yield calls


def assert_matches_reference(source, config, chunk_points=None, block_points=None):
    partition = build_partition(config, source.d)
    expected = reference_bootstrap_null(source, config, partition,
                                        bootstrap_stream(config.seed))
    targets = [(partition, config.k_exceedances)]
    with _engine_constants(chunk_points, block_points):
        [null] = bootstrap_null(source, targets, config.bootstrap_replicates,
                                bootstrap_stream(config.seed))
    assert np.array_equal(null.replicates, expected)
    return null


def assert_targets_match_reference(source, config, targets, chunk_points=None,
                                   block_points=None, candidate_points=None, depth=None):
    """Each target's null from one multi-target bootstrap equals the
    one-at-a-time reference of that target alone."""
    with _engine_constants(chunk_points, block_points, candidate_points, depth):
        nulls = bootstrap_null(source, targets, config.bootstrap_replicates,
                               bootstrap_stream(config.seed))
    assert len(nulls) == len(targets)
    for null, (partition, k_n) in zip(nulls, targets):
        alone = dataclasses.replace(config, k_exceedances=k_n)
        expected = reference_bootstrap_null(source, alone, partition,
                                            bootstrap_stream(config.seed))
        assert np.array_equal(null.replicates, expected)


def _raw(n, seed, d=2):
    if d == 2:
        return sample(CopulaModel("logistic", 0.5), n, RngStream(seed))
    return Sample(RngStream(seed).uniform((n, d)))


SCHEMES = [dict(risk="max"), dict(risk="min"), dict(risk="euclidean", num_cells=5),
           dict(risk="sum", num_cells=4)]


class TestEngineMatchesReference:
    @pytest.mark.parametrize("margins", ["empirical", "known"])
    @pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s["risk"])
    @pytest.mark.parametrize("k", [40, 41])     # odd k: k // 2 rounds down
    def test_schemes_and_margins(self, margins, scheme, k):
        raw = _raw(401, 3)                       # odd n: halves of 200 and 201
        source = to_pseudo(raw) if margins == "empirical" else to_pareto(raw, [uniform_cdf] * 2)
        config = TestConfig(k_exceedances=k, margins=margins, bootstrap_replicates=130,
                            seed=11, **scheme)
        null = assert_matches_reference(source, config)
        assert null.B == 130
        assert null.k_half == 20

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
        # are broken by row order in the whole sample, so the null is that of
        # the re-ranked sample, and the candidate pass serves it.
        u = RngStream(16).uniform((300, 2))
        data = np.column_stack([1.0 + np.floor(u[:, 0] * 20.0), 1.0 / (1.0 - u[:, 1])])
        source = Sample(data, "pseudo")
        for scheme in SCHEMES:
            config = TestConfig(k_exceedances=30, bootstrap_replicates=100, seed=17, **scheme)
            with stop_checks() as calls:
                null = assert_matches_reference(source, config)
            assert calls
            [ranked] = bootstrap_null(standardize(source, "empirical"),
                                      [(build_partition(config, 2), 30)], 100,
                                      bootstrap_stream(17))
            assert np.array_equal(null.replicates, ranked.replicates)

    def test_run_test_uses_the_bootstrap_stream(self):
        raw_x, raw_y = _raw(300, 18), _raw(300, 19)
        config = TestConfig(k_exceedances=30, risk="euclidean", num_cells=4,
                            bootstrap_replicates=100, seed=20)
        report = inference.run_test(raw_x, raw_y, config)
        null = assert_matches_reference(to_pseudo(raw_x), config)
        assert report.p_value == float(np.mean(null.replicates > report.statistic))


# Several k per risk kind, max and euclidean together; a repeated target.
NESTED_TARGETS = [(make_max_partition(2), 40), (make_angular_partition("euclidean", 5), 40),
                  (make_max_partition(2), 24), (make_angular_partition("euclidean", 3), 60),
                  (make_max_partition(2), 60), (make_angular_partition("euclidean", 5), 16),
                  (make_max_partition(2), 24)]

# Blocks of the permutation entries of 1, 20 and 10**6 replicates of 400 rows
# (block_points = 400 * block_replicates), in chunks of 7 replicates of 400 or
# 401 rows, against B = 101: one chunk per block, blocks of 14 (the last one
# partial) and one block above B.
BLOCK_LAYOUTS = [1, 20, 10 ** 6]


def _max_risk_ties(n, seed):
    """Pareto values on an integer grid: max-risk ties fill the top of the sample."""
    return 1.0 + np.floor(RngStream(seed).uniform((n, 2)) * 8.0)


class TestBlocksAndNestedK:
    @pytest.mark.parametrize("block_replicates", BLOCK_LAYOUTS)
    def test_max_risk_ties_straddling_nested_thresholds(self, block_replicates):
        data = _max_risk_ties(400, 30)
        config = TestConfig(k_exceedances=40, risk="max", margins="known",
                            bootstrap_replicates=101, seed=31)
        # In the first replicate's first half, two or more nested half k share
        # one max-risk threshold, and its ties are split between selected and
        # unselected rows at each of them.
        first = data[jumped_permutation(bootstrap_stream(31), 0, 400)[:200]].max(axis=1)
        ordered = np.sort(first)
        by_threshold = {}
        for part, k in NESTED_TARGETS:
            if part.risk.kind == "max":
                k_half = k // 2
                by_threshold.setdefault(ordered[200 - k_half - 1], set()).add(k_half)
        tie, shared = max(by_threshold.items(), key=lambda item: len(item[1]))
        assert len(shared) >= 2
        assert all((first > tie).sum() < k < (first >= tie).sum() for k in shared)
        assert_targets_match_reference(Sample(data, "pareto"), config, NESTED_TARGETS,
                                       chunk_points=7 * 400, block_points=400 * block_replicates)

    @pytest.mark.parametrize("block_replicates", BLOCK_LAYOUTS)
    def test_tied_pseudo_source(self, block_replicates):
        u = RngStream(32).uniform((401, 2))
        data = np.column_stack([1.0 + np.floor(u[:, 0] * 20.0), 1.0 / (1.0 - u[:, 1])])
        config = TestConfig(k_exceedances=40, bootstrap_replicates=101, seed=33)
        assert_targets_match_reference(Sample(data, "pseudo"), config, NESTED_TARGETS,
                                       chunk_points=7 * 401, block_points=400 * block_replicates)

    @pytest.mark.parametrize("block_replicates", BLOCK_LAYOUTS)
    @pytest.mark.parametrize("margins", ["empirical", "known"])
    def test_continuous_source(self, block_replicates, margins):
        raw = _raw(400, 34)
        source = to_pseudo(raw) if margins == "empirical" else to_pareto(raw, [uniform_cdf] * 2)
        config = TestConfig(k_exceedances=40, margins=margins, bootstrap_replicates=101,
                            seed=35)
        assert_targets_match_reference(source, config, NESTED_TARGETS,
                                       chunk_points=7 * 400, block_points=400 * block_replicates)

    def test_default_block_of_a_large_replicate_count(self):
        # At n = 300 a chunk holds 54 replicates and a block 16 chunks (864
        # replicates), so B = 1000 ends on a partial second block.
        data = _max_risk_ties(300, 36)
        config = TestConfig(k_exceedances=40, risk="max", margins="known",
                            bootstrap_replicates=1000, seed=37)
        assert_targets_match_reference(Sample(data, "pareto"), config, NESTED_TARGETS)

    def test_blocks_are_whole_chunks_of_about_block_points(self):
        # A block holds at least one chunk and at most max(_BLOCK_POINTS,
        # chunk * n) permutation entries.
        for n in range(50, 2 ** 15 + 2):
            chunk, block = inference._block_layout(n)
            assert chunk <= block and block % chunk == 0
            assert block * n <= max(inference._BLOCK_POINTS, chunk * n)
        assert inference._block_layout(2000) == (8, 128)
        assert inference._block_layout(360) == (45, 720)


def stop_check_halves(source, k, depth, seed, replicates, risk, every=False):
    """What the stop check of each replicate's halves reads, from the
    reference ranking of a pseudo source at prefix depth ``depth``: the
    (k/2 + 1)-th largest candidate risk (0 past the candidates), the boundary
    point (in each coordinate, the value of the half's last row below position
    n - depth) and the largest risk of a row outside the candidates. Shapes
    (replicates, 2), (replicates, 2, d) and (replicates, 2)."""
    n, half = source.n, source.n // 2
    positions = reference_ordinal_ranks(source.data) - 1
    inside = positions >= n - depth
    candidate = inside.all(axis=1) if every else inside.any(axis=1)
    threshold, outside = np.empty((replicates, 2)), np.empty((replicates, 2))
    boundary = np.empty((replicates, 2, source.d))
    for b in range(replicates):
        perm = jumped_permutation(bootstrap_stream(seed), b, n)
        for h, rows in enumerate((perm[:half], perm[half:])):
            values = _reference_rank_transform(positions[rows])
            r_vals = risk(values)
            threshold[b, h] = np.sort(np.where(candidate[rows], r_vals, 0.0))[-(k // 2 + 1)]
            outside[b, h] = r_vals[~candidate[rows]].max()
            below = positions[rows] < n - depth
            boundary[b, h] = [values[below[:, j], j].max() for j in range(source.d)]
    return threshold, boundary, outside


class TestPrefixStopCheck:
    @pytest.mark.parametrize("targets, depth", [
        ([(make_angular_partition("euclidean", 5), 40)], 45), (NESTED_TARGETS, 70)],
        ids=["one", "nested"])
    def test_some_replicates_of_a_block_fall_back(self, targets, depth):
        # At these depths the stop check fails for some of the block's replicates only.
        source = to_pseudo(_raw(400, 40))
        config = TestConfig(k_exceedances=40, bootstrap_replicates=120, seed=41)
        with stop_checks() as calls:
            assert_targets_match_reference(source, config, targets, depth=depth)
        assert calls and all(0 < failed < size for size, failed in calls)

    def test_threshold_ties_at_the_boundary_risk_fall_back(self):
        # Countermonotone pseudo-observations: within a half, the rows of
        # ranks r and half + 1 - r in the first coordinate share one max risk.
        # At D = 26 many half thresholds equal the boundary risk, which the
        # boundary point outside the prefix attains; those replicates fall
        # back although no threshold lies below its bound.
        x = np.arange(400.0)
        source = to_pseudo(Sample(np.column_stack([x, -x])))
        partition = make_max_partition(2)
        threshold, boundary, outside = stop_check_halves(source, 40, 26, 41, 100, partition.risk)
        bound = partition.risk(boundary)
        tied = threshold == bound
        assert (outside[tied] == bound[tied]).all()
        assert ((threshold >= bound).all(axis=1) & tied.any(axis=1)).sum() >= 10
        config = TestConfig(k_exceedances=40, risk="max", bootstrap_replicates=100, seed=41)
        with stop_checks() as calls:
            assert_targets_match_reference(source, config, [(partition, 40)], depth=26)
        assert calls == [(100, (threshold <= bound).any(axis=1).sum())]

    def test_min_risk_alone_is_bounded_by_the_largest_boundary_coordinate(self):
        # With min risk alone the candidates are the rows in the top D of
        # every coordinate, so a row outside them is below position n - D in
        # one coordinate and has min risk at most that coordinate's boundary
        # value. At D = 150 some half thresholds exceed the smaller boundary
        # coordinate while a row outside the candidates reaches them: only the
        # largest coordinate bounds, and the replicates below it fall back.
        source = to_pseudo(Sample(RngStream(46).uniform((400, 2))))
        partition = make_min_partition(2)
        threshold, boundary, outside = stop_check_halves(source, 40, 150, 47, 100,
                                                         partition.risk, every=True)
        assert ((boundary.min(axis=-1) < threshold) & (outside >= threshold)).any()
        config = TestConfig(k_exceedances=40, risk="min", bootstrap_replicates=100, seed=47)
        with stop_checks() as calls:
            assert_targets_match_reference(source, config, [(partition, 40)], depth=150)
        assert calls == [(100, (threshold <= boundary.max(axis=-1)).any(axis=1).sum())]

    def test_pareto_sources_run_the_definition(self):
        source = to_pareto(_raw(400, 50), [uniform_cdf] * 2)
        config = TestConfig(k_exceedances=40, margins="known", bootstrap_replicates=101, seed=51)
        with mock.patch.object(inference, "_Prefix", side_effect=AssertionError("prefix built")):
            assert_targets_match_reference(source, config, NESTED_TARGETS)

    def test_depth_n_runs_the_prefix_at_n_minus_one(self):
        # At D = n - 1 the boundary point is the bottom row, below every
        # candidate's risk.
        source = to_pseudo(_raw(400, 52))
        config = TestConfig(k_exceedances=40, bootstrap_replicates=100, seed=53)
        with mock.patch.object(inference._Prefix, "__init__", autospec=True,
                               side_effect=inference._Prefix.__init__) as init, \
                stop_checks() as calls:
            assert_targets_match_reference(source, config, NESTED_TARGETS, depth=400)
        [call] = init.call_args_list
        assert call.args[3] == 399
        assert calls and all(failed == 0 for _, failed in calls)

    @pytest.mark.parametrize("n", [2 ** 15 - 1, 2 ** 15 + 1])
    @pytest.mark.parametrize("margins", ["empirical", "known"])
    def test_samples_at_the_int16_limit(self, n, margins):
        # Permutations and half-sample counts are int16 below n = 2**15 and
        # int32 from there; table indices of the boundary ranks pass 2**15
        # from n of about 22,000. Three replicates (the config's margin mode
        # only lifts the empirical floor of 100; the source sets the mode).
        raw = _raw(n, 48)
        source = to_pseudo(raw) if margins == "empirical" else to_pareto(raw, [uniform_cdf] * 2)
        config = TestConfig(k_exceedances=400, margins="known", bootstrap_replicates=3, seed=49)
        assert_targets_match_reference(source, config,
                                       [(make_angular_partition("euclidean", 5), 400)])

    @pytest.mark.parametrize("depth", [0, 1, 399, 400])
    def test_extreme_depths(self, depth):
        source = to_pseudo(_raw(401, 42))
        config = TestConfig(k_exceedances=40, bootstrap_replicates=100, seed=43)
        assert_targets_match_reference(source, config, NESTED_TARGETS, depth=depth)

    @pytest.mark.parametrize("targets", [
        [(make_angular_partition("euclidean", 5), 200), (make_max_partition(2), 200)],
        [(make_min_partition(2), 200)]], ids=["union", "min-alone"])
    def test_no_fallback_at_the_depth_rule(self, targets):
        source = to_pseudo(_raw(2000, 44))
        config = TestConfig(k_exceedances=200, bootstrap_replicates=100, seed=45)
        with stop_checks() as calls:
            assert_targets_match_reference(source, config, targets)
        assert sum(failed for _, failed in calls) == 0


@st.composite
def _partitions(draw, d):
    kind = draw(st.sampled_from(["max", "min"] + (["euclidean", "sum"] if d == 2 else [])))
    if kind == "max":
        return make_max_partition(d)
    if kind == "min":
        return make_min_partition(d)
    return make_angular_partition(kind, draw(st.integers(2, 12)))


@st.composite
def bootstrap_cases(draw):
    d = draw(st.integers(2, 3))
    n = draw(st.integers(16, 240))
    k_values = st.just(1) | st.integers(1, n // 4)
    targets = draw(st.lists(st.tuples(_partitions(d), k_values), min_size=1, max_size=4))
    margins = draw(st.sampled_from(["empirical", "known"]))
    seed = draw(st.integers(0, 2 ** 32))
    tie_density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    pre_ranked = draw(st.booleans())
    constants = dict(chunk_points=draw(st.integers(1, 4 * n)),
                     block_points=draw(st.integers(1, 150 * n)),
                     candidate_points=draw(st.none() | st.integers(1, 8 * n)),
                     depth=draw(st.none() | st.integers(0, n)))
    return d, n, targets, margins, seed, tie_density, pre_ranked, constants


@settings(max_examples=40, deadline=None)
@given(bootstrap_cases())
def test_engine_matches_reference_property(case):
    d, n, targets, margins, seed, tie_density, pre_ranked, constants = case
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
    # The reference of each target replaces k_exceedances with the target's k.
    config = TestConfig(k_exceedances=1, margins=margins, bootstrap_replicates=100, seed=seed)
    assert_targets_match_reference(source, config, targets, **constants)


@st.composite
def lockstep_cases(draw):
    n = draw(st.integers(16, 240))
    targets = draw(st.lists(st.tuples(_partitions(2), st.just(1) | st.integers(1, n // 4)),
                            min_size=1, max_size=3))
    # Each source: "pseudo" (ranked raw data), "tied" (a caller-built tied
    # pseudo sample) or "pareto" (known margins).
    kinds = draw(st.lists(st.sampled_from(["pseudo", "tied", "pareto"]), min_size=2, max_size=3))
    constants = dict(chunk_points=draw(st.integers(1, 4 * n)),
                     block_points=draw(st.integers(1, 150 * n)),
                     candidate_points=draw(st.none() | st.integers(1, 8 * n)),
                     depth=draw(st.none() | st.just(n) | st.integers(0, n)))
    return (n, targets, kinds, draw(st.integers(1, 130)), draw(st.integers(0, 2 ** 32)),
            constants)


def _lockstep_source(kind, n, stream):
    u = stream.child(0).uniform((n, 2))
    if kind == "tied":
        return Sample(1.0 + np.floor(u * 6.0), "pseudo")
    if kind == "pareto":
        return Sample(1.0 / (1.0 - u), "pareto")
    return to_pseudo(sample(CopulaModel("logistic", 0.6), n, stream.child(1)))


@settings(max_examples=40, deadline=None)
@given(lockstep_cases())
def test_lockstep_sources_match_separate_bootstraps_property(case):
    n, targets, kinds, replicates, seed, constants = case
    stream = RngStream(seed % 1000, (8,))
    sources = tuple(_lockstep_source(kind, n, stream.child(i)) for i, kind in enumerate(kinds))
    with _engine_constants(**constants):
        together = bootstrap_null(sources, targets, replicates, bootstrap_stream(seed))
        alone = [bootstrap_null(source, targets, replicates, bootstrap_stream(seed))
                 for source in sources]
    assert len(together) == len(sources)
    for nulls, expected in zip(together, alone):
        assert [null.k_half for null in nulls] == [null.k_half for null in expected]
        for null, want in zip(nulls, expected):
            assert np.array_equal(null.replicates, want.replicates)


class TestLockstepSources:
    def test_one_label_or_one_each(self):
        pseudo, raw = to_pseudo(_raw(300, 53)), _raw(300, 54)
        targets = [(make_max_partition(2), 40)]
        with pytest.raises(ConfigError, match="sample y needs a standardized"):
            bootstrap_null((pseudo, raw), targets, 10, bootstrap_stream(1), ("x", "y"))
        with pytest.raises(ConfigError, match="sample both needs a standardized"):
            bootstrap_null((pseudo, raw), targets, 10, bootstrap_stream(1), "both")

    def test_sources_of_different_sizes_are_refused(self):
        with pytest.raises(ConfigError, match="one size"):
            bootstrap_null((to_pseudo(_raw(300, 55)), to_pseudo(_raw(301, 56))),
                           [(make_max_partition(2), 40)], 10, bootstrap_stream(1))
