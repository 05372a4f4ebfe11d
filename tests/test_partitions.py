"""Risk functionals, partition schemes, and exceedance cell counts."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tailtest import (CellProbabilities, DomainError, RiskFunctional, RngStream, Sample,
                      ShapeError, count_cells, make_angular_partition, make_max_partition,
                      make_min_partition, partitions)
from tailtest.partitions import top_k

MIXED_PARTITIONS = (make_max_partition(2), make_min_partition(2),
                    make_angular_partition("euclidean", 4), make_angular_partition("euclidean", 7),
                    make_angular_partition("sum", 3))


class TestRiskFunctionals:
    @pytest.mark.parametrize("kind", ["max", "min", "euclidean", "sum"])
    def test_homogeneity(self, kind):
        r = RiskFunctional(kind)
        rng = RngStream(31)
        x = rng.uniform((500, 3)) * 10.0
        t = rng.uniform(500) * 99.0 + 0.01
        base = r(x)
        scaled = r(x * t[:, None])
        assert np.all(np.abs(scaled - t * base) <= 1e-12 * t * base)

    def test_values(self):
        x = np.array([[3.0, 4.0]])
        assert RiskFunctional("max")(x)[0] == 4.0
        assert RiskFunctional("min")(x)[0] == 3.0
        assert RiskFunctional("euclidean")(x)[0] == pytest.approx(5.0)
        assert RiskFunctional("sum")(x)[0] == pytest.approx(7.0)

    def test_scalar_input(self):
        assert RiskFunctional("max")(np.array([1.0, 2.0])) == 2.0

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            RiskFunctional("median")


class TestMaxPartition:
    def test_cells_d2(self):
        part = make_max_partition(2)
        assert part.num_cells == 3
        # {1} has code 1, {2} code 2, {1,2} code 3
        assert part.classify(np.array([1.5, 0.7])) == 1
        assert part.classify(np.array([0.7, 1.5])) == 2
        assert part.classify(np.array([1.5, 1.5])) == 3

    def test_labels(self):
        assert make_max_partition(2).cell_labels == ["{1}", "{2}", "{1,2}"]

    def test_d3_exhaustive(self):
        part = make_max_partition(3)
        assert part.num_cells == 7
        rng = RngStream(32)
        pts = rng.uniform((10_000, 3)) * 3.0
        pts = pts[pts.max(axis=1) > 1.0]
        cells = part.classify(pts)
        assert ((cells >= 1) & (cells <= 7)).all()
        assert np.bincount(cells, minlength=8)[1:].sum() == len(pts)

    def test_dimension_error(self):
        with pytest.raises(DomainError):
            make_max_partition(1)


class TestMinPartition:
    def test_cells_d2(self):
        part = make_min_partition(2)
        assert part.num_cells == 4
        # empty set has code 1
        assert part.classify(np.array([1.5, 1.5])) == 1
        assert part.classify(np.array([3.0, 1.2])) == 2
        assert part.classify(np.array([1.2, 3.0])) == 3
        assert part.classify(np.array([3.0, 3.0])) == 4

    def test_grid_covers_all_cells(self):
        part = make_min_partition(2)
        grid = np.linspace(1.01, 4.0, 30)
        pts = np.array([[a, b] for a in grid for b in grid])
        cells = part.classify(pts)
        assert set(np.unique(cells)) == {1, 2, 3, 4}

    def test_dimension_error(self):
        with pytest.raises(DomainError):
            make_min_partition(1)


class TestAngularPartition:
    def test_boundary_angle_in_lower_cell(self):
        part = make_angular_partition("euclidean", 4)
        # angle pi/4 sits on the second boundary, so the half-open wedge
        # (pi/8, pi/4] takes it.
        assert part.classify(np.array([2.0, 2.0])) == 2

    def test_axis_point_in_first_cell(self):
        part = make_angular_partition("euclidean", 4)
        assert part.classify(np.array([2.0, 0.0])) == 1

    def test_five_wedges(self):
        part = make_angular_partition("euclidean", 5)
        assert part.num_cells == 5
        angles = np.linspace(0.01, np.pi / 2 - 0.01, 500)
        pts = 2.0 * np.column_stack([np.cos(angles), np.sin(angles)])
        cells = part.classify(pts)
        assert set(np.unique(cells)) == {1, 2, 3, 4, 5}
        assert np.all(np.diff(cells) >= 0)

    def test_cone_stability(self):
        part = make_angular_partition("sum", 7)
        rng = RngStream(33)
        pts = rng.uniform((10_000, 2)) * 5.0
        pts = pts[part.risk(pts) > 1.0]
        assert np.array_equal(part.classify(pts), part.classify(3.0 * pts))

    def test_custom_angles(self):
        part = make_angular_partition("euclidean", 2, angles=[0.0, 0.3, np.pi / 2])
        assert part.classify(np.array([2.0, 0.1])) == 1
        assert part.classify(np.array([0.1, 2.0])) == 2
        with pytest.raises(DomainError):
            make_angular_partition("euclidean", 2, angles=[0.0, 0.3, 1.0])

    def test_rejects_max_risk(self):
        with pytest.raises(DomainError):
            make_angular_partition("max", 4)

    def test_rejects_higher_dim_points(self):
        part = make_angular_partition("euclidean", 3)
        with pytest.raises(DomainError):
            part.classify(np.ones((5, 3)))


def point_at_angle(angle, radius):
    """A point of norm about ``radius`` whose np.arctan2 angle is exactly
    ``angle``, or None: y is nudged one ulp at a time from the polar point."""
    x, y = radius * math.cos(angle), radius * math.sin(angle)
    for _ in range(64):
        got = float(np.arctan2(y, x))
        if got == angle:
            return x, y
        y = math.nextafter(y, math.inf if got < angle else -math.inf)
    return None


@settings(max_examples=150, deadline=None)
@given(num_cells=st.integers(2, 12), custom=st.booleans(),
       risk=st.sampled_from(["euclidean", "sum"]), radius=st.floats(1.0, 1e8),
       data=st.data())
def test_angular_classify_counts_the_bounds_below_each_angle(num_cells, custom, risk, radius,
                                                            data):
    # 1 + the number of interior bounds strictly below the angle is the
    # left-sided searchsorted cell, for angles on every bound (0 and pi/2
    # included), between them, and on the axes.
    if custom:
        inner = data.draw(st.lists(st.floats(1e-9, math.pi / 2 - 1e-9), min_size=num_cells - 1,
                                   max_size=num_cells - 1, unique=True))
        part = make_angular_partition(risk, num_cells, angles=[0.0, *sorted(inner), math.pi / 2])
    else:
        part = make_angular_partition(risk, num_cells)
    drawn = data.draw(st.lists(st.floats(0.0, math.pi / 2), max_size=40))
    points = [point_at_angle(a, radius) for a in [*part.angles, *drawn]]
    pts = np.array([p for p in points if p is not None] + [(radius, 0.0), (0.0, radius)])
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    assert ang.min() == 0.0 and ang.max() == math.pi / 2
    want = np.searchsorted(np.asarray(part.angles[1:-1]), ang, side="left") + 1
    assert np.array_equal(part.classify(pts), want)
    assert np.array_equal(part.classify(pts.reshape(-1, 1, 2))[:, 0], want)


@pytest.mark.parametrize("num_cells", [255, 256, 1000])
def test_angular_classify_past_one_byte_of_cells(num_cells):
    # Cell indices beyond 255 need a wider counter than uint8.
    part = make_angular_partition("euclidean", num_cells)
    ang = np.concatenate([np.asarray(part.angles), np.linspace(0.0, math.pi / 2, 5001)])
    pts = 2.0 * np.column_stack([np.cos(ang), np.sin(ang)])
    want = np.searchsorted(np.asarray(part.angles[1:-1]),
                           np.arctan2(pts[:, 1], pts[:, 0]), side="left") + 1
    cells = part.classify(pts)
    assert cells.dtype == np.int64 and cells.max() == num_cells
    assert np.array_equal(cells, want)


def brute_force_cells(data, partition, k_n):
    """Independent O(n*K) oracle: sort risks, pick top k_n, test each point
    against each cell membership predicate one at a time."""
    r = np.array([partition.risk(row) for row in data])
    order = np.argsort(r, kind="stable")
    n = len(data)
    u = r[order[n - k_n - 1]]
    chosen = order[n - k_n:]
    counts = np.zeros(partition.num_cells, dtype=int)
    for i in chosen:
        counts[partition.classify(data[i] / u) - 1] += 1
    return u, counts


class TestCountCells:
    def test_degenerate_single_cell(self):
        # All exceedances on the diagonal of a max partition.
        diag = np.linspace(1, 10, 20)
        data = np.column_stack([diag, diag])
        sample = Sample(data, "pareto")
        cells = count_cells(sample, [(make_max_partition(2), 5)])[0]
        assert cells.probs[2] == 1.0
        assert cells.counts.sum() == 5

    def test_probabilities_sum_to_one(self):
        rng = RngStream(34)
        data = 1.0 / (1.0 - rng.uniform((2000, 2)))
        cells = count_cells(Sample(data, "pareto"),
                            [(make_angular_partition("euclidean", 5), 200)])[0]
        assert cells.probs.sum() == pytest.approx(1.0, abs=1e-15)
        assert cells.counts.sum() == 200
        assert cells.k_n == 200

    @pytest.mark.parametrize("scheme", ["max", "min", "euclidean"])
    def test_matches_brute_force(self, scheme):
        rng = RngStream(35)
        for trial in range(25):
            n = int(10 + (rng.uniform() * 40))
            data = 1.0 / (1.0 - rng.uniform((n, 2)))
            if scheme == "max":
                part = make_max_partition(2)
            elif scheme == "min":
                part = make_min_partition(2)
            else:
                part = make_angular_partition("euclidean", 4)
            k_n = max(1, int(rng.uniform() * (n - 1)))
            cells = count_cells(Sample(data, "pareto"), [(part, k_n)])[0]
            u, counts = brute_force_cells(data, part, k_n)
            assert cells.threshold == u
            assert np.array_equal(cells.counts, counts)

    def test_threshold_doubling_invariance(self):
        rng = RngStream(36)
        data = 1.0 / (1.0 - rng.uniform((500, 2)))
        for part in (make_max_partition(2), make_min_partition(2),
                     make_angular_partition("euclidean", 4)):
            base = count_cells(Sample(data, "pareto"), [(part, 60)])[0]
            doubled = count_cells(Sample(2.0 * data, "pareto"), [(part, 60)])[0]
            assert np.array_equal(base.counts, doubled.counts)
            assert doubled.threshold == pytest.approx(2.0 * base.threshold)

    def test_ties_at_threshold_keep_exact_count(self):
        # Six rows share the same risk value across the order-statistic cut.
        data = np.array([[2.0, 1.0]] * 6 + [[5.0, 1.0], [1.5, 1.0], [1.2, 1.0]])
        sample = Sample(data, "pareto")
        cells = count_cells(sample, [(make_max_partition(2), 4)])[0]
        assert cells.counts.sum() == 4

    def test_k_range_validation(self):
        data = np.ones((10, 2)) + np.arange(10)[:, None]
        with pytest.raises(DomainError):
            count_cells(Sample(data, "pareto"), [(make_max_partition(2), 10)])
        with pytest.raises(DomainError):
            count_cells(Sample(data, "pareto"), [(make_max_partition(2), 0)])

    @pytest.mark.parametrize("bad_k", [0, -1, 10, 11])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_bad_k_anywhere_in_targets(self, bad_k, position):
        data = np.ones((10, 2)) + np.arange(10)[:, None]
        targets = [(make_max_partition(2), 3), (make_angular_partition("euclidean", 4), 9)]
        targets.insert(position, (make_min_partition(2), bad_k))
        with mock.patch.object(partitions, "cell_counts", side_effect=AssertionError("counted")):
            with pytest.raises(DomainError, match=f"k_n={bad_k}"):
                count_cells(Sample(data, "pareto"), targets)

    def test_requires_standardized_sample(self):
        with pytest.raises(DomainError):
            count_cells(Sample(np.ones((10, 2))), [(make_max_partition(2), 3)])

    def test_exhaustiveness_large(self):
        # 1e5 random points of the exceedance region, each classified exactly once.
        rng = RngStream(37)
        pts = rng.uniform((100_000, 2)) * 4.0
        for part in (make_max_partition(2), make_min_partition(2),
                     make_angular_partition("euclidean", 5),
                     make_angular_partition("sum", 3)):
            inside = pts[part.risk(pts) > 1.0]
            cells = part.classify(inside)
            assert cells.shape == (len(inside),)
            assert ((cells >= 1) & (cells <= part.num_cells)).all()


def full_tie_break(r_vals, k_n):
    """``top_k`` without its shortcut: every lane's threshold ties resolved by
    the reversed cumulative count, whether or not a lane has a spare slot."""
    n = r_vals.shape[-1]
    threshold = np.partition(r_vals, n - k_n - 1, axis=-1)[..., n - k_n - 1]
    above = r_vals > threshold[..., None]
    spare = k_n - above.sum(axis=-1, keepdims=True)
    tied = r_vals == threshold[..., None]
    tied_from_end = np.cumsum(tied[..., ::-1], axis=-1)[..., ::-1]
    return threshold, above | (tied & (tied_from_end <= spare))


@st.composite
def risk_batches(draw):
    """(points, k_n): batches of Pareto points whose euclidean risks may tie
    at the threshold, some through mirror pairs (a, b) and (b, a)."""
    batch = draw(st.integers(1, 4))
    n = draw(st.integers(4, 60))
    k_n = draw(st.integers(1, n - 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    points = 1.0 / (1.0 - rng.random((batch, n, 2)))
    ties = draw(st.sampled_from(["none", "grid", "mirror"]))
    if ties == "grid":
        points = 1.0 + np.floor(points * 2.0) / 2.0
    elif ties == "mirror":
        # Mirror the point whose risk becomes the threshold (or its
        # neighbour in the order) into another row of the same lane.
        for lane in points:
            order = np.argsort(np.hypot(lane[:, 0], lane[:, 1]), kind="stable")
            pick = order[n - k_n - 1 + draw(st.integers(-1, 1))]
            lane[draw(st.integers(0, n - 1))] = lane[pick, ::-1]
    return points, k_n


class TestTopK:
    @given(risk_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_full_tie_break_and_the_stable_sort(self, case):
        points, k_n = case
        r_vals = make_angular_partition("euclidean", 4).risk(points)
        threshold, mask = top_k(r_vals, k_n)
        expected_threshold, expected_mask = full_tie_break(r_vals, k_n)
        assert np.array_equal(threshold, expected_threshold)
        assert np.array_equal(mask, expected_mask)
        assert (mask.sum(axis=-1) == k_n).all()
        n = r_vals.shape[-1]
        for lane, lane_mask in zip(r_vals, mask):
            order = np.argsort(lane, kind="stable")
            assert np.flatnonzero(lane_mask).tolist() == sorted(order[n - k_n:])

    def test_mirror_pair_at_the_threshold(self):
        # Rows 1 and 3 share the threshold risk; the later one is selected
        # when one slot is spare (first lane) and neither when none is
        # (second). Alone, the second lane takes the no-spare shortcut.
        lanes = np.array([[[1.0, 9.0], [2.0, 3.0], [1.0, 1.0], [3.0, 2.0], [1.5, 1.0]],
                          [[1.0, 9.0], [2.0, 3.0], [8.0, 8.0], [3.0, 2.0], [1.5, 1.0]]])
        r_vals = make_angular_partition("euclidean", 4).risk(lanes)
        threshold, mask = top_k(r_vals, 2)
        assert np.array_equal(threshold, [np.hypot(2.0, 3.0)] * 2)
        assert mask.tolist() == [[True, False, False, True, False],
                                 [True, False, True, False, False]]
        for lane, lane_mask in zip(r_vals, mask):
            assert np.array_equal(top_k(lane, 2)[1], lane_mask)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80),
       grid=st.sampled_from([0.0, 0.5, 1.0]),
       state=st.sampled_from(["pareto", "pseudo"]), data=st.data())
def test_count_cells_targets_match_single_target_calls(seed, n, grid, state, data):
    # Mixed risks, several nested k per partition and repeated targets, on
    # points rounded to a grid (when grid > 0) so that risk ties straddle the
    # thresholds; on the integer grid two nested k often share a threshold.
    points = 1.0 / (1.0 - RngStream(seed).uniform((n, 2)))
    if grid:
        points = 1.0 + grid * np.floor(points / grid)
    sample = Sample(points, state)
    nested = data.draw(st.lists(st.tuples(st.sampled_from(MIXED_PARTITIONS),
                                          st.lists(st.integers(1, n - 1), min_size=1, max_size=3)),
                                min_size=1, max_size=4))
    targets = [(part, k_n) for part, k_list in nested for k_n in k_list]
    targets.append(targets[0])
    batched = count_cells(sample, targets)
    assert len(batched) == len(targets)
    for cells, target in zip(batched, targets):
        [single] = count_cells(sample, [target])
        assert np.array_equal(cells.counts, single.counts)
        assert cells.threshold == single.threshold
        assert cells.k_n == single.k_n == target[1]


def test_nested_k_sharing_a_tied_threshold():
    # Max risks on an integer grid: k = 20, 30 and 45 all take the threshold 6
    # and select only some of its ties, the later rows first.
    points = 1.0 + np.floor(RngStream(5).uniform((200, 2)) * 6.0)
    part = make_max_partition(2)
    r_vals = part.risk(points)
    assert (r_vals == 6.0).sum() > 45
    targets = [(part, 30), (make_min_partition(2), 30), (part, 20), (part, 45)]
    batched = count_cells(Sample(points, "pareto"), targets)
    for cells, target in zip(batched, targets):
        [single] = count_cells(Sample(points, "pareto"), [target])
        assert np.array_equal(cells.counts, single.counts)
        assert cells.threshold == single.threshold
    assert [cells.threshold for cells, (p, _) in zip(batched, targets) if p is part] == [6.0] * 3
    scaled = partitions.scaled_exceedances(points, [(part.risk, 45), (part.risk, 20)])
    tied_rows = np.flatnonzero(r_vals == 6.0)
    for k_n in (20, 45):
        threshold, exceed = scaled[part.risk, k_n]
        assert threshold == 6.0
        assert np.array_equal(exceed, points[tied_rows[-k_n:]] / 6.0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 80), samples=st.integers(1, 3),
       grid=st.sampled_from([0.0, 0.5, 1.0]),
       state=st.sampled_from(["pareto", "pseudo"]), data=st.data())
def test_count_cells_tuple_matches_per_sample_calls(seed, n, samples, grid, state, data):
    # Max, min and angular partitions at nested k, on tied grid points too:
    # the tuple form counts every sample in one pass, each as counted alone.
    stream = RngStream(seed)
    sources = []
    for _ in range(samples):
        points = 1.0 / (1.0 - stream.uniform((n, 2)))
        if grid:
            points = 1.0 + grid * np.floor(points / grid)
        sources.append(Sample(points, state))
    targets = data.draw(st.lists(st.tuples(st.sampled_from(MIXED_PARTITIONS),
                                           st.integers(1, n - 1)), min_size=1, max_size=6))
    batched = count_cells(tuple(sources), targets)
    assert len(batched) == samples
    for source, cells in zip(sources, batched):
        alone = count_cells(source, targets)
        assert len(cells) == len(alone) == len(targets)
        for got, want in zip(cells, alone):
            assert np.array_equal(got.counts, want.counts)
            assert got.threshold == want.threshold and type(got.threshold) is float
            assert got.k_n == want.k_n


class TestCountCellsForms:
    def _sample(self, n, seed=41, state="pareto"):
        return Sample(1.0 / (1.0 - RngStream(seed).uniform((n, 2))), state)

    def test_single_sample_returns_one_flat_list(self):
        targets = [(make_max_partition(2), 10), (make_angular_partition("euclidean", 5), 20)]
        cells = count_cells(self._sample(100), targets)
        assert isinstance(cells, list) and len(cells) == 2
        assert all(type(c) is CellProbabilities for c in cells)
        [nested] = count_cells((self._sample(100),), targets)
        for got, want in zip(nested, cells):
            assert np.array_equal(got.counts, want.counts) and got.threshold == want.threshold

    def test_tied_samples_at_nested_k(self):
        # Integer-grid points, as in test_nested_k_sharing_a_tied_threshold,
        # beside a copy read in reverse row order: ties at the threshold pick
        # different rows in each.
        points = 1.0 + np.floor(RngStream(5).uniform((200, 2)) * 6.0)
        pair = (Sample(points, "pareto"), Sample(points[::-1], "pseudo"))
        targets = [(make_max_partition(2), 30), (make_min_partition(2), 30),
                   (make_max_partition(2), 20), (make_angular_partition("sum", 3), 45)]
        for source, cells in zip(pair, count_cells(pair, targets)):
            for got, want in zip(cells, count_cells(source, targets)):
                assert np.array_equal(got.counts, want.counts)
                assert got.threshold == want.threshold

    @pytest.mark.parametrize("sources, error", [
        (lambda s: (s(50), s(51)), ShapeError),
        (lambda s: (s(50), Sample(np.ones((50, 3)) + 1.0, "pareto")), ShapeError),
        (lambda s: (s(50), Sample(np.full((50, 2), 0.5))), DomainError),
        (lambda s: (Sample(np.full((50, 2), 0.5)), s(50)), DomainError),
        (lambda s: (s(10), s(10)), DomainError),
        (lambda s: (), ShapeError),
    ])
    def test_bad_tuples_raise_before_counting(self, sources, error):
        # Mixed sizes or dimensions, a raw sample, k >= n and no sample at all.
        targets = [(make_max_partition(2), 5), (make_angular_partition("euclidean", 4), 10)]
        with mock.patch.object(partitions, "cell_counts", side_effect=AssertionError("counted")):
            with pytest.raises(error):
                count_cells(sources(self._sample), targets)
