"""The two-sample divergence test: standardize, count, calibrate, decide.

With known margins the normalized statistic k_n * D / 2 is referred to a
chi-squared distribution with K - 1 degrees of freedom. With empirical
margins the null distribution is approximated by a split-half subsample
bootstrap: half of one sample is drawn without replacement, the two-half
statistic is computed with k_n/2 exceedances per half and divided by 2,
which puts it on the scale of the full-sample statistic. Replicate b draws
its permutation from the bootstrap stream's Philox jumped b + 1 times, so
any replicate range is defined by its two ends alone.

A replicate needs only each half's top k_half + 1 rows by risk, so the
bootstrap of a pseudo source ranks and scores candidate rows alone, after
the threshold algorithm of Fagin, Lotem & Naor (JCSS 2003):

- Candidates are the rows in the top D < n positions of some coordinate's
  whole-sample order. The depth D is read from the source and each risk
  kind's largest k (``_prefix_depth``), never from an option.
- A row's rank within its half is the number of its half's rows at or below
  its whole-sample position. So the first half's rows are counted per gap
  bucket: each candidate's position and the boundary position n - D - 1 is
  a bucket, and so is each gap between them that holds a position. The
  count in a candidate's bucket is its half membership, and the cumulative
  counts rank the candidates and the boundary points, in O(m) buckets for
  m candidates rather than O(n) positions.
- Every risk is monotone in each coordinate, so a row outside the
  candidates has at most the risk of its half's boundary point: in each
  coordinate, the half's last row below position n - D.
- When the min risk is the only risk, the candidates are the rows in the
  top D positions of every coordinate, and the bound is the boundary point's
  largest coordinate: a row below position n - D in one coordinate has at
  most that min risk.
- Stop check: when each half's (k_half + 1)-th largest candidate risk
  strictly exceeds its boundary risk, the threshold, the exceedances and
  every row tied at the threshold are candidates. Equality is not enough: a
  row outside the prefix may tie the boundary risk.
- A replicate that fails the check, and every replicate of a Pareto-scale
  source, runs the definition: ``scaled_exceedances`` on each permuted half.
- A pseudo source's halves are ranked in its whole-sample order, so ties
  fall by row order, the rule of ``standardize``. A tied source gets the
  null of its re-ranked self; the bound reads positions, so it stays exact.
- Threshold ties keep ``top_k``'s stable rule: the last tied rows by
  position in the permuted half are kept. Positions are looked up only for
  the replicates whose selection needs them.
- Sources of one size bootstrapped on one stream (the symmetric source's
  two samples, or the samples of one ``calibrate`` batch, such as the
  seasons of ``seasonal_tests``) draw the same permutations, so they run in
  lockstep: each block of permutations is drawn once and scored for every
  source. A block is the whole chunks whose permutations hold about
  _BLOCK_POINTS entries, so its fixed costs keep in proportion to its work
  at every n.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .divergence import Divergence, jeffreys, kl_divergence
from .errors import ConfigError, DomainError, InsufficientDataError
from .margins import Sample, _ordinal_ranks, _pseudo, pseudo_scale, standardize
from .numerics import RngStream, chisq_quantile, chisq_sf
from .partitions import (Partition, cell_histogram, count_cells, make_angular_partition,
                         make_max_partition, make_min_partition, scaled_exceedances)

RISK_ALIASES = {"max": "max", "min": "min", "l2": "euclidean", "euclidean": "euclidean",
                "l1": "sum", "sum": "sum"}

# Namespace offset separating bootstrap permutation streams from data streams.
_BOOTSTRAP_NS = 1_000_003

# The bootstrap engine handles max(1, _CHUNK_POINTS // n) replicates at a
# time, which keeps its working set at a few MB whatever the replicate count.
_CHUNK_POINTS = 2 ** 14
# It classifies and scores a block of replicates at a time: the whole chunks
# (at least one) whose permutations hold about _BLOCK_POINTS entries. That is
# fewer calls per target than one per chunk at every n, and a block buffer
# small next to buffering every replicate.
_BLOCK_POINTS = 2 ** 18
# It ranks and selects the candidates of whole chunks of replicates at a time,
# as many as keep that below _CANDIDATE_POINTS candidate rows (at least one
# chunk, at most one block).
_CANDIDATE_POINTS = 2 ** 15


def bootstrap_stream(seed: int) -> RngStream:
    """Stream of the bootstrap permutations of a test, whichever sample is resampled."""
    return RngStream(seed, (_BOOTSTRAP_NS, 0))


@dataclass(frozen=True)
class TestConfig:
    """Settings of one two-sample divergence test."""

    __test__ = False  # not a pytest class despite the name

    k_exceedances: int
    risk: str = "euclidean"
    num_cells: Optional[int] = None
    level: float = 0.05
    margins: str = "empirical"
    bootstrap_replicates: int = 1000
    bootstrap_source: str = "x"                  # or "symmetric"
    seed: int = 0

    def __post_init__(self):
        if self.k_exceedances < 1:
            raise ConfigError(f"k_exceedances must be >= 1, got {self.k_exceedances}")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"level must lie in (0,1), got {self.level}")
        if self.margins not in ("known", "empirical"):
            raise ConfigError(f"margins must be 'known' or 'empirical', got {self.margins!r}")
        if self.risk not in RISK_ALIASES:
            raise ConfigError(f"risk must be one of {sorted(RISK_ALIASES)}, got {self.risk!r}")
        object.__setattr__(self, "risk", RISK_ALIASES[self.risk])
        if self.num_cells is not None and self.num_cells < 2:
            raise ConfigError(f"num_cells must be >= 2, got {self.num_cells}")
        if self.margins == "empirical" and self.bootstrap_replicates < 100:
            raise ConfigError(
                f"empirical margins need at least 100 bootstrap replicates, got {self.bootstrap_replicates}"
            )
        if self.bootstrap_source not in ("x", "symmetric"):
            raise ConfigError(f"bootstrap_source must be 'x' or 'symmetric', got {self.bootstrap_source!r}")


def build_partition(config: TestConfig, d: int) -> Partition:
    """Partition implied by the configured risk, cell count and dimension."""
    if config.risk == "max":
        part = make_max_partition(d)
    elif config.risk == "min":
        part = make_min_partition(d)
    else:
        if config.num_cells is None:
            raise ConfigError("angular partitions need an explicit num_cells")
        part = make_angular_partition(config.risk, config.num_cells)
    if config.num_cells is not None and part.num_cells != config.num_cells:
        raise ConfigError(
            f"{config.risk} risk in dimension {d} implies {part.num_cells} cells, "
            f"but num_cells={config.num_cells} was requested"
        )
    return part


@dataclass(frozen=True)
class NullDistribution:
    """Rate-corrected bootstrap replicates of the statistic under the null."""

    replicates: np.ndarray
    k_half: int

    def __post_init__(self):
        reps = np.asarray(self.replicates, dtype=np.float64)
        if reps.ndim != 1 or reps.size < 1:
            raise DomainError("replicates must be a non-empty 1-D array")
        if (reps < 0).any() or not np.isfinite(reps).all():
            raise DomainError("replicates must be non-negative and finite")
        object.__setattr__(self, "replicates", reps)

    @property
    def B(self) -> int:
        return self.replicates.size


@dataclass(frozen=True)
class TestReport:
    """The JSON report of one test: its fields are the schema's top-level
    keys in order, holding plain lists, dicts and numbers."""

    __test__ = False  # not a pytest class despite the name

    statistic: float
    normalized: float
    p_value: float
    reject: bool
    method: str
    level: float
    k_exceedances: int
    num_cells: int
    risk: str
    scheme: str
    margins: str
    zero_adjusted: bool
    cells: dict
    sample_sizes: dict
    dim: int
    rank_ties: dict
    seed: int
    bootstrap: Optional[dict] = None
    warnings: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        """JSON-ready report with the stable field schema shipped in schemas.py."""
        return {**dataclasses.asdict(self), "version": __version__}


def _split_cdfs(known_cdfs):
    if known_cdfs is None:
        return None, None
    seq = list(known_cdfs)
    if len(seq) == 2 and not callable(seq[0]) and not callable(seq[1]):
        return list(seq[0]), list(seq[1])
    return seq, seq


def _check_bootstrap_size(n: int, k_n: int, source_label: str):
    if n < 4 * k_n:
        raise InsufficientDataError(
            f"bootstrap of sample {source_label} needs n >= 4*k_exceedances, got n={n}, k={k_n}"
        )


# The prefix reaches the whole-sample risk of the top k + _DEPTH_SLACK * sqrt(k)
# rows (k = 2 k_half). A half's threshold sits near the whole sample's
# (k + 1)-th largest risk, give or take the spread of the top rows between the
# halves, about sqrt(k) rows; the slack keeps the stop check from failing.
_DEPTH_SLACK = 6


def _prefix_depth(source: Sample, ks_by_risk: dict) -> int:
    """Prefix depth D of a bootstrap of ``source``, at most n.

    For each risk kind, take the whole-sample risk t that the top
    k + _DEPTH_SLACK * sqrt(k) rows reach, k = 2 k_half at the kind's
    largest k_half. A row below t / r(1, ..., 1) in every coordinate has risk
    below t, the risks being monotone and 1-homogeneous; D is the most rows
    that any coordinate holds at or above that value. (A row of min risk at
    least t is at or above t in every coordinate, so it is also in the top D
    of every coordinate.)"""
    n = source.n
    depth = 0
    for risk, ks in ks_by_risk.items():
        k = 2 * ks[-1]
        top = min(n, math.ceil(k + _DEPTH_SLACK * math.sqrt(k)))
        reach = np.partition(risk(source.data), n - top)[n - top]
        unit = risk(np.ones(source.d))
        depth = max(depth, int((source.data >= reach / unit).sum(axis=0).max()))
    return depth


def _block_layout(n: int) -> tuple[int, int]:
    """Replicates per chunk and per block of a bootstrap of n rows."""
    chunk = max(1, _CHUNK_POINTS // n)
    return chunk, chunk * max(1, _BLOCK_POINTS // (chunk * n))


def _index_dtype(n: int):
    """Compact integer dtype of the permutations of n rows."""
    return np.int16 if n < 2 ** 15 else np.int32


class _Prefix:
    """The candidate rows of a pseudo source at prefix depth D < n (the rows,
    ascending, in the top D positions of some coordinate's whole-sample
    order ``order_pos`` (d, n), or of every coordinate when every risk is the
    min risk) and the split-half top-k exceedances of each ``ks_by_risk``
    (risk, k_half) computed from them."""

    def __init__(self, source: Sample, order_pos: np.ndarray, depth: int,
                 chunk: int, block: int, ks_by_risk: dict):
        n, d = source.n, source.d
        self.n, self.half, self.depth = n, n // 2, depth
        self.ks_by_risk = ks_by_risk
        self.every = all(risk.kind == "min" for risk in ks_by_risk)
        inside = order_pos >= n - depth
        self.rows = np.flatnonzero(inside.all(axis=0) if self.every else inside.any(axis=0))
        self.capacity = capacity = min(block, chunk * max(1, _CANDIDATE_POINTS
                                                          // (chunk * max(1, self.rows.size))))
        self.pos = order_pos[:, self.rows]
        self.first = np.empty((capacity, self.rows.size), dtype=bool)
        # Gap buckets of each coordinate: each cut point (a candidate's
        # position, and the boundary position n - D - 1) is a bucket, and so
        # is each gap between them that holds a position.
        coords = np.arange(d)[:, None]
        cuts = np.column_stack([self.pos, np.full(d, n - depth - 1)])
        starts = np.zeros((d, n + 1), dtype=bool)
        starts[:, 0] = starts[coords, cuts] = starts[coords, cuts + 1] = True
        bucket = np.cumsum(starts[:, :n], axis=1) - 1
        self.width = width = int(bucket[:, -1].max()) + 1
        # A locate call takes at most a chunk of replicates, and at most as
        # many as keep its bucket ids and counts within _CHUNK_POINTS entries:
        # larger arrays are page-faulted afresh per call.
        self.step = max(1, min(chunk, _CHUNK_POINTS // (d * max(width, self.half))))
        bucket += width * coords
        # Lane l of a locate call offsets its bucket ids by l lane_buckets,
        # so that one bincount counts every lane.
        self.lane_buckets = d * width
        self.lanes = self.lane_buckets * np.arange(self.step)[:, None, None]
        # Each row's bucket per coordinate (n, d), and the buckets of the
        # candidates and of the boundary position (d, m + 1).
        self.row_bucket = np.take_along_axis(bucket, order_pos, axis=1).T.copy()
        self.cut_bucket = np.take_along_axis(bucket, cuts, axis=1)
        # Pseudo-observations of both halves in one table: rank r of the
        # first half at index r, of the second at half + 1 + r.
        self.table = np.concatenate([pseudo_scale(self.half), pseudo_scale(n - self.half)])
        self.shift = (self.pos + (self.half + 2)).astype(np.int32)
        self.values = np.empty((capacity, self.rows.size, d))
        self.bound_values = np.empty((capacity, 2, d))

    def locate(self, perms: np.ndarray, offset: int):
        """Which candidates fall in the first half of each permutation in
        ``perms`` (c, n), their pseudo-observations within their half and
        those of the boundary point of each half; written from row
        ``offset``. One count of the first half's rows per
        gap bucket gives all three: the count in a candidate's own bucket is
        its membership, and the cumulative count up to it (or to a boundary
        position's bucket) the first-half rows at or below its position,
        which ranks both halves."""
        c, m, half = perms.shape[0], self.rows.size, self.half
        out = slice(offset, offset + c)
        ids = self.row_bucket.take(perms[:, :half], axis=0)
        ids += self.lanes[:c]
        counts = np.bincount(ids.reshape(-1), minlength=c * self.lane_buckets).reshape(c, -1)
        first = self.first[out]
        first[...] = counts.take(self.cut_bucket[0, :m], axis=1)
        # int32 ranks: narrower arithmetic, and 2 n fits for any sample.
        below = np.cumsum(counts.reshape(c, -1, self.width), axis=2, dtype=np.int32)
        below = below.reshape(c, -1)
        # (c, d, m), candidates last: first broadcasts over the coordinates
        # with contiguous inner loops, about 1.5x faster than (c, m, d).
        at = below.take(self.cut_bucket[:, :m], axis=1)
        # Table index at for the first half, half + 1 + (pos + 1 - at) for
        # the second; by arithmetic, as a select on a random mask is slow.
        index = self.shift - at
        index -= (index - at) * first[:, None]
        for j in range(index.shape[1]):
            self.values[out, :, j] = self.table.take(index[:, j])
        rank = below.take(self.cut_bucket[:, m], axis=1)
        self.bound_values[out, 0] = self.table.take(rank)
        self.bound_values[out, 1] = self.table.take(self.n - self.depth + half + 1 - rank)

    def exceedances(self, perms: np.ndarray, rows: np.ndarray, buffers: dict) -> np.ndarray:
        """Write both halves' rescaled top-k exceedances (``top_k``'s stable
        rule) of each (risk, k) under the permutations ``perms[rows]`` into
        ``buffers`` at ``rows``, ``capacity`` replicates at a time; return
        the rows whose strict stop check failed, which are not written."""
        return np.concatenate([
            self._group(perms[rows[start:start + self.capacity]],
                        rows[start:start + self.capacity], buffers)
            for start in range(0, rows.size, self.capacity)])

    def _group(self, perms: np.ndarray, rows: np.ndarray, buffers: dict) -> np.ndarray:
        for start in range(0, perms.shape[0], self.step):
            self.locate(perms[start:start + self.step], start)
        (c, n), (m, d) = perms.shape, self.pos.T.shape
        if m <= max(ks[-1] for ks in self.ks_by_risk.values()):
            return rows
        first, values = self.first[:c], self.values[:c]
        ok = np.ones(c, dtype=bool)
        selections = []
        halves = (first, ~first)
        for risk, ks in self.ks_by_risk.items():
            r_all = risk(values)
            for h, in_half in enumerate(halves):
                # Risks are positive, so 0 marks the other half's candidates.
                top = r_all * in_half
                top.partition(m - ks[-1] - 1, axis=1)
                top = top[:, m - ks[-1] - 1:]
                thresholds = [np.partition(top, ks[-1] - k, axis=1)[:, ks[-1] - k]
                              for k in ks[:-1]] + [top[:, 0]]
                # Strict: a row outside the prefix may tie the boundary risk.
                bound = self.bound_values[:c, h]
                ok &= thresholds[-1] > (bound.max(axis=-1) if self.every else risk(bound))
                selections.append((risk, h, r_all, ks, thresholds))
        failed = ~ok
        for risk, h, r_all, ks, thresholds in selections:
            r_vals = r_all * halves[h]
            for k, threshold in zip(ks, thresholds):
                keep = r_vals > threshold[:, None]
                keep[failed] = False
                spare = k - np.count_nonzero(keep, axis=1)
                lanes = np.flatnonzero(ok & (spare > 0))
                if lanes.size:
                    span = slice(0, self.half) if h == 0 else slice(self.half, n)
                    self._keep_last_ties(keep, lanes, spare[lanes], r_vals, threshold,
                                         perms[lanes, span])
                points = values.reshape(-1, d).take(np.flatnonzero(keep), axis=0)
                buffers[risk, k][h, rows[ok]] = points.reshape(-1, k, d) / threshold[ok, None, None]
        return rows[failed]

    def _keep_last_ties(self, keep, lanes, spare, r_vals, threshold, half_perms):
        """Add to ``keep`` the last ``spare`` rows tied at the threshold in each
        of ``lanes``, by position in the permuted half ``half_perms``."""
        f = lanes.size
        tied = np.zeros((f, self.n), dtype=bool)
        lane, column = np.nonzero(r_vals[lanes] == threshold[lanes, None])
        tied[lane, self.rows[column]] = True
        # The tied rows of each lane in permuted order; count from the last.
        lane, at = np.nonzero(np.take_along_axis(tied, half_perms, axis=1))
        counts = np.bincount(lane, minlength=f)
        from_last = np.repeat(np.cumsum(counts), counts) - 1 - np.arange(lane.size)
        chosen = from_last < spare[lane]
        row = half_perms[lane[chosen], at[chosen]]
        keep[lanes[lane[chosen]], np.searchsorted(self.rows, row)] = True


def _defined(source: Sample, order_pos: Optional[np.ndarray], perms: np.ndarray,
             rows: np.ndarray, buffers: dict):
    """Write both halves' rescaled top-k exceedances of each (risk, k) under
    ``perms[rows]`` into ``buffers`` at ``rows`` by the definition,
    ``scaled_exceedances`` on each permuted half, max(1, _CHUNK_POINTS // n)
    replicates at a time. A pseudo source's halves are ranked by whole-sample
    position ``order_pos`` (d, n), ties by row order, as ``standardize`` does."""
    n = source.n
    step = max(1, _CHUNK_POINTS // n)
    for start in range(0, rows.size, step):
        at = rows[start:start + step]
        for h, span in enumerate((slice(0, n // 2), slice(n // 2, n))):
            half = perms[at, span]
            data = source.data[half] if order_pos is None else _pseudo(order_pos.T[half])
            for key, (_, points) in scaled_exceedances(data, buffers).items():
                buffers[key][h, at] = points


def bootstrap_null(source: Sample | tuple[Sample, ...],
                   targets: Sequence[tuple[Partition, int]], replicates: int,
                   stream: RngStream, source_label: str | tuple[str, ...] = "x"
                   ) -> list[NullDistribution] | list[list[NullDistribution]]:
    """Split-half subsample bootstrap of the null distribution of each
    ``(partition, k_n)`` target, with ``replicates`` replicates.

    Replicate b permutes the source with the stream's Philox jumped b + 1
    times (``RngStream.jumped_permutations``: the stream's key at counter
    (0, 0, b + 1, 0)), takes the first floor(n/2) rows as one half and the
    rest as the other, computes the two-half statistic with max(1, k_n // 2)
    exceedances per half and divides it by 2 (the rate correction for the
    halved sample size). The source's margin state sets the mode: each half
    of a pseudo-observation source is re-ranked in the source's whole-sample
    order, ties by row order (without ties, identical to ranking the
    corresponding raw half); a Pareto-scale source (known margins) is used
    as it is. A raw source, no replicate or no target raises
    ``ConfigError``. Replicates are computed in chunks of array operations
    and equal the one-at-a-time definition bit for bit. Returns one null
    per target.

    ``source`` may also be a tuple of equal-size sources, with a tuple of
    labels or one for all: they run in lockstep, each block of permutations
    drawn once for all, and the result is one such list per source, each
    equal to that source's bootstrap alone.

    A pseudo source's candidate rows and depth D < n are fixed once per call
    (see the module docstring). Each block (the whole chunks whose
    permutations hold about _BLOCK_POINTS entries, ``_block_layout``) draws
    its permutations into one compact integer buffer allocated once per
    call. Per chunk of max(1, _CHUNK_POINTS // n) replicates, the first
    half's rows counted per gap bucket give the candidates' half membership,
    their within-half ranks and each half's boundary rank. Per group of
    whole chunks (below _CANDIDATE_POINTS candidate rows, at most a block)
    the candidates' pseudo-observations and risks give each (risk kind,
    k_half) threshold by one partition at the kind's largest k_half, the
    strict stop check, and the rescaled exceedances. Replicates that fail
    the check, and a Pareto-scale source's, run the definition
    (``_defined``). The exceedances fill buffers of one block; once per
    block, each target is classified, counted and scored with one call each.
    Each null equals the null of its target bootstrapped alone.
    ``source_label`` names the source in errors.
    """
    sources = (source,) if isinstance(source, Sample) else tuple(source)
    labels = (source_label,) * len(sources) if isinstance(source_label, str) else source_label
    if replicates < 1:
        raise ConfigError(f"bootstrap needs at least 1 replicate, got {replicates}")
    if not targets:
        raise ConfigError("bootstrap needs at least one (partition, k_n) target")
    n = sources[0].n
    for src, label in zip(sources, labels):
        if src.n != n:
            raise ConfigError(f"sources bootstrapped together need one size, got {n} and {src.n}")
        for _, k_n in targets:
            if k_n < 1:
                raise DomainError(f"need 1 <= k_n, got k_n={k_n}")
            _check_bootstrap_size(n, k_n, label)
        if src.margin_state == "raw":
            raise ConfigError(f"bootstrap of sample {label} needs a standardized source, "
                              "got raw data")
    half_targets = [(part, max(1, k_n // 2)) for part, k_n in targets]
    ks_by_risk: dict = {}
    for part, k_half in half_targets:
        ks_by_risk.setdefault(part.risk, set()).add(k_half)
    ks_by_risk = {risk: sorted(ks) for risk, ks in ks_by_risk.items()}

    chunk, block = _block_layout(n)
    block = min(replicates, block)
    # Only the positions outlive each source's set-up: arrays kept alive
    # through the block loop leave glibc's heap laid out so that the loop's
    # large temporaries are page-faulted afresh.
    positions = [_ordinal_ranks(src.data.T, axis=1)[0] - 1 if src.margin_state == "pseudo"
                 else None for src in sources]
    prefixes = [None if order_pos is None else
                _Prefix(src, order_pos, min(n - 1, _prefix_depth(src, ks_by_risk)), chunk, block,
                        ks_by_risk)
                for src, order_pos in zip(sources, positions)]
    # Both halves' rescaled exceedances of one block of replicates, per (risk, k).
    buffers = [{(part.risk, k_half): np.empty((2, block, k_half, src.d))
                for part, k_half in half_targets} for src in sources]
    perms = np.empty((block, n), dtype=_index_dtype(n))
    values = np.empty((len(sources), len(targets), replicates))
    for first in range(0, replicates, block):
        last = min(replicates, first + block)
        block_perms = stream.jumped_permutations(first, last, n, out=perms[:last - first])
        for s, prefix in enumerate(prefixes):
            # A Pareto-scale source's replicates, and those whose stop check
            # failed, run the definition.
            rows = np.arange(last - first)
            if prefix is not None:
                rows = prefix.exceedances(block_perms, rows, buffers[s])
            _defined(sources[s], positions[s], block_perms, rows, buffers[s])
            for t, (part, k_half) in enumerate(half_targets):
                points = buffers[s][part.risk, k_half][:, :last - first]
                counts_a, counts_b = cell_histogram(part.classify(points), part.num_cells)
                values[s, t, first:last] = jeffreys(counts_a, counts_b, k_half)[0] / 2.0
    nulls = [[NullDistribution(reps, k_half) for reps, (_, k_half) in zip(by_target, half_targets)]
             for by_target in values]
    return nulls[0] if isinstance(source, Sample) else nulls


def bootstrap_p_value(observed: Divergence, null: NullDistribution) -> float:
    """Fraction of rate-corrected replicates strictly above the observed value."""
    return float(np.mean(null.replicates > observed.value))


@dataclass(frozen=True)
class Calibration:
    """The p-value of one observed divergence and the null it was read from."""

    p_value: float
    num_cells: int
    k_n: int
    null: Optional[NullDistribution] = None  # None: the chi-squared(K - 1) limit

    def critical_value(self, level: float) -> float:
        """Divergence above which the test rejects at ``level``."""
        if self.null is None:
            return 2.0 * chisq_quantile(1.0 - level, self.num_cells - 1) / self.k_n
        return float(np.quantile(self.null.replicates, 1.0 - level))


def calibrate(tests: Sequence[tuple[Sequence[Divergence], Sequence[tuple[Partition, int]],
                                   Sample, Sample]],
              config: TestConfig) -> list[list[Calibration]]:
    """Calibrate each test ``(divergences, targets, xs, ys)`` of a batch:
    one calibration per ``(partition, k_n)`` target of each test.

    Known margins refer k_n * D / 2 to chi-squared(K - 1). Empirical margins
    read it from a multi-target split-half bootstrap of ``xs`` on the stream
    ``bootstrap_stream(config.seed)``; the symmetric source also bootstraps
    ``ys`` on that stream and averages the two p-values, so swapping the
    samples leaves them unchanged. The null kept is that of xs.

    Each sample object of the batch is bootstrapped once per targets, as x
    or as y, and the samples of one size and targets in one lockstep
    ``bootstrap_null`` call, which draws each block of permutations once for
    all of them. Each calibration equals that of its test calibrated alone.
    """
    if config.margins == "known":
        return [[Calibration(chisq_sf(div.normalized, part.num_cells - 1), part.num_cells, k_n)
                 for div, (part, k_n) in zip(divergences, targets)]
                for divergences, targets, _, _ in tests]
    roles = ("x", "y") if config.bootstrap_source == "symmetric" else ("x",)
    # (size, targets) -> id of each sample to bootstrap -> (sample, label)
    groups: dict = {}
    for _, targets, *samples in tests:
        for src, label in zip(samples, roles):
            groups.setdefault((src.n, tuple(targets)), {}).setdefault(id(src), (src, label))
    nulls = {}
    for (_, targets), group in groups.items():
        sources, labels = zip(*group.values())
        nulls.update(zip(((key, targets) for key in group),
                         bootstrap_null(sources, targets, config.bootstrap_replicates,
                                        bootstrap_stream(config.seed), labels)))
    calibrations = []
    for divergences, targets, xs, ys in tests:
        nulls_x = nulls[id(xs), tuple(targets)]
        p_values = [bootstrap_p_value(div, null) for div, null in zip(divergences, nulls_x)]
        if len(roles) == 2:
            p_values = [0.5 * (p + bootstrap_p_value(div, null)) for p, div, null
                        in zip(p_values, divergences, nulls[id(ys), tuple(targets)])]
        calibrations.append([Calibration(p, part.num_cells, k_n, null)
                             for p, (part, k_n), null in zip(p_values, targets, nulls_x)])
    return calibrations


def _check_pair(x: Sample, y: Sample, config: TestConfig):
    """The checks of a test of ``x`` against ``y`` before either is
    standardized: one dimension, k below both sizes, and n >= 4k for each
    sample the bootstrap resamples."""
    if x.d != y.d:
        raise ConfigError(f"samples must share dimension, got {x.d} and {y.d}")
    if config.k_exceedances >= min(x.n, y.n):
        raise ConfigError(
            f"k_exceedances={config.k_exceedances} must be below both sample sizes "
            f"({x.n}, {y.n})"
        )
    if config.margins == "empirical":
        _check_bootstrap_size(x.n, config.k_exceedances, "x")
        if config.bootstrap_source == "symmetric":
            _check_bootstrap_size(y.n, config.k_exceedances, "y")


def run_test(x: Sample, y: Sample, config: TestConfig, known_cdfs=None) -> TestReport:
    """Run the full two-sample extremal dependence test.

    ``known_cdfs`` may be one CDF list applied to both samples or a pair of
    lists (one per sample); it is only consulted for raw samples in
    known-margin mode.
    """
    _check_pair(x, y, config)
    cdfs_x, cdfs_y = _split_cdfs(known_cdfs)
    xs = standardize(x, config.margins, cdfs_x)
    ys = standardize(y, config.margins, cdfs_y)
    return _test_batch([(xs, ys)], config)[0]


def _test_batch(pairs: Sequence[tuple[Sample, Sample]], config: TestConfig) -> list[TestReport]:
    """The report of each checked, standardized pair ``(xs, ys)`` of one
    dimension, each sample object counted once and the pairs calibrated in
    one batch."""
    partition = build_partition(config, pairs[0][0].d)
    targets = [(partition, config.k_exceedances)]
    samples = {id(sample): sample for pair in pairs for sample in pair}
    counted = {key: count_cells(sample, targets)[0] for key, sample in samples.items()}
    cells = [(counted[id(xs)], counted[id(ys)]) for xs, ys in pairs]
    divs = [kl_divergence(cells_x, cells_y) for cells_x, cells_y in cells]
    calibrations = calibrate([([div], targets, xs, ys) for div, (xs, ys) in zip(divs, pairs)],
                             config)
    reports = []
    for (xs, ys), (cells_x, cells_y), div, [calibration] in zip(pairs, cells, divs, calibrations):
        bootstrap, warnings = None, []
        if calibration.null is not None:
            bootstrap = {"replicates": config.bootstrap_replicates,
                         "source": config.bootstrap_source,
                         "exceedance_rule": "proportional",
                         "k_half": calibration.null.k_half}
            if calibration.p_value == 0.0:
                warnings.append("no bootstrap replicate exceeded the statistic: "
                                f"p < 1/{config.bootstrap_replicates}")
        reports.append(TestReport(
            statistic=div.value,
            normalized=div.normalized,
            p_value=calibration.p_value,
            reject=bool(calibration.p_value < config.level),
            method="chisq" if bootstrap is None else "bootstrap",
            level=config.level,
            k_exceedances=config.k_exceedances,
            num_cells=partition.num_cells,
            risk=config.risk,
            scheme=partition.scheme,
            margins=config.margins,
            zero_adjusted=div.zero_adjusted,
            cells={"labels": partition.cell_labels,
                   "x_counts": cells_x.counts.tolist(), "y_counts": cells_y.counts.tolist(),
                   "x_probs": cells_x.probs.tolist(), "y_probs": cells_y.probs.tolist(),
                   "x_threshold": cells_x.threshold, "y_threshold": cells_y.threshold},
            sample_sizes={"x": xs.n, "y": ys.n},
            dim=xs.d,
            rank_ties={"x": xs.ties, "y": ys.ties, "policy": "stable-ordinal"},
            seed=config.seed,
            bootstrap=bootstrap,
            warnings=warnings,
        ))
    return reports
