"""The two-sample divergence test: standardize, count, calibrate, decide.

With known margins the normalized statistic k_n * D / 2 is referred to a
chi-squared distribution with K - 1 degrees of freedom. With empirical
margins the null distribution is approximated by a split-half subsample
bootstrap: half of one sample is drawn without replacement, the two-half
statistic is computed with k_n/2 exceedances per half and divided by 2,
which puts it on the scale of the full-sample statistic.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .divergence import Divergence, jeffreys, kl_divergence
from .errors import ConfigError, DomainError, InsufficientDataError
from .margins import Sample, _ordinal_ranks, pseudo_scale, standardize
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
# It classifies and scores about _BLOCK_REPLICATES replicates at a time (whole
# chunks, at least one): fewer calls per target than one per chunk, and a block
# buffer small next to buffering every replicate.
_BLOCK_REPLICATES = 128


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


def _half_pseudo(data: np.ndarray, order_pos: np.ndarray, tied_columns: np.ndarray,
                 perms: np.ndarray, scales: tuple[np.ndarray, np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pseudo-observations of both halves of each permuted sample, each half
    ranked on its own, rows in permuted order: shapes (c, half, d) and
    (c, n - half, d) for c permutations of the n rows of ``data``.

    ``order_pos`` (d, n) holds each column's 0-based stable order in the
    whole sample. A column without repeated values is ranked from it: a
    row's rank within its half is the number of that half's rows at or
    below it. ``tied_columns`` are ranked by a stable sort of each half
    instead, so their ties are broken by position in the permuted half.
    ``scales[h][r]`` is the pseudo-observation of rank r in half h.
    """
    half = scales[0].size - 1
    c, n = perms.shape
    pos = order_pos.take(perms, axis=1)                    # (d, c, n)
    flat = pos + (n * np.arange(pos.shape[0] * c)).reshape(-1, c, 1)
    in_first = np.zeros(pos.size, dtype=bool)
    in_first[flat[..., :half]] = True
    below = np.cumsum(in_first.reshape(pos.shape), axis=-1).ravel()
    ranks = (below.take(flat[..., :half]), pos[..., half:] + 1 - below.take(flat[..., half:]))
    for j in tied_columns:
        column = data[:, j].take(perms)
        for rank, part in zip(ranks, (column[:, :half], column[:, half:])):
            np.put_along_axis(rank[j], np.argsort(part, axis=1, kind="stable"),
                              np.arange(1, part.shape[1] + 1), axis=1)
    return tuple(scale.take(np.moveaxis(r, 0, -1)) for scale, r in zip(scales, ranks))


def bootstrap_null(source: Sample, targets: Sequence[tuple[Partition, int]],
                   replicates: int, stream: RngStream,
                   source_label: str = "x") -> list[NullDistribution]:
    """Split-half subsample bootstrap of the null distribution of each
    ``(partition, k_n)`` target, with ``replicates`` replicates.

    Replicate b permutes the source with ``stream.child(b)`` (every child's
    key derived at once, then drawn by re-keying one generator), takes the first
    floor(n/2) rows as one half and the rest as the other, computes the
    two-half statistic with max(1, k_n // 2) exceedances per half and divides
    it by 2 (the rate correction for the halved sample size). The source's
    margin state sets the mode: each half of a pseudo-observation source is
    re-ranked, which is identical to ranking the corresponding raw half; a
    Pareto-scale source (known margins) is used as it is; a raw source raises
    ``ConfigError``. Replicates are computed in chunks of array operations
    and equal the one-at-a-time definition bit for bit.

    Per chunk, only work the targets share is done: the permutations, the
    half-sample ranks, and one ``scaled_exceedances`` pass per half, which
    computes the risk values once per risk kind and selects the exceedances
    once per (risk kind, half-sample k), each k nested in the next larger
    one. The rescaled exceedances are written into buffers holding one block
    of replicates; once per block, each target is classified, counted and
    scored with one call each. Each null equals the null of its target
    bootstrapped alone. ``source_label`` names the source in errors.
    """
    n = source.n
    for _, k_n in targets:
        _check_bootstrap_size(n, k_n, source_label)
    if source.margin_state == "raw":
        raise ConfigError(f"bootstrap of sample {source_label} needs a standardized source, "
                          "got raw data")
    rerank = source.margin_state == "pseudo"
    half = n // 2
    half_targets = [(part, max(1, k_n // 2)) for part, k_n in targets]

    data = source.data
    if rerank:
        ranks, tied = _ordinal_ranks(data.T, axis=1)
        order_pos = ranks - 1
        tied_columns = np.flatnonzero(tied.any(axis=1))
        # Kept alive through the chunk loop, these two arrays leave glibc's heap
        # laid out so that every chunk's large temporaries are page-faulted
        # afresh: about 15 times the page faults of a run_test at n = 2000.
        del ranks, tied
        scales = (pseudo_scale(half), pseudo_scale(n - half))
    chunk = max(1, _CHUNK_POINTS // n)
    block = min(replicates, chunk * max(1, _BLOCK_REPLICATES // chunk))
    # Both halves' rescaled exceedances of one block of replicates, per (risk, k).
    buffers = {(part.risk, k_half): np.empty((2, block, k_half, source.d))
               for part, k_half in half_targets}
    values = np.empty((len(targets), replicates))
    # Held as ints: kept alive through the chunk loop as an array, the keys too
    # left the heap laid out for every chunk to page-fault afresh.
    keys = stream.child_keys(0, replicates).tolist()
    for first in range(0, replicates, block):
        last = min(replicates, first + block)
        for start in range(first, last, chunk):
            stop = min(last, start + chunk)
            perms = stream.keyed_permutations(keys[start:stop], n)
            if rerank:
                halves = _half_pseudo(data, order_pos, tied_columns, perms, scales)
            else:
                halves = data.take(perms[:, :half], axis=0), data.take(perms[:, half:], axis=0)
            for h, points in enumerate(halves):
                for key, (_, scaled) in scaled_exceedances(points, buffers).items():
                    buffers[key][h, start - first:stop - first] = scaled
        for t, (part, k_half) in enumerate(half_targets):
            points = buffers[part.risk, k_half][:, :last - first]
            counts_a, counts_b = cell_histogram(part.classify(points), part.num_cells)
            values[t, first:last] = jeffreys(counts_a, counts_b, k_half)[0] / 2.0
    return [NullDistribution(reps, k_half) for reps, (_, k_half) in zip(values, half_targets)]


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


def _source_nulls(source: Sample, label: str, targets: Sequence[tuple[Partition, int]],
                  config: TestConfig, cache: dict) -> list[NullDistribution]:
    """The bootstrap of ``source`` on ``bootstrap_stream(config.seed)``, read
    from ``cache`` when it already holds that source and targets at the
    config's replicate count and seed, the engine's only other inputs."""
    key = (source.data.shape, source.data.tobytes(), source.margin_state, tuple(targets),
           config.bootstrap_replicates, config.seed)
    if key not in cache:
        cache[key] = bootstrap_null(source, targets, config.bootstrap_replicates,
                                    bootstrap_stream(config.seed), label)
    return cache[key]


def calibrate(divergences: Sequence[Divergence], targets: Sequence[tuple[Partition, int]],
              config: TestConfig, xs: Sample, ys: Sample, *,
              nulls: Optional[dict] = None) -> list[Calibration]:
    """Calibrate the observed divergence of each ``(partition, k_n)`` target.

    Known margins refer k_n * D / 2 to chi-squared(K - 1). Empirical margins
    read it from one multi-target split-half bootstrap of ``xs`` on the
    stream ``bootstrap_stream(config.seed)``; the symmetric source also
    bootstraps ``ys`` on that stream and averages the two p-values, so
    swapping the samples leaves them unchanged. The null kept is that of xs.

    ``nulls``, when given, is a cache the caller owns across calls: keyed by
    the standardized source, the targets, the replicate count and the seed,
    it hands back a bootstrap already made for that source, as x or as y.
    """
    if config.margins == "known":
        return [Calibration(chisq_sf(div.normalized, part.num_cells - 1), part.num_cells, k_n)
                for div, (part, k_n) in zip(divergences, targets)]
    if nulls is None:
        nulls = {}
    nulls_x = _source_nulls(xs, "x", targets, config, nulls)
    p_values = [bootstrap_p_value(div, null) for div, null in zip(divergences, nulls_x)]
    if config.bootstrap_source == "symmetric":
        nulls_y = _source_nulls(ys, "y", targets, config, nulls)
        p_values = [0.5 * (p + bootstrap_p_value(div, null))
                    for p, div, null in zip(p_values, divergences, nulls_y)]
    return [Calibration(p, part.num_cells, k_n, null)
            for p, (part, k_n), null in zip(p_values, targets, nulls_x)]


def run_test(x: Sample, y: Sample, config: TestConfig,
             known_cdfs=None, *, nulls: Optional[dict] = None) -> TestReport:
    """Run the full two-sample extremal dependence test.

    ``known_cdfs`` may be one CDF list applied to both samples or a pair of
    lists (one per sample); it is only consulted for raw samples in
    known-margin mode. ``nulls`` is a bootstrap cache shared by the tests of
    one batch (see ``calibrate``); the report is the same with or without it.
    """
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
    cdfs_x, cdfs_y = _split_cdfs(known_cdfs)
    xs = standardize(x, config.margins, cdfs_x)
    ys = standardize(y, config.margins, cdfs_y)
    partition = build_partition(config, x.d)

    targets = [(partition, config.k_exceedances)]
    [cells_x], [cells_y] = count_cells(xs, targets), count_cells(ys, targets)
    div = kl_divergence(cells_x, cells_y)
    [calibration] = calibrate([div], targets, config, xs, ys, nulls=nulls)

    bootstrap, warnings = None, []
    if calibration.null is not None:
        bootstrap = {"replicates": config.bootstrap_replicates,
                     "source": config.bootstrap_source,
                     "exceedance_rule": "proportional",
                     "k_half": calibration.null.k_half}
        if calibration.p_value == 0.0:
            warnings.append("no bootstrap replicate exceeded the statistic: "
                            f"p < 1/{config.bootstrap_replicates}")
    return TestReport(
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
        sample_sizes={"x": x.n, "y": y.n},
        dim=x.d,
        rank_ties={"x": xs.ties, "y": ys.ties, "policy": "stable-ordinal"},
        seed=config.seed,
        bootstrap=bootstrap,
        warnings=warnings,
    )
