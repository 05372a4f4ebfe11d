"""Marginal standardization to the common Pareto scale.

Two routes exist: the exact transform ``1/(1 - F_j(x))`` when the marginal
CDFs are known, and rank-based pseudo-observations ``(n+1)/(n+1-rank)``
otherwise. Both leave the copula untouched, so downstream cell counts only
see the dependence structure. ``standardize`` picks the route for a margin
mode and is the one entry point of the test, the studies and the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import (ConfigError, DegenerateMarginError, DomainError, InsufficientDataError,
                     ShapeError)

MARGIN_STATES = ("raw", "pareto", "pseudo")

# A marginal CDF is any callable mapping an array of reals to values in [0, 1).
MarginalCdf = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class Sample:
    """An n x d data matrix with a declared marginal state.

    ``ties`` counts entries that shared a column value with another row when
    pseudo-observations were formed (ties are broken by row order).
    """

    data: np.ndarray
    margin_state: str = "raw"
    ties: int = 0

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeError(f"sample data must be 2-D (n x d), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ShapeError(f"sample must be non-empty, got shape {arr.shape}")
        if self.margin_state not in MARGIN_STATES:
            raise DomainError(f"margin_state must be one of {MARGIN_STATES}, got {self.margin_state!r}")
        finite = np.isfinite(arr)
        if not finite.all():
            row, col = np.argwhere(~finite)[0]
            raise DomainError(f"sample entries must be finite, got {arr[row, col]} "
                              f"at row {row}, column {col}")
        if self.margin_state in ("pareto", "pseudo") and arr.min() < 1.0:
            raise DomainError(f"{self.margin_state} samples must have all entries >= 1")
        object.__setattr__(self, "data", arr)

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


def to_pareto(raw: Sample, cdfs: Sequence[MarginalCdf]) -> Sample:
    """Exact standardization x -> 1/(1 - F_j(x)) using known marginal CDFs."""
    if raw.margin_state != "raw":
        raise DomainError(f"to_pareto expects a raw sample, got state {raw.margin_state!r}")
    if len(cdfs) != raw.d:
        raise ShapeError(f"need {raw.d} marginal CDFs, got {len(cdfs)}")
    out = np.empty_like(raw.data)
    for j, cdf in enumerate(cdfs):
        f = np.asarray(cdf(raw.data[:, j]), dtype=np.float64)
        if f.shape != (raw.n,):
            raise ShapeError(f"marginal CDF {j} returned shape {f.shape}, expected ({raw.n},)")
        bad = ~((f >= 0.0) & (f <= 1.0)) | np.isnan(f)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise DomainError(
                f"marginal CDF {j} returned an invalid probability {f[row]} at row {row}"
            )
        hit_one = f >= 1.0
        if hit_one.any():
            row = int(np.flatnonzero(hit_one)[0])
            raise DegenerateMarginError(coordinate=j, row=row)
        out[:, j] = _pareto(f)
    return Sample(out, "pareto")


def _pareto(f: np.ndarray) -> np.ndarray:
    """Unit-Pareto value 1/(1 - f) of each CDF value in ``f``."""
    return 1.0 / (1.0 - f)


def _ordinal_ranks(values: np.ndarray, axis: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Stable ordinal ranks 1..n along ``axis`` (ties broken by position) and
    the mask of entries whose value occurs more than once in their lane.

    Each lane takes one default, unstable argsort: without ties every sort
    order gives the same ranks. Ties are read off the sorted values, and the
    lanes that hold one are repaired by sorting them again with
    ``kind="stable"``, so the ranks equal those of a stable sort of every lane
    bit for bit. Values must not be NaN, which never compares equal to itself.
    """
    lanes = np.ascontiguousarray(np.moveaxis(values, axis, -1))
    n = lanes.shape[-1]
    starts = n * np.arange(lanes.size // n).reshape(lanes.shape[:-1] + (1,))
    flat = np.argsort(lanes, axis=-1)
    flat += starts                          # positions in the flattened lanes
    ordered = lanes.take(flat)
    same = ordered[..., 1:] == ordered[..., :-1]
    tied_lanes = same.any(axis=-1)
    tied = np.zeros(lanes.size, dtype=bool)
    if tied_lanes.any():
        stable = np.argsort(lanes[tied_lanes], axis=-1, kind="stable")
        flat[tied_lanes] = stable + starts[tied_lanes]
        # A sorted value is tied if it equals either neighbour.
        run = np.zeros(lanes.shape, dtype=bool)
        run[..., 1:] = same
        run[..., :-1] |= same
        tied[flat[run]] = True
    ranks = np.empty(lanes.size, dtype=np.int64)
    ranks[flat] = np.arange(1, n + 1)
    return (np.moveaxis(ranks.reshape(lanes.shape), -1, axis),
            np.moveaxis(tied.reshape(lanes.shape), -1, axis))


def to_pseudo(raw: Sample) -> Sample:
    """Rank-based standardization to (n+1)/(n+1-rank) per column."""
    if raw.margin_state != "raw":
        raise DomainError(f"to_pseudo expects a raw sample, got state {raw.margin_state!r}")
    data, ties = _rank_transform(raw.data)
    return Sample(data, "pseudo", ties=ties)


def pseudo_scale(m: int) -> np.ndarray:
    """Pseudo-observation (m+1)/(m+1-r) of rank r among m rows, for r = 0..m."""
    return (m + 1.0) / (m + 1.0 - np.arange(m + 1))


def _pseudo(data: np.ndarray) -> np.ndarray:
    """Pseudo-observations of each column of ``data`` (..., n, d), ranked
    along the rows; leading axes are batch axes."""
    return pseudo_scale(data.shape[-2])[_ordinal_ranks(data, axis=-2)[0]]


def _rank_transform(data: np.ndarray) -> tuple[np.ndarray, int]:
    """Rank transform of a matrix of at least two rows and its number of tied
    entries; re-ranking already-standardized data equals ranking the raw data."""
    if data.shape[0] < 2:
        raise InsufficientDataError(f"pseudo-observations need n >= 2, got n={data.shape[0]}")
    ranks, tied = _ordinal_ranks(data)
    # Row-major like the input; the gather alone is column-major, which the
    # studies read slightly slower.
    return np.ascontiguousarray(pseudo_scale(data.shape[0])[ranks]), int(tied.sum())


def standardize(sample: Sample, margins: str,
                cdfs: Optional[Sequence[MarginalCdf]] = None) -> Sample:
    """``sample`` on the Pareto scale of margin mode ``margins``: through the
    marginal ``cdfs`` for "known" (read only for raw samples), as
    pseudo-observations for "empirical". Empirical mode ranks every input of
    at least two rows, pseudo-observations included, with ties broken by row
    order; ``ties`` adds the ties of this ranking to those the sample
    already counted."""
    if margins == "known":
        if sample.margin_state == "pseudo":
            raise ConfigError("known-margin mode needs raw or Pareto-scale data; "
                              "pseudo-observations need empirical margins")
        if sample.margin_state == "raw":
            if cdfs is None:
                raise ConfigError("known-margin mode on raw data needs marginal CDFs")
            return to_pareto(sample, cdfs)
        return sample
    if sample.margin_state == "raw":
        return to_pseudo(sample)
    # Pareto or pseudo in: re-rank, ties by row order. Ranks are invariant to
    # a monotone transform, so this equals ranking the raw data, and
    # re-ranking untied pseudo-observations returns them bit for bit.
    data, ties = _rank_transform(sample.data)
    return Sample(data, "pseudo", ties=sample.ties + ties)


# Parametric stubs exposed on the CLI for known-margin round trips.

def uniform_cdf(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def unit_pareto_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 1.0, 0.0, 1.0 - 1.0 / x)


def unit_exponential_cdf(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.where(x < 0.0, 0.0, -np.expm1(-x))


KNOWN_CDF_STUBS: dict[str, MarginalCdf] = {
    "uniform": uniform_cdf,
    "pareto": unit_pareto_cdf,
    "exponential": unit_exponential_cdf,
}
