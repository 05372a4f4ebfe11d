"""Homogeneous risk functionals and partitions of the exceedance region.

A partition splits the unit exceedance region {x : r(x) > 1} into K cells.
Three schemes are provided: the max-orthant partition (2^d - 1 cells indexed
by the set of coordinates above 1), the min-orthant partition (2^d cells
indexed by the set of coordinates above 2), and bivariate angular wedges for
the euclidean and sum risks. Orthant cells are inflation-stable, angular
cells are cones, so classification of a threshold exceedance x only needs
the rescaled point x/u.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import DomainError, ShapeError
from .margins import Sample

RISK_KINDS = ("max", "min", "euclidean", "sum")
SCHEMES = ("max-orthant", "min-orthant", "angular")


@dataclass(frozen=True)
class RiskFunctional:
    """A 1-homogeneous risk map from the positive orthant to the half-line."""

    kind: str

    def __post_init__(self):
        if self.kind not in RISK_KINDS:
            raise DomainError(f"risk kind must be one of {RISK_KINDS}, got {self.kind!r}")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """Risk of each point along the last axis; any leading axes are batch axes."""
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        # Combine one coordinate at a time: numpy reduces a short last axis slowly.
        coords = np.moveaxis(pts, -1, 0)
        if self.kind == "max":
            vals = functools.reduce(np.maximum, coords)
        elif self.kind == "min":
            vals = functools.reduce(np.minimum, coords)
        elif self.kind == "euclidean":
            vals = np.sqrt(functools.reduce(np.add, coords * coords))
        else:
            vals = functools.reduce(np.add, np.abs(coords))
        return vals if np.asarray(x).ndim >= 2 else float(vals[0])


@dataclass(frozen=True)
class Partition:
    """K disjoint cells covering the exceedance region of a risk functional.

    ``classify`` expects points already rescaled by the threshold (x/u),
    coordinates along the last axis, and returns 1-based cell indices.
    Points on the boundary r(x/u) = 1 can be handed in when threshold ties
    occur; the max-orthant scheme then falls back to non-strict comparisons
    so every selected exceedance lands in exactly one cell.
    """

    risk: RiskFunctional
    num_cells: int
    scheme: str
    dim: Optional[int] = None            # orthant schemes
    angles: Optional[tuple[float, ...]] = None  # angular scheme

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise DomainError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if self.num_cells < 2:
            raise DomainError(f"a partition needs at least 2 cells, got {self.num_cells}")

    def classify(self, x: np.ndarray):
        pts = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if self.scheme == "angular":
            if pts.shape[-1] != 2:
                raise DomainError("angular partitions are bivariate")
            ang = np.arctan2(pts[..., 1], pts[..., 0])
            interior = np.asarray(self.angles[1:-1])
            idx = np.searchsorted(interior, ang, side="left") + 1
        elif self.scheme == "max-orthant":
            if pts.shape[-1] != self.dim:
                raise ShapeError(f"expected dimension {self.dim}, got {pts.shape[-1]}")
            weights = 1 << np.arange(self.dim)
            idx = (pts > 1.0) @ weights
            on_boundary = idx == 0
            if np.any(on_boundary):
                relaxed = (pts[on_boundary] >= 1.0) @ weights
                if np.any(relaxed == 0):
                    raise DomainError("point below the exceedance region cannot be classified")
                idx = idx.copy()
                idx[on_boundary] = relaxed
        else:
            if pts.shape[-1] != self.dim:
                raise ShapeError(f"expected dimension {self.dim}, got {pts.shape[-1]}")
            weights = 1 << np.arange(self.dim)
            idx = (pts > 2.0) @ weights + 1
        idx = idx.astype(np.int64)
        return idx if np.asarray(x).ndim >= 2 else int(idx[0])

    @property
    def cell_labels(self) -> list[str]:
        if self.scheme == "angular":
            return [f"({self.angles[j - 1]:.4f},{self.angles[j]:.4f}]" for j in range(1, self.num_cells + 1)]
        labels = []
        codes = range(1, 2 ** self.dim) if self.scheme == "max-orthant" else range(2 ** self.dim)
        for code in codes:
            members = [str(j + 1) for j in range(self.dim) if code >> j & 1]
            labels.append("{" + ",".join(members) + "}")
        return labels


def make_max_partition(d: int) -> Partition:
    """Cells indexed by the non-empty set {j : x_j > 1}; K = 2^d - 1."""
    if d < 2:
        raise DomainError(f"max-orthant partition needs dimension >= 2, got {d}")
    return Partition(RiskFunctional("max"), 2 ** d - 1, "max-orthant", dim=d)


def make_min_partition(d: int) -> Partition:
    """Cells indexed by the (possibly empty) set {j : x_j > 2}; K = 2^d."""
    if d < 2:
        raise DomainError(f"min-orthant partition needs dimension >= 2, got {d}")
    return Partition(RiskFunctional("min"), 2 ** d, "min-orthant", dim=d)


def make_angular_partition(risk: str = "euclidean", num_cells: int = 4,
                           angles: Optional[list[float]] = None) -> Partition:
    """Bivariate wedges (theta_{j-1}, theta_j] between 0 and pi/2.

    Equally spaced angles by default; a custom strictly increasing angle
    vector spanning [0, pi/2] may be supplied instead. Points on the x1-axis
    (angle 0) belong to cell 1.
    """
    if risk not in ("euclidean", "sum"):
        raise DomainError(f"angular partitions support euclidean or sum risk, got {risk!r}")
    if num_cells < 2:
        raise DomainError(f"angular partition needs at least 2 cells, got {num_cells}")
    if angles is None:
        bounds = tuple((math.pi / 2.0) * j / num_cells for j in range(num_cells + 1))
    else:
        bounds = tuple(float(a) for a in angles)
        if len(bounds) != num_cells + 1:
            raise DomainError(f"need {num_cells + 1} angles for {num_cells} cells, got {len(bounds)}")
        if abs(bounds[0]) > 1e-12 or abs(bounds[-1] - math.pi / 2.0) > 1e-12:
            raise DomainError("angles must span [0, pi/2]")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise DomainError("angles must be strictly increasing")
    return Partition(RiskFunctional(risk), num_cells, "angular", dim=2, angles=bounds)


@dataclass(frozen=True)
class CellProbabilities:
    """Empirical cell frequencies of the k_n risk exceedances of one sample."""

    counts: np.ndarray
    k_n: int
    threshold: float

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        if counts.ndim != 1:
            raise ShapeError("counts must be a 1-D array")
        if int(counts.sum()) != self.k_n:
            raise DomainError(f"cell counts sum to {counts.sum()}, expected k_n={self.k_n}")
        object.__setattr__(self, "counts", counts)

    @property
    def probs(self) -> np.ndarray:
        return self.counts / self.k_n

    @property
    def K(self) -> int:
        return self.counts.shape[0]

    @classmethod
    def from_counts(cls, counts, threshold: float = math.nan) -> "CellProbabilities":
        counts = np.asarray(counts, dtype=np.int64)
        k_n = int(counts.sum())
        if k_n < 1:
            raise DomainError("counts must sum to a positive exceedance number")
        return cls(counts, k_n, threshold)


def top_k(r_vals: np.ndarray, k_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Threshold and mask of the top-k_n risk values along the last axis.

    The selection is that of a stable ascending sort: the threshold is the
    (n-k_n)-th order statistic, every value above it is kept, and the rest
    of the k_n are the threshold ties at the last positions. So ties at the
    threshold never change the exceedance count.
    """
    n = r_vals.shape[-1]
    threshold = np.partition(r_vals, n - k_n - 1, axis=-1)[..., n - k_n - 1]
    above = r_vals > threshold[..., None]
    spare = k_n - above.sum(axis=-1, keepdims=True)
    if not spare.any():
        # No threshold tie is selected in any lane: the top k_n are the values above.
        return threshold, above
    tied = r_vals == threshold[..., None]
    tied_from_end = np.cumsum(tied[..., ::-1], axis=-1)[..., ::-1]
    return threshold, above | (tied & (tied_from_end <= spare))


def cell_histogram(cells: np.ndarray, num_cells: int) -> np.ndarray:
    """Counts (..., num_cells) of the 1-based cell indices along the last axis
    of ``cells``, with one ``bincount`` for the whole batch."""
    width = num_cells + 1
    rows = cells.reshape(-1, cells.shape[-1])
    rows = rows + width * np.arange(rows.shape[0])[:, None]
    counts = np.bincount(rows.ravel(), minlength=rows.shape[0] * width)
    return counts.reshape(cells.shape[:-1] + (width,))[..., 1:]


def scaled_exceedances(data: np.ndarray, keys: Iterable[tuple[RiskFunctional, int]]) -> dict:
    """Threshold and threshold-rescaled top-k_n exceedances (see ``top_k``) of
    points (..., n, d) for each ``(risk, k_n)`` key, as shapes (...,) and
    (..., k_n, d); leading axes are batch axes.

    Risk values are computed once per risk kind. Exceedances are nested: ``top_k``
    runs on all n points only for a kind's largest k_n, and each smaller k_n
    is selected from the previous selection, which keeps row order. Under the
    stable-sort rule that gives the same threshold and the same points, ties
    included, as selecting from all n points.
    """
    by_risk: dict = {}
    for risk, k_n in keys:
        by_risk.setdefault(risk, set()).add(k_n)
    scaled = {}
    for risk, k_set in by_risk.items():
        points, r_vals = data, risk(data)
        k_desc = sorted(k_set, reverse=True)
        for i, k_n in enumerate(k_desc):
            threshold, mask = top_k(r_vals, k_n)
            points = points[mask].reshape(mask.shape[:-1] + (k_n, data.shape[-1]))
            if i + 1 < len(k_desc):
                r_vals = r_vals[mask].reshape(mask.shape[:-1] + (k_n,))
            scaled[risk, k_n] = threshold, points / threshold[..., None, None]
    return scaled


def cell_counts(data: np.ndarray, targets: Sequence[tuple[Partition, int]]
                ) -> list[tuple[np.ndarray, np.ndarray]]:
    """Threshold and cell counts of the top-k_n risk exceedances (see ``top_k``)
    of points (..., n, d) for each ``(partition, k_n)`` target; leading axes
    are batch axes, counts have shape (..., K). One ``scaled_exceedances`` pass
    serves all targets; only classification and counting are per target."""
    scaled = scaled_exceedances(data, [(part.risk, k_n) for part, k_n in targets])
    results = []
    for part, k_n in targets:
        threshold, points = scaled[part.risk, k_n]
        results.append((threshold, cell_histogram(part.classify(points), part.num_cells)))
    return results


def count_cells(sample: Sample, targets: Sequence[tuple[Partition, int]]
                ) -> list[CellProbabilities]:
    """Empirical cell probabilities of the top-k_n risk exceedances (see ``top_k``)
    of ``sample`` for each ``(partition, k_n)`` target.

    Every target's k_n is checked before anything is counted; then one
    ``cell_counts`` pass serves all targets, so risk values are computed once
    per risk kind and the rescaled exceedances once per (risk kind, k_n), each
    k_n nested in the next larger one. Each result equals that of its target
    counted alone."""
    if sample.margin_state not in ("pareto", "pseudo"):
        raise DomainError(f"count_cells needs a standardized sample, got state {sample.margin_state!r}")
    n = sample.n
    for _, k_n in targets:
        if not 1 <= k_n < n:
            raise DomainError(f"need 1 <= k_n < n, got k_n={k_n}, n={n}")
    return [CellProbabilities(counts, k_n, float(threshold))
            for (threshold, counts), (_, k_n) in zip(cell_counts(sample.data, targets), targets)]
