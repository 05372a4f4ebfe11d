"""The symmetrized multinomial KL statistic and the extremal correlation.

The statistic is the Jeffreys form sum_j (p_j - q_j)(log p_j - log q_j)
over the two samples' cell probabilities. Empty cells are handled by adding
1/2 to every count in both vectors and renormalizing (Haldane-Anscombe),
which keeps the statistic finite and vanishes at rate 1/k_n; whether the
correction fired is recorded on the result.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InsufficientTailError, ShapeError
from .margins import Sample
from .partitions import CellProbabilities

_Z_975 = 1.959963984540054  # standard normal 97.5% quantile


@dataclass(frozen=True)
class Divergence:
    """Value of the symmetrized KL statistic and its chi-squared-scale form."""

    value: float
    normalized: float  # k_n * value / 2
    num_cells: int
    zero_adjusted: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise DomainError(f"divergence must be non-negative, got {self.value}")


def symmetric_kl(p: np.ndarray, q: np.ndarray) -> float:
    """Population Jeffreys divergence of two probability vectors.

    Cells where both probabilities vanish contribute zero; a cell with
    exactly one vanishing probability makes the divergence infinite.
    """
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape or p.ndim != 1:
        raise ShapeError(f"probability vectors must be 1-D and matching, got {p.shape} vs {q.shape}")
    differ = p != q
    p, q = p[differ], q[differ]
    if (p == 0.0).any() or (q == 0.0).any():
        return float("inf")
    # A running sum from the left (np.sum would add the terms pairwise).
    return float(np.cumsum(np.append(0.0, (p - q) * (np.log(p) - np.log(q))))[-1])


def jeffreys(counts_p: np.ndarray, counts_q: np.ndarray, k_n: int) -> tuple[np.ndarray, np.ndarray]:
    """Jeffreys sums of two count arrays along the last axis, and whether the
    Haldane-Anscombe correction fired; leading axes are batch axes."""
    zero_adjusted = (counts_p == 0).any(axis=-1) | (counts_q == 0).any(axis=-1)
    shift = np.where(zero_adjusted, 0.5, 0.0)[..., None]
    denom = np.where(zero_adjusted, k_n + counts_p.shape[-1] / 2.0, k_n)[..., None]
    pv = (counts_p + shift) / denom
    qv = (counts_q + shift) / denom
    value = np.sum((pv - qv) * (np.log(pv) - np.log(qv)), axis=-1)
    return np.where(value < 0.0, 0.0, value), zero_adjusted


def kl_divergence(p: CellProbabilities, q: CellProbabilities) -> Divergence:
    """Empirical symmetrized KL divergence between two cell-count vectors."""
    if p.K != q.K:
        raise ShapeError(f"cell counts disagree: {p.K} vs {q.K}")
    if p.k_n != q.k_n:
        raise DomainError(f"exceedance counts disagree: {p.k_n} vs {q.k_n}")
    value, zero_adjusted = jeffreys(p.counts, q.counts, p.k_n)
    value = float(value)
    return Divergence(value, p.k_n * value / 2.0, p.K, bool(zero_adjusted))


@dataclass(frozen=True)
class ChiEstimate:
    """Empirical extremal correlation at a quantile level with a normal CI."""

    chi: float
    ci_low: float
    ci_high: float
    level: float
    num_conditioning: int


def extremal_correlation(sample: Sample, quantile_level: float) -> ChiEstimate:
    """chi_hat(v) = #{X1 > u, X2 > u} / #{X1 > u} with u = 1/(1-v)."""
    if sample.d != 2:
        raise DomainError(f"extremal correlation is bivariate, got d={sample.d}")
    if sample.margin_state not in ("pareto", "pseudo"):
        raise DomainError("extremal correlation needs a Pareto-scale sample")
    if not 0.0 < quantile_level < 1.0:
        raise DomainError(f"quantile level must lie in (0,1), got {quantile_level}")
    u = 1.0 / (1.0 - quantile_level)
    cond = sample.data[:, 0] > u
    m = int(cond.sum())
    if m < 10:
        raise InsufficientTailError(
            f"only {m} exceedances of coordinate 1 above u={u:.4g}; need at least 10"
        )
    joint = int((cond & (sample.data[:, 1] > u)).sum())
    chi = joint / m
    half = _Z_975 * np.sqrt(chi * (1.0 - chi) / m)
    return ChiEstimate(chi, max(0.0, chi - half), min(1.0, chi + half), quantile_level, m)


def d3_from_chi(chi_x: float, chi_y: float) -> float:
    """Max-risk (K = 3) divergence as a function of the two extremal correlations.

    The bivariate max-orthant cell probabilities are p1 = chi/(2-chi) and
    p2 = p3 = (1-chi)/(2-chi); the divergence is the Jeffreys form on those
    3-vectors.
    """
    for name, c in (("chi_x", chi_x), ("chi_y", chi_y)):
        if not 0.0 <= c < 1.0:
            raise DomainError(f"{name} must lie in [0,1), got {c}")
    p = _chi_to_cells(chi_x)
    q = _chi_to_cells(chi_y)
    return symmetric_kl(p, q)


def _chi_to_cells(chi: float) -> np.ndarray:
    joint = chi / (2.0 - chi)
    single = (1.0 - chi) / (2.0 - chi)
    return np.array([joint, single, single])
