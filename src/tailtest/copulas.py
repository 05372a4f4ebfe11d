"""Exact samplers and tail quantities for the bivariate simulation models.

Three families on uniform margins, each with dependence parameter theta in
(0, 1]: the logistic (Gumbel) extreme-value copula, the outer power Clayton
copula, and an asymmetric logistic family with weights psi = (psi1, psi2).
All three are sampled exactly through a frailty construction built on one
positive-stable draw per pair. The logistic and outer power Clayton
families share the same tail limit, with extremal correlation 2 - 2^theta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NumericalError
from .margins import Sample
from .numerics import RngStream

FAMILIES = ("logistic", "outer_power_clayton", "asymmetric_logistic")


@dataclass(frozen=True)
class CopulaModel:
    """A copula family with dependence parameter theta and optional asymmetry."""

    family: str
    theta: float
    psi: Optional[tuple[float, float]] = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise DomainError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if not 0.0 < self.theta <= 1.0:
            raise DomainError(f"theta must lie in (0,1], got {self.theta}")
        if self.family == "asymmetric_logistic":
            if self.psi is None:
                raise DomainError("asymmetric_logistic needs asymmetry weights psi=(psi1, psi2)")
            psi = tuple(float(w) for w in self.psi)
            if len(psi) != 2 or any(not 0.0 < w <= 1.0 for w in psi):
                raise DomainError(f"psi weights must lie in (0,1]^2, got {self.psi}")
            object.__setattr__(self, "psi", psi)
        elif self.psi is not None:
            raise DomainError(f"psi weights only apply to asymmetric_logistic, got family {self.family!r}")


def copula_cdf(model: CopulaModel, u1, u2):
    """Closed-form copula CDF C(u1, u2) on uniform margins."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    th = model.theta
    with np.errstate(over="ignore"):
        if model.family == "logistic":
            s = (-np.log(u1)) ** (1.0 / th) + (-np.log(u2)) ** (1.0 / th)
            return np.exp(-(s ** th))
        if model.family == "outer_power_clayton":
            t = (1.0 / u1 - 1.0) ** (1.0 / th) + (1.0 / u2 - 1.0) ** (1.0 / th)
            return 1.0 / (t ** th + 1.0)
        psi1, psi2 = model.psi
        w1 = -np.log(u1)
        w2 = -np.log(u2)
        s = (psi1 * w1) ** (1.0 / th) + (psi2 * w2) ** (1.0 / th)
        return u1 ** (1.0 - psi1) * u2 ** (1.0 - psi2) * np.exp(-(s ** th))


def conditional_cdf(model: CopulaModel, u1, u2):
    """Conditional CDF of U2 given U1 = u1, i.e. dC/du1 evaluated at (u1, u2)."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    th = model.theta
    with np.errstate(over="ignore", invalid="ignore"):
        if model.family == "logistic":
            w1 = -np.log(u1)
            s = w1 ** (1.0 / th) + (-np.log(u2)) ** (1.0 / th)
            c = np.exp(-(s ** th))
            return c / u1 * w1 ** (1.0 / th - 1.0) * s ** (th - 1.0)
        if model.family == "outer_power_clayton":
            g1 = 1.0 / u1 - 1.0
            t = g1 ** (1.0 / th) + (1.0 / u2 - 1.0) ** (1.0 / th)
            c = 1.0 / (t ** th + 1.0)
            return c * c * t ** (th - 1.0) * g1 ** (1.0 / th - 1.0) / (u1 * u1)
        psi1, psi2 = model.psi
        w1 = -np.log(u1)
        w2 = -np.log(u2)
        s = (psi1 * w1) ** (1.0 / th) + (psi2 * w2) ** (1.0 / th)
        c = u1 ** (1.0 - psi1) * u2 ** (1.0 - psi2) * np.exp(-(s ** th))
        frailty_part = psi1 ** (1.0 / th) * w1 ** (1.0 / th - 1.0) * s ** (th - 1.0)
        return c / u1 * ((1.0 - psi1) + frailty_part)


def sample(model: CopulaModel, n: int, stream: RngStream) -> Sample:
    """n i.i.d. pairs with uniform margins and the model's copula.

    Every family starts from the logistic frailty draw L_j = exp(-(E_j/S)^theta)
    with S positive stable and E_1, E_2 unit exponential. The outer power
    Clayton copula has generator 1/(1 + t^theta), the Laplace transform of
    V = W^(1/theta) S with W unit exponential (Hofert, "Sampling Archimedean
    copulas", CSDA 2008), so U_j = 1/(1 + (E_j/V)^theta). The asymmetric
    logistic takes U_j = max(A_j^(1/(1-psi_j)), L_j^(1/psi_j)) with A_j
    uniform (Stephenson, "Simulating multivariate extreme value distributions
    of logistic type", Extremes 2003); psi_j = 1 gives U_j = L_j exactly.
    """
    if n < 1:
        raise DomainError(f"sample size must be >= 1, got {n}")
    th = model.theta
    s = np.atleast_1d(stream.positive_stable(th, n))
    e = stream.exponential((n, 2))
    if model.family == "outer_power_clayton":
        v = stream.exponential(n) ** (1.0 / th) * s
        u = 1.0 / (1.0 + (e / v[:, None]) ** th)
    else:
        u = np.exp(-((e / s[:, None]) ** th))
    if model.family == "asymmetric_logistic":
        psi = np.asarray(model.psi)
        a = stream.uniform((n, 2))
        with np.errstate(divide="ignore"):
            u = np.maximum(a ** (1.0 / (1.0 - psi)), u ** (1.0 / psi))
    u = np.clip(u, 1e-300, 1.0 - 1e-16)
    return Sample(u, "raw")


def theoretical_chi(model: CopulaModel) -> float:
    """Limiting extremal correlation of the family.

    Logistic and outer power Clayton share chi = 2 - 2^theta; the asymmetric
    family has chi = psi1 + psi2 - (psi1^(1/theta) + psi2^(1/theta))^theta.
    """
    th = model.theta
    if model.family in ("logistic", "outer_power_clayton"):
        return 2.0 - 2.0 ** th
    psi1, psi2 = model.psi
    return psi1 + psi2 - (psi1 ** (1.0 / th) + psi2 ** (1.0 / th)) ** th


def match_chi(target_chi: float, psi: tuple[float, float]) -> float:
    """Dependence parameter of the asymmetric logistic model with a target chi.

    chi(theta) decreases from min(psi) (theta -> 0) to 0 (theta = 1), so any
    target in (0, min(psi)) has a unique solution, found by bisection.
    """
    psi = tuple(float(w) for w in psi)
    upper = min(psi)
    if not 0.0 < target_chi < upper:
        raise DomainError(
            f"target chi {target_chi} is unattainable for psi={psi}; "
            f"the attainable range is (0, {upper})"
        )
    lo, hi = 1e-12, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        chi_mid = theoretical_chi(CopulaModel("asymmetric_logistic", mid, psi))
        if chi_mid > target_chi:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12:
            break
    theta = 0.5 * (lo + hi)
    achieved = theoretical_chi(CopulaModel("asymmetric_logistic", theta, psi))
    if abs(achieved - target_chi) > 1e-8:
        raise NumericalError(
            f"chi matching failed: wanted {target_chi}, reached {achieved} at theta={theta}"
        )
    return theta
