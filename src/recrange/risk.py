"""Frequentist risk and Bayes risk of linear range-based estimators.

A linear rule m * r + d (r the record range from n records) has, under the
scale-invariant quadratic loss (est - delta)^2 / delta^2, the risk

    rho(delta) = [(m(n-1) - 1)^2 + m^2 (n-1)] + 2 d (m(n-1) - 1) / delta
                 + d^2 / delta^2,

which integrates against the inverted-gamma prior (shape a, scale b) via
E(1/delta) = a/b and E(1/delta^2) = a(a+1)/b^2. Rules with 0 <= m <= 1/n and
d > 0 are the ones covered by the admissibility theorem for this loss; the
boundary m = 1/n, d = b/n arises as the vague-prior limit a = 1/k, k -> inf.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .errors import DomainError
from .model import PriorParams

__all__ = [
    "LinearEstimator",
    "LossWeight",
    "AdmissibilityClass",
    "risk_linear",
    "bayes_risk_linear",
    "r1_r2_gap",
    "classify_admissible",
]

# relative slack when testing m against the theorem boundary 1/n; CLI floats
# cannot hit the measure-zero boundary exactly unless n is a power of two
_BOUNDARY_RTOL = 1e-12


class LossWeight(str, Enum):
    """Loss weighting: scaled divides the squared error by delta^2."""

    SCALED = "scaled"
    UNSCALED = "unscaled"

    def __str__(self) -> str:
        return self.value


class AdmissibilityClass(str, Enum):
    """Where a linear rule sits relative to the admissibility theorem."""

    ADMISSIBLE_INTERIOR = "admissible_interior"
    ADMISSIBLE_BOUNDARY = "admissible_boundary"
    OUTSIDE_THEOREM = "outside_theorem"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class LinearEstimator:
    """The rule delta_hat = m * r + d acting on the record range r."""

    m: float
    d: float

    def __post_init__(self):
        if not (math.isfinite(self.m) and math.isfinite(self.d)):
            raise DomainError(f"m and d must be finite, got {self.m!r}, {self.d!r}")


def _check_n(n: int) -> None:
    if n < 2:
        raise DomainError(f"linear range rules need n >= 2 records, got {n!r}")


def _bracket(est: LinearEstimator, n: int) -> tuple[float, float]:
    # delta-free part of the scaled risk and the recurring bias slope
    k = n - 1
    slope = est.m * k - 1.0
    return slope * slope + est.m * est.m * k, slope


def risk_linear(
    est: LinearEstimator,
    delta: float,
    n: int,
    loss: LossWeight = LossWeight.SCALED,
) -> float:
    """Risk of m*r + d at a fixed true scale, under either loss weighting."""
    _check_n(n)
    if not (math.isfinite(delta) and delta > 0.0):
        raise DomainError(f"true scale delta must be positive, got {delta!r}")
    loss = LossWeight(loss)
    bracket, slope = _bracket(est, n)
    q = est.d / delta  # formed before squaring, so a tiny delta overflows to inf
    scaled = bracket + 2.0 * slope * q + q * q
    if loss is LossWeight.SCALED:
        return scaled
    return scaled * delta * delta


def bayes_risk_linear(
    est: LinearEstimator,
    n: int,
    prior: PriorParams,
    loss: LossWeight = LossWeight.SCALED,
) -> float:
    """Prior-integrated risk of m*r + d.

    The scaled loss needs the inverse moments E(1/delta) = a/b and
    E(1/delta^2) = a(a+1)/b^2, so b must be positive; the unscaled loss
    instead needs E(delta) and E(delta^2), hence a > 2.
    """
    _check_n(n)
    loss = LossWeight(loss)
    a, b = prior.a, prior.b
    if b == 0.0:
        raise DomainError("Bayes risk needs a proper prior scale b > 0")
    bracket, slope = _bracket(est, n)
    if loss is LossWeight.SCALED:
        inv_mean = a / b
        inv_sq = inv_mean * (a + 1.0) / b  # not b * b, which underflows to 0
        return bracket + 2.0 * est.d * slope * inv_mean + est.d * est.d * inv_sq
    if a <= 2.0:
        raise DomainError(
            f"unscaled Bayes risk needs prior shape a > 2, got {a!r}"
        )
    mean = b / (a - 1.0)
    sq = b * b / ((a - 1.0) * (a - 2.0))
    return bracket * sq + 2.0 * est.d * slope * mean + est.d * est.d


def r1_r2_gap(k: float, n: int, b: float) -> float:
    """Bayes-risk gap r1(k) - r2(k) along the vague-prior path a = 1/k.

    r1 is the Bayes rule for the prior (a = 1/k, b), a linear rule with
    m = k/(1 + kn) and d = kb/(1 + kn); r2 is the boundary rule m = d = 1/n
    evaluated directly from its closed form

        r2 = 1/n - 2/(b n^2 k) + (k + 1)/(n^2 k^2 b^2).

    The two code paths are deliberately distinct so they can cross-check
    each other. The gap is negative and k * gap tends to -(b-1)^2/(b n)^2.
    """
    if not (math.isfinite(k) and k > 0.0):
        raise DomainError(f"path parameter k must be positive, got {k!r}")
    _check_n(n)
    if not (math.isfinite(b) and b > 0.0):
        raise DomainError(f"prior scale b must be positive, got {b!r}")
    rule = LinearEstimator(m=k / (1.0 + k * n), d=k * b / (1.0 + k * n))
    r1 = bayes_risk_linear(rule, n, PriorParams(a=1.0 / k, b=b))
    c = 1.0 / b / (n * k)  # 1/(b n k), squared below: overflows, never divides by 0
    r2 = 1.0 / n - 2.0 * c / n + (k + 1.0) * c * c
    return r1 - r2


def classify_admissible(est: LinearEstimator, n: int) -> AdmissibilityClass:
    """Placement of m*r + d relative to the admissibility theorem.

    Interior: 0 <= m < 1/n with d > 0. Boundary: m = 1/n (to relative
    tolerance) with d > 0. Everything else falls outside the theorem's
    reach; outside does not mean inadmissible, only unclassified.
    """
    _check_n(n)
    if est.d <= 0.0:
        return AdmissibilityClass.OUTSIDE_THEOREM
    boundary = 1.0 / n
    if math.isclose(est.m, boundary, rel_tol=_BOUNDARY_RTOL):
        return AdmissibilityClass.ADMISSIBLE_BOUNDARY
    if 0.0 <= est.m < boundary:
        return AdmissibilityClass.ADMISSIBLE_INTERIOR
    return AdmissibilityClass.OUTSIDE_THEOREM
