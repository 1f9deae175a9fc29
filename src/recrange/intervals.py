"""Credible intervals for the exponential scale.

Three constructions on the inverted-gamma posterior (shape s, scale A):

* equal tails, via the pivot 2A/delta ~ chi-square with 2s dof;
* the exact highest-posterior-density (HPD) interval, the root of one
  equation in one variable (see below);
* a closed-form approximation that maps a target length g directly to an
  interval [c(g), c(g) + g] with

      c(g) = (A + 2 (a+n) g + sqrt(A^2 + 8 A (a+n) g)) / (2 (a+n)),

  either evaluated at a supplied g or calibrated so its posterior coverage
  hits a requested level.

interval(kind, post, alpha) selects a construction by IntervalKind; its
hpd_hpm is the closed form at g = the exact-HPD length at the same alpha.

The HPD endpoints c_L < c_H have equal density and cover 1 - alpha. Write
L = ln(c_H / c_L) > 0. Equal density, (a+n) L = A (1/c_L - 1/c_H), then
gives both endpoints in closed form,

    c_L = A (1 - e^-L) / ((a+n) L),    c_H = c_L e^L,

and with u = A/delta the coverage is C(L) = P(s, u_hi) - P(s, u_lo), where
u_hi = (a+n) L / (1 - e^-L) and u_lo = (a+n) L / (e^L - 1). C increases
from 0 to 1 in L, so the exact solver is a single bracketed Newton root of
C(L) = 1 - alpha (Chen & Shao 1999 discuss HPD computation in general).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist
from typing import Sequence

from .errors import BracketFailureError, ConvergenceError, DomainError
from .model import (
    PosteriorParams,
    posterior_coverage,
    posterior_mode,
    posterior_pdf,
)
from .specfun import _chi2_isf, chi2_quantile, reg_lower_gamma

__all__ = [
    "IntervalKind",
    "CredibleInterval",
    "interval",
    "equal_tails",
    "hpd_exact",
    "hpd_hpm_closed_form",
    "hpd_hpm_calibrated",
    "length_of_alpha",
]

# coverage target of the exact solver; chosen well inside the 1e-9 accuracy
# contract so rounding noise never flips a test
_COVERAGE_RTOL = 1e-12
# largest ln(c_H / c_L) tried: A / c_H = (a+n) L e^-L / (1 - e^-L) stays a
# normal float there, so both endpoints stay finite
_L_MAX = 600.0
# backstop only: bracketed Newton converges in a handful of steps
_MAX_STEPS = 100

_STD_NORMAL = NormalDist()


class IntervalKind(str, Enum):
    """Interval construction identifiers."""

    EQUAL_TAILS = "equal_tails"
    HPD_EXACT = "hpd_exact"
    HPD_HPM = "hpd_hpm"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True, slots=True)
class CredibleInterval:
    """A posterior interval with its achieved coverage and solver residuals.

    level is the posterior probability actually covered, which for the
    closed-form approximation can differ from any requested value; level 0
    is allowed because a zero-length interval covers nothing.
    """

    lower: float
    upper: float
    level: float
    kind: IntervalKind
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.lower) and self.lower > 0.0):
            raise DomainError(f"lower endpoint must be positive, got {self.lower!r}")
        if not (math.isfinite(self.upper) and self.upper >= self.lower):
            raise DomainError(
                f"upper endpoint must be finite and >= lower, got {self.upper!r}"
            )
        if not 0.0 <= self.level < 1.0:
            raise DomainError(f"level must lie in [0, 1), got {self.level!r}")

    @property
    def length(self) -> float:
        return self.upper - self.lower


def _check_alpha(alpha: float) -> None:
    # the one alpha check of the package; nan fails every comparison
    if not (0.0 < alpha < 1.0 and 1.0 - alpha < 1.0):
        raise DomainError(
            "alpha must lie in (0, 1) and exceed 2**-54, below which 1 - alpha "
            f"rounds to 1, got {alpha!r}"
        )


def equal_tails(post: PosteriorParams, alpha: float) -> CredibleInterval:
    """Equal-tails interval [2A/q(1 - alpha/2), 2A/q(alpha/2)] on 2s dof.

    The pivot 2A/delta is chi-square with 2s degrees of freedom, so the
    upper chi-square quantile maps to the lower delta endpoint and vice
    versa. The coverage P(s, q_hi/2) - P(s, q_lo/2) does not depend on A,
    so the quantile pair and the coverage residual are cached per (s, alpha).
    """
    _check_alpha(alpha)
    lower, upper, residual = _equal_tails_endpoints(post.s, post.A, alpha)
    return CredibleInterval(
        lower=lower,
        upper=upper,
        level=1.0 - alpha,
        kind=IntervalKind.EQUAL_TAILS,
        diagnostics={"coverage_residual": residual},
    )


@functools.lru_cache(maxsize=1024)
def _equal_tails_pivots(s: float, alpha: float) -> tuple[float, float, float]:
    # chi-square quantiles at alpha/2 and 1 - alpha/2 on 2s dof, and the
    # coverage residual of the equal-tails interval they span
    nu = 2.0 * s
    q_lo = chi2_quantile(0.5 * alpha, nu)
    q_hi = _chi2_isf(0.5 * alpha, nu)
    cover = reg_lower_gamma(s, 0.5 * q_hi) - reg_lower_gamma(s, 0.5 * q_lo)
    return q_lo, q_hi, cover - (1.0 - alpha)


def _equal_tails_endpoints(s: float, A, alpha: float):
    # (2A/q_hi, 2A/q_lo, coverage residual); A may be an ndarray of scales
    q_lo, q_hi, residual = _equal_tails_pivots(s, alpha)
    return 2.0 * A / q_hi, 2.0 * A / q_lo, residual


def _log_ratio_guess(s: float, alpha: float) -> float:
    """Closed-form start for L = ln(c_H / c_L).

    The Wilson-Hilferty log ratio of the equal-tails endpoints; when its
    lower chi-square quantile collapses (small s or alpha), the tail form
    that puts all of alpha above c_H, where P(s, u) ~ u^s / Gamma(s + 1).
    """
    # the normal quantile at 1 - alpha/2, mirrored once that level rounds to 1
    p = 1.0 - 0.5 * alpha
    z = _STD_NORMAL.inv_cdf(p) if p < 1.0 else -_STD_NORMAL.inv_cdf(0.5 * alpha)
    c = 1.0 / (9.0 * s)
    base_hi = 1.0 - c + z * math.sqrt(c)
    base_lo = 1.0 - c - z * math.sqrt(c)
    if base_lo > 0.0:
        return 3.0 * math.log(base_hi / base_lo)
    x = math.log(s + 1.0) - (math.log(alpha) + math.lgamma(s + 1.0)) / s
    return x + math.log(max(x, 1.0))


def hpd_exact(post: PosteriorParams, alpha: float) -> CredibleInterval:
    """Exact HPD interval as one safeguarded Newton root in L = ln(c_H/c_L).

    Equal density fixes both endpoints for each L > 0 (module docstring),
    so only the coverage C(L) = P(s, u_hi) - P(s, u_lo) = 1 - alpha is
    solved. C rises from 0 to 1 and C'(L) is two gamma densities times
    closed-form du/dL, so each step costs one posterior_coverage call. Steps
    that leave the sign-change bracket, or do not shrink fast enough, fall
    back to bisection, so the last-bit jitter of the incomplete gamma cannot
    stall the solve. It stops when |C - (1 - alpha)| <= 1e-12 or when the
    bracket collapses. outer_iterations counts the steps, the starting guess
    included; each is one coverage evaluation.
    """
    _check_alpha(alpha)
    target = 1.0 - alpha
    s, A, apn = post.s, post.A, post.a_plus_n
    ln_gamma_s = math.lgamma(s)

    def u_mass(u: float) -> float:
        # u times the Gamma(s, 1) density at u, i.e. d P(s, u) / d ln u
        return math.exp(s * math.log(u) - u - ln_gamma_s)

    lo, hi = 0.0, _L_MAX  # C(lo) < target; C(hi) >= target once reached
    reached = False
    L = min(max(_log_ratio_guess(s, alpha), 1e-8), _L_MAX)
    step_old = hi - lo
    iterations = 0
    while True:
        iterations += 1
        one_minus = -math.expm1(-L)
        u_hi = apn * L / one_minus  # A / c_L
        u_lo = u_hi * math.exp(-L)  # A / c_H
        residual = posterior_coverage(A / u_hi, A / u_lo, post) - target
        if abs(residual) <= _COVERAGE_RTOL:
            break
        if residual < 0.0:
            lo = L
        else:
            hi, reached = L, True
        if hi - lo <= 1e-15 * hi or iterations >= _MAX_STEPS:
            break
        slope = u_mass(u_hi) * (1.0 / L - 1.0 / math.expm1(L)) + u_mass(u_lo) * (
            1.0 / one_minus - 1.0 / L
        )
        step = L - residual / slope if slope > 0.0 else math.nan
        if not lo < step < hi or abs(2.0 * residual) > abs(step_old * slope):
            step = 0.5 * (lo + hi)
        step_old = step - L
        L = step

    if abs(residual) > _COVERAGE_RTOL and not reached:
        raise ConvergenceError(
            f"could not reach coverage {target} with c_H / c_L up to e^{_L_MAX:g}"
        )
    c_lo, c_hi = A / u_hi, A / u_lo
    pdf_lo = posterior_pdf(c_lo, post)
    pdf_hi = posterior_pdf(c_hi, post)
    pdf_mode = posterior_pdf(posterior_mode(post), post)
    return CredibleInterval(
        lower=c_lo,
        upper=c_hi,
        level=1.0 - alpha,
        kind=IntervalKind.HPD_EXACT,
        diagnostics={
            "coverage_residual": residual,
            "equal_density_residual": abs(pdf_lo - pdf_hi) / pdf_mode,
            "outer_iterations": iterations,
        },
    )


def hpd_hpm_closed_form(post: PosteriorParams, g: float) -> CredibleInterval:
    """Closed-form interval of prescribed length g.

    Returns [c(g), c(g) + g] with the quadratic-root lower endpoint given in
    the module docstring. At g = 0 it degenerates to the posterior mode. The
    level reported is the actual posterior coverage of the interval; the
    equal-density residual in the diagnostics measures how far the pair is
    from a true HPD configuration.
    """
    if math.isnan(g) or g < 0.0 or math.isinf(g):
        raise DomainError(f"length g must be finite and nonnegative, got {g!r}")
    A, apn = post.A, post.a_plus_n
    lower = (A + 2.0 * apn * g + math.sqrt(A * A + 8.0 * A * apn * g)) / (2.0 * apn)
    upper = lower + g
    cover = posterior_coverage(lower, upper, post)
    pdf_mode = posterior_pdf(posterior_mode(post), post)
    residual = abs(posterior_pdf(lower, post) - posterior_pdf(upper, post)) / pdf_mode
    return CredibleInterval(
        lower=lower,
        upper=upper,
        level=cover,
        kind=IntervalKind.HPD_HPM,
        diagnostics={"equal_density_residual": residual, "g": g},
    )


def hpd_hpm_calibrated(post: PosteriorParams, alpha: float) -> CredibleInterval:
    """Closed-form interval with g calibrated so coverage hits 1 - alpha.

    The coverage of the closed-form family rises from 0 at g = 0, peaks,
    and falls back toward 0, so a requested level above the peak does not
    exist. The doubling search raises a bracket failure as soon as coverage
    starts decreasing while still short of the target (or after 60
    doublings), reporting the best coverage seen.
    """
    _check_alpha(alpha)
    target = 1.0 - alpha

    def coverage_of(g: float) -> float:
        return hpd_hpm_closed_form(post, g).level

    g_lo, g_hi = 0.0, posterior_mode(post) * 0.1
    best = 0.0
    for _ in range(60):
        cov = coverage_of(g_hi)
        if cov >= target:
            break
        if cov < best - 1e-12:
            raise BracketFailureError(
                f"closed-form coverage peaks near {best:.6f}, below the "
                f"requested {target:.6f}"
            )
        best = max(best, cov)
        g_lo = g_hi
        g_hi *= 2.0
    else:
        raise BracketFailureError(
            f"requested coverage {target:.6f} not reached after 60 doublings "
            f"(best {best:.6f})"
        )

    g = g_hi
    cov = coverage_of(g)
    for _ in range(200):
        if abs(cov - target) <= 1e-10:
            break
        mid = 0.5 * (g_lo + g_hi)
        cov_mid = coverage_of(mid)
        if cov_mid >= target:
            g_hi = mid
        else:
            g_lo = mid
        if abs(cov_mid - target) < abs(cov - target):
            g, cov = mid, cov_mid
        if g_hi - g_lo <= 1e-16 * max(1.0, g_hi):
            break

    interval = hpd_hpm_closed_form(post, g)
    diagnostics = dict(interval.diagnostics)
    diagnostics["coverage_residual"] = interval.level - target
    return CredibleInterval(
        lower=interval.lower,
        upper=interval.upper,
        level=interval.level,
        kind=IntervalKind.HPD_HPM,
        diagnostics=diagnostics,
    )


def interval(
    kind: IntervalKind, post: PosteriorParams, alpha: float
) -> CredibleInterval:
    """The level-(1 - alpha) interval of the given kind.

    hpd_hpm is the closed form at g = the exact-HPD length at the same
    alpha, which exists at every level; its level field reports the
    coverage actually reached. hpd_hpm_calibrated is not a kind.
    """
    return _intervals((kind,), post, alpha)[0]


def _intervals(kinds, post: PosteriorParams, alpha: float) -> list[CredibleInterval]:
    # interval(kind, post, alpha) for each kind in order, with the exact HPD
    # solved at most once and shared by hpd_exact and hpd_hpm
    out, exact = [], None
    for kind in map(IntervalKind, kinds):
        if kind is IntervalKind.EQUAL_TAILS:
            out.append(equal_tails(post, alpha))
            continue
        if exact is None:
            exact = hpd_exact(post, alpha)
        if kind is IntervalKind.HPD_EXACT:
            out.append(exact)
        else:
            out.append(hpd_hpm_closed_form(post, exact.length))
    return out


def length_of_alpha(
    post: PosteriorParams, alphas: Sequence[float]
) -> list[tuple[float, float]]:
    """Exact HPD length at each level; alphas must be strictly increasing."""
    if len(alphas) == 0:
        raise DomainError("alphas must be non-empty")
    for a in alphas:
        _check_alpha(a)
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alphas must be strictly increasing")
    return [(float(a), hpd_exact(post, a).length) for a in alphas]
