"""Credible intervals for the exponential scale.

Three constructions on the inverted-gamma posterior (shape s, scale A):

* equal tails, via the pivot 2A/delta ~ chi-square with 2s dof;
* the exact highest-posterior-density (HPD) interval, the root of one
  equation in one variable (see below);
* a closed-form approximation that maps a target length g directly to an
  interval [c(g), c(g) + g] with

      c(g) = (A + 2 (a+n) g + sqrt(A) sqrt(A + 8 (a+n) g)) / (2 (a+n)).

interval(kind, post, alpha) selects a construction by IntervalKind; its
hpd_hpm is the closed form at g = the exact-HPD length at the same alpha.

The HPD endpoints c_L < c_H have equal density and cover 1 - alpha. Write
L = ln(c_H / c_L) > 0. Equal density, (a+n) L = A (1/c_L - 1/c_H), then
gives both endpoints in closed form,

    c_L = A (1 - e^-L) / ((a+n) L),    c_H = c_L e^L,

and with u = A/delta the mass left out is M(L) = P(s, u_lo) + Q(s, u_hi),
where u_hi = (a+n) L / (1 - e^-L) and u_lo = (a+n) L / (e^L - 1). M falls
from 1 to 0 in L and does not involve A, so the exact solver is a single
bracketed Halley root of M(L) = alpha, whose first two derivatives come
from the prefactors of the two tails it already evaluates (Chen & Shao 1999
discuss HPD computation in general). M and every level come from the one
mass path in specfun (_missed_mass and _log_mass).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from enum import Enum
from statistics import NormalDist
from typing import Sequence

from .errors import ConvergenceError, DomainError, _real
from .model import PosteriorParams, posterior_coverage
from .specfun import _chi2_isf, _max_terms, _missed_mass, chi2_quantile

__all__ = [
    "IntervalKind",
    "CredibleInterval",
    "interval",
    "equal_tails",
    "hpd_exact",
    "hpd_hpm_closed_form",
    "length_of_alpha",
]

# the exact solver stops once the mass it leaves out is within
# min(_MISSED_ATOL, _MISSED_RTOL * alpha) of alpha: well inside the 1e-9
# relative accuracy contract, so rounding noise never flips a test
_MISSED_ATOL = 1e-12
_MISSED_RTOL = 1e-10
# largest ln(c_H / c_L) tried: A / c_H = (a+n) L e^-L / (1 - e^-L) stays a
# normal float there, so both endpoints stay finite
_L_MAX = 600.0
# backstop only: bracketed Halley converges in about three steps
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
        _real("lower endpoint", self.lower)
        _real("upper endpoint", self.upper, least=self.lower)
        _real("level", self.level, least=0.0, below=1.0)

    @property
    def length(self) -> float:
        return self.upper - self.lower


def _check_alpha(alpha) -> float:
    # the one alpha check of the package; 1 - alpha < 1 exactly when alpha
    # exceeds 2**-54, and a non-real alpha gets the same message
    try:
        return _real("alpha", alpha, above=2.0**-54, below=1.0)
    except DomainError:
        raise DomainError(
            "alpha must lie in (0, 1) and exceed 2**-54, below which 1 - alpha "
            f"rounds to 1, got {alpha!r}"
        ) from None


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
    missed = _missed_mass(s, 0.5 * q_lo, 0.5 * q_hi, _max_terms(s))[0]
    return q_lo, q_hi, alpha - missed


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
    z = -_STD_NORMAL.inv_cdf(0.5 * alpha)
    c = 1.0 / (9.0 * s)
    base_hi = 1.0 - c + z * math.sqrt(c)
    base_lo = 1.0 - c - z * math.sqrt(c)
    if base_lo > 0.0:
        return 3.0 * math.log(base_hi / base_lo)
    x = math.log(s + 1.0) - (math.log(alpha) + math.lgamma(s + 1.0)) / s
    return x + math.log(max(x, 1.0))


def hpd_exact(post: PosteriorParams, alpha: float) -> CredibleInterval:
    """Exact HPD interval as one safeguarded Halley root in L = ln(c_H/c_L).

    Equal density fixes both endpoints for each L > 0 (module docstring),
    so only the mass left out is solved: R(L) = alpha - P(s, u_lo) -
    Q(s, u_hi) = 0, each tail from its own incomplete-gamma sum, so a tiny
    alpha keeps its digits. In u = A/delta the solve does not involve A at
    all, and the endpoints are A/u_hi and A/u_lo. With F = u f(u) =
    u^s e^-u / Gamma(s), the prefactor of each tail's sum,
    g_hi = d ln u_hi / dL = 1/L - 1/(e^L - 1), g_lo = g_hi - 1 and
    g' = e^L / (e^L - 1)^2 - 1/L^2,

        R'  = F_hi g_hi - F_lo g_lo,
        R'' = F_hi ((s - u_hi) g_hi^2 + g') - F_lo ((s - u_lo) g_lo^2 + g'),

    so a Halley step, L - 2 R R' / (2 R'^2 - R R''), costs no special-function
    call beyond the two tails; where its denominator is not positive, or it
    leaves the sign-change bracket, the Newton step L - R/R' is taken
    instead. Steps that still leave the bracket, or do not halve the
    previous step, fall back to bisection, so the last-bit jitter of the
    incomplete gamma cannot stall the solve. It stops when the missed mass
    is within min(1e-12, 1e-10 alpha) of alpha, or when the bracket
    collapses, and raises ConvergenceError when alpha cannot be reached
    with c_H / c_L up to e^600. outer_iterations counts the steps, the
    starting guess included; each evaluates the two tails once.
    """
    _check_alpha(alpha)
    s, A, apn = post.s, post.A, post.a_plus_n
    max_iter = _max_terms(s)
    tol = min(_MISSED_ATOL, _MISSED_RTOL * alpha)

    lo, hi = 0.0, _L_MAX  # missed mass > alpha at lo; <= alpha at hi once reached
    reached = False
    L = min(max(_log_ratio_guess(s, alpha), 1e-8), _L_MAX)
    step_old = hi - lo
    iterations = 0
    while True:
        iterations += 1
        one_minus = -math.expm1(-L)
        u_hi = apn * L / one_minus  # A / c_L
        u_lo = u_hi * math.exp(-L)  # A / c_H
        missed, log_f_lo, log_f_hi = _missed_mass(s, u_lo, u_hi, max_iter)
        residual = alpha - missed  # coverage - (1 - alpha)
        if abs(residual) <= tol:
            break
        if residual < 0.0:
            lo = L
        else:
            hi, reached = L, True
        if hi - lo <= 1e-15 * hi or iterations >= _MAX_STEPS:
            break
        f_lo, f_hi = math.exp(log_f_lo), math.exp(log_f_hi)
        inv_em1 = 1.0 / math.expm1(L)
        g_hi = 1.0 / L - inv_em1
        g_lo = g_hi - 1.0
        dg = inv_em1 * (1.0 + inv_em1) - 1.0 / (L * L)  # e^L/(e^L-1)^2 - 1/L^2
        slope = f_hi * g_hi - f_lo * g_lo
        curve = f_hi * ((s - u_hi) * g_hi * g_hi + dg) - f_lo * (
            (s - u_lo) * g_lo * g_lo + dg
        )
        step = math.nan
        if slope > 0.0:
            # the Halley step is the Newton step over 1 - R R'' / (2 R'^2);
            # where that is not positive, or the Halley step leaves the
            # bracket (as it can near L = 0, where R is almost linear), the
            # Newton step is taken
            newton = residual / slope
            scale = 1.0 - 0.5 * newton * curve / slope
            step = L - newton / scale if scale > 0.0 else math.nan
            if not lo < step < hi:
                step = L - newton
        if not lo < step < hi or abs(2.0 * (step - L)) > abs(step_old):
            step = 0.5 * (lo + hi)
        step_old = step - L
        L = step

    if abs(residual) > tol and not reached:
        raise ConvergenceError(
            f"could not reach coverage {1.0 - alpha} with c_H / c_L up to "
            f"e^{_L_MAX:g}"
        )
    return CredibleInterval(
        lower=A / u_hi,
        upper=A / u_lo,
        level=1.0 - alpha,
        kind=IntervalKind.HPD_EXACT,
        diagnostics={
            "coverage_residual": residual,
            # mode / c_L = u_hi / (a+n) and mode / c_H = u_lo / (a+n)
            "equal_density_residual": _equal_density_residual(
                u_hi / apn, u_lo / apn, apn
            ),
            "outer_iterations": iterations,
        },
    )


def hpd_hpm_closed_form(post: PosteriorParams, g: float) -> CredibleInterval:
    """Closed-form interval of prescribed length g.

    Returns [c(g), c(g) + g] with the quadratic-root lower endpoint given in
    the module docstring, A times a function of g/A, so its level depends on
    g/A and s alone. At g = 0 it degenerates to the posterior mode. The
    level reported is the actual posterior coverage of the interval; the
    equal-density residual in the diagnostics measures how far the pair is
    from a true HPD configuration.
    """
    _real("length g", g, least=0.0)
    A, apn = post.A, post.a_plus_n
    root = math.sqrt(A) * math.sqrt(A + 8.0 * apn * g)  # A^2 would under/overflow
    lower = (A + 2.0 * apn * g + root) / (2.0 * apn)
    upper = lower + g
    return CredibleInterval(
        lower=lower,
        upper=upper,
        level=posterior_coverage(lower, upper, post),
        kind=IntervalKind.HPD_HPM,
        diagnostics={
            "equal_density_residual": _equal_density_residual(
                A / lower / apn, A / upper / apn, apn
            )
        },
    )


def _equal_density_residual(v_lo: float, v_hi: float, apn: float) -> float:
    # |pdf(c_L) - pdf(c_H)| / pdf(mode), with v = mode / c at each endpoint:
    # ln(pdf(c) / pdf(mode)) = (a+n)(ln v + 1 - v) does not involve A and is
    # never positive; a v that underflowed to 0 is a density ratio of 0
    lo = math.exp(apn * (math.log(v_lo) + 1.0 - v_lo)) if v_lo > 0.0 else 0.0
    hi = math.exp(apn * (math.log(v_hi) + 1.0 - v_hi)) if v_hi > 0.0 else 0.0
    return abs(lo - hi)


def interval(
    kind: IntervalKind, post: PosteriorParams, alpha: float
) -> CredibleInterval:
    """The level-(1 - alpha) interval of the given kind.

    hpd_hpm is the closed form at g = the exact-HPD length at the same
    alpha, which exists at every level; its level field reports the
    coverage actually reached.
    """
    return _intervals((IntervalKind(kind),), post, alpha)[0]


def _intervals(kinds, post: PosteriorParams, alpha: float) -> list[CredibleInterval]:
    # interval(kind, post, alpha) for each IntervalKind of kinds, with the
    # exact HPD solved at most once and shared by hpd_exact and hpd_hpm
    out, exact = [], None
    for kind in kinds:
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
    alphas = [_check_alpha(a) for a in alphas]
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        raise DomainError("alphas must be strictly increasing")
    return [(a, hpd_exact(post, a).length) for a in alphas]
