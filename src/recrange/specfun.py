"""Scalar special functions used by the posterior machinery.

Implements the regularized lower incomplete gamma function, its generalized
(two-endpoint, unnormalized) form, and the chi-square quantile. The
incomplete gamma follows the classic bifurcation: power series on
x < s + 1, continued fraction (modified Lentz) elsewhere. The quantile
inverts the regularized gamma with a Wilson-Hilferty starting value refined
by bracketed Newton steps.

All routines are pure scalar functions at fixed tolerances: the sums stop at
a relative term of 1e-14, the quantile at a CDF residual of 1e-13 or 1e-10
of the smaller tail, whichever is tighter, and every loop is capped (see the
constants below). Quantiles deep in the lower tail therefore keep their
significant digits down to the smallest normal float, below which they
raise ConvergenceError. Near p = 1 the accuracy is bounded by the rounding
of p itself: an upper tail 1 - p of 5e-9 is known to about 1e-8 relative.
"""

from __future__ import annotations

import functools
import math
from statistics import NormalDist

from .errors import ConvergenceError, DomainError

__all__ = [
    "ln_gamma",
    "reg_lower_gamma",
    "gen_incomplete_gamma",
    "chi2_quantile",
]

# exp() underflows below roughly -745; anything under this bound is a hard 0
_LOG_TINY = -709.0

# guard against zero denominators inside the Lentz recurrence
_FPMIN = 1e-300

_STD_NORMAL = NormalDist()

# the series and continued-fraction sums stop once a term changes the total
# by less than this relative amount
_SUM_RTOL = 1e-14
# the quantile accepts a CDF residual up to this, or up to _QUANTILE_TAIL_RTOL
# times the smaller tail min(p, 1 - p) when that is tighter
_QUANTILE_ATOL = 1e-13
_QUANTILE_TAIL_RTOL = 1e-10
# cap on every loop, so no input can hang a caller; the incomplete-gamma sums
# scale it by ceil(sqrt(s) / 25), since near x = s they need about 8 sqrt(s)
# terms
_MAX_ITER = 500


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Thin wrapper over the platform lgamma, which is well inside a 1e-13
    relative-error budget across [1e-6, 1e6].
    """
    if math.isnan(x) or not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"ln_gamma requires finite x > 0, got {x!r}")
    return math.lgamma(x)


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    Power series for x < s + 1, modified-Lentz continued fraction for the
    complement otherwise. Nondecreasing in x, with P(s, 0) = 0 and
    P(s, inf) = 1; x = +inf is an accepted domain endpoint.
    """
    if math.isnan(s) or math.isnan(x):
        raise DomainError("reg_lower_gamma does not accept nan arguments")
    if not math.isfinite(s) or s <= 0.0:
        raise DomainError(f"shape s must be positive and finite, got {s!r}")
    if x < 0.0:
        raise DomainError(f"x must be nonnegative, got {x!r}")
    if x == 0.0:
        return 0.0
    if math.isinf(x):
        return 1.0

    if s >= 100.0 and abs(x - s) < 0.5 * s:
        # Stirling form of ln(x^s e^-x / Gamma(s)): the plain sum cancels
        # terms of size s ln s and loses about 1e-10 by s = 1e5
        t = (x - s) / s
        log_front = (
            s * (math.log1p(t) - t)
            + 0.5 * math.log(s / (2.0 * math.pi))
            - (1.0 / 12.0 - 1.0 / (360.0 * s * s)) / s
        )
    else:
        log_front = s * math.log(x) - x - math.lgamma(s)
    if log_front < _LOG_TINY:
        # the x^s e^-x / Gamma(s) prefactor underflows: saturated tail
        return 1.0 if x > s else 0.0

    max_iter = _MAX_ITER * max(1, math.ceil(math.sqrt(s) / 25.0))
    if x < s + 1.0:
        return math.exp(log_front) * _lower_series(s, x, max_iter)
    return 1.0 - math.exp(log_front) * _upper_cont_frac(s, x, max_iter)


def _lower_series(s: float, x: float, max_iter: int) -> float:
    # P(s, x) * Gamma(s) / (x^s e^-x) = sum_k x^k / (s (s+1) ... (s+k))
    denom = s
    term = 1.0 / s
    total = term
    for _ in range(max_iter):
        denom += 1.0
        term *= x / denom
        total += term
        if abs(term) < abs(total) * _SUM_RTOL:
            return total
    raise ConvergenceError(
        f"incomplete gamma series did not converge for s={s}, x={x} "
        f"within {max_iter} terms"
    )


def _upper_cont_frac(s: float, x: float, max_iter: int) -> float:
    # Q(s, x) * Gamma(s) / (x^s e^-x) via the standard even-odd contracted
    # continued fraction, evaluated with the modified Lentz method.
    b = x + 1.0 - s
    c = 1.0 / _FPMIN
    d = 1.0 / b
    h = d
    for i in range(1, max_iter + 1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < _FPMIN:
            d = _FPMIN
        c = b + an / c
        if abs(c) < _FPMIN:
            c = _FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _SUM_RTOL:
            return h
    raise ConvergenceError(
        f"incomplete gamma continued fraction did not converge for s={s}, "
        f"x={x} within {max_iter} iterations"
    )


def gen_incomplete_gamma(s: float, x_lo: float, x_hi: float) -> float:
    """Generalized incomplete gamma: integral of t^(s-1) e^-t over [x_lo, x_hi].

    Equals Gamma(s) * (P(s, x_hi) - P(s, x_lo)). Requires 0 <= x_lo <= x_hi;
    x_hi may be +inf, in which case gen_incomplete_gamma(s, 0, inf) = Gamma(s).
    """
    if math.isnan(x_lo) or math.isnan(x_hi):
        raise DomainError("gen_incomplete_gamma does not accept nan endpoints")
    if x_lo < 0.0 or math.isinf(x_lo):
        raise DomainError(f"x_lo must be finite and nonnegative, got {x_lo!r}")
    if x_hi < x_lo:
        raise DomainError(f"need x_lo <= x_hi, got x_lo={x_lo!r}, x_hi={x_hi!r}")
    diff = reg_lower_gamma(s, x_hi) - reg_lower_gamma(s, x_lo)
    if diff < 0.0:
        diff = 0.0  # rounding near equal endpoints must not go negative
    return math.exp(math.lgamma(s)) * diff


def chi2_quantile(p: float, nu: float) -> float:
    """Quantile of the chi-square distribution with nu degrees of freedom.

    Solves reg_lower_gamma(nu/2, x/2) = p for x. The Wilson-Hilferty cube
    approximation (or, deep in the lower tail, the leading-order series
    inverse) seeds a Newton iteration on the CDF residual (on its logarithm
    while the CDF exceeds a tiny p a thousandfold); every step is
    safeguarded by a sign-change bracket and falls back to bisection whenever
    Newton would leave it. Strictly increasing in p. Results are memoised
    per (p, nu) in a bounded table, so repeated levels cost a lookup.
    """
    return _chi2_quantile(p, nu)


@functools.lru_cache(maxsize=1024)
def _chi2_quantile(p: float, nu: float) -> float:
    if math.isnan(p) or math.isnan(nu):
        raise DomainError("chi2_quantile does not accept nan arguments")
    if not 0.0 < p < 1.0:
        raise DomainError(f"probability p must lie in (0, 1), got {p!r}")
    if not math.isfinite(nu) or nu <= 0.0:
        raise DomainError(f"degrees of freedom must be positive, got {nu!r}")

    s = 0.5 * nu
    lg = math.lgamma(s)
    # relative to the smaller tail, so a tiny lower tail keeps its significant
    # digits; near p = 1 the bracket collapse ends the solve at the rounding
    # of p
    tol = min(_QUANTILE_ATOL, _QUANTILE_TAIL_RTOL * min(p, 1.0 - p))

    def residual(x: float) -> float:
        return reg_lower_gamma(s, 0.5 * x) - p

    def density(x: float) -> float:
        # chi-square pdf; 0.0 when the log underflows far in the tails
        log_pdf = (s - 1.0) * math.log(0.5 * x) - 0.5 * x - lg
        if log_pdf < _LOG_TINY:
            return 0.0
        return 0.5 * math.exp(log_pdf)

    # Wilson-Hilferty start; for small p (or tiny nu) it can collapse to a
    # nonpositive value, where the leading-order series inverse
    # P(s, x/2) ~ (x/2)^s / Gamma(s + 1) is better
    z = _STD_NORMAL.inv_cdf(p)
    c = 2.0 / (9.0 * nu)
    x = nu * (1.0 - c + z * math.sqrt(c)) ** 3
    if x <= 0.0 or not math.isfinite(x):
        log_half = (math.log(p) + math.lgamma(s + 1.0)) / s
        if log_half < _LOG_TINY:
            raise ConvergenceError(
                f"the chi-square quantile for p={p}, nu={nu} lies below the "
                "smallest normal float"
            )
        x = 2.0 * math.exp(log_half)

    lo = 0.0
    hi = max(x, 1e-8)
    fhi = residual(hi)
    for _ in range(_MAX_ITER):
        if fhi >= 0.0:
            break
        lo = hi
        hi *= 2.0
        fhi = residual(hi)
    else:
        raise ConvergenceError(
            f"failed to bracket the chi-square quantile for p={p}, nu={nu}"
        )

    # x <= hi always holds; a start inside the bracket is kept, however small
    if x <= lo:
        x = lo + 0.25 * (hi - lo)
    for _ in range(_MAX_ITER):
        f = residual(x)
        if abs(f) <= tol:
            return x
        if f > 0.0:
            hi = x
        else:
            lo = x
        pdf = density(x)
        step_ok = pdf > 0.0
        if step_ok:
            if f > 1e3 * p:
                # far above a tiny p the CDF is nearly exponential and a plain
                # Newton step crawls; a step on ln P reaches the root
                x_new = x - math.log1p(f / p) * (f + p) / pdf
            else:
                x_new = x - f / pdf
            step_ok = lo < x_new < hi
        if not step_ok:
            x_new = 0.5 * (lo + hi)
        if hi - lo <= 1e-15 * hi:
            return 0.5 * (lo + hi)
        x = x_new
    raise ConvergenceError(
        f"chi-square quantile iteration stalled for p={p}, nu={nu}"
    )
