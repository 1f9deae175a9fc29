"""Scalar special functions used by the posterior machinery.

Implements the regularized lower incomplete gamma function, its generalized
(two-endpoint, unnormalized) form, and the chi-square quantile. The
incomplete gamma follows the classic bifurcation: power series on
x < s + 1, continued fraction (modified Lentz) elsewhere, each summed in log
space. Every mass P(s, y_hi) - P(s, y_lo) comes from _log_mass, called once
by reg_lower_gamma, gen_incomplete_gamma and model.posterior_coverage. Both
chi-square quantiles, lower (chi2_quantile) and upper (_chi2_isf), come from
one Newton solver on the log of the smaller tail, from a Wilson-Hilferty start.

All routines are pure scalar functions at fixed tolerances: the sums stop at
a relative term of 1e-14, a quantile once its log tail matches the target,
or a Newton step moves it, by a few ulp, or its bracket closes, and every
loop is capped (see the constants below). A quantile therefore keeps its
significant digits in both tails, limited only by the rounding of its tail
probability, down to the smallest normal float, below which it raises
ConvergenceError. A shape s above 1e10 raises ConvergenceError wherever an
incomplete-gamma sum would run; a mass whose tails saturate to 0 or 1 before
any sum still returns.
"""

from __future__ import annotations

import functools
import math
import sys
from statistics import NormalDist

from .errors import ConvergenceError, DomainError, _real

__all__ = [
    "ln_gamma",
    "reg_lower_gamma",
    "gen_incomplete_gamma",
    "chi2_quantile",
]

# exp() underflows below roughly -745; anything under this bound is a hard 0
_LOG_TINY = -709.0
# a quantile below the smallest normal float raises
_LOG_NORMAL_MIN = math.log(sys.float_info.min)

# guard against zero denominators inside the Lentz recurrence
_FPMIN = 1e-300

_STD_NORMAL = NormalDist()

# the series and continued-fraction sums stop once a term changes the total
# by less than this relative amount
_SUM_RTOL = 1e-14
# a quantile stops once its log-tail residual, its Newton step or its
# bracket is this small relative to the log tail or the iterate: four ulp
_STEP_RTOL = 2.0**-50
# cap on every loop, so no input can hang a caller; the incomplete-gamma sums
# scale it by ceil(sqrt(s) / 25), since near x = s they need about 8 sqrt(s)
# terms
_MAX_ITER = 500
# the largest shape whose incomplete-gamma sums are run: 8 sqrt(s) terms is
# 8e5 here, under a second, while the sums grow without bound above it (and
# stall once s + 1 rounds to s), so a larger shape raises ConvergenceError
_SHAPE_MAX = 1e10


def ln_gamma(x: float) -> float:
    """Natural log of the gamma function for x > 0.

    Thin wrapper over the platform lgamma, which is well inside a 1e-13
    relative-error budget across [1e-6, 1e6]. Above about 2.55e305 the value
    exceeds the float range and DomainError is raised.
    """
    _real("x", x)
    try:
        return math.lgamma(x)
    except OverflowError:
        raise DomainError(
            f"ln_gamma({x!r}) is beyond the float range (x above about 2.55e305)"
        ) from None


def reg_lower_gamma(s: float, x: float) -> float:
    """Regularized lower incomplete gamma P(s, x) = gamma(s, x) / Gamma(s).

    The mass of [0, x] from _log_mass, the one interval-mass path.
    Nondecreasing in x, with P(s, 0) = 0 and P(s, inf) = 1; x = +inf is an
    accepted domain endpoint.
    """
    _real("shape s", s)
    _real("x", x, least=0.0, inf=True)
    return math.exp(_log_mass(s, 0.0, x))


def _log_front(s: float, x: float) -> float:
    # ln(x^s e^-x / Gamma(s)), the prefactor of both incomplete-gamma sums
    if s >= 100.0 and abs(x - s) < 0.5 * s:
        # Stirling form: the plain sum cancels terms of size s ln s and
        # loses about 1e-10 by s = 1e5
        t = (x - s) / s
        return (
            s * (math.log1p(t) - t)
            + 0.5 * math.log(s / (2.0 * math.pi))
            - (1.0 / 12.0 - 1.0 / (360.0 * s * s)) / s
        )
    try:
        return s * math.log(x) - x - math.lgamma(s)
    except OverflowError:
        # lgamma(s) overflows only above s = 2.55e305, where x is outside the
        # Stirling window and the prefactor is below e^(-0.09 s): it is 0
        return -math.inf


def _log_tail(s: float, y: float, upper: bool, max_iter: int) -> tuple[float, float]:
    # (ln Q(s, y) if upper else ln P(s, y), ln(y^s e^-y / Gamma(s))) for
    # 0 < y < inf, with max_iter = _max_terms(s); the prefactor is returned
    # so that a solver's slope needs no second evaluation of it. The tail
    # that the bifurcation sums (P below s + 1, Q above) comes from its own
    # sum in log space, so it keeps its digits far below the smallest float;
    # the other tail is log1p of minus it.
    log_front = _log_front(s, y)
    summed_upper = y >= s + 1.0
    if summed_upper:
        log_sum = log_front + math.log(_upper_cont_frac(s, y, max_iter))
    else:
        log_sum = log_front + math.log(_lower_series(s, y, max_iter))
    if upper == summed_upper:
        return log_sum, log_front
    summed = math.exp(log_sum)
    if summed >= 1.0:
        # possible only for s below about 1e-15: the other tail rounds away
        raise ConvergenceError(
            f"the {'upper' if upper else 'lower'} incomplete-gamma tail at "
            f"s={s}, y={y} is below the rounding of 1"
        )
    return math.log1p(-summed), log_front


def _missed_mass(s: float, u_lo: float, u_hi: float, max_iter: int):
    # (P(s, u_lo) + Q(s, u_hi), ln F(u_lo), ln F(u_hi)): the posterior mass
    # outside [A/u_hi, A/u_lo], each tail from its own sum so that a tiny
    # alpha keeps its digits, and the log prefactors F(u) = u^s e^-u / Gamma(s)
    # of the two sums, which are d P(s, u) / d ln u
    log_p, log_f_lo = _log_tail(s, u_lo, False, max_iter)
    log_q, log_f_hi = _log_tail(s, u_hi, True, max_iter)
    return math.exp(log_p) + math.exp(log_q), log_f_lo, log_f_hi


def _log_mass(s: float, y_lo: float, y_hi: float) -> float:
    # ln(P(s, y_hi) - P(s, y_lo)) for 0 <= y_lo <= y_hi <= inf: on one side of
    # s + 1 the log-space difference of the two tails that side sums, which
    # may both round alike; across it, 1 - P(s, y_lo) - Q(s, y_hi)
    if y_lo == y_hi:
        return -math.inf
    inner = [y for y in (y_lo, y_hi) if 0.0 < y < math.inf]
    if s > _SHAPE_MAX and all(_log_front(s, y) < _LOG_TINY for y in inner):
        # the one skipped sum: every P(s, y) saturated to 0 or 1 above the bound
        return 0.0 if y_lo < s < y_hi else -math.inf
    max_iter = _max_terms(s)  # raises above the bound
    if len(inner) < 2:  # all of the mass, P(s, y_hi) or Q(s, y_lo)
        return _log_tail(s, inner[0], inner[0] == y_lo, max_iter)[0] if inner else 0.0
    if y_lo < s + 1.0 <= y_hi:
        missed = _missed_mass(s, y_lo, y_hi, max_iter)[0]
        return math.log1p(-missed) if missed < 1.0 else -math.inf
    if y_hi < s + 1.0:  # ln P(s, y_hi) and ln P(s, y_lo), both summed
        big, small = (_log_tail(s, y, False, max_iter)[0] for y in (y_hi, y_lo))
    else:  # ln Q(s, y_lo) and ln Q(s, y_hi), both summed
        big, small = (_log_tail(s, y, True, max_iter)[0] for y in (y_lo, y_hi))
    d = small - big  # rounding may leave the two tails out of order
    return big + math.log(-math.expm1(d)) if d < 0.0 else -math.inf


def _max_terms(s: float) -> int:
    # the term cap of both incomplete-gamma sums at shape s
    if s > _SHAPE_MAX:
        raise ConvergenceError(
            f"shape s={s} exceeds {_SHAPE_MAX:g}, the largest shape whose "
            "incomplete-gamma sums are evaluated"
        )
    return _MAX_ITER * max(1, math.ceil(math.sqrt(s) / 25.0))


def _lower_series(s: float, x: float, max_iter: int) -> float:
    # P(s, x) * Gamma(s) / (x^s e^-x) = sum_k x^k / (s (s+1) ... (s+k))
    denom = s
    term = 1.0 / s
    total = term
    for _ in range(max_iter):
        denom += 1.0
        term *= x / denom
        total += term
        if term < total * _SUM_RTOL:  # every term is positive
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

    Equals exp(ln Gamma(s) + ln(P(s, x_hi) - P(s, x_lo))), the mass from
    _log_mass, the one interval-mass path. Requires 0 <= x_lo <= x_hi; x_hi
    may be +inf, in which case gen_incomplete_gamma(s, 0, inf) = Gamma(s). A
    value beyond the float range is inf; where ln Gamma(s) overflows (s above
    2.55e305) and the mass saturates to 0, DomainError is raised.
    """
    _real("shape s", s)
    _real("x_lo", x_lo, least=0.0)
    _real("x_hi", x_hi, least=x_lo, inf=True)
    log_mass = _log_mass(s, x_lo, x_hi)
    try:
        return math.exp(math.lgamma(s) + log_mass)
    except OverflowError:  # Gamma(s) or the product leaves the floats
        if log_mass > -math.inf:
            return math.inf
        if x_lo == x_hi:
            return 0.0
        raise DomainError(
            f"gen_incomplete_gamma({s!r}, {x_lo!r}, {x_hi!r}) is Gamma(s), beyond "
            "the float range, times a mass that saturates to 0"
        ) from None


def chi2_quantile(p: float, nu: float) -> float:
    """Quantile of the chi-square distribution with nu degrees of freedom.

    Solves P(nu/2, x/2) = p for x by Newton steps on the log of the smaller
    tail: ln P - ln p for p <= 1/2, else ln Q - ln(1 - p), where 1 - p is
    exact in floating point. Each step is kept inside a sign-change bracket
    and falls back to bisection whenever Newton would leave it. The result
    agrees with scipy's chi2.ppf to about 1e-13 relative from p = 1e-300 to
    1 - 1e-8, and a quantile below the smallest normal float raises
    ConvergenceError.
    Strictly increasing in p. Results are memoised per (p, nu) in a bounded
    table, so repeated levels cost a lookup.
    """
    _real("probability p", p, below=1.0)
    _real("degrees of freedom nu", nu)
    return _chi2_quantile(p, nu)


def _chi2_isf(q: float, nu: float) -> float:
    """The chi-square quantile with upper tail q, x with Q(nu/2, x/2) = q.

    The solve of chi2_quantile on q itself, so a tiny q keeps the digits
    that 1 - q would round away.
    """
    return _tail_quantile(q, nu, True)


@functools.lru_cache(maxsize=1024)
def _chi2_quantile(p: float, nu: float) -> float:
    if p <= 0.5:
        return _tail_quantile(p, nu, False)
    return _tail_quantile(1.0 - p, nu, True)


def _tail_quantile(t: float, nu: float, upper: bool) -> float:
    # x with T(nu/2, x/2) = t, where T is Q if upper else P: Newton steps on
    # ln T(s, y) - ln t in y = x/2, whose slope is +-front / (y T) with
    # front = y^s e^-y / Gamma(s), inside a sign-change bracket
    s = 0.5 * nu
    # a shape above the bound raises here, before lgamma(s + 1)
    max_iter = _max_terms(s)
    log_t = math.log(t)

    # start from the Wilson-Hilferty cube or, if larger, the leading-order
    # series inverse of P(s, y) <= y^s / Gamma(s + 1), a lower bound on the
    # root that is tight in the deep lower tail, where the cube collapses
    log_y = (math.log(1.0 - t if upper else t) + math.lgamma(s + 1.0)) / s
    z = _STD_NORMAL.inv_cdf(t)
    c = 2.0 / (9.0 * nu)
    base = 1.0 - c + (-z if upper else z) * math.sqrt(c)
    if base > 0.0:
        log_y = max(log_y, math.log(s) + 3.0 * math.log(base))
    if log_y + math.log(2.0) < _LOG_NORMAL_MIN:
        raise ConvergenceError(
            f"the chi-square quantile for {'q' if upper else 'p'}={t}, "
            f"nu={nu} lies below the smallest normal float"
        )
    y = math.exp(log_y)

    lo, hi = 0.0, math.inf
    for _ in range(_MAX_ITER):
        log_tail, log_front = _log_tail(s, y, upper, max_iter)
        f = log_tail - log_t
        if abs(f) <= _STEP_RTOL * abs(log_t):
            return 2.0 * y
        if (f > 0.0) != upper:  # y above the root: P too large or Q too small
            hi = y
        else:
            lo = y
        # y T / front from the logs, so neither underflows; a ratio that
        # would overflow exp() sends the step to bisection
        ratio = log_tail - log_front
        step = f * y * math.exp(ratio) if ratio < -_LOG_TINY else math.inf
        y_new = y + step if upper else y - step
        if abs(y_new - y) <= _STEP_RTOL * y:
            return 2.0 * y_new
        if not lo < y_new < hi:
            y_new = 0.5 * (lo + hi) if hi < math.inf else 2.0 * lo
            if hi - lo <= _STEP_RTOL * lo:
                return 2.0 * y_new
        y = y_new
    raise ConvergenceError(
        f"chi-square quantile iteration stalled for "
        f"{'q' if upper else 'p'}={t}, nu={nu}"
    )
