"""Exponential record-range model with its conjugate inverted-gamma prior.

With n upper records from an Exp(delta) series, the record range
r = x_T(n) - x_T(1) is Gamma(n - 1, delta) distributed. An inverted-gamma
prior with shape a and scale b is conjugate: the posterior of delta given r
is again inverted gamma,

    pi(delta | r) = A^s exp(-A / delta) / (Gamma(s) delta^(s + 1)),

with s = a + n - 1 and A = b + r. Equivalently 2A/delta is chi-square with
2s degrees of freedom, which is what the interval constructions use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegeneratePosteriorError, InsufficientRecordsError, _count, _real
from .records import RecordSummary
from .specfun import _log_mass, ln_gamma

__all__ = [
    "PriorParams",
    "PosteriorParams",
    "posterior_from",
    "range_pdf",
    "posterior_pdf",
    "posterior_log_pdf",
    "posterior_coverage",
    "posterior_mode",
]


@dataclass(frozen=True, slots=True)
class PriorParams:
    """Inverted-gamma prior on the exponential scale: shape a, scale b.

    b = 0 is accepted as a degenerate limit (the prior mass escapes to 0 but
    every posterior quantity built from n >= 2 records stays proper);
    operations that divide by b reject it individually.
    """

    a: float
    b: float

    def __post_init__(self):
        _real("prior shape a", self.a)
        _real("prior scale b", self.b, least=0.0)


@dataclass(frozen=True, slots=True)
class PosteriorParams:
    """Inverted-gamma posterior: shape s = a + n - 1, scale A = b + r.

    The density exponent a + n and the incomplete-gamma shape a + n - 1
    differ by one and are easy to conflate, so the exponent has its own
    name, a_plus_n, always derived as s + 1.
    """

    s: float
    A: float

    def __post_init__(self):
        _real("posterior shape s", self.s)
        _real("posterior scale A", self.A)

    @property
    def a_plus_n(self) -> float:
        """The density exponent a + n, i.e. s + 1."""
        return self.s + 1.0


def posterior_from(prior: PriorParams, summary: RecordSummary) -> PosteriorParams:
    """Posterior parameters from a prior and at least two records."""
    if summary.n < 2:
        raise InsufficientRecordsError(
            "the posterior needs at least 2 records to form a range"
        )
    return PosteriorParams(s=prior.a + summary.n - 1.0, A=prior.b + summary.range)


def range_pdf(r: float, n: int, delta: float) -> float:
    """Sampling density of the record range: Gamma(n - 1, delta) at r.

    In the formula r^(n-2) e^(-r/delta) / ((n-2)! delta^(n-1)); evaluated
    in log space except at r = 0, where only n = 2 has positive density.
    """
    n = _count("n", n, 2)
    _real("scale delta", delta)
    _real("range r", r, least=0.0)
    if r == 0.0:
        return 1.0 / delta if n == 2 else 0.0
    k = n - 1.0
    log_pdf = (k - 1.0) * math.log(r) - r / delta - k * math.log(delta) - ln_gamma(k)
    return math.exp(log_pdf)


def posterior_log_pdf(delta: float, post: PosteriorParams) -> float:
    """Log posterior density at delta > 0.

    Above s = 2.55e305, where ln Gamma(s) overflows, raises DomainError.
    """
    _real("delta", delta)
    return (
        post.s * math.log(post.A)
        - post.A / delta
        - ln_gamma(post.s)
        - (post.s + 1.0) * math.log(delta)
    )


def posterior_pdf(delta: float, post: PosteriorParams) -> float:
    """Posterior density of the scale at delta > 0; log-space evaluation.

    A density too large for a float is inf rather than an error.
    """
    log_pdf = posterior_log_pdf(delta, post)
    try:
        return math.exp(log_pdf)
    except OverflowError:
        return math.inf


def posterior_coverage(c_lo: float, c_hi: float, post: PosteriorParams) -> float:
    """Posterior probability of the interval [c_lo, c_hi].

    Substituting u = A/delta turns the integral into the incomplete-gamma
    mass P(s, A/c_lo) - P(s, A/c_hi), from specfun._log_mass. c_hi may be +inf.
    """
    _real("c_lo", c_lo, least=0.0)
    _real("c_hi", c_hi, least=c_lo, inf=True)
    u_lo, u_hi = (post.A / c if c > 0.0 else math.inf for c in (c_hi, c_lo))
    return math.exp(_log_mass(post.s, u_lo, u_hi))


def posterior_mode(post: PosteriorParams) -> float:
    """Posterior mode A / (a + n); needs a unimodal density, a + n > 1."""
    if post.a_plus_n <= 1.0:
        raise DegeneratePosteriorError(
            f"no interior mode for a_plus_n={post.a_plus_n!r}"
        )
    return post.A / post.a_plus_n
