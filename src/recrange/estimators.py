"""Point estimators of the exponential scale and their sampling moments.

mle_sample averages the raw series. Every other estimator divides one
sufficient statistic of the n records by a divisor; with s = a + n - 1:

    mle_records      last record x_T(n) ~ Gamma(n, delta)  over  n
    mle_urr          range r ~ Gamma(n - 1, delta)         over  n - 1
    bayes_quadratic  A = b + r                             over  a + n
    bayes_squared    A                                     over  a + n - 2
    bayes_absolute   A                                     over  chi2_quantile(.5, 2s)/2

The Bayes rules under scaled quadratic, squared and absolute error loss are
the posterior mode, mean and median. These pairs are one private table.
The named functions, estimator_rule and point_estimate evaluate it on one
checked record set, sim on whole blocks of repetitions as arrays, and
analytic_moments reads the sampling moments off it: a statistic of gamma
shape k at scale delta, plus b for A, over a divisor d has mean
(k delta + b) / d and variance k delta^2 / d^2.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Sequence

from .errors import (
    DegeneratePosteriorError,
    DomainError,
    InsufficientRecordsError,
    UnsupportedEstimatorError,
    _count,
    _real,
)
from .model import PosteriorParams, PriorParams, posterior_from
from .records import RecordSummary, _not_a_number, _series
from .specfun import chi2_quantile

__all__ = [
    "EstimatorId",
    "Moments",
    "mle_sample",
    "mle_records",
    "mle_urr",
    "bayes_quadratic",
    "bayes_squared",
    "bayes_absolute",
    "estimator_rule",
    "point_estimate",
    "analytic_moments",
]


class EstimatorId(str, Enum):
    """Names accepted everywhere an estimator can be selected."""

    MLE_SAMPLE = "mle_sample"
    MLE_RECORDS = "mle_records"
    MLE_URR = "mle_urr"
    BAYES_QUADRATIC = "bayes_quadratic"
    BAYES_SQUARED = "bayes_squared"
    BAYES_ABSOLUTE = "bayes_absolute"

    def __str__(self) -> str:
        return self.value


class Moments(NamedTuple):
    """Sampling moments of an estimator at a fixed true scale."""

    mean: float
    variance: float
    mse: float


def _posterior_mean_divisor(n: int | None, s: float) -> float:
    if s <= 1.0:  # the divisor a + n - 2 = s - 1 must be positive
        raise DegeneratePosteriorError(
            f"the posterior mean needs a + n > 2, got {s + 1.0!r}"
        )
    return s - 1.0


# Each record-based estimator as (statistic "last", "r" or "A", divisor(n, s)).
# The likelihood rules' divisors read the record count n, the Bayes rules'
# the posterior shape s; the argument a divisor does not read may be None.
_TABLE: dict[EstimatorId, tuple[str, Callable[..., float]]] = {
    EstimatorId.MLE_RECORDS: ("last", lambda n, s: n),
    EstimatorId.MLE_URR: ("r", lambda n, s: n - 1),
    EstimatorId.BAYES_QUADRATIC: ("A", lambda n, s: s + 1.0),
    EstimatorId.BAYES_SQUARED: ("A", _posterior_mean_divisor),
    EstimatorId.BAYES_ABSOLUTE: ("A", lambda n, s: 0.5 * chi2_quantile(0.5, 2.0 * s)),
}


# Per statistic: the name under which its scalar value is checked, None for
# A (a PosteriorParams checks its own A, and the Bayes divisors read no n),
# and how a rule reads it off (summary, post)
_STATISTICS = {
    "last": ("last record value", lambda summary, post: summary.values[-1]),
    "r": ("record range r", lambda summary, post: summary.range),
    "A": (None, lambda summary, post: post.A),
}


def _estimate(estimator: EstimatorId, n, s, **statistics):
    # the estimator's statistic, picked by name, over its divisor; unchecked,
    # for floats or for the ndarrays of a sim block
    statistic, divisor = _TABLE[estimator]
    return statistics[statistic] / divisor(n, s)


def _checked(estimator: EstimatorId, value: float, n, post) -> float:
    statistic, divisor = _TABLE[estimator]
    name, _ = _STATISTICS[statistic]
    if name is not None:
        _real(name, value)
        n = _count("n", n, 1)
        if statistic == "r" and n < 2:
            raise InsufficientRecordsError("range-based MLE needs at least 2 records")
    return value / divisor(n, None if post is None else post.s)


def mle_sample(data: Sequence[float]) -> float:
    """Maximum likelihood from the full series: the sample mean."""
    series = _series(data)
    total = 0.0
    for j, x in enumerate(series, start=1):
        # checked before float(), which also reads numeric text (see records)
        try:
            finite = math.isfinite(x)
        except (TypeError, OverflowError) as exc:
            raise _not_a_number(j, x, exc) from None
        x = float(x)
        if not (finite and x > 0.0):
            raise DomainError(f"observation {j} must be positive, got {x!r}")
        total += x
    return total / len(series)


def mle_records(x_last_record: float, n: int) -> float:
    """Maximum likelihood from the record values alone: x_T(n) / n."""
    return _checked(EstimatorId.MLE_RECORDS, x_last_record, n, None)


def mle_urr(record_range: float, n: int) -> float:
    """Maximum likelihood from the record range alone: r / (n - 1)."""
    return _checked(EstimatorId.MLE_URR, record_range, n, None)


def bayes_quadratic(post: PosteriorParams) -> float:
    """Bayes rule under scaled quadratic loss: the posterior mode A/(a+n)."""
    return _checked(EstimatorId.BAYES_QUADRATIC, post.A, None, post)


def bayes_squared(post: PosteriorParams) -> float:
    """Posterior mean A/(a + n - 2); exists only when s > 1."""
    return _checked(EstimatorId.BAYES_SQUARED, post.A, None, post)


def bayes_absolute(post: PosteriorParams) -> float:
    """Posterior median 2A / q, with q the chi-square median on 2s dof."""
    return _checked(EstimatorId.BAYES_ABSOLUTE, post.A, None, post)


Rule = Callable[[RecordSummary, PosteriorParams | None], float]


def estimator_rule(estimator: EstimatorId) -> Rule:
    """The rule rule(summary, post) of a record-based estimator.

    post is the posterior built from the same summary; the two maximum
    likelihood rules ignore it. mle_sample has no rule: it needs the raw
    series, which a record summary no longer carries.
    """
    estimator = EstimatorId(estimator)
    if estimator is EstimatorId.MLE_SAMPLE:
        raise UnsupportedEstimatorError(
            "mle_sample needs the full series, not a record summary"
        )
    _, read = _STATISTICS[_TABLE[estimator][0]]
    return lambda summary, post: _checked(
        estimator, read(summary, post), summary.n, post
    )


def point_estimate(
    estimator: EstimatorId, summary: RecordSummary, prior: PriorParams | None = None
) -> float:
    """Evaluate a record-based estimator by id; Bayes rules need the prior."""
    rule = estimator_rule(estimator)
    if _TABLE[EstimatorId(estimator)][0] != "A":
        return rule(summary, None)
    if prior is None:
        raise DomainError(f"{estimator} needs prior parameters")
    return rule(summary, posterior_from(prior, summary))


def analytic_moments(
    estimator: EstimatorId, delta_ref: float, n: int, prior: PriorParams | None = None
) -> Moments:
    """Closed-form sampling mean, variance and MSE at a fixed true scale.

    They follow from the estimator's table entry (see the module docstring).
    mle_sample has none, as its record count is random, so it is rejected.
    """
    estimator = EstimatorId(estimator)
    _real("reference scale delta_ref", delta_ref)
    n = _count("n", n, 2)
    if estimator is EstimatorId.MLE_SAMPLE:
        raise UnsupportedEstimatorError(
            "mle_sample has no closed-form record-based moments"
        )
    statistic, divisor = _TABLE[estimator]
    k = n if statistic == "last" else n - 1  # the statistic's gamma shape
    offset, s = 0.0, None
    if statistic == "A":
        if prior is None:
            raise DomainError(f"{estimator} needs prior parameters")
        offset, s = prior.b, prior.a + n - 1.0
    d = divisor(n, s)
    mean = (k * delta_ref + offset) / d
    var = k * delta_ref * delta_ref / (d * d)
    bias = mean - delta_ref
    return Moments(mean=mean, variance=var, mse=var + bias * bias)
