"""Point estimators of the exponential scale and their sampling moments.

Classical estimators use the raw data, the last record, or the record range;
the Bayes estimators summarize the inverted-gamma posterior under three
losses. With s = a + n - 1 and A = b + r:

    quadratic loss (scaled by delta^-2)  ->  A / (a + n)
    squared error                        ->  A / (a + n - 2)
    absolute error (posterior median)    ->  2 A / chi2_quantile(0.5, 2 s)

All record-based estimators are linear in the range, so their sampling mean,
variance and MSE under a fixed true scale follow from the Gamma(n - 1, delta)
law of the range in closed form.

Each estimator's formula lives in one table on the sufficient statistics
(last record, range r, record count n, s and A). The formulas take floats or
ndarrays: the named functions below evaluate them on one checked record set,
sim on a whole block of repetitions at once.
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
)
from .model import PosteriorParams, PriorParams, posterior_from
from .records import RecordSummary
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


def _posterior_mean_denom(s: float) -> float:
    # a + n - 2, the posterior mean's denominator; it must be positive
    denom = s + 1.0 - 2.0
    if denom <= 0.0:
        raise DegeneratePosteriorError(
            f"the posterior mean needs a + n > 2, got {s + 1.0!r}"
        )
    return denom


Formula = Callable[..., float]

# The record-based estimators as formulas, called by keyword with any of
# last, r, n, s and A; last, r and A may be ndarrays, s and n are scalars.
# They check only what depends on s alone, so the named functions check
# their arguments and sim checks each block's statistics once.
_FORMULAS: dict[EstimatorId, Formula] = {
    EstimatorId.MLE_RECORDS: lambda *, last, n, **_: last / n,
    EstimatorId.MLE_URR: lambda *, r, n, **_: r / (n - 1),
    EstimatorId.BAYES_QUADRATIC: lambda *, s, A, **_: A / (s + 1.0),
    EstimatorId.BAYES_SQUARED: lambda *, s, A, **_: A / _posterior_mean_denom(s),
    EstimatorId.BAYES_ABSOLUTE: lambda *, s, A, **_: (
        2.0 * A / chi2_quantile(0.5, 2.0 * s)
    ),
}


def mle_sample(data: Sequence[float]) -> float:
    """Maximum likelihood from the full series: the sample mean."""
    if len(data) == 0:
        raise DomainError("cannot average an empty series")
    total = 0.0
    for j, x in enumerate(data, start=1):
        x = float(x)
        if not (math.isfinite(x) and x > 0.0):
            raise DomainError(f"observation {j} must be positive, got {x!r}")
        total += x
    return total / len(data)


def mle_records(x_last_record: float, n: int) -> float:
    """Maximum likelihood from the record values alone: x_T(n) / n."""
    if not (math.isfinite(x_last_record) and x_last_record > 0.0):
        raise DomainError(
            f"the last record value must be positive, got {x_last_record!r}"
        )
    if n < 1:
        raise DomainError(f"record count must be at least 1, got {n!r}")
    return _FORMULAS[EstimatorId.MLE_RECORDS](last=x_last_record, n=n)


def mle_urr(record_range: float, n: int) -> float:
    """Maximum likelihood from the record range alone: r / (n - 1)."""
    if not (math.isfinite(record_range) and record_range > 0.0):
        raise DomainError(f"record range must be positive, got {record_range!r}")
    if n < 2:
        raise InsufficientRecordsError("range-based MLE needs at least 2 records")
    return _FORMULAS[EstimatorId.MLE_URR](r=record_range, n=n)


def bayes_quadratic(post: PosteriorParams) -> float:
    """Bayes rule under scaled quadratic loss: the posterior mode A/(a+n)."""
    return _FORMULAS[EstimatorId.BAYES_QUADRATIC](s=post.s, A=post.A)


def bayes_squared(post: PosteriorParams) -> float:
    """Posterior mean A/(a + n - 2); exists only when s > 1."""
    return _FORMULAS[EstimatorId.BAYES_SQUARED](s=post.s, A=post.A)


def bayes_absolute(post: PosteriorParams) -> float:
    """Posterior median 2A / q, with q the chi-square median on 2s dof."""
    return _FORMULAS[EstimatorId.BAYES_ABSOLUTE](s=post.s, A=post.A)


Rule = Callable[[RecordSummary, PosteriorParams | None], float]

# Every record-based estimator as a checked rule on (summary, post), through
# its named function. The lambdas look the functions up by name at call
# time, so replacing a module attribute (as a tracer does) reaches every
# caller of the table.
_RULES: dict[EstimatorId, Rule] = {
    EstimatorId.MLE_RECORDS: lambda summary, post: mle_records(
        summary.values[-1], summary.n
    ),
    EstimatorId.MLE_URR: lambda summary, post: mle_urr(summary.range, summary.n),
    EstimatorId.BAYES_QUADRATIC: lambda summary, post: bayes_quadratic(post),
    EstimatorId.BAYES_SQUARED: lambda summary, post: bayes_squared(post),
    EstimatorId.BAYES_ABSOLUTE: lambda summary, post: bayes_absolute(post),
}
_SUMMARY_ONLY = (EstimatorId.MLE_RECORDS, EstimatorId.MLE_URR)


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
    return _RULES[estimator]


def point_estimate(
    estimator: EstimatorId, summary: RecordSummary, prior: PriorParams | None = None
) -> float:
    """Evaluate a record-based estimator by id; Bayes rules need the prior."""
    estimator = EstimatorId(estimator)
    rule = estimator_rule(estimator)
    if estimator in _SUMMARY_ONLY:
        return rule(summary, None)
    if prior is None:
        raise DomainError(f"{estimator} needs prior parameters")
    return rule(summary, posterior_from(prior, summary))


def analytic_moments(
    estimator: EstimatorId, delta_ref: float, n: int, prior: PriorParams | None = None
) -> Moments:
    """Closed-form sampling mean, variance and MSE at a fixed true scale.

    Uses E r = (n-1) delta and Var r = (n-1) delta^2 for the range and the
    n-fold gap decomposition for the last record. No closed form exists for
    mle_sample (the record count over a fixed-length series is random), so
    it is rejected.
    """
    estimator = EstimatorId(estimator)
    if not (math.isfinite(delta_ref) and delta_ref > 0.0):
        raise DomainError(f"reference scale must be positive, got {delta_ref!r}")
    if n < 2:
        raise DomainError(f"moments need n >= 2 records, got {n!r}")

    if estimator is EstimatorId.MLE_SAMPLE:
        raise UnsupportedEstimatorError(
            "mle_sample has no closed-form record-based moments"
        )
    if estimator is EstimatorId.MLE_RECORDS:
        mean, var = delta_ref, delta_ref * delta_ref / n
    elif estimator is EstimatorId.MLE_URR:
        mean, var = delta_ref, delta_ref * delta_ref / (n - 1)
    else:
        if prior is None:
            raise DomainError(f"{estimator} needs prior parameters")
        a, b = prior.a, prior.b
        if estimator is EstimatorId.BAYES_QUADRATIC:
            denom = a + n
        elif estimator is EstimatorId.BAYES_SQUARED:
            denom = a + n - 2.0
            if denom <= 0.0:
                raise DegeneratePosteriorError(
                    f"the posterior mean needs a + n > 2, got {a + n!r}"
                )
        else:
            denom = 0.5 * chi2_quantile(0.5, 2.0 * (a + n - 1.0))
        mean = ((n - 1) * delta_ref + b) / denom
        var = (n - 1) * delta_ref * delta_ref / (denom * denom)

    bias = mean - delta_ref
    return Moments(mean=mean, variance=var, mse=var + bias * bias)
