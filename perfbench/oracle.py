"""Independent reference values the benchmark checks the program against.

Posterior quantities come from ``scipy.stats.invgamma``; record extraction
from a NumPy running maximum; sampling moments of the record estimators from
their representation as an affine function of a Gamma(k, delta) variable.
Nothing here calls into recrange.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.stats import invgamma


def upper_records(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Record values and 1-based times; ties with the running maximum count."""
    prev_max = np.maximum.accumulate(x)
    is_record = np.empty(len(x), dtype=bool)
    is_record[0] = True
    is_record[1:] = x[1:] >= prev_max[:-1]
    idx = np.flatnonzero(is_record)
    return x[idx], idx + 1


def bayes_weight(estimator: str, s: np.ndarray) -> np.ndarray:
    """Posterior-summary factor w with estimate = w * A, for shape s."""
    s = np.asarray(s, dtype=float)
    if estimator == "bayes_quadratic":
        return 1.0 / (s + 1.0)  # posterior mode
    if estimator == "bayes_squared":
        return invgamma.mean(s)  # posterior mean
    if estimator == "bayes_absolute":
        return invgamma.median(s)  # posterior median
    raise ValueError(estimator)


def _affine_form(estimator: str, n: int, a: float, b: float):
    # (k, slope, intercept) with estimate = slope * G + intercept, G ~ Gamma(k, delta)
    if estimator == "mle_records":
        return n, 1.0 / n, 0.0
    if estimator == "mle_urr":
        return n - 1, 1.0 / (n - 1), 0.0
    w = float(bayes_weight(estimator, a + n - 1.0))
    return n - 1, w, w * b


def moments(estimator: str, delta: float, n: int, a: float, b: float) -> dict:
    """Mean, variance and MSE of the estimate, plus the variance of its squared error."""
    k, slope, intercept = _affine_form(estimator, n, a, b)
    shift = intercept - delta  # error = slope * G + shift
    raw = [1.0]
    for j in range(1, 5):
        raw.append(raw[-1] * delta * (k + j - 1))  # E G^j
    err = [
        sum(math.comb(m, j) * slope**j * raw[j] * shift ** (m - j) for j in range(m + 1))
        for m in range(5)
    ]
    return {
        "mean": slope * k * delta + intercept,
        "variance": slope * slope * k * delta * delta,
        "mse": err[2],
        "sq_error_variance": err[4] - err[2] ** 2,
    }


def ppf(q, s, A):
    return invgamma.ppf(q, s, scale=A)


def coverage(lo, hi, s, A):
    return invgamma.cdf(hi, s, scale=A) - invgamma.cdf(lo, s, scale=A)


def logpdf(x, s, A):
    return invgamma.logpdf(x, s, scale=A)


def hpm_lower(s, A, g):
    """Lower endpoint of the closed-form length-g interval (a + n = s + 1)."""
    apn = s + 1.0
    return (A + 2.0 * apn * g + np.sqrt(A * A + 8.0 * A * apn * g)) / (2.0 * apn)


def rel_err(got, want) -> np.ndarray:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    return np.abs(got - want) / np.maximum(np.abs(want), 1e-300)
