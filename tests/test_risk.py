import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from recrange import (
    AdmissibilityClass,
    DomainError,
    EstimatorId,
    LinearEstimator,
    LossWeight,
    PriorParams,
    analytic_moments,
    bayes_risk_linear,
    classify_admissible,
    r1_r2_gap,
    risk_linear,
)

# Frozen gap values at (n=4, b=2), computed with exact rational arithmetic
# ahead of the implementation. k * gap tends to -(b-1)^2 / (b n)^2 = -1/64.
GAP_ORACLE = {
    1: -0.01875,
    10: -0.0015663109756097562,
    100: -0.00015625389650872817,
    10**4: -1.5625000039061524e-06,
    10**6: -1.5625000000003907e-08,
}


class TestRiskLinear:
    def test_zero_at_matching_offset(self):
        # m=0, d=delta estimates exactly right every time
        assert risk_linear(LinearEstimator(m=0.0, d=2.0), 2.0, 4) == 0.0
        assert risk_linear(LinearEstimator(m=0.0, d=0.123), 0.123, 9) == 0.0

    def test_unbiased_mle_case(self):
        for n in (2, 4, 11):
            est = LinearEstimator(m=1.0 / (n - 1), d=0.0)
            assert math.isclose(risk_linear(est, 3.7, n), 1.0 / (n - 1), rel_tol=1e-12)

    def test_monte_carlo_oracle(self):
        est, delta, n, reps = LinearEstimator(m=0.2, d=0.5), 2.0, 4, 200_000
        rng = np.random.default_rng(3)
        r = rng.gamma(shape=n - 1, scale=delta, size=reps)
        losses = ((est.m * r + est.d - delta) / delta) ** 2
        se = losses.std(ddof=1) / math.sqrt(reps)
        assert abs(losses.mean() - risk_linear(est, delta, n)) < 3.0 * se

    def test_unscaled_weighting(self):
        est, delta, n = LinearEstimator(m=0.3, d=0.4), 1.7, 5
        scaled = risk_linear(est, delta, n, loss=LossWeight.SCALED)
        unscaled = risk_linear(est, delta, n, loss=LossWeight.UNSCALED)
        assert math.isclose(unscaled, scaled * delta * delta, rel_tol=1e-12)

    def test_scaled_risk_is_delta_free_when_biasless(self):
        # with d=0 the scaled risk depends only on (m, n)
        est = LinearEstimator(m=0.17, d=0.0)
        assert risk_linear(est, 0.5, 6) == risk_linear(est, 50.0, 6)

    def test_decomposes_into_variance_and_bias(self):
        # cross-check against the moment formulas for the Bayes rule
        a, b, n, delta = 3.0, 5.0, 4, 2.0
        est = LinearEstimator(m=1.0 / (a + n), d=b / (a + n))
        mom = analytic_moments(EstimatorId.BAYES_QUADRATIC, delta, n, PriorParams(a, b))
        want = mom.variance / delta**2 + ((mom.mean - delta) / delta) ** 2
        assert math.isclose(risk_linear(est, delta, n), want, rel_tol=1e-12)

    def test_tiny_scale_overflows_instead_of_dividing_by_zero(self):
        # delta * delta underflows to 0; (d / delta)^2 overflows
        assert risk_linear(LinearEstimator(m=0.1, d=1.0), 1e-200, 4) == math.inf

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            risk_linear(LinearEstimator(m=0.1, d=0.1), 0.0, 4)
        with pytest.raises(DomainError):
            risk_linear(LinearEstimator(m=0.1, d=0.1), 2.0, 1)


class TestBayesRiskLinear:
    def test_matches_boundary_closed_form(self):
        # m = d = 1/n with prior shape 1/k reproduces the r2 expression
        k, n, b = 7.0, 4, 2.0
        est = LinearEstimator(m=1.0 / n, d=1.0 / n)
        got = bayes_risk_linear(est, n, PriorParams(a=1.0 / k, b=b))
        want = 1.0 / n - 2.0 / (b * n * n * k) + (k + 1.0) / (n * n * k * k * b * b)
        assert math.isclose(got, want, rel_tol=1e-12)

    def test_offset_free_rules_ignore_prior(self):
        est = LinearEstimator(m=0.21, d=0.0)
        r_a = bayes_risk_linear(est, 5, PriorParams(a=2.0, b=9.0))
        r_b = bayes_risk_linear(est, 5, PriorParams(a=0.3, b=0.01))
        assert r_a == r_b

    def test_nested_monte_carlo_oracle(self):
        est, n, reps = LinearEstimator(m=0.2, d=0.5), 4, 200_000
        a, b = 3.0, 5.0
        rng = np.random.default_rng(17)
        delta = 1.0 / rng.gamma(shape=a, scale=1.0 / b, size=reps)
        r = rng.gamma(shape=n - 1, size=reps) * delta
        losses = ((est.m * r + est.d - delta) / delta) ** 2
        se = losses.std(ddof=1) / math.sqrt(reps)
        assert abs(losses.mean() - bayes_risk_linear(est, n, PriorParams(a, b))) < 3.0 * se

    def test_unscaled_needs_heavy_prior(self):
        est = LinearEstimator(m=0.1, d=0.1)
        with pytest.raises(DomainError):
            bayes_risk_linear(est, 4, PriorParams(a=2.0, b=1.0), loss=LossWeight.UNSCALED)
        # a > 2 works
        val = bayes_risk_linear(est, 4, PriorParams(a=3.0, b=1.0), loss=LossWeight.UNSCALED)
        assert val > 0.0

    def test_unscaled_monte_carlo(self):
        est, n, reps = LinearEstimator(m=0.15, d=0.3), 4, 200_000
        a, b = 4.0, 5.0
        rng = np.random.default_rng(29)
        delta = 1.0 / rng.gamma(shape=a, scale=1.0 / b, size=reps)
        r = rng.gamma(shape=n - 1, size=reps) * delta
        losses = (est.m * r + est.d - delta) ** 2
        se = losses.std(ddof=1) / math.sqrt(reps)
        want = bayes_risk_linear(est, n, PriorParams(a, b), loss=LossWeight.UNSCALED)
        assert abs(losses.mean() - want) < 3.0 * se

    def test_tiny_prior_scale_overflows_instead_of_dividing_by_zero(self):
        # b * b underflows to 0; a (a + 1) / b^2 overflows
        prior = PriorParams(a=3.0, b=1e-200)
        assert bayes_risk_linear(LinearEstimator(m=0.2, d=0.1), 4, prior) == math.inf

    def test_rejects_degenerate_scale(self):
        with pytest.raises(DomainError):
            bayes_risk_linear(LinearEstimator(m=0.1, d=0.1), 4, PriorParams(a=1.0, b=0.0))


class TestGap:
    def test_frozen_oracle_values(self):
        for k, want in GAP_ORACLE.items():
            assert math.isclose(r1_r2_gap(float(k), 4, 2.0), want, rel_tol=1e-6)

    def test_tiny_prior_scale_is_not_finite_instead_of_dividing_by_zero(self):
        assert not math.isfinite(r1_r2_gap(1.0, 4, 1e-200))

    def test_magnitude_decreasing(self):
        gaps = [abs(r1_r2_gap(float(k), 4, 2.0)) for k in GAP_ORACLE]
        assert all(x > y for x, y in zip(gaps, gaps[1:]))

    def test_small_at_large_k(self):
        assert abs(r1_r2_gap(1e6, 4, 2.0)) < 1e-4

    def test_k_gap_limit(self):
        # k * gap -> -(b-1)^2/(b n)^2
        for n, b in [(4, 2.0), (3, 5.0), (6, 1.0)]:
            limit = -((b - 1.0) ** 2) / (b * n) ** 2
            assert abs(1e7 * r1_r2_gap(1e7, n, b) - limit) < 1e-6

    def test_bayes_rule_never_loses(self):
        # r1 is the Bayes risk of the optimal rule, so the gap stays <= 0
        for k in (0.5, 1.0, 3.0, 40.0):
            assert r1_r2_gap(k, 4, 2.0) <= 1e-15

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            r1_r2_gap(0.0, 4, 2.0)
        with pytest.raises(DomainError):
            r1_r2_gap(1.0, 4, 0.0)
        with pytest.raises(DomainError):
            r1_r2_gap(1.0, 1, 2.0)


class TestClassify:
    def test_bayes_rule_is_interior(self):
        est = LinearEstimator(m=1.0 / 7.0, d=5.0 / 7.0)
        assert classify_admissible(est, 4) is AdmissibilityClass.ADMISSIBLE_INTERIOR

    def test_boundary_rule(self):
        est = LinearEstimator(m=0.25, d=0.25)
        assert classify_admissible(est, 4) is AdmissibilityClass.ADMISSIBLE_BOUNDARY

    def test_above_boundary(self):
        assert (
            classify_admissible(LinearEstimator(m=0.5, d=1.0), 4)
            is AdmissibilityClass.OUTSIDE_THEOREM
        )

    def test_zero_slope_positive_offset(self):
        assert (
            classify_admissible(LinearEstimator(m=0.0, d=2.0), 4)
            is AdmissibilityClass.ADMISSIBLE_INTERIOR
        )

    @pytest.mark.parametrize("d", [0.0, -1.0])
    def test_nonpositive_offset_outside(self, d):
        assert (
            classify_admissible(LinearEstimator(m=0.1, d=d), 4)
            is AdmissibilityClass.OUTSIDE_THEOREM
        )

    def test_negative_slope_outside(self):
        assert (
            classify_admissible(LinearEstimator(m=-0.01, d=1.0), 4)
            is AdmissibilityClass.OUTSIDE_THEOREM
        )

    def test_boundary_tolerance(self):
        # float noise at the 1/n boundary still classifies as boundary
        m = (1.0 / 3.0) * (1.0 - 1e-13)
        assert (
            classify_admissible(LinearEstimator(m=m, d=0.5), 3)
            is AdmissibilityClass.ADMISSIBLE_BOUNDARY
        )

    @given(st.floats(min_value=1e-3, max_value=1e3), st.integers(min_value=2, max_value=50))
    @settings(max_examples=100)
    def test_all_bayes_rules_land_interior(self, a, n):
        # m = 1/(a+n) < 1/n whenever a > 0
        est = LinearEstimator(m=1.0 / (a + n), d=1.0)
        assert classify_admissible(est, n) is AdmissibilityClass.ADMISSIBLE_INTERIOR
