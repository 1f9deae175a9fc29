import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from recrange import estimators
from recrange import (
    DegeneratePosteriorError,
    DomainError,
    EstimatorId,
    InsufficientRecordsError,
    PosteriorParams,
    PriorParams,
    RecordSummary,
    UnsupportedEstimatorError,
    analytic_moments,
    bayes_absolute,
    bayes_quadratic,
    bayes_squared,
    chi2_quantile,
    datasets,
    estimator_rule,
    mle_records,
    mle_sample,
    mle_urr,
    point_estimate,
    posterior_coverage,
    posterior_from,
    posterior_mode,
    sample_records_direct,
)


def post(s: float, A: float) -> PosteriorParams:
    return PosteriorParams(s=s, A=A)


class TestMleSample:
    def test_constant_data(self):
        assert mle_sample([2.0, 2.0, 2.0]) == 2.0

    def test_two_point_mean(self):
        assert mle_sample([1.0, 3.0]) == 2.0

    def test_bundled_series_against_fsum(self):
        data = datasets.SAMPLE_A
        assert math.isclose(mle_sample(data), math.fsum(data) / len(data), rel_tol=1e-14)

    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            mle_sample([])

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            mle_sample([1.0, 0.0])
        with pytest.raises(DomainError):
            mle_sample([1.0, -2.0])


class TestMleRecords:
    def test_printed_values(self):
        # printed table rounds half-up; float formatting is half-even, so
        # compare numerically at the printed precision instead of by string
        assert math.isclose(mle_records(4.38197283, 2), 2.19098642, rel_tol=5e-9)
        assert math.isclose(mle_records(9.51953091, 6), 1.58658848, rel_tol=5e-9)

    def test_single_record(self):
        assert mle_records(3.7, 1) == 3.7

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mle_records(0.0, 2)
        with pytest.raises(DomainError):
            mle_records(1.0, 0)


class TestMleUrr:
    @pytest.mark.parametrize(
        "r,n,want",
        [(4.319232, 2, 4.319232), (5.583854, 3, 2.791927), (9.456790, 6, 1.891358)],
    )
    def test_printed_values(self, r, n, want):
        assert math.isclose(mle_urr(r, n), want, rel_tol=1e-9)

    @given(
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=1e-3, max_value=1e3),
        st.integers(min_value=2, max_value=30),
    )
    @settings(max_examples=100)
    def test_scale_equivariance(self, r, c, n):
        assert math.isclose(mle_urr(c * r, n), c * mle_urr(r, n), rel_tol=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            mle_urr(-1.0, 3)
        with pytest.raises(InsufficientRecordsError):
            mle_urr(1.0, 1)


class TestBayesPoint:
    @pytest.mark.parametrize(
        "s,A,want",
        [
            (4.0, 9.319232, 1.863846),
            (6.0, 12.203468, 1.743353),
            (8.0, 14.456790, 1.606310),
        ],
    )
    def test_quadratic_printed_values(self, s, A, want):
        assert math.isclose(bayes_quadratic(post(s, A)), want, rel_tol=5e-7)

    def test_quadratic_is_posterior_mode(self):
        p = post(4.0, 9.319232)
        assert bayes_quadratic(p) == posterior_mode(p)

    @pytest.mark.parametrize(
        "s,A,want", [(4.0, 9.319232, 3.106411), (8.0, 14.456790, 2.065256)]
    )
    def test_squared_printed_values(self, s, A, want):
        assert math.isclose(bayes_squared(post(s, A)), want, rel_tol=5e-7)

    def test_squared_with_flat_prior_is_urr(self):
        # a=1, b=0: A/(a+n-2) collapses to range/(n-1)
        for n, r in [(2, 0.7), (5, 9.3)]:
            summary = RecordSummary(
                values=tuple(np.linspace(0.0, r, n)), times=tuple(range(1, n + 1))
            )
            p = posterior_from(PriorParams(a=1.0, b=0.0), summary)
            assert math.isclose(bayes_squared(p), mle_urr(r, n), rel_tol=1e-12)

    def test_squared_degenerate(self):
        with pytest.raises(DegeneratePosteriorError):
            bayes_squared(post(1.0, 2.0))  # a+n = 2, zero denominator
        with pytest.raises(DegeneratePosteriorError):
            bayes_squared(post(0.5, 2.0))

    def test_absolute_is_posterior_median(self):
        p = post(4.0, 9.319232)
        med = bayes_absolute(p)
        assert abs(posterior_coverage(1e-12, med, p) - 0.5) < 1e-9

    def test_absolute_quantile_form(self):
        p = post(4.0, 9.319232)
        want = 2.0 * 9.319232 / chi2_quantile(0.5, 8.0)
        assert math.isclose(bayes_absolute(p), want, rel_tol=1e-12)
        assert math.isclose(bayes_absolute(p), 2.53787522521687, rel_tol=1e-10)

    @given(
        st.floats(min_value=2.05, max_value=60.0),
        st.floats(min_value=1e-3, max_value=1e3),
    )
    @settings(max_examples=100)
    def test_mode_median_mean_ordering(self, s, A):
        p = post(s, A)
        assert bayes_quadratic(p) < bayes_absolute(p) < bayes_squared(p)

    @given(
        st.floats(min_value=1.05, max_value=80.0),
        st.floats(min_value=1e-4, max_value=1e4),
    )
    @settings(max_examples=100)
    def test_shared_numerator_identity(self, s, A):
        p = post(s, A)
        assert math.isclose(bayes_quadratic(p) * p.a_plus_n, A, rel_tol=1e-14)
        assert math.isclose(bayes_squared(p) * (p.a_plus_n - 2.0), A, rel_tol=1e-14)


class TestPointEstimateDispatch:
    @pytest.fixture
    def summary(self):
        return RecordSummary(values=(1.0, 2.0, 4.0, 6.0), times=(1, 2, 3, 4))

    def test_record_mles_need_no_prior(self, summary):
        assert point_estimate(EstimatorId.MLE_RECORDS, summary) == 6.0 / 4
        assert point_estimate(EstimatorId.MLE_URR, summary) == 5.0 / 3

    def test_bayes_routes(self, summary):
        prior = PriorParams(a=3.0, b=5.0)
        p = posterior_from(prior, summary)
        assert point_estimate(EstimatorId.BAYES_QUADRATIC, summary, prior) == bayes_quadratic(p)
        assert point_estimate(EstimatorId.BAYES_SQUARED, summary, prior) == bayes_squared(p)
        assert point_estimate(EstimatorId.BAYES_ABSOLUTE, summary, prior) == bayes_absolute(p)

    def test_bayes_without_prior(self, summary):
        with pytest.raises(DomainError):
            point_estimate(EstimatorId.BAYES_QUADRATIC, summary)

    def test_sample_mle_unsupported(self, summary):
        with pytest.raises(UnsupportedEstimatorError):
            point_estimate(EstimatorId.MLE_SAMPLE, summary)


class TestEstimatorRule:
    def test_rules_match_the_estimator_functions(self):
        summary = RecordSummary(values=(1.0, 2.0, 4.0, 6.0), times=(1, 2, 3, 4))
        p = posterior_from(PriorParams(a=3.0, b=5.0), summary)
        want = {
            EstimatorId.MLE_RECORDS: mle_records(6.0, 4),
            EstimatorId.MLE_URR: mle_urr(5.0, 4),
            EstimatorId.BAYES_QUADRATIC: bayes_quadratic(p),
            EstimatorId.BAYES_SQUARED: bayes_squared(p),
            EstimatorId.BAYES_ABSOLUTE: bayes_absolute(p),
        }
        for est, value in want.items():
            assert estimator_rule(est)(summary, p) == value
            assert estimator_rule(est.value)(summary, p) == value

    def test_mle_sample_has_no_rule(self):
        with pytest.raises(UnsupportedEstimatorError):
            estimator_rule(EstimatorId.MLE_SAMPLE)

    def test_record_mles_work_on_a_single_record(self):
        one = RecordSummary(values=(3.0,), times=(1,))
        prior = PriorParams(a=3.0, b=5.0)
        assert point_estimate(EstimatorId.MLE_RECORDS, one, prior) == 3.0

    @pytest.mark.parametrize(
        "prior", [PriorParams(a=3.0, b=5.0), PriorParams(a=0.5, b=0.0)]
    )
    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_array_formulas_equal_the_scalar_rules(self, n, prior):
        # sim evaluates each (statistic, divisor) table entry once per block
        # on arrays of repetitions; every element must be the scalar rule's
        # float, bit for bit
        summaries = [
            sample_records_direct(1.7, n, np.random.default_rng([n, rep]))
            for rep in range(25)
        ]
        posts = [posterior_from(prior, sm) for sm in summaries]
        last = np.array([sm.values[-1] for sm in summaries])
        r = np.array([sm.range for sm in summaries])
        s = prior.a + n - 1.0
        for est in estimators._TABLE:
            got = estimators._estimate(est, n, s, last=last, r=r, A=prior.b + r)
            want = [estimator_rule(est)(sm, p) for sm, p in zip(summaries, posts)]
            assert type(got) is np.ndarray and got.tolist() == want, est


RECORD_ESTIMATORS = tuple(e for e in EstimatorId if e is not EstimatorId.MLE_SAMPLE)


def textbook(est: EstimatorId, last: float, r: float, n: int, post: PosteriorParams):
    """Each record estimator as printed: last/n, r/(n-1), A/(s+1), A/(s-1), 2A/q."""
    s, A = post.s, post.A
    return {
        EstimatorId.MLE_RECORDS: lambda: last / n,
        EstimatorId.MLE_URR: lambda: r / (n - 1),
        EstimatorId.BAYES_QUADRATIC: lambda: A / (s + 1),
        EstimatorId.BAYES_SQUARED: lambda: A / (s - 1),
        EstimatorId.BAYES_ABSOLUTE: lambda: 2 * A / chi2_quantile(0.5, 2 * s),
    }[est]()


class TestTextbookForms:
    @pytest.mark.parametrize(
        "prior", [PriorParams(a=3.0, b=5.0), PriorParams(a=0.7, b=0.13)]
    )
    @pytest.mark.parametrize("n", [2, 3, 8, 41])
    def test_every_scalar_path_gives_the_printed_formula(self, n, prior):
        named = {
            EstimatorId.MLE_RECORDS: lambda sm, p: mle_records(sm.values[-1], sm.n),
            EstimatorId.MLE_URR: lambda sm, p: mle_urr(sm.range, sm.n),
            EstimatorId.BAYES_QUADRATIC: lambda sm, p: bayes_quadratic(p),
            EstimatorId.BAYES_SQUARED: lambda sm, p: bayes_squared(p),
            EstimatorId.BAYES_ABSOLUTE: lambda sm, p: bayes_absolute(p),
        }
        for rep in range(40):
            sm = sample_records_direct(2.3, n, np.random.default_rng([n, rep]))
            p = posterior_from(prior, sm)
            for est in RECORD_ESTIMATORS:
                want = textbook(est, sm.values[-1], sm.range, n, p)
                assert named[est](sm, p) == want, est
                assert estimator_rule(est)(sm, p) == want, est
                assert point_estimate(est, sm, prior) == want, est


class TestAnalyticMoments:
    @pytest.mark.parametrize("est", RECORD_ESTIMATORS)
    @pytest.mark.parametrize(
        "delta,a,b", [(1.7, 0.3, 4.1), (0.23, 2.9, 0.13), (13.1, 7.7, 0.0)]
    )
    def test_match_the_scipy_gamma_moments_of_the_statistic(self, est, delta, a, b):
        # last ~ Gamma(n, delta); r ~ Gamma(n - 1, delta) and A = b + r; the
        # estimate is the statistic over its divisor
        prior = PriorParams(a=a, b=b)
        for n in range(2, 51):
            s = a + n - 1.0
            k, offset, divisor = {
                EstimatorId.MLE_RECORDS: (n, 0.0, n),
                EstimatorId.MLE_URR: (n - 1, 0.0, n - 1),
                EstimatorId.BAYES_QUADRATIC: (n - 1, b, a + n),
                EstimatorId.BAYES_SQUARED: (n - 1, b, a + n - 2),
                EstimatorId.BAYES_ABSOLUTE: (n - 1, b, chi2_quantile(0.5, 2 * s) / 2),
            }[est]
            statistic = scipy.stats.gamma(k, scale=delta)
            want_mean = (statistic.mean() + offset) / divisor
            want_var = statistic.var() / divisor**2
            m = analytic_moments(est, delta, n, prior)
            assert math.isclose(m.mean, want_mean, rel_tol=1e-13), (est, n)
            assert math.isclose(m.variance, want_var, rel_tol=1e-13), (est, n)
            want_mse = want_var + (want_mean - delta) ** 2
            assert math.isclose(m.mse, want_mse, rel_tol=1e-13), (est, n)

    def test_quadratic_example(self):
        m = analytic_moments(
            EstimatorId.BAYES_QUADRATIC, 2.0, 4, PriorParams(a=3.0, b=5.0)
        )
        assert math.isclose(m.mean, 11.0 / 7.0, rel_tol=1e-14)
        assert math.isclose(m.variance, 12.0 / 49.0, rel_tol=1e-14)
        assert math.isclose(m.mse, m.variance + (m.mean - 2.0) ** 2, rel_tol=1e-14)

    def test_quadratic_asymptotic_bias_bound(self):
        # with b=0 the bias is exactly -delta (a+1)/(a+n), shrinking in n
        a, delta = 3.0, 2.0
        for n in (10, 1_000, 10**6):
            m = analytic_moments(
                EstimatorId.BAYES_QUADRATIC, delta, n, PriorParams(a=a, b=0.0)
            )
            assert abs(m.mean - delta) <= delta * (a + 1.0) / (a + n) + 1e-15

    def test_squared_unbiased_case(self):
        for n in (2, 3, 7, 50):
            m = analytic_moments(
                EstimatorId.BAYES_SQUARED, 3.1, n, PriorParams(a=1.0, b=0.0)
            )
            assert math.isclose(m.mean, 3.1, rel_tol=1e-14)

    def test_urr_is_unbiased(self):
        m = analytic_moments(EstimatorId.MLE_URR, 2.0, 4)
        assert m.mean == 2.0
        assert math.isclose(m.variance, 4.0 / 3.0, rel_tol=1e-14)

    def test_absolute_median_scaling(self):
        prior = PriorParams(a=3.0, b=5.0)
        m = analytic_moments(EstimatorId.BAYES_ABSOLUTE, 2.0, 4, prior)
        denom = 0.5 * chi2_quantile(0.5, 12.0)
        assert math.isclose(m.mean, (3 * 2.0 + 5.0) / denom, rel_tol=1e-12)

    def test_monte_carlo_consistency(self):
        # quadratic-loss Bayes rule at (a=3, b=5, n=4, delta=2), 1e5 reps
        delta, n, reps = 2.0, 4, 100_000
        prior = PriorParams(a=3.0, b=5.0)
        rng = np.random.default_rng(21)
        ranges = rng.gamma(shape=n - 1, scale=delta, size=reps)
        estimates = (ranges + prior.b) / (prior.a + n)
        m = analytic_moments(EstimatorId.BAYES_QUADRATIC, delta, n, prior)
        se_mean = math.sqrt(m.variance / reps)
        assert abs(estimates.mean() - m.mean) < 3.0 * se_mean

    def test_mle_sample_unsupported(self):
        with pytest.raises(UnsupportedEstimatorError):
            analytic_moments(EstimatorId.MLE_SAMPLE, 2.0, 4)

    def test_bayes_needs_prior(self):
        with pytest.raises(DomainError):
            analytic_moments(EstimatorId.BAYES_SQUARED, 2.0, 4)


class TestReportShape:
    def test_estimator_ids_are_stable_strings(self):
        assert EstimatorId.BAYES_QUADRATIC.value == "bayes_quadratic"
        assert str(EstimatorId.MLE_URR) == "mle_urr"
        assert len(EstimatorId) == 6
