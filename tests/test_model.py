import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from recrange import (
    DomainError,
    InsufficientRecordsError,
    PosteriorParams,
    PriorParams,
    RecordSummary,
    chi2_quantile,
    posterior_coverage,
    posterior_from,
    posterior_log_pdf,
    posterior_mode,
    posterior_pdf,
    range_pdf,
)

# frozen oracle values for the (s=4, A=9.319232) posterior, produced by
# adaptive quadrature of the density and cross-checked with scipy.stats
COVERAGE_1_5 = 0.8639010526566472
PDF_AT_2 = 0.372026390674065


def summary_with_range(r: float) -> RecordSummary:
    return RecordSummary(values=(0.0, r), times=(1, 2))


class TestPriorParams:
    def test_accepts_positive(self):
        p = PriorParams(a=3.0, b=5.0)
        assert (p.a, p.b) == (3.0, 5.0)

    def test_accepts_degenerate_scale(self):
        # b=0 is the flat-scale limit used by the unbiased-case identities
        assert PriorParams(a=1.0, b=0.0).b == 0.0

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 1.0), (1.0, -0.5), (math.nan, 1.0)])
    def test_rejects_bad_params(self, a, b):
        with pytest.raises(DomainError):
            PriorParams(a=a, b=b)


class TestPosteriorParams:
    def test_default_exponent(self):
        post = PosteriorParams(s=4.0, A=9.319232)
        assert post.a_plus_n == 5.0

    def test_rejects_nonpositive(self):
        with pytest.raises(DomainError):
            PosteriorParams(s=0.0, A=1.0)
        with pytest.raises(DomainError):
            PosteriorParams(s=2.0, A=0.0)


class TestPosteriorFrom:
    @pytest.mark.parametrize(
        "a,b,r,s_want,A_want",
        [
            (3.0, 5.0, 4.319232, 4.0, 9.319232),
            (3.0, 5.0, 9.456790, 8.0, 14.456790),
            (3.0, 4.0, 2.013778, 4.0, 6.013778),
        ],
    )
    def test_update_rule(self, a, b, r, s_want, A_want):
        # s = a + n - 1 with n inferred from the summary, A = b + range
        values = tuple(0.0 + k * r / (s_want - a) for k in range(int(s_want - a) + 1))
        summary = RecordSummary(values=values, times=tuple(range(1, len(values) + 1)))
        post = posterior_from(PriorParams(a=a, b=b), summary)
        assert post.s == s_want
        assert math.isclose(post.A, A_want, rel_tol=1e-12)
        assert post.a_plus_n == s_want + 1.0

    def test_needs_two_records(self):
        one = RecordSummary(values=(1.0,), times=(1,))
        with pytest.raises(InsufficientRecordsError):
            posterior_from(PriorParams(a=1.0, b=1.0), one)


class TestRangePdf:
    def test_exponential_reduction_at_zero(self):
        # n=2 collapses to an Exp(delta) density
        assert range_pdf(0.0, 2, 2.0) == 0.5
        assert range_pdf(0.0, 3, 2.0) == 0.0

    def test_integrates_to_one(self):
        val, _ = integrate.quad(lambda r: range_pdf(r, 3, 1.0), 0.0, np.inf)
        assert abs(val - 1.0) < 1e-9

    def test_gamma_density_oracle(self):
        ours = range_pdf(4.0, 5, 2.0)
        ref = float(stats.gamma.pdf(4.0, a=4, scale=2.0))
        assert math.isclose(ours, ref, rel_tol=1e-12)

    @given(
        st.floats(min_value=1e-3, max_value=50.0),
        st.integers(min_value=2, max_value=40),
        st.floats(min_value=0.05, max_value=20.0),
    )
    @settings(max_examples=150)
    def test_matches_gamma_everywhere(self, r, n, delta):
        ref = float(stats.gamma.pdf(r, a=n - 1, scale=delta))
        assert math.isclose(range_pdf(r, n, delta), ref, rel_tol=1e-10, abs_tol=1e-300)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            range_pdf(-0.1, 3, 1.0)
        with pytest.raises(DomainError):
            range_pdf(1.0, 1, 1.0)
        with pytest.raises(DomainError):
            range_pdf(1.0, 3, 0.0)
        with pytest.raises(DomainError):
            range_pdf(math.nan, 3, 1.0)


class TestPosteriorPdf:
    def test_vanishes_at_origin(self, post_small):
        assert posterior_pdf(1e-8, post_small) < 1e-200
        assert posterior_log_pdf(1e-8, post_small) < -1e8

    def test_frozen_value(self, post_small):
        assert math.isclose(posterior_pdf(2.0, post_small), PDF_AT_2, rel_tol=1e-12)

    def test_scipy_inverted_gamma(self, post_small):
        ref = float(stats.invgamma.pdf(2.0, post_small.s, scale=post_small.A))
        assert math.isclose(posterior_pdf(2.0, post_small), ref, rel_tol=1e-12)

    def test_grid_argmax_is_mode(self, post_small):
        grid = np.linspace(0.5, 4.0, 70_001)
        dens = [posterior_pdf(float(d), post_small) for d in grid]
        top = grid[int(np.argmax(dens))]
        assert abs(top - posterior_mode(post_small)) < (grid[1] - grid[0]) + 1e-12

    @pytest.mark.parametrize("s", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("A", [1.0, 9.319232, 50.0])
    def test_integrates_to_one(self, s, A):
        post = PosteriorParams(s=s, A=A)
        val, _ = integrate.quad(
            lambda d: posterior_pdf(d, post), 0.0, np.inf, limit=200
        )
        assert abs(val - 1.0) < 1e-8

    @pytest.mark.parametrize("delta", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_delta(self, delta, post_small):
        with pytest.raises(DomainError):
            posterior_pdf(delta, post_small)

    def test_density_beyond_the_float_range_is_inf(self):
        # at s = 1e8, A = 1e-298 the mode density is about 4e309
        post = PosteriorParams(s=1e8, A=1e-298)
        mode = posterior_mode(post)
        assert 709.8 < posterior_log_pdf(mode, post) < 720.0
        assert posterior_pdf(mode, post) == math.inf

    def test_log_and_linear_agree(self, post_small):
        for d in (0.3, 1.0, 1.86, 5.0, 40.0):
            assert math.isclose(
                math.exp(posterior_log_pdf(d, post_small)),
                posterior_pdf(d, post_small),
                rel_tol=1e-12,
            )


class TestPosteriorCoverage:
    def test_zero_width(self, post_small):
        assert posterior_coverage(2.0, 2.0, post_small) == 0.0

    def test_total_mass(self, post_small):
        assert abs(posterior_coverage(1e-12, math.inf, post_small) - 1.0) < 1e-10

    def test_frozen_quadrature_value(self, post_small):
        assert abs(posterior_coverage(1.0, 5.0, post_small) - COVERAGE_1_5) < 1e-9

    def test_scipy_cdf_difference(self, post_small):
        ref = float(
            stats.invgamma.cdf(5.0, post_small.s, scale=post_small.A)
            - stats.invgamma.cdf(1.0, post_small.s, scale=post_small.A)
        )
        assert abs(posterior_coverage(1.0, 5.0, post_small) - ref) < 1e-12

    def test_rejects_reversed_endpoints(self, post_small):
        with pytest.raises(DomainError):
            posterior_coverage(5.0, 1.0, post_small)

    @given(
        st.floats(min_value=0.01, max_value=20.0),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=5.0),
    )
    @settings(max_examples=100)
    def test_monotone_widening(self, lo, shrink, grow):
        post = PosteriorParams(s=4.0, A=9.319232)
        hi = lo + 1.0
        inner = posterior_coverage(lo, hi, post)
        outer = posterior_coverage(max(lo - shrink, 1e-6), hi + grow, post)
        assert outer >= inner - 1e-15

    def test_chi_squared_pivot_link(self, post_small):
        # 2A/delta | data ~ chi^2 with 2s dof, tying coverage to quantiles
        nu = 2.0 * post_small.s
        for p_lo, p_hi in [(0.05, 0.95), (0.25, 0.5), (0.1, 0.99)]:
            q_lo = chi2_quantile(p_lo, nu)
            q_hi = chi2_quantile(p_hi, nu)
            cov = posterior_coverage(
                2.0 * post_small.A / q_hi, 2.0 * post_small.A / q_lo, post_small
            )
            assert abs(cov - (p_hi - p_lo)) < 1e-9


class TestPosteriorMode:
    def test_examples(self):
        assert math.isclose(
            posterior_mode(PosteriorParams(s=4.0, A=9.319232)), 1.8638464, rel_tol=1e-9
        )
        assert posterior_mode(PosteriorParams(s=1.0, A=1.0)) == 0.5
        assert math.isclose(
            posterior_mode(PosteriorParams(s=8.0, A=14.456790)), 1.6063100, rel_tol=1e-8
        )
