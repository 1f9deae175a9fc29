import csv
import math
import sys
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special, stats

from recrange import specfun
from recrange import (
    ConvergenceError,
    DomainError,
    PosteriorParams,
    RecRangeError,
    chi2_quantile,
    gen_incomplete_gamma,
    ln_gamma,
    posterior_coverage,
    posterior_log_pdf,
    posterior_pdf,
    reg_lower_gamma,
)

# Frozen reference values. Each was produced by an independent oracle
# (adaptive quadrature of the integrand, or bisection on the quadrature
# CDF) and cross-checked against scipy.special / scipy.stats.
P_4_9319232 = 0.9830825863712918  # quad of t^3 e^-t / 6 over [0, 9.319232]
GSTAR_4_05_3 = 2.1060989319688677  # quad of t^3 e^-t over [0.5, 3.0]
CHI2_95_8 = 15.50731305586545
CHI2_50_8 = 7.344121497701794

# Masses whose P values round or underflow alike, from mpmath 1.3
# (mp.dps = 40): gammainc(s, x_lo, x_hi), and for the coverage
# gammainc(5, 4.0/0.03, 4.0/0.02, regularized=True) at those float quotients.
GSTAR_1715_0_1 = 0.002157576899697869711878915552744608503905
GSTAR_6_70_71 = 4.351859828544068112190125456558950684397e-22
GSTAR_300_1_2 = 9.250894402921854842597997111586120101824e86
COVERAGE_002_003_5_4 = 1.685539073336813535293447325451459762914e-51

# tail probabilities from 1e-300 to 1 - 1e-8, for the quantile grid
GRID_P = [
    1e-300, 1e-200, 1e-100, 1e-50, 1e-30, 1e-20, 1e-15, 1e-12, 1e-10, 1e-8,
    1e-6, 1e-4, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9,
    0.95, 0.99, 0.999, 1.0 - 1e-4, 1.0 - 1e-6, 1.0 - 1e-8,
]


class TestLnGamma:
    def test_integer_anchors(self):
        assert ln_gamma(1.0) == 0.0
        assert ln_gamma(2.0) == 0.0
        assert math.isclose(ln_gamma(5.0), math.log(24.0), rel_tol=1e-14)

    @pytest.mark.parametrize("x", [1e-6, 0.37, 1.5, 88.0, 1e3, 1e6])
    def test_against_scipy(self, x):
        assert math.isclose(ln_gamma(x), float(special.gammaln(x)), rel_tol=1e-13)

    @pytest.mark.parametrize("x", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_input(self, x):
        with pytest.raises(DomainError):
            ln_gamma(x)

    @given(st.floats(min_value=0.5, max_value=100.0))
    def test_recurrence(self, x):
        # ln G(x+1) - ln G(x) = ln x
        assert abs(ln_gamma(x + 1.0) - ln_gamma(x) - math.log(x)) < 1e-11


class TestRegLowerGamma:
    def test_anchors(self):
        assert reg_lower_gamma(3.0, 0.0) == 0.0
        assert math.isclose(reg_lower_gamma(1.0, math.log(2.0)), 0.5, rel_tol=1e-13)
        assert reg_lower_gamma(2.5, math.inf) == 1.0

    def test_quadrature_oracle(self):
        assert abs(reg_lower_gamma(4.0, 9.319232) - P_4_9319232) < 1e-10

    @pytest.mark.parametrize(
        "s,x",
        [(0.5, 0.2), (1.0, 1.0), (4.0, 2.0), (4.0, 30.0), (50.0, 45.0), (200.0, 180.0)],
    )
    def test_against_scipy_grid(self, s, x):
        # covers both the series branch (x < s+1) and the continued fraction
        assert abs(reg_lower_gamma(s, x) - float(special.gammainc(s, x))) < 1e-12

    @pytest.mark.parametrize(
        "s,x",
        [(s, x) for s in (5e3, 1e4, 1e5, 1e6) for x in (0.99 * s, s, s + 1.5, 1.01 * s)],
    )
    def test_large_shape_against_scipy(self, s, x):
        # near x = s both expansions need about 8 sqrt(s) terms, beyond the
        # default 500-term budget once s passes a few thousand
        assert abs(reg_lower_gamma(s, x) - float(special.gammainc(s, x))) < 1e-9

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            reg_lower_gamma(0.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(-2.0, 1.0)
        with pytest.raises(DomainError):
            reg_lower_gamma(1.0, -0.5)
        with pytest.raises(DomainError):
            reg_lower_gamma(math.nan, 1.0)

    @given(
        st.floats(min_value=0.05, max_value=60.0),
        st.floats(min_value=0.0, max_value=150.0),
        st.floats(min_value=0.0, max_value=150.0),
    )
    @settings(max_examples=150)
    def test_monotone_in_x(self, s, x1, x2):
        lo, hi = sorted((x1, x2))
        assert reg_lower_gamma(s, lo) <= reg_lower_gamma(s, hi)

    def test_range_is_unit_interval(self):
        for s in (0.1, 1.0, 7.0):
            for x in (1e-8, 0.5, 5.0, 300.0):
                p = reg_lower_gamma(s, x)
                assert 0.0 <= p <= 1.0


def _ulps(got: float, want: str) -> float:
    # |got - want| in ulps of want's nearest float, exactly in decimal
    exact = Decimal(want)
    return float(abs(Decimal(got) - exact) / Decimal(math.ulp(float(exact))))


class TestAccuracyBudget:
    """The largest error against 300 mpmath values, per shape regime.

    tests/data/reg_gamma_mpmath.csv holds (s, x, P, Q) at 40 digits, with s
    from 0.05 to 2000 and both tails down to 1e-300 (make_reg_gamma_table.py
    writes it). Each bound is the largest error measured when the table was
    made, plus about 5% for the libm of another host: below s = 30, 61.0 ulp
    in P at s = 17.1, x = 12.9 and 84.8 ulp in Q at s = 0.93, x = 2.10; from
    s = 30, 5601 ulp in P at s = 963, x = 451 (P = 3.3e-97) and 4667 ulp in Q
    at s = 730, x = 1611. The large-shape errors come from the prefactor's
    cancellation outside the Stirling window and from deep tails taken as
    exp of a logarithm (ROADMAP item 10); mending those tightens the bounds.
    """

    TABLE = Path(__file__).parent / "data" / "reg_gamma_mpmath.csv"
    BOUNDS = {"s < 30": (65.0, 90.0), "s >= 30": (5900.0, 4900.0)}

    @pytest.mark.parametrize("regime", BOUNDS)
    def test_largest_error_per_regime(self, regime):
        with self.TABLE.open() as f:
            rows = list(csv.DictReader(f))
        rows = [r for r in rows if (float(r["s"]) < 30.0) == (regime == "s < 30")]
        assert len(rows) >= 80
        errors_p, errors_q = [], []
        for row in rows:
            s, x = float(row["s"]), float(row["x"])
            errors_p.append((_ulps(reg_lower_gamma(s, x), row["P"]), s, x))
            q = math.exp(specfun._log_mass(s, x, math.inf))  # Q(s, x)
            errors_q.append((_ulps(q, row["Q"]), s, x))
        for errors, bound in zip((errors_p, errors_q), self.BOUNDS[regime]):
            worst = max(errors)  # (ulps, s, x)
            assert worst[0] <= bound, worst


class TestGenIncompleteGamma:
    def test_zero_width(self):
        assert gen_incomplete_gamma(2.0, 1.0, 1.0) == 0.0

    def test_full_integral(self):
        assert math.isclose(gen_incomplete_gamma(3.0, 0.0, math.inf), 2.0, rel_tol=1e-12)

    def test_quadrature_oracle(self):
        assert abs(gen_incomplete_gamma(4.0, 0.5, 3.0) - GSTAR_4_05_3) < 1e-10

    def test_fresh_quadrature(self):
        val, _ = integrate.quad(lambda t: t**4.2 * math.exp(-t), 1.3, 8.7)
        assert abs(gen_incomplete_gamma(5.2, 1.3, 8.7) - val) < 1e-9

    def test_rejects_reversed_bounds(self):
        with pytest.raises(DomainError):
            gen_incomplete_gamma(2.0, 3.0, 1.0)

    # s capped so Gamma(s) stays ~1e4: the additivity bound is absolute and
    # float rounding scales with the magnitude of the unnormalized integral
    @given(
        st.floats(min_value=0.1, max_value=8.0),
        st.lists(st.floats(min_value=0.0, max_value=80.0), min_size=3, max_size=3),
    )
    @settings(max_examples=100)
    def test_additivity(self, s, pts):
        a, b, c = sorted(pts)
        whole = gen_incomplete_gamma(s, a, c)
        split = gen_incomplete_gamma(s, a, b) + gen_incomplete_gamma(s, b, c)
        assert abs(whole - split) < 1e-10

    def test_mass_between_rounded_tails(self):
        # both P values round to 1; the mass comes from the upper tails' logs
        assert math.isclose(
            gen_incomplete_gamma(6.0, 70.0, 71.0), GSTAR_6_70_71, rel_tol=1e-12
        )

    @pytest.mark.parametrize(
        "s, x_lo, x_hi, want",
        [(171.5, 0.0, 1.0, GSTAR_1715_0_1), (300.0, 1.0, 2.0, GSTAR_300_1_2)],
    )
    def test_mass_below_the_float_range_times_a_large_gamma(self, s, x_lo, x_hi, want):
        # P(171.5, 1) sits at the underflow of its prefactor; at s = 300 both
        # P values are below 1e-700 while Gamma(300) is above 1e600
        assert math.isclose(gen_incomplete_gamma(s, x_lo, x_hi), want, rel_tol=1e-12)


class TestPosteriorCoverageDigits:
    def test_coverage_far_below_one(self):
        # both P values round to 1 here, so their difference would be 0
        cover = posterior_coverage(0.02, 0.03, PosteriorParams(5.0, 4.0))
        assert math.isclose(cover, COVERAGE_002_003_5_4, rel_tol=1e-12)


class TestChi2Quantile:
    def test_exponential_anchor(self):
        # chi-squared with 2 dof is Exp(mean 2), median 2 ln 2
        assert abs(chi2_quantile(0.5, 2.0) - 2.0 * math.log(2.0)) < 1e-10

    def test_frozen_oracles(self):
        assert math.isclose(chi2_quantile(0.95, 8.0), CHI2_95_8, rel_tol=1e-10)
        assert math.isclose(chi2_quantile(0.5, 8.0), CHI2_50_8, rel_tol=1e-10)

    @pytest.mark.parametrize("p", [1e-6, 0.2, 0.8, 1.0 - 1e-6])
    @pytest.mark.parametrize("nu", [0.5, 2.0, 9.0, 240.0])
    def test_against_scipy(self, p, nu):
        ours = chi2_quantile(p, nu)
        ref = float(stats.chi2.ppf(p, nu))
        assert math.isclose(ours, ref, rel_tol=1e-8, abs_tol=1e-12)

    @pytest.mark.parametrize("p", [1e-12, 1.0 - 1e-10])
    @pytest.mark.parametrize("nu", [0.5, 9.0, 240.0])
    def test_extreme_tails_by_residual(self, p, nu):
        # in the far tails the CDF is nearly flat, so the contract is the
        # residual on the CDF scale rather than the quantile itself
        q = chi2_quantile(p, nu)
        assert abs(reg_lower_gamma(0.5 * nu, 0.5 * q) - p) < 1e-10

    def test_strictly_increasing_in_p(self):
        grid = [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99]
        qs = [chi2_quantile(p, 6.0) for p in grid]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_lower_boundary_limit(self):
        assert 0.0 < chi2_quantile(1e-14, 8.0) < 1e-2

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_bad_p(self, p):
        with pytest.raises(DomainError):
            chi2_quantile(p, 4.0)

    def test_rejects_bad_nu(self):
        with pytest.raises(DomainError):
            chi2_quantile(0.5, 0.0)
        with pytest.raises(DomainError):
            chi2_quantile(0.5, -3.0)

    @given(
        st.floats(min_value=0.001, max_value=0.999),
        st.floats(min_value=0.2, max_value=300.0),
    )
    @settings(max_examples=150)
    def test_round_trip(self, p, nu):
        q = chi2_quantile(p, nu)
        assert abs(reg_lower_gamma(0.5 * nu, 0.5 * q) - p) < 1e-9

    def test_repeat_call_returns_the_same_float(self):
        first = chi2_quantile(0.3, 7.25)
        assert chi2_quantile(0.3, 7.25) is first

    def test_memo_stays_within_its_bound(self):
        maxsize = specfun._chi2_quantile.cache_parameters()["maxsize"]
        for i in range(maxsize + 50):
            chi2_quantile(0.5, 1.0 + 1e-3 * i)
        assert specfun._chi2_quantile.cache_info().currsize <= maxsize

    @pytest.mark.parametrize(
        "p, nu",
        [(1e-30, 8.0), (1e-30, 2.0), (5e-10, 0.1), (5e-9, 0.1), (1e-9, 1.0),
         (1e-12, 3.0), (1e-200, 50.0), (5e-9, 2000.0), (1e-300, 2e4)],
    )
    def test_small_tails_against_scipy(self, p, nu):
        # the residual stop is relative to the smaller tail, and a start
        # already inside the bracket is kept, so tiny quantiles keep their
        # significant digits; at (1e-300, 2e4) plain Newton steps from above
        # would crawl past the loop cap
        ref = float(stats.chi2.ppf(p, nu))
        assert math.isclose(chi2_quantile(p, nu), ref, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "nu", [0.1, 0.5, 1.0, 3.0, 8.0, 50.0, 240.0, 1e3, 2e4, 2e5]
    )
    @pytest.mark.parametrize(
        "ours, ref",
        [(chi2_quantile, stats.chi2.ppf), (specfun._chi2_isf, stats.chi2.isf)],
        ids=["ppf", "isf"],
    )
    def test_grid_against_scipy(self, ours, ref, nu):
        # the smaller tail is solved from its own sum in log space, so both
        # ends of both routes keep their digits down to the smallest normal
        # float, below which the quantile raises
        for p in GRID_P:
            want = float(ref(p, nu))
            if want < sys.float_info.min:
                with pytest.raises(ConvergenceError):
                    ours(p, nu)
            else:
                assert math.isclose(ours(p, nu), want, rel_tol=1e-12), (p, nu)

    @pytest.mark.parametrize("p, nu", [(1.0 - 2.0**-53, 1e-15), (1.0 - 2.0**-53, 1e-16)])
    def test_tail_below_the_rounding_of_one_raises_a_package_error(self, p, nu):
        # the upper tail 2**-53 is summed as 1 - P, and P rounds to 1 there
        with pytest.raises(ConvergenceError, match="below the rounding of 1"):
            chi2_quantile(p, nu)

    def test_underflowing_quantile_raises_a_package_error(self):
        # the 1e-300 quantile of chi-square(1) is about 1e-600
        with pytest.raises(RecRangeError):
            chi2_quantile(1e-300, 1.0)


class TestLoopCap:
    def test_tight_budget_raises_convergence(self, monkeypatch):
        # one iteration resolves neither the continued fraction nor the
        # quantile; the memo is cleared so the starved solve really runs
        monkeypatch.setattr(specfun, "_MAX_ITER", 1)
        specfun._chi2_quantile.cache_clear()
        try:
            with pytest.raises(ConvergenceError):
                reg_lower_gamma(4.0, 30.0)
            with pytest.raises(ConvergenceError):
                chi2_quantile(0.5, 8.0)
        finally:
            specfun._chi2_quantile.cache_clear()


class TestShapeBound:
    @pytest.mark.parametrize("s", [1.0000001e10, 1e12, 1e15, 1e20, 1e300, 1e306])
    def test_sums_above_the_bound_raise(self, s):
        # near x = s the sums would need about 8 sqrt(s) terms, and once
        # s + 1 rounds to s the continued fraction divides by zero; at 1e306
        # the quantile's starting guess would overflow lgamma(s + 1)
        with pytest.raises(ConvergenceError, match="exceeds"):
            reg_lower_gamma(s, s)
        with pytest.raises(ConvergenceError, match="exceeds"):
            chi2_quantile(0.5, 2.0 * s)
        with pytest.raises(ConvergenceError, match="exceeds"):
            chi2_quantile(1e-3, 2.0 * s)

    @pytest.mark.parametrize("s", [1e12, 1e20, 1e300])
    def test_saturated_tails_above_the_bound_still_return(self, s):
        assert reg_lower_gamma(s, 1.0) == 0.0
        assert reg_lower_gamma(s, 0.5 * s) == 0.0
        assert reg_lower_gamma(s, 1e308) == 1.0

    # s = 1e306 is above 2.55e305, where math.lgamma(s) overflows; each call
    # either returns its saturated value or raises a package error
    @pytest.mark.parametrize(
        "call, expected",
        [
            (lambda s: reg_lower_gamma(s, 1.0), 0.0),
            (lambda s: reg_lower_gamma(s, 1e308), 1.0),
            (lambda s: reg_lower_gamma(s, s), ConvergenceError),
            (lambda s: gen_incomplete_gamma(s, 0.0, 1.0), DomainError),
            (lambda s: gen_incomplete_gamma(s, 1.0, 1.0), 0.0),
            (lambda s: gen_incomplete_gamma(s, 0.0, math.inf), math.inf),
            (lambda s: ln_gamma(s), DomainError),
            (lambda s: posterior_log_pdf(1.0, PosteriorParams(s, 4.0)), DomainError),
            (lambda s: posterior_pdf(1.0, PosteriorParams(s, 4.0)), DomainError),
            (lambda s: posterior_coverage(1.0, 2.0, PosteriorParams(s, 4.0)), 0.0),
            (lambda s: posterior_coverage(1e-306, 1.0, PosteriorParams(s, 4.0)), 1.0),
            (
                lambda s: posterior_coverage(4e-306, 5e-306, PosteriorParams(s, 4.0)),
                ConvergenceError,
            ),
        ],
        ids=[
            "reg_lower_gamma-low", "reg_lower_gamma-high", "reg_lower_gamma-at-s",
            "gen_incomplete_gamma-low", "gen_incomplete_gamma-empty",
            "gen_incomplete_gamma-all", "ln_gamma",
            "posterior_log_pdf", "posterior_pdf", "posterior_coverage-low",
            "posterior_coverage-all", "posterior_coverage-at-mode",
        ],
    )
    def test_no_overflow_error_where_lgamma_overflows(self, call, expected):
        if isinstance(expected, type):
            with pytest.raises(expected) as raised:
                call(1e306)
            assert isinstance(raised.value, RecRangeError)
        else:
            assert call(1e306) == expected

    def test_shape_at_the_bound_is_evaluated(self):
        s = specfun._SHAPE_MAX
        assert math.isclose(
            reg_lower_gamma(s, s), float(special.gammainc(s, s)), rel_tol=1e-9
        )
