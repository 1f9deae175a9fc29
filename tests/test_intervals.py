import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from recrange import (
    ConvergenceError,
    CredibleInterval,
    DomainError,
    IntervalKind,
    PosteriorParams,
    PriorParams,
    chi2_quantile,
    equal_tails,
    extract_upper_records,
    hpd_exact,
    hpd_hpm_closed_form,
    interval,
    length_of_alpha,
    posterior_coverage,
    posterior_from,
    posterior_mode,
    posterior_pdf,
)
from recrange.specfun import _chi2_isf

# Frozen solver outputs for regression pinning. The endpoints were verified
# against two independent oracles when first produced: a 1e6-point density
# grid with threshold sweep, and scipy.stats.invgamma quantile arithmetic.
ET_10 = (0.7756054164038898, 4.4014469938379275)  # s=4, A=6.013778
HPD_10 = (0.8456458758599172, 5.439985438062155)  # s=4, A=9.319232


def post(s: float, A: float) -> PosteriorParams:
    return PosteriorParams(s=s, A=A)


def grid_threshold_hpd(s: float, A: float, alpha: float):
    """Independent HPD oracle: sweep the density level on a dense grid."""
    grid = np.linspace(1e-6, 25.0, 1_000_000)
    dens = stats.invgamma.pdf(grid, s, scale=A)
    dx = grid[1] - grid[0]

    def mass_above(level: float) -> float:
        return float(dens[dens >= level].sum() * dx)

    lo_level, hi_level = 0.0, float(dens.max())
    for _ in range(60):
        mid = 0.5 * (lo_level + hi_level)
        if mass_above(mid) > 1.0 - alpha:
            lo_level = mid
        else:
            hi_level = mid
    keep = grid[dens >= lo_level]
    return float(keep[0]), float(keep[-1])


class TestCredibleInterval:
    def test_slotted_frozen_and_comparable(self):
        iv = hpd_exact(post(4.0, 9.319232), 0.10)
        assert not hasattr(iv, "__dict__")
        with pytest.raises(dataclasses.FrozenInstanceError):
            iv.lower = 1.0
        assert iv == hpd_exact(post(4.0, 9.319232), 0.10)
        assert iv != hpd_exact(post(4.0, 9.319232), 0.20)

    def test_length(self):
        iv = CredibleInterval(
            lower=1.0, upper=3.0, level=0.9, kind=IntervalKind.EQUAL_TAILS, diagnostics={}
        )
        assert iv.length == 2.0

    def test_rejects_disorder(self):
        with pytest.raises(DomainError):
            CredibleInterval(
                lower=3.0, upper=1.0, level=0.9, kind=IntervalKind.HPD_EXACT, diagnostics={}
            )

    def test_rejects_bad_level(self):
        with pytest.raises(DomainError):
            CredibleInterval(
                lower=1.0, upper=2.0, level=1.0, kind=IntervalKind.HPD_EXACT, diagnostics={}
            )

    def test_degenerate_zero_length_allowed(self):
        # the g=0 closed form yields a point "interval" with level 0
        iv = CredibleInterval(
            lower=2.0, upper=2.0, level=0.0, kind=IntervalKind.HPD_HPM, diagnostics={}
        )
        assert iv.length == 0.0


class TestEqualTails:
    def test_defining_coverage(self):
        p = post(4.0, 6.013778)
        iv = equal_tails(p, 0.10)
        assert abs(posterior_coverage(iv.lower, iv.upper, p) - 0.90) < 1e-9

    def test_frozen_endpoints(self):
        iv = equal_tails(post(4.0, 6.013778), 0.10)
        assert math.isclose(iv.lower, ET_10[0], rel_tol=1e-10)
        assert math.isclose(iv.upper, ET_10[1], rel_tol=1e-10)

    def test_scipy_quantile_oracle(self):
        p = post(4.0, 6.013778)
        iv = equal_tails(p, 0.10)
        assert math.isclose(iv.lower, float(stats.invgamma.ppf(0.05, 4, scale=p.A)), rel_tol=1e-9)
        assert math.isclose(iv.upper, float(stats.invgamma.ppf(0.95, 4, scale=p.A)), rel_tol=1e-9)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-8])
    @pytest.mark.parametrize("s", [1.5, 4.0, 50.0, 1e3])
    def test_small_alpha_against_scipy(self, s, alpha):
        p = post(s, 6.013778)
        iv = equal_tails(p, alpha)
        ref = stats.invgamma(s, scale=p.A)
        assert math.isclose(iv.lower, float(ref.ppf(0.5 * alpha)), rel_tol=1e-9)
        assert math.isclose(iv.upper, float(ref.isf(0.5 * alpha)), rel_tol=1e-9)

    def test_tiny_shape_at_small_alpha(self):
        # both quantiles lie deep in the tails of a chi-square on 0.1 dof
        p = post(0.05, 1.0)
        iv = equal_tails(p, 1e-8)
        ref = stats.invgamma(0.05, scale=1.0)
        assert math.isclose(iv.lower, float(ref.ppf(5e-9)), rel_tol=1e-12)
        assert math.isclose(iv.upper, float(ref.isf(5e-9)), rel_tol=1e-12)

    @pytest.mark.parametrize("alpha", [1e-8, 1e-10, 1e-12, 1e-15])
    @pytest.mark.parametrize("s", [0.05, 1.0, 4.0, 50.0, 1e3])
    def test_lower_endpoint_below_alpha_1e8_against_scipy(self, s, alpha):
        # the lower endpoint solves the upper tail alpha/2 itself, since
        # 1 - alpha/2 keeps only a few of alpha's digits
        iv = equal_tails(post(s, 6.013778), alpha)
        want = float(stats.invgamma.ppf(0.5 * alpha, s, scale=6.013778))
        assert math.isclose(iv.lower, want, rel_tol=1e-9)

    def test_equal_tail_masses(self):
        p = post(4.0, 9.319232)
        iv = equal_tails(p, 0.20)
        assert abs(posterior_coverage(1e-14, iv.lower, p) - 0.10) < 1e-9
        assert abs(1.0 - posterior_coverage(1e-14, iv.upper, p) - 0.10) < 1e-9

    def test_nested_lengths(self):
        p = post(4.0, 9.319232)
        lens = [equal_tails(p, a).length for a in (0.01, 0.05, 0.10)]
        assert lens[0] > lens[1] > lens[2]

    def test_level_field(self):
        iv = equal_tails(post(4.0, 9.319232), 0.05)
        assert math.isclose(iv.level, 0.95, rel_tol=1e-12)
        assert iv.kind is IntervalKind.EQUAL_TAILS

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 2.0])
    def test_rejects_bad_alpha(self, alpha):
        with pytest.raises(DomainError):
            equal_tails(post(4.0, 9.319232), alpha)

    @pytest.mark.parametrize("kind", list(IntervalKind))
    @pytest.mark.parametrize("alpha", [1e-17, 1e-300, 2.0**-54])
    def test_rejects_an_alpha_whose_level_rounds_to_one(self, kind, alpha):
        with pytest.raises(DomainError) as err:
            interval(kind, post(4.0, 9.319232), alpha)
        assert str(err.value) == (
            "alpha must lie in (0, 1) and exceed 2**-54, below which 1 - alpha "
            f"rounds to 1, got {alpha!r}"
        )

    @pytest.mark.parametrize("kind", list(IntervalKind))
    def test_smallest_alphas_with_a_level(self, kind):
        # 1 - alpha < 1 for both, while 1 - alpha/2 rounds to 1
        for alpha in (1e-16, 2.0**-54 * (1 + 2.0**-52)):
            assert 1.0 - alpha < 1.0 and 1.0 - 0.5 * alpha == 1.0
            iv = interval(kind, post(4.0, 9.319232), alpha)
            assert 0.0 < iv.lower < iv.upper

    @pytest.mark.parametrize("s", [0.05, 1.0, 4.0, 37.5, 2e3, 1e5])
    def test_cached_pair_gives_the_closed_form_bit_for_bit(self, s):
        for A in (1e-3, 0.7, 9.319232, 4e4):
            p = post(s, A)
            for alpha in (1e-6, 0.05, 0.1, 0.5, 0.999):
                iv = equal_tails(p, alpha)
                assert iv.lower == 2.0 * A / _chi2_isf(0.5 * alpha, 2.0 * s)
                assert iv.upper == 2.0 * A / chi2_quantile(0.5 * alpha, 2.0 * s)
                residual = iv.diagnostics["coverage_residual"]
                assert abs(residual) <= 1e-12
                direct = posterior_coverage(iv.lower, iv.upper, p) - (1.0 - alpha)
                assert abs(residual - direct) <= 1e-12


class TestHpdExact:
    def test_density_beyond_the_float_range_keeps_its_residual(self):
        # the mode density here is about 4e309; the residual is formed from
        # log-density differences, so both constructions still report it
        p = post(1e8, 1e-298)
        exact = hpd_exact(p, 0.10)
        assert exact.diagnostics["equal_density_residual"] < 1e-4
        closed = hpd_hpm_closed_form(p, exact.length)
        assert math.isfinite(closed.diagnostics["equal_density_residual"])

    @pytest.mark.parametrize("s", [1.0000001e10, 1e15, 1e300])
    def test_shape_above_the_bound_raises(self, s):
        p = post(s, 4.0)
        for kind in IntervalKind:
            with pytest.raises(ConvergenceError, match="exceeds"):
                interval(kind, p, 0.10)

    def test_frozen_endpoints(self):
        iv = hpd_exact(post(4.0, 9.319232), 0.10)
        assert math.isclose(iv.lower, HPD_10[0], rel_tol=1e-10)
        assert math.isclose(iv.upper, HPD_10[1], rel_tol=1e-10)

    def test_grid_threshold_oracle(self):
        got = hpd_exact(post(4.0, 9.319232), 0.10)
        ref_lo, ref_hi = grid_threshold_hpd(4.0, 9.319232, 0.10)
        assert math.isclose(got.lower, ref_lo, rel_tol=1e-4)
        assert math.isclose(got.upper, ref_hi, rel_tol=1e-4)

    def test_shrinks_to_mode(self):
        p = post(4.0, 9.319232)
        iv = hpd_exact(p, 0.999)
        mode = posterior_mode(p)
        assert abs(iv.lower - mode) < 0.05 * mode
        assert abs(iv.upper - mode) < 0.05 * mode

    def test_shorter_than_equal_tails(self):
        p = post(4.0, 9.319232)
        assert hpd_exact(p, 0.05).length < equal_tails(p, 0.05).length

    @pytest.mark.parametrize("s", [2.0, 4.0, 8.0])
    @pytest.mark.parametrize("A", [1.0, 9.319232, 50.0])
    @pytest.mark.parametrize("alpha", [0.01, 0.2])
    def test_residuals_and_bracketing(self, s, A, alpha):
        p = post(s, A)
        iv = hpd_exact(p, alpha)
        mode = posterior_mode(p)
        assert iv.lower < mode < iv.upper
        dens_gap = abs(posterior_pdf(iv.lower, p) - posterior_pdf(iv.upper, p))
        assert dens_gap / posterior_pdf(mode, p) < 1e-9
        assert abs(posterior_coverage(iv.lower, iv.upper, p) - (1.0 - alpha)) < 1e-9

    def test_endpoint_identity(self):
        # (c_L/c_U)^(a+n) = exp(A (1/c_U - 1/c_L)) at the solution
        p = post(4.0, 9.319232)
        iv = hpd_exact(p, 0.10)
        lhs = (iv.lower / iv.upper) ** p.a_plus_n
        rhs = math.exp(p.A * (1.0 / iv.upper - 1.0 / iv.lower))
        assert math.isclose(lhs, rhs, rel_tol=1e-9)

    def test_diagnostics_reported(self):
        iv = hpd_exact(post(4.0, 9.319232), 0.10)
        assert set(iv.diagnostics) >= {
            "coverage_residual",
            "equal_density_residual",
            "outer_iterations",
        }
        assert abs(iv.diagnostics["coverage_residual"]) < 1e-12

    @pytest.mark.parametrize(
        "p",
        [PosteriorParams(s=s, A=3.0) for s in (0.05, 0.3, 1.0, 50.0, 1e3, 1e5)]
        # b = 0 prior: the posterior scale A is the record range alone
        + [posterior_from(PriorParams(a=2.0, b=0.0), extract_upper_records([0.5, 1.0, 3.0, 3.5]))],
        ids=lambda p: f"s={p.s:g},A={p.A:g}",
    )
    @pytest.mark.parametrize(
        "alpha", [1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-3, 0.05, 0.5, 0.999]
    )
    def test_edge_cases_against_scipy(self, p, alpha):
        # s = 0.05 meets the last-bit non-monotone steps of the incomplete
        # gamma, s = 1e5 needs its large-shape budget; both must converge,
        # and the mass left out must be alpha to 1e-9 of alpha itself
        if p.s == 0.05 and alpha == 1e-14:
            # even c_H / c_L = e^600 leaves out P(0.05, u_lo) ~ 1.3e-13
            with pytest.raises(ConvergenceError, match="could not reach coverage"):
                hpd_exact(p, alpha)
            return
        iv = hpd_exact(p, alpha)
        dist = stats.invgamma(p.s, scale=p.A)
        cover = dist.cdf(iv.upper) - dist.cdf(iv.lower)
        assert abs(cover - (1.0 - alpha)) < 1e-9
        missed = dist.cdf(iv.lower) + dist.sf(iv.upper)
        assert abs(missed - alpha) <= 1e-9 * alpha
        assert abs(dist.logpdf(iv.lower) - dist.logpdf(iv.upper)) < 1e-9
        assert iv.diagnostics["outer_iterations"] <= 50

    @pytest.mark.parametrize("alpha", [1e-6, 0.05, 0.5])
    @pytest.mark.parametrize("s", [0.3, 1.0, 4.0, 50.0, 1e3])
    def test_solve_does_not_depend_on_the_scale(self, s, alpha):
        # the missed mass is solved in u = A/delta, so every scale takes the
        # same steps to the same residual
        seen = {
            (iv.diagnostics["outer_iterations"], iv.diagnostics["coverage_residual"])
            for iv in (hpd_exact(post(s, A), alpha) for A in (1e-3, 1.0, 7.0, 1e4))
        }
        assert len(seen) == 1

    def test_study_cells_take_at_most_three_and_a_half_steps(self):
        # the six cells of a Monte Carlo interval study with prior shape 3,
        # n = 3 and 6 (s = 5 and 8) and alpha .05, .1 and .5: Halley steps
        # take 3.33 evaluations of the tail pair on average, against 4.67
        # for Newton steps, and the same ones at every scale
        seen = {
            tuple(
                hpd_exact(post(s, A), alpha).diagnostics["outer_iterations"]
                for s in (5.0, 8.0)
                for alpha in (0.05, 0.10, 0.50)
            )
            for A in (1e-3, 1.0, 7.0, 1e4)
        }
        assert len(seen) == 1
        (steps,) = seen
        assert sum(steps) / len(steps) <= 3.5

    @pytest.mark.parametrize("A", [1.0, 1e-298])
    def test_equal_density_residual_is_rounding_at_a_large_shape(self, A):
        # ln(pdf(c) / pdf(mode)) = (a+n)(ln v + 1 - v) with v = mode / c has
        # no terms of size s ln A or ln Gamma(s) to cancel
        iv = hpd_exact(post(1e6, A), 0.10)
        assert iv.diagnostics["equal_density_residual"] <= 1e-10

    @given(
        st.floats(min_value=1.2, max_value=30.0),
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_equivariance(self, s, A, c):
        alpha = 0.10
        base = hpd_exact(post(s, A), alpha)
        scaled = hpd_exact(post(s, c * A), alpha)
        assert math.isclose(scaled.lower, c * base.lower, rel_tol=1e-8)
        assert math.isclose(scaled.upper, c * base.upper, rel_tol=1e-8)

    def test_equal_tails_scale_equivariance(self):
        for c in (0.037, 4.0, 250.0):
            base = equal_tails(post(4.0, 9.319232), 0.05)
            scaled = equal_tails(post(4.0, c * 9.319232), 0.05)
            assert math.isclose(scaled.lower, c * base.lower, rel_tol=1e-12)
            assert math.isclose(scaled.upper, c * base.upper, rel_tol=1e-12)


class TestHpmClosedForm:
    def test_zero_gap_returns_mode(self, post_small):
        iv = hpd_hpm_closed_form(post_small, 0.0)
        mode = posterior_mode(post_small)
        assert math.isclose(iv.lower, mode, rel_tol=1e-12)
        assert iv.upper == iv.lower
        assert iv.level == 0.0

    def test_direct_arithmetic(self, post_small):
        # lower = (A + 2(a+n)g + sqrt(A^2 + 8A(a+n)g)) / (2(a+n)) at g=1
        A = 9.319232
        want = (A + 10.0 + math.sqrt(A * A + 40.0 * A)) / 10.0
        iv = hpd_hpm_closed_form(post_small, 1.0)
        assert math.isclose(iv.lower, want, rel_tol=1e-14)
        assert iv.upper == iv.lower + 1.0

    def test_lower_monotone_in_g(self, post_small):
        gs = np.linspace(0.05, 5.0, 40)
        lowers = [hpd_hpm_closed_form(post_small, float(g)).lower for g in gs]
        assert all(a < b for a, b in zip(lowers, lowers[1:]))

    def test_level_is_actual_coverage(self, post_small):
        iv = hpd_hpm_closed_form(post_small, 1.0)
        want = posterior_coverage(iv.lower, iv.upper, post_small)
        assert math.isclose(iv.level, want, rel_tol=1e-12)

    def test_rejects_negative_gap(self, post_small):
        with pytest.raises(DomainError):
            hpd_hpm_closed_form(post_small, -0.5)

    def test_sits_above_mode(self, post_small):
        # the printed closed form places the lower endpoint above the mode,
        # unlike the exact HPD solution; keep that visible, not patched
        iv = hpd_hpm_closed_form(post_small, 0.5)
        assert iv.lower > posterior_mode(post_small)

    @pytest.mark.parametrize(
        "s, peak",
        [
            (0.01, 0.0063),
            (0.5, 0.0843),
            (2.0, 0.0976),
            (10.0, 0.0881),
            (1000.0, 0.0713),
        ],
    )
    def test_coverage_peaks_below_a_tenth_and_depends_on_g_over_A(self, s, peak):
        # the coverage of [c(g), c(g) + g] is a function of g/A and s alone,
        # and it never reaches 0.1, so no conventional level is attainable by
        # choosing g; the log grid finds each peak to within 1%
        ratios = np.logspace(-7.0, 5.0, 241)
        unit = [hpd_hpm_closed_form(post(s, 1.0), float(r)).level for r in ratios]
        scaled = [
            hpd_hpm_closed_form(post(s, 37.0), 37.0 * float(r)).level for r in ratios
        ]
        assert max(unit) < 0.1
        assert math.isclose(max(unit), peak, rel_tol=0.01)
        for a, b in zip(unit, scaled):
            assert abs(a - b) <= 1e-13

    @pytest.mark.parametrize("A", [1e-298, 1e-160, 1.0, 1e200, 1e300])
    def test_scale_free_across_the_float_range(self, A):
        # c(g) is A times a function of g/A, so the root must not square A:
        # A^2 leaves the floats outside about [1e-154, 1.3e154]
        unit = interval(IntervalKind.HPD_HPM, post(8.0, 1.0), 0.1)
        iv = interval(IntervalKind.HPD_HPM, post(8.0, A), 0.1)
        assert math.isclose(iv.lower / A, unit.lower, rel_tol=1e-12)
        assert math.isclose(iv.level, unit.level, rel_tol=1e-12)


class TestIntervalDispatch:
    def test_each_kind_is_its_construction(self, post_small):
        exact = hpd_exact(post_small, 0.10)
        assert interval(IntervalKind.EQUAL_TAILS, post_small, 0.10) == equal_tails(
            post_small, 0.10
        )
        assert interval(IntervalKind.HPD_EXACT, post_small, 0.10) == exact
        assert interval("hpd_hpm", post_small, 0.10) == hpd_hpm_closed_form(
            post_small, exact.length
        )

    @pytest.mark.parametrize("alpha", [0.01, 0.10, 0.50, 0.95])
    def test_hpd_hpm_exists_at_every_level(self, post_small, alpha):
        # the closed form's coverage peaks below 0.1 (see TestHpmClosedForm),
        # but the dispatched kind is the closed form at the exact-HPD length,
        # so it exists at every level
        iv = interval(IntervalKind.HPD_HPM, post_small, alpha)
        assert iv.kind is IntervalKind.HPD_HPM
        exact = hpd_exact(post_small, alpha)
        assert math.isclose(iv.length, exact.length, rel_tol=1e-12)

    def test_rejects_unknown_kind(self, post_small):
        with pytest.raises(ValueError):
            interval("hpd_hpm_calibrated", post_small, 0.10)


class TestLengthOfAlpha:
    def test_strictly_decreasing(self, post_small):
        pairs = length_of_alpha(post_small, [0.05, 0.10, 0.20])
        lens = [length for _, length in pairs]
        assert lens[0] > lens[1] > lens[2]

    def test_slope_matches_density_reciprocal(self, post_small):
        # dL/dalpha = -1/pdf(c_L), checked by central differences
        h = 1e-3
        lo = length_of_alpha(post_small, [0.10 - h, 0.10 + h])
        slope = (lo[1][1] - lo[0][1]) / (2.0 * h)
        c_l = hpd_exact(post_small, 0.10).lower
        want = -1.0 / posterior_pdf(c_l, post_small)
        assert abs(slope - want) / abs(want) < 0.02

    def test_vanishes_near_one(self, post_small):
        pairs = length_of_alpha(post_small, [0.999])
        assert pairs[0][1] < 0.1

    def test_rejects_unsorted_grid(self, post_small):
        with pytest.raises(DomainError):
            length_of_alpha(post_small, [0.2, 0.1])
        with pytest.raises(DomainError):
            length_of_alpha(post_small, [0.1, 0.1])
