"""Distribution numerics against closed forms and the quadrature oracle.

Frozen reference values were produced by tests/oracles.py (quadrature +
bisection, Lanczos log-gamma); the live oracle comparisons stay in
test_acceptance.py.
"""

import math

import pytest
from scipy import stats
from scipy.integrate import quad

from oracles import oracle_symmetric_log_eta
from semidist import distributions
from semidist.distributions import (
    DistributionSpec,
    Family,
    Tails,
    cdf,
    chi_squared,
    fisher_f,
    normal,
    pdf,
    quantile,
    student_t,
    symmetric_log_interval_eta,
    upper_tail_log_eta,
    z_alpha,
)

ALL_FAMILIES = [normal(), chi_squared(9), student_t(9), fisher_f(9, 19)]


class TestSpecValidation:
    def test_normal_takes_no_dof(self):
        with pytest.raises(ValueError):
            DistributionSpec(Family.NORMAL, 3)

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_bad_dof(self, bad):
        with pytest.raises(ValueError):
            chi_squared(bad)

    def test_f_needs_two_dof(self):
        with pytest.raises(ValueError):
            DistributionSpec(Family.FISHER_F, 3)
        with pytest.raises(ValueError):
            DistributionSpec(Family.STUDENT_T, 3, 4)


class TestPdf:
    def test_chi2_two_dof_is_exponential(self):
        # chi-squared with 2 dof is Exp(1/2): density e^(-1)/2 at x=2
        assert pdf(chi_squared(2), 2.0) == pytest.approx(math.exp(-1.0) / 2.0, rel=1e-14)

    def test_normal_peak(self):
        assert pdf(normal(), 0.0) == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_chi2_9_at_8(self):
        # oracle: direct density evaluation with Lanczos log-gamma
        assert pdf(chi_squared(9), 8.0) == pytest.approx(0.10077615715519164, rel=1e-12)

    def test_outside_support_raises(self):
        with pytest.raises(ValueError):
            pdf(chi_squared(3), -1.0)
        with pytest.raises(ValueError):
            pdf(fisher_f(3, 4), 0.0)
        with pytest.raises(ValueError):
            pdf(normal(), math.inf)

    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_nonnegative(self, spec):
        for x in (0.1, 0.5, 1.0, 3.0, 10.0):
            assert pdf(spec, x) >= 0.0


class TestCdf:
    def test_normal_symmetry(self):
        assert cdf(normal(), 0.0) == 0.5
        assert cdf(normal(), 1.96) + cdf(normal(), -1.96) == pytest.approx(1.0, abs=1e-15)

    def test_t_symmetry(self):
        # Both zeros, and a dof far past the others: the tail at 0 is 1/2
        # before the incomplete beta runs any loop.
        for k in (1, 4, 9, 10**8):
            for x in (0.0, -0.0):
                assert cdf(student_t(k), x) == 0.5

    def test_chi2_9_upper_point(self):
        # oracle: adaptive quadrature of the density plus bisection
        assert cdf(chi_squared(9), 16.918977604620444) == pytest.approx(0.95, abs=1e-12)

    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    def test_monotone_with_limits(self, spec):
        xs = [0.01, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0, 80.0]
        values = [cdf(spec, x) for x in xs]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert 0.0 <= values[0] and values[-1] <= 1.0
        assert cdf(spec, 300.0) > 0.9999

    def test_below_support(self):
        assert cdf(chi_squared(3), -5.0) == 0.0
        assert cdf(fisher_f(3, 4), 0.0) == 0.0


class TestQuantile:
    def test_normal_median(self):
        assert quantile(normal(), 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_normal_upper(self):
        # oracle: bisection on quadrature CDF
        assert quantile(normal(), 0.975) == pytest.approx(1.9599639845400054, abs=1e-8)

    def test_t9_upper(self):
        assert quantile(student_t(9), 0.975) == pytest.approx(2.262157162797621, abs=1e-8)

    def test_p_out_of_range(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                quantile(normal(), p)

    @pytest.mark.parametrize("spec", ALL_FAMILIES)
    @pytest.mark.parametrize("p", [0.001, 0.1, 0.5, 0.9, 0.999])
    def test_round_trip(self, spec, p):
        assert cdf(spec, quantile(spec, p)) == pytest.approx(p, abs=1e-10)

    @pytest.mark.parametrize("dof", [1, 2, 5, 9, 19, 50])
    def test_round_trip_dof_sweep(self, dof):
        grid = [0.001 + 0.037 * i for i in range(27)]
        for spec in (chi_squared(dof), student_t(dof), fisher_f(dof, max(1, dof // 2))):
            for p in grid:
                q = quantile(spec, p)
                assert abs(cdf(spec, q) - p) < 1e-8
                # quantile(cdf(x)) = x on the support interior
                assert quantile(spec, cdf(spec, q)) == pytest.approx(
                    q, rel=1e-8, abs=1e-8
                )

    @pytest.mark.parametrize(
        "spec,law",
        [
            (normal(), stats.norm()),
            (student_t(3), stats.t(3)),
            (chi_squared(5), stats.chi2(5)),
            (fisher_f(4, 7), stats.f(4, 7)),
        ],
        ids=["z", "t3", "chi2_5", "f4_7"],
    )
    @pytest.mark.parametrize("p", [1e-12, 1e-16, 1e-100])
    def test_lower_tail_relative_precision(self, spec, law, p):
        assert quantile(spec, p) == pytest.approx(law.ppf(p), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "spec, reference",
        [
            (normal(), -37.0470962993612),
            (chi_squared(5), 3.233407780583128e-120),
            (fisher_f(4, 7), 6.236095644623236e-151),
        ],
        ids=["z", "chi2_5", "f4_7"],
    )
    def test_lower_tail_beyond_reach_is_exact(self, spec, reference):
        # References: mpmath at 50 digits, the root in log |x| of the log of
        # its regularized incomplete gamma or beta; scipy's F ppf is nan here.
        assert quantile(spec, 1e-300) == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize(
        "spec, p",
        [
            *[(spec, 1e-100) for spec in (normal(), student_t(3), chi_squared(5), fisher_f(4, 7))],
            *[(spec, 1e-300) for spec in (normal(), chi_squared(5), fisher_f(4, 7))],
        ],
        ids=["z-1e-100", "t3-1e-100", "chi2_5-1e-100", "f4_7-1e-100", "z-1e-300", "chi2_5-1e-300",
             "f4_7-1e-300"],
    )
    def test_far_lower_tail_takes_few_cdf_calls(self, monkeypatch, spec, p):
        # Newton on log F converges quadratically here, where Newton on F
        # moves by about a fixed fraction a step.
        calls = []
        real = distributions.cdf
        monkeypatch.setattr(distributions, "cdf", lambda s, x: calls.append(x) or real(s, x))
        quantile(spec, p)
        assert len(calls) <= 30

    @pytest.mark.parametrize(
        "spec, name",
        [(chi_squared(1), r"chi_squared\(1\)"), (fisher_f(1, 4), r"fisher_f\(1, 4\)"),
         (fisher_f(1, 7), r"fisher_f\(1, 7\)")],
        ids=["chi2_1", "f1_4", "f1_7"],
    )
    def test_lower_tail_below_the_smallest_double_is_refused_at_once(self, monkeypatch, spec, name):
        # The chi2_1 quantile at 1e-300 is about pi/2 * p^2 = 1.6e-600; the
        # lower-tail asymptote of the start shows it before any solve.
        calls = []
        real = distributions.cdf
        monkeypatch.setattr(distributions, "cdf", lambda s, x: calls.append(x) or real(s, x))
        with pytest.raises(ValueError, match=rf"^the {name} quantile at p=1e-300 underflows float64$"):
            quantile(spec, 1e-300)
        assert len(calls) <= 5

    @pytest.mark.parametrize(
        "solve, message",
        [
            # The t(1) quantile at p is -1/tan(pi p), about -3.2e309 at 1e-310.
            (lambda: quantile(student_t(1), 1e-310), r"quantile at p=1e-310"),
            # The start and the root lie beyond the largest double: the F(1, 1)
            # upper tail beyond x is about 2 / (pi sqrt(x)), so x is near 4e399.
            (lambda: distributions._solve(fisher_f(1, 1), 1e-200, upper=True),
             r"quantile at p=1 - 1e-200"),
            (lambda: upper_tail_log_eta(fisher_f(1, 1), 1e-200), r"quantile at p=1 - 1e-200"),
            # The radius of a two-sided t test with one degree of freedom at 1e-310.
            (lambda: distributions._solve(student_t(1), 5e-311, upper=True),
             r"quantile at p=1 - 5e-311"),
        ],
        ids=["t1-lower", "f1_1-upper", "f1_1-log-upper", "t1-upper"],
    )
    def test_a_quantile_beyond_the_largest_double_is_refused(self, solve, message):
        with pytest.raises(ValueError, match=rf"^the (student_t\(1\)|fisher_f\(1, 1\)) {message} overflows float64$"):
            solve()

    @pytest.mark.parametrize(
        "spec, reference",
        # -2 log(1 - p) for chi2_2; F(2, 4) has cdf 1 - (2 / (x + 2))^2 = x + O(x^2).
        [(chi_squared(2), 2e-300), (fisher_f(2, 4), 1e-300)],
        ids=["chi2_2", "f2_4"],
    )
    def test_lower_tail_just_above_the_smallest_double_is_solved(self, spec, reference):
        assert quantile(spec, 1e-300) == pytest.approx(reference, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("spec", [normal(), student_t(1), student_t(4), student_t(1000)])
    @pytest.mark.parametrize("tail", [1e-4, 1e-8, 1e-10])
    def test_symmetric_upper_tail_is_the_reflected_lower_tail(self, spec, tail):
        # 1 - p is exact for p > 1/2, and the upper quantile of a symmetric
        # law is minus the lower one, which has relative precision.
        p = 1.0 - tail
        assert quantile(spec, p) == pytest.approx(-quantile(spec, 1.0 - p), rel=1e-13)


class TestLargeDof:
    """Chi-squared at 10^5 and 10^6 dof, where the incomplete gamma series
    needs thousands of terms near x = a, its switch to the continued fraction."""

    @pytest.mark.parametrize("dof", [10**5, 10**6])
    @pytest.mark.parametrize("p", [0.025, 0.5, 0.975])
    def test_chi2_quantile(self, dof, p):
        assert quantile(chi_squared(dof), p) == pytest.approx(stats.chi2.ppf(p, dof), rel=1e-9)

    @pytest.mark.parametrize("dof", [10**5, 10**6])
    def test_chi2_cdf_is_continuous_where_the_series_meets_the_fraction(self, dof):
        x = dof + 2.0  # the switch, a + 1 = dof/2 + 1, in chi-squared units
        below, above = (cdf(chi_squared(dof), x * (1.0 + s * 1e-12)) for s in (-1, 1))
        # The rounding of exp(a log x - lgamma(a)) is about 1e-9 at a = 5e5;
        # a truncated series once made this step 0.2.
        assert abs(above - below) < 5e-9
        for side in (below, above):
            assert side == pytest.approx(stats.chi2.cdf(x, dof), abs=5e-9)

    @pytest.mark.parametrize(
        "spec, x, message",
        [
            (chi_squared(10), 8.0, r"incomplete gamma series did not converge for a=5\.0, x=4\.0"),
            (chi_squared(10), 20.0, r"incomplete gamma continued fraction did not converge for a=5\.0, x=10\.0"),
            (student_t(5), 1.0, r"incomplete beta continued fraction did not converge for a=0\.5, b=2\.5, x=0\.16"),
        ],
        ids=["gamma-series", "gamma-fraction", "beta-fraction"],
    )
    def test_unconverged_expansion_raises_naming_its_parameters(self, monkeypatch, spec, x, message):
        monkeypatch.setattr(distributions, "_steps", lambda what, x, *shapes: 2)
        with pytest.raises(ValueError, match=message):
            cdf(spec, x)

    @pytest.mark.parametrize(
        "spec, x, message",
        [
            (chi_squared(10**14), 0.5e14, r"incomplete gamma series is out of reach for a=50000000000000\.0, x=25000000000000\.0"),
            (chi_squared(10**14), 2e14, r"incomplete gamma continued fraction is out of reach for a=50000000000000\.0, x=100000000000000\.0"),
            (chi_squared(10**300), 1e300, r"incomplete gamma continued fraction is out of reach for a=5e\+299"),
            (fisher_f(10**9, 10**9), 1.0, r"incomplete beta continued fraction is out of reach for a=500000000\.0"),
            (student_t(10**9), 1.0, r"incomplete beta continued fraction is out of reach for a=0\.5, b=500000000\.0"),
        ],
        ids=["gamma-series", "gamma-fraction", "gamma-1e300", "beta-f", "beta-t"],
    )
    def test_shape_beyond_the_step_ceiling_is_refused(self, spec, x, message):
        # Near a = 1e8 the step cap reaches its ceiling; larger shapes are
        # refused before any step, as the prefactor's rounding error, about
        # a log(a) 1e-16, is no longer small there.
        with pytest.raises(ValueError, match=message):
            cdf(spec, x)
        with pytest.raises(ValueError, match="is out of reach"):
            quantile(spec, 0.5)

    def test_shape_below_the_step_ceiling_is_solved(self):
        assert cdf(chi_squared(10**8), 10**8) == pytest.approx(stats.chi2.cdf(10**8, 10**8), rel=1e-6)


class TestStudentTFarTail:
    """|x| beyond 1.34e154, where x^2 overflows."""

    @pytest.mark.parametrize(
        "k, x, want",
        [
            # 50 digits of P(T > x) = I_z(k/2, 1/2) / 2, z = k/(k + x^2), from
            # mpmath's regularized betainc, rounded to double.
            (1, 1e160, 3.1830988618379067e-161),
            (1, 1e300, 3.1830988618379065e-301),
            (2, 1e160, 5e-321),
            (2, 1e300, 0.0),
            (3, 1e160, 0.0),
            (3, 1e300, 0.0),
        ],
    )
    def test_cdf_matches_mpmath(self, k, x, want):
        # Relative 1e-12, or one step apart where the tail is subnormal.
        assert abs(cdf(student_t(k), -x) - want) <= 1e-12 * want + 2.0**-1074
        assert cdf(student_t(k), x) == 1.0

    @pytest.mark.parametrize("x", [1e160, 1e200, 1e300])
    def test_cauchy_cdf_is_the_closed_form(self, x):
        assert cdf(student_t(1), -x) == pytest.approx(math.atan(1.0 / x) / math.pi, rel=1e-12, abs=0.0)

    def test_cauchy_quantile_far_below(self):
        assert quantile(student_t(1), 1e-300) == pytest.approx(-1.0 / (math.pi * 1e-300), rel=1e-12)

    def test_dof_too_large_for_the_leading_term_is_refused(self):
        with pytest.raises(ValueError, match=r"x=2e\+154"):
            cdf(student_t(10**300), 2e154)


class TestInvariants:
    @pytest.mark.parametrize("dof", [1, 5, 19])
    def test_chi2_density_mass_and_mean(self, dof):
        spec = chi_squared(dof)
        mass = quad(lambda x: pdf(spec, x), 1e-300, math.inf, limit=300)[0]
        mean = quad(lambda x: x * pdf(spec, x), 1e-300, math.inf, limit=300)[0]
        assert mass == pytest.approx(1.0, abs=1e-9)
        assert mean == pytest.approx(dof, abs=1e-8)

    @pytest.mark.parametrize("spec", [normal(), student_t(7)])
    def test_symmetric_density_mass(self, spec):
        mass = quad(lambda x: pdf(spec, x), -math.inf, math.inf, limit=300)[0]
        assert mass == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k1,k2", [(3, 7), (9, 19), (1, 4), (19, 2)])
    @pytest.mark.parametrize("p", [0.05, 0.25, 0.5, 0.9, 0.975])
    def test_f_reciprocity(self, k1, k2, p):
        a = quantile(fisher_f(k1, k2), p)
        b = 1.0 / quantile(fisher_f(k2, k1), 1.0 - p)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(b))

    def test_t_converges_to_normal(self):
        z = 1.959963984540054
        gaps = [abs(quantile(student_t(k), 0.975) - z) for k in (2, 5, 10, 20, 50)]
        assert all(a > b for a, b in zip(gaps, gaps[1:]))


class TestZAlpha:
    def test_two_sided(self):
        assert z_alpha(0.05, Tails.TWO) == pytest.approx(1.9599639845400054, abs=1e-8)

    def test_one_sided(self):
        assert z_alpha(0.05, Tails.ONE) == pytest.approx(1.6448536269514722, abs=1e-8)

    @pytest.mark.parametrize("alpha", [0.01, 0.05, 0.2, 0.5])
    def test_tail_mass_round_trip(self, alpha):
        # defining property: upper-tail mass above z equals alpha/2
        z = z_alpha(alpha, Tails.TWO)
        assert 1.0 - cdf(normal(), z) == pytest.approx(alpha / 2.0, abs=1e-12)
        z1 = z_alpha(alpha, Tails.ONE)
        assert 1.0 - cdf(normal(), z1) == pytest.approx(alpha, abs=1e-12)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            z_alpha(0.0, Tails.TWO)


class TestLogIntervalRadii:
    def test_chi2_radius_frozen(self):
        # oracle: bisection on the quadrature interval mass
        eta = symmetric_log_interval_eta(chi_squared(9), 0.05)
        assert eta == pytest.approx(0.5518321698792366, abs=1e-10)

    @pytest.mark.parametrize("n,alpha", [(5, 0.01), (10, 0.05), (25, 0.1)])
    def test_chi2_round_trip_mass(self, n, alpha):
        eta = symmetric_log_interval_eta(chi_squared(n - 1), alpha)
        spec = chi_squared(n - 1)
        mass = cdf(spec, n * math.exp(2 * eta)) - cdf(spec, n * math.exp(-2 * eta))
        assert mass == pytest.approx(1.0 - alpha, abs=1e-10)

    def test_f_round_trip_mass(self):
        eta = symmetric_log_interval_eta(fisher_f(9, 19), 0.05)
        spec = fisher_f(9, 19)
        mass = cdf(spec, math.exp(2 * eta)) - cdf(spec, math.exp(-2 * eta))
        assert mass == pytest.approx(0.95, abs=1e-10)

    @pytest.mark.parametrize(
        "k, alpha, eta",
        [(1, 1e-16, 36.96), (1, 1e-50, 115.25), (2, 1e-30, 34.74), (3, 1e-50, 38.63),
         (2, 1e-300, 345.59)],
    )
    def test_far_radius_whose_upper_tail_underflows_is_solved(self, k, alpha, eta):
        # The upper end lies near 1e32 or beyond, where the incomplete gamma's
        # prefactor underflows to 0: the upper tail is 0 and the lower one
        # holds alpha.  Its continued fraction did not converge there.
        got = symmetric_log_interval_eta(chi_squared(k), alpha)
        assert got == pytest.approx(eta, abs=0.005)
        s = k + 1
        mass = stats.chi2.cdf(s * math.exp(-2 * got), k) + stats.chi2.sf(s * math.exp(2 * got), k)
        assert mass == pytest.approx(alpha, rel=5e-14, abs=0.0)

    @pytest.mark.parametrize(
        "spec, name, alpha",
        [
            # chi2(1) has lower tail sqrt(2x / pi) near 0, so its upper end is
            # about 2.5 / alpha^2, beyond the largest double below 1.2e-154.
            (chi_squared(1), r"chi_squared\(1\)", 1e-200),
            (chi_squared(1), r"chi_squared\(1\)", 1e-310),
            (fisher_f(1, 1), r"fisher_f\(1, 1\)", 1e-200),
        ],
        ids=["chi2_1-1e-200", "chi2_1-1e-310", "f1_1-1e-200"],
    )
    def test_radius_whose_upper_end_passes_float64_is_refused(self, spec, name, alpha):
        with pytest.raises(
            ValueError,
            match=rf"^the {name} log interval at alpha={alpha!r} has an upper end that overflows float64$",
        ):
            symmetric_log_interval_eta(spec, alpha)

    def test_radius_shrinks_as_alpha_grows(self):
        etas = [
            symmetric_log_interval_eta(chi_squared(9), a)
            for a in (0.01, 0.1, 0.5, 0.9, 0.999)
        ]
        assert all(a > b for a, b in zip(etas, etas[1:]))
        assert etas[-1] < 5e-4  # alpha -> 1 drives the radius to 0

    def test_upper_tail_chi2(self):
        eta = upper_tail_log_eta(chi_squared(9), 0.05)
        assert eta == pytest.approx(0.2629254170497565, abs=1e-10)
        assert 1.0 - cdf(chi_squared(9), 10 * math.exp(2 * eta)) == pytest.approx(
            0.05, abs=1e-10
        )

    def test_upper_tail_f(self):
        eta = upper_tail_log_eta(fisher_f(9, 9), 0.05)
        assert 1.0 - cdf(fisher_f(9, 9), math.exp(2 * eta)) == pytest.approx(
            0.05, abs=1e-10
        )

    @pytest.mark.parametrize("spec", [normal(), student_t(9)], ids=["normal", "t"])
    def test_a_law_without_a_log_scale_is_refused(self, spec):
        # The scale comes from the law: k + 1 for chi-squared(k), 1 for F.
        for radius in (symmetric_log_interval_eta, upper_tail_log_eta):
            with pytest.raises(ValueError, match=f"^log-scale radius undefined for {spec.kind.value}$"):
                radius(spec, 0.05)

    @pytest.mark.parametrize("k", [1, 4, 9, 29])
    def test_the_scale_is_read_from_the_law(self, k):
        # chi-squared(k) is the law of n sigma_bar^2 / sigma^2 with n = k + 1;
        # an F law's scale is 1.
        want = 0.5 * math.log(stats.chi2.isf(0.05, k) / (k + 1))
        assert upper_tail_log_eta(chi_squared(k), 0.05) == pytest.approx(want, rel=1e-12)
        want = 0.5 * math.log(stats.f.isf(0.05, k, k + 2))
        assert upper_tail_log_eta(fisher_f(k, k + 2), 0.05) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [1000, 10000])
    @pytest.mark.parametrize("alpha", [0.05, 1e-3])
    @pytest.mark.parametrize("family", ["chi2", "f"])
    def test_symmetric_radius_large_n_matches_oracle(self, family, n, alpha):
        # The quadrature oracle itself drifts for F at alpha <= 1e-4, so the
        # comparison stops at 1e-3.
        spec = chi_squared(n - 1) if family == "chi2" else fisher_f(n - 1, n - 1)
        eta = symmetric_log_interval_eta(spec, alpha)
        assert eta == pytest.approx(oracle_symmetric_log_eta(spec, n, alpha), rel=1e-9)

    @pytest.mark.parametrize("n", [10, 10000])
    @pytest.mark.parametrize("alpha", [0.05, 1e-8])
    @pytest.mark.parametrize("family", ["chi2", "f"])
    def test_symmetric_radius_takes_newton_steps(self, monkeypatch, family, n, alpha):
        # Bisection to full precision needs 100 or more cdf calls; the
        # Newton solve needs at most 44 on these points.
        calls = []
        real = distributions.cdf

        def counting(spec, x):
            calls.append(x)
            return real(spec, x)

        monkeypatch.setattr(distributions, "cdf", counting)
        spec = chi_squared(n - 1) if family == "chi2" else fisher_f(n - 1, n - 1)
        symmetric_log_interval_eta(spec, alpha)
        assert 0 < len(calls) <= 50


class TestSolverCost:
    """The number of tail evaluations each solve takes, pinned on a fixed
    grid: a change to a start, a guard or a stopping rule that leaves the
    quantiles as they are still shows here."""

    P = (0.4, 0.05, 1e-4, 1e-8, 1e-16, 1e-100)
    # Per law, the evaluations of the lower-tail solve (``quantile``) and
    # of the upper-tail one (``_solve(..., upper=True)``) at each p of P.
    COUNTS = {
        "normal": (normal(), (3, 3, 3, 3, 3, 3), (3, 3, 3, 3, 3, 3)),
        "t3": (student_t(3), (3, 2, 2, 2, 2, 2), (3, 2, 2, 2, 2, 2)),
        "t30": (student_t(30), (3, 3, 3, 3, 3, 1), (3, 3, 3, 3, 3, 1)),
        "chi2(1)": (chi_squared(1), (4, 3, 2, 1, 1, 1), (3, 3, 4, 4, 4, 4)),
        "chi2(9)": (chi_squared(9), (3, 3, 4, 4, 3, 1), (3, 3, 3, 4, 4, 4)),
        "F(4, 7)": (fisher_f(4, 7), (3, 4, 8, 2, 2, 1), (3, 3, 5, 3, 2, 1)),
    }
    # symmetric_log_interval_eta at each alpha of P.
    LOG_COUNTS = {
        "chi2(2)": (chi_squared(2), (4, 3, 3, 3, 3, 2)),
        "chi2(9)": (chi_squared(9), (4, 4, 4, 4, 4, 3)),
        "F(4, 7)": (fisher_f(4, 7), (4, 3, 4, 4, 3, 3)),
        "F(2, 30)": (fisher_f(2, 30), (4, 3, 3, 3, 3, 2)),
    }

    @staticmethod
    def _counting(monkeypatch):
        """A list that takes one entry per evaluation of ``_invert``'s tail."""
        calls, real = [], distributions._invert

        def invert(f, *args, **kwargs):
            return real(lambda x: calls.append(x) or f(x), *args, **kwargs)

        monkeypatch.setattr(distributions, "_invert", invert)
        return calls

    @pytest.mark.parametrize("name", COUNTS)
    def test_each_quantile_takes_its_pinned_number_of_evaluations(self, monkeypatch, name):
        spec, lower, upper = self.COUNTS[name]
        calls = self._counting(monkeypatch)
        for side, want in ((False, lower), (True, upper)):
            got = []
            for p in self.P:
                calls.clear()
                distributions._solve(spec, p, side)
                got.append(len(calls))
            assert tuple(got) == want, side

    @pytest.mark.parametrize("name", LOG_COUNTS)
    def test_each_log_radius_takes_its_pinned_number_of_evaluations(self, monkeypatch, name):
        spec, want = self.LOG_COUNTS[name]
        calls = self._counting(monkeypatch)
        got = []
        for alpha in self.P:
            calls.clear()
            symmetric_log_interval_eta(spec, alpha)
            got.append(len(calls))
        assert tuple(got) == want

    def test_the_t_start_keeps_hill_s_accuracy(self):
        # Hill's start is within 2e-3 of the quantile where it expands
        # about the normal quantile, and far closer in its far-tail branch:
        # below 1e-7 for k <= 9 from p = 1e-6 down (7.6e-9 at worst here),
        # and within 1e-5 for k = 3 from p = 0.05 down (7.0e-6).  A worse
        # start costs evaluations that the pinned grid need not show.
        for k in (3, 4, 5, 9, 30, 100):
            for p in (0.4, 0.25, 0.1, 0.05, 0.01, 1e-4, 1e-6, 1e-16, 1e-50, 1e-100):
                err = abs(distributions._t_start(p, k) / quantile(student_t(k), p) - 1.0)
                bound = 1e-7 if k <= 9 and p <= 1e-6 else 1e-5 if k == 3 and p <= 0.05 else 2e-3
                assert err <= bound, (k, p)


class TestCdfAgainstMpmath:
    """t and F cdfs against mpmath's regularized incomplete beta (40
    digits, rounded to double), at the accuracy they reach: the worst
    errors on these points are 4.5e-15 (t) and 1.14e-14 (F, from the
    prefactor at F(30, 5)), far inside the 1e-12 of the scipy checks."""

    T_X = (-50.0, -5.0, -2.0, -0.5)
    T = {
        1: (0.006365349100972796, 0.06283295818900118, 0.14758361765043326, 0.35241638234956674),
        3: (8.808576020635988e-06, 0.007696219036651151, 0.0696629842794216, 0.3257239824240755),
        9: (1.284476455437399e-12, 0.00036948395490162136, 0.03827641188535052, 0.31453564991301325),
        30: (9.357708829611357e-31, 1.1648342733503898e-05, 0.02731252248149155, 0.31036150244256366),
    }
    F_X = (0.05, 0.5, 1.0, 2.5, 10.0)
    F = {
        (4, 7): (0.0057994537972128266, 0.2623135093673488, 0.5327857658636864, 0.8629666302475231,
                 0.9949272391799676),
        (9, 19): (3.6962182218567915e-05, 0.14355253212884939, 0.5274404232198463, 0.9556282250002236,
                  0.9999839069336781),
        (30, 5): (9.581174502890941e-09, 0.10733531810495875, 0.4346488763398733, 0.8448881357152825,
                  0.9913657573262192),
        (2, 50): (0.048723076162492315, 0.3904691294717208, 0.6248831977460357, 0.9077040018229358,
                  0.9997777718309808),
    }

    @pytest.mark.parametrize("k", T)
    def test_t(self, k):
        for x, want in zip(self.T_X, self.T[k]):
            assert abs(cdf(student_t(k), x) - want) <= 1e-14 * want, x

    @pytest.mark.parametrize("dofs", F)
    def test_f(self, dofs):
        for x, want in zip(self.F_X, self.F[dofs]):
            assert abs(cdf(fisher_f(*dofs), x) - want) <= 2e-14 * want, x
