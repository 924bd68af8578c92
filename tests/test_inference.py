"""Maximum likelihood closed forms over every box of states, checked
against an exhaustive grid, and the calibrated likelihood ratio test."""

import math

import numpy as np
import pytest
from scipy import stats

from semidist import framework
from semidist.framework import (
    CATALOG,
    Hypothesis,
    mean_diff_z,
    mean_diff_z_upper,
    mean_z,
    mean_z_upper,
    rejection_region,
)
from semidist.inference import (
    ParameterRegion,
    likelihood,
    log_likelihood,
    lrt_lambda,
    lrt_region,
    mle_normal,
    normalized_likelihood,
)
from semidist.measurement import State, mu_bar, sample, sigma_bar, stream


class TestMle:
    def test_full_closed_form(self):
        est = mle_normal((1.0, 2.0, 3.0), ParameterRegion.full())
        assert est.mu == 2.0
        assert est.sigma == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-15)

    def test_full_on_random_samples(self):
        for j in range(25):
            x = sample(State(1.0, 2.0), 9, rng=stream(71, j)).values
            est = mle_normal(x, ParameterRegion.full())
            assert est.mu == pytest.approx(mu_bar(x), rel=1e-14)
            assert est.sigma == pytest.approx(sigma_bar(x), rel=1e-14)

    def test_mu_fixed_at_the_mean_reduces_to_full(self):
        est = mle_normal((1.0, 2.0, 3.0), ParameterRegion.mu_fixed(2.0))
        assert est == mle_normal((1.0, 2.0, 3.0), ParameterRegion.full())

    def test_mu_fixed_off_the_mean(self):
        x = (1.0, 2.0, 3.0)
        est = mle_normal(x, ParameterRegion.mu_fixed(0.0))
        assert est.mu == 0.0
        assert est.sigma == pytest.approx(math.sqrt(14.0 / 3.0), rel=1e-14)

    def test_sigma_fixed(self):
        est = mle_normal((1.0, 2.0, 3.0), ParameterRegion.sigma_fixed(5.0))
        assert est == State(2.0, 5.0)

    def test_half_line_clamps_to_boundary(self):
        for j in range(20):
            x = sample(State(0.0, 1.0), 8, rng=stream(73, j)).values
            mean = mu_bar(x)
            above = mle_normal(x, ParameterRegion.mu_half_line(mean + 1.0, "upper"))
            assert above.mu == mean + 1.0
            below = mle_normal(x, ParameterRegion.mu_half_line(mean - 1.0, "lower"))
            assert below.mu == mean - 1.0
            interior = mle_normal(x, ParameterRegion.mu_half_line(mean + 1.0, "lower"))
            assert interior.mu == mean

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            mle_normal((3.0, 3.0, 3.0), ParameterRegion.full())
        with pytest.raises(ValueError):
            mle_normal((3.0, 3.0), ParameterRegion.mu_fixed(3.0))

    def test_stationarity_of_log_likelihood(self):
        # central finite differences vanish at the unconstrained maximizer
        for j in range(10):
            x = sample(State(-1.0, 1.5), 12, rng=stream(79, j)).values
            est = mle_normal(x, ParameterRegion.full())
            base = log_likelihood(x, est)
            h = 1e-6
            dmu = (
                log_likelihood(x, State(est.mu + h, est.sigma))
                - log_likelihood(x, State(est.mu - h, est.sigma))
            ) / (2 * h)
            dsigma = (
                log_likelihood(x, State(est.mu, est.sigma + h))
                - log_likelihood(x, State(est.mu, est.sigma - h))
            ) / (2 * h)
            scale = max(1.0, abs(base))
            assert abs(dmu) <= 1e-6 * scale
            assert abs(dsigma) <= 1e-6 * scale

    def test_constrained_matches_grid_oracle(self):
        rng = np.random.default_rng(5)
        for j in range(100):
            x = tuple(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 3.0), 8))
            anchor = float(rng.uniform(-2, 2))
            kind = j % 4
            if kind == 0:
                region = ParameterRegion.mu_fixed(anchor)
            elif kind == 1:
                region = ParameterRegion.mu_half_line(anchor, "lower")
            elif kind == 2:
                region = ParameterRegion.mu_half_line(anchor, "upper")
            else:
                region = ParameterRegion(anchor - 0.5, anchor + 0.5)
            est = mle_normal(x, region)
            # exhaustive grid over a box around the data; the anchor and the
            # interval's ends join the grid so boundary optima are reachable
            # under the exact membership tests
            mus = np.append(
                np.linspace(min(x) - 2.0, max(x) + 2.0, 121), (anchor - 0.5, anchor, anchor + 0.5)
            )
            sigma_top = 2.0 * math.sqrt(
                sigma_bar(x) ** 2 + (mu_bar(x) - anchor) ** 2
            ) + 0.5
            sigmas = np.linspace(0.02, sigma_top, 161)
            n = len(x)
            best, best_state = -math.inf, None
            for i, mu in enumerate(mus):
                if not region.contains(State(mu, 1.0)):
                    continue
                # log_likelihood's own expression, its sum of squares taken
                # once per mu, not once per grid point: the same values bit
                # for bit, as the check on one sigma per mu shows.
                ssq = math.fsum((v - mu) ** 2 for v in x)
                lls = [
                    -0.5 * n * math.log(2.0 * math.pi * sigma**2) - ssq / (2.0 * sigma**2)
                    for sigma in sigmas
                ]
                k = i * 7 % len(sigmas)
                assert float(lls[k]).hex() == float(log_likelihood(x, State(mu, sigmas[k]))).hex()
                for sigma, ll in zip(sigmas, lls):
                    if ll > best:
                        best, best_state = ll, State(mu, sigma)
            assert best_state is not None
            mu_step = mus[1] - mus[0]
            sigma_step = sigmas[1] - sigmas[0]
            assert abs(est.mu - best_state.mu) <= mu_step
            assert abs(est.sigma - best_state.sigma) <= sigma_step
            assert log_likelihood(x, est) >= best - 1e-9

    def test_one_degeneracy_message(self):
        for region in (
            ParameterRegion.full(),
            ParameterRegion.mu_fixed(3.0),
            ParameterRegion.mu_half_line(3.0, "upper"),
        ):
            with pytest.raises(ValueError, match="^degenerate sample: maximum-likelihood sigma is 0$"):
                mle_normal((3.0, 3.0), region)

    @pytest.mark.parametrize(
        "make,outside",
        [
            (ParameterRegion.full, None),
            (lambda: ParameterRegion.mu_fixed(0.5), State(0.6, 1.0)),
            (lambda: ParameterRegion.mu_half_line(0.5, "lower"), State(0.6, 1.0)),
            (lambda: ParameterRegion.mu_half_line(0.5, "upper"), State(0.4, 1.0)),
            (lambda: ParameterRegion.sigma_fixed(0.7), State(0.5, 1.0)),
            (lambda: ParameterRegion(0.2, 0.8), State(0.9, 1.0)),
        ],
        ids=["full", "mu_fixed", "lower half-line", "upper half-line", "sigma_fixed", "mu interval"],
    )
    def test_the_maximizer_lies_in_its_region(self, make, outside):
        region = make()
        for j in range(8):
            x = sample(State(0.5 * (j % 3 - 1), 1.0), 6, rng=stream(89, j)).values
            assert region.contains(mle_normal(x, region))
        assert outside is None or not region.contains(outside)


class TestMeasuredValue:
    """The likelihood and its maximizer refuse an empty, non-finite or
    overflowing measured value with a message that names the fault."""

    @pytest.mark.parametrize(
        "call",
        [
            # Every partial sum is finite, and the deviations' squares are not.
            lambda: mle_normal((1e200, -1e200, 1e200), ParameterRegion.full()),
            lambda: log_likelihood((1e200, 1.0), State(0.0, 1.0)),
        ],
        ids=["mle_normal", "log_likelihood"],
    )
    def test_an_overflowing_sum_of_squares_is_named(self, call):
        with pytest.raises(ValueError, match="^sum of squared deviations overflows float64$"):
            call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
    def test_a_non_finite_value_is_named(self, bad):
        with pytest.raises(ValueError, match=f"^sample value 0 is not finite: {bad!r}$"):
            log_likelihood((bad, 1.0), State(0.0, 1.0))

    @pytest.mark.parametrize(
        "call",
        [lambda: log_likelihood((), State(0.0, 1.0)), lambda: mle_normal((), ParameterRegion.full())],
        ids=["log_likelihood", "mle_normal"],
    )
    def test_an_empty_sample_is_refused(self, call):
        with pytest.raises(ValueError, match="^sample must contain at least one value$"):
            call()


class TestParameterRegion:
    @pytest.mark.parametrize(
        "lo,hi",
        [(math.nan, 1.0), (1.0, math.nan), (math.nan, math.nan), (2.0, 1.0), (math.inf, -math.inf)],
        ids=["nan low", "nan high", "nan both", "crossed", "crossed infinities"],
    )
    def test_nan_or_crossed_mu_bounds_are_refused(self, lo, hi):
        # max(1.0, nan) is 1.0: a NaN bound would be dropped by the clamp.
        with pytest.raises(ValueError, match="^mu bounds must be ordered numbers"):
            ParameterRegion(lo, hi)

    @pytest.mark.parametrize("make", [ParameterRegion.mu_fixed, ParameterRegion.mu_half_line])
    def test_a_nan_anchor_is_refused(self, make):
        with pytest.raises(ValueError, match="^mu bounds must be ordered numbers"):
            make(math.nan)

    @pytest.mark.parametrize("sigma0", [0.0, -1.0, math.inf, math.nan])
    def test_sigma0_must_be_finite_and_positive(self, sigma0):
        for make in (lambda: ParameterRegion.sigma_fixed(sigma0), lambda: ParameterRegion(sigma0=sigma0)):
            with pytest.raises(ValueError, match="^sigma0 must be positive"):
                make()

    def test_side_must_be_named(self):
        with pytest.raises(ValueError, match="side must be 'lower' or 'upper'"):
            ParameterRegion.mu_half_line(0.0, "left")


class TestNormalizedLikelihood:
    def test_equals_one_at_maximizer(self):
        x = (1.0, 2.0, 3.0)
        est = mle_normal(x, ParameterRegion.full())
        assert normalized_likelihood(x, est) == 1.0

    def test_below_one_elsewhere(self):
        x = sample(State(0.0, 1.0), 10, seed=2).values
        est = mle_normal(x, ParameterRegion.full())
        for state in (State(est.mu + 0.5, est.sigma), State(est.mu, 2 * est.sigma)):
            assert 0.0 < normalized_likelihood(x, state) < 1.0

    def test_vanishes_with_huge_sigma(self):
        x = (1.0, 2.0, 3.0)
        assert normalized_likelihood(x, State(2.0, 1e8)) < 1e-20

    def test_direct_ratio_arithmetic(self):
        # independent evaluation of the density ratio at x=(0,0,2), (0,1)
        x = (0.0, 0.0, 2.0)
        mu_hat, sigma_hat = 2.0 / 3.0, math.sqrt(8.0 / 9.0)
        num = (2 * math.pi * 1.0) ** -1.5 * math.exp(-(0.0 + 0.0 + 4.0) / 2.0)
        ss_hat = sum((v - mu_hat) ** 2 for v in x)
        den = (2 * math.pi * sigma_hat**2) ** -1.5 * math.exp(
            -ss_hat / (2 * sigma_hat**2)
        )
        assert normalized_likelihood(x, State(0.0, 1.0)) == pytest.approx(
            num / den, rel=1e-12
        )

    def test_degenerate_sample_rejected(self):
        with pytest.raises(ValueError):
            normalized_likelihood((1.0, 1.0), State(1.0, 1.0))

    def test_region_normalization(self):
        # constrained normalization scores 1 at the constrained maximizer
        x = (1.0, 2.0, 3.0)
        region = ParameterRegion.mu_fixed(0.0)
        value = likelihood(x, mle_normal(x, region), region)
        assert value.normalized_ratio == 1.0


# The catalog entries whose pivot is normal, each with the null kind its
# distance pairs with.
NORMAL_PIVOTS = {
    "mean-z": (lambda n: mean_z(n, 1.7), Hypothesis.point),
    "mean-z-upper": (lambda n: mean_z_upper(n, 1.7), Hypothesis.lower_half_line),
    "diff-means": (lambda n: mean_diff_z(n, n + 3, 1.7, 0.6), Hypothesis.point),
    "diff-means-upper": (
        lambda n: mean_diff_z_upper(n, n + 3, 1.7, 0.6), Hypothesis.lower_half_line
    ),
}


class TestLrt:
    @pytest.mark.parametrize("sigma", [math.inf, math.nan, 0.0, -1.0])
    def test_problem_sigma_must_be_finite_and_positive(self, sigma):
        # An infinite sigma scored every estimate 1, so the region never
        # rejected; a NaN one scored it NaN.
        with pytest.raises(ValueError, match="^sigma must be positive"):
            mean_z(9, sigma)

    def test_lambda_is_one_on_attainable_null(self):
        assert lrt_lambda(0.0, mean_z(9, 2.0), Hypothesis.point(0.0)) == 1.0
        assert lrt_lambda(-3.0, mean_z_upper(9, 2.0), Hypothesis.lower_half_line(0.0)) == 1.0

    def test_lambda_gaussian_ratio(self):
        theta = 0.0 + 2.0 / math.sqrt(9)
        assert lrt_lambda(theta, mean_z(9, 2.0), Hypothesis.point(0.0)) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    @pytest.mark.parametrize("alpha", [0.3, 0.05, 1e-4, 1e-12])
    def test_the_region_holds_its_boundary(self, alpha):
        # At n = 1 and sigma = 1 the scale is 1, so theta = r scores
        # exp(-r^2 / 2), the cutoff itself, bit for bit: the region is the
        # set at or below the cutoff, so it holds that theta.
        problem, hypothesis = mean_z(1, 1.0), Hypothesis.point(0.0)
        region = lrt_region(hypothesis, alpha, problem)
        assert lrt_lambda(region.radius, problem, hypothesis) == region.epsilon
        assert region.contains(region.radius) and region.contains(-region.radius)
        assert not region.contains(math.nextafter(region.radius, 0.0))

    @pytest.mark.parametrize("name", NORMAL_PIVOTS)
    def test_region_threshold_matches_distance_construction(self, name):
        # The same problem object states the law and scale of both.
        make, null = NORMAL_PIVOTS[name]
        for alpha in (0.5, 0.3, 0.1, 0.05, 1e-4, 1e-12):
            for n in (5, 10, 25):
                problem, hypothesis = make(n), null(0.3)
                region = lrt_region(hypothesis, alpha, problem)
                assert region.radius == rejection_region(problem, hypothesis, alpha).eta, (alpha, n)

    @pytest.mark.parametrize("name", ["mean-z-upper", "diff-means-upper"])
    def test_a_half_line_level_beyond_reach_is_refused_as_the_region_refuses_it(self, name):
        make, null = NORMAL_PIVOTS[name]
        problem, hypothesis = make(5), null(0.3)
        with pytest.raises(ValueError) as region_refusal:
            rejection_region(problem, hypothesis, 0.7)
        with pytest.raises(ValueError) as lrt_refusal:
            lrt_region(hypothesis, 0.7, problem)
        assert str(lrt_refusal.value) == str(region_refusal.value)
        assert str(lrt_refusal.value).startswith(f"{name} with n=5")

    @pytest.mark.parametrize(
        "name", ["var", "var-upper", "var-ratio", "var-ratio-upper", "mean-t", "mean-t-upper"]
    )
    def test_an_entry_without_a_normal_pivot_is_refused_by_name(self, name):
        entry = CATALOG[name]
        problem = framework.TestProblem(*entry, 10, 12 if entry.quantity.two_sample else None)
        null = Hypothesis.lower_half_line if entry.kind.half_line else Hypothesis.point
        laws = {"var": "chi_squared", "var-ratio": "fisher_f", "mean-t": "student_t"}
        law = laws[name.removesuffix("-upper")]
        message = f"^the likelihood ratio test needs a normal pivot; {name} has a {law} one$"
        with pytest.raises(ValueError, match=message):
            lrt_region(null(1.0), 0.05, problem)
        with pytest.raises(ValueError, match=message):
            lrt_lambda(2.0, problem, null(1.0))

    def test_the_null_kind_pairs_with_the_problem(self):
        # As a rejection region pairs them: a two-sided distance with a
        # point null, a half-line distance with a half-line null.
        with pytest.raises(ValueError, match="^absolute distances pair with point hypotheses$"):
            lrt_region(Hypothesis.lower_half_line(0.0), 0.05, mean_z(10, 1.0))
        with pytest.raises(ValueError, match="^half_line_absolute distances pair with lower_half_line hypotheses$"):
            lrt_lambda(1.0, mean_diff_z_upper(10, 10, 1.0, 1.0), Hypothesis.point(0.0))

    @pytest.mark.parametrize("alpha", [0.05, 1e-12])
    def test_radius_is_the_normal_upper_quantile(self, alpha):
        # Solved on the upper tail's own mass: at alpha = 1e-12, 1 - cdf(r)
        # is 8.9e-5 (relative) off the tail.
        scale = 1.7 / math.sqrt(10)
        for problem, hypothesis, k in (
            (mean_z(10, 1.7), Hypothesis.point(0.3), 2.0),
            (mean_z_upper(10, 1.7), Hypothesis.lower_half_line(0.3), 1.0),
        ):
            want = scale * stats.norm.isf(alpha / k)
            assert math.isclose(lrt_region(hypothesis, alpha, problem).radius, want, rel_tol=1e-13)

    def test_region_grows_with_alpha(self):
        problem = mean_z(10, 1.0)
        r1 = lrt_region(Hypothesis.point(0.0), 0.01, problem)
        r2 = lrt_region(Hypothesis.point(0.0), 0.1, problem)
        assert r2.radius < r1.radius
        assert r2.epsilon > r1.epsilon

    def test_nested_nulls_shrink_the_region(self):
        # a larger null raises the profile, so its low-likelihood set shrinks
        point = Hypothesis.point(0.0)
        half = Hypothesis.lower_half_line(0.0)
        eps = 0.1
        for theta in np.linspace(-3.0, 3.0, 61):
            in_half = lrt_lambda(theta, mean_z_upper(10, 1.0), half) <= eps
            in_point = lrt_lambda(theta, mean_z(10, 1.0), point) <= eps
            if in_half:
                assert in_point

    def test_calibrated_size_by_monte_carlo(self):
        alpha = 0.05
        region = lrt_region(Hypothesis.point(0.0), alpha, mean_z(10, 1.0))
        reps = 4000
        hits = 0
        for j in range(reps):
            x = sample(State(0.0, 1.0), 10, rng=stream(83, j))
            hits += region.contains(mu_bar(x.values))
        assert hits / reps <= alpha + 4.0 * math.sqrt(alpha * (1 - alpha) / reps)
