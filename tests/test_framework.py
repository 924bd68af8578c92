"""Semi-distance engine: axioms, calibrated radii, regions, duality."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import optimize, stats

from semidist import distributions, framework, montecarlo as mc
from semidist.framework import (
    Hypothesis,
    SemiDistance,
    SemiDistanceKind,
    confidence_region,
    estimate,
    eta_alpha,
    eta_alpha_generic,
    eta_alpha_over_null_grid,
    eta_gamma,
    mean_diff_z,
    mean_diff_z_upper,
    mean_t,
    mean_t_upper,
    mean_z,
    mean_z_upper,
    quantity_value,
    rejection_region,
    run_test,
    sure_region,
    variance,
    variance_ratio,
    variance_ratio_upper,
    variance_upper,
)
from semidist.inference import lrt_region
from semidist.measurement import Sample, State, TwoSampleState, sample, stream
from semidist.montecarlo import ExperimentPlan

reals = st.floats(min_value=-50, max_value=50, allow_nan=False)
positives = st.floats(min_value=1e-3, max_value=50, allow_nan=False)

CONTEXT = Sample((0.4, -1.3, 2.2, 0.9, -0.5))

TWO_SIDED_KINDS = [
    SemiDistanceKind.ABSOLUTE,
    SemiDistanceKind.LOG_RATIO,
    SemiDistanceKind.STUDENTIZED,
]
HALF_LINE_KINDS = [
    SemiDistanceKind.HALF_LINE_ABSOLUTE,
    SemiDistanceKind.HALF_LINE_LOG_RATIO,
    SemiDistanceKind.HALF_LINE_STUDENTIZED,
]


def make_distance(kind: SemiDistanceKind, theta0: float) -> SemiDistance:
    anchor = theta0 if kind in HALF_LINE_KINDS else None
    return SemiDistance(kind, theta0=anchor, context=CONTEXT)


def domain_value(kind: SemiDistanceKind, raw: float, positive: float) -> float:
    if kind in (SemiDistanceKind.LOG_RATIO, SemiDistanceKind.HALF_LINE_LOG_RATIO):
        return positive
    return raw


class TestSemiDistanceAxioms:
    @pytest.mark.parametrize("kind", TWO_SIDED_KINDS + HALF_LINE_KINDS)
    @given(reals, reals, reals, positives, positives, positives, reals, positives)
    def test_axioms_on_random_triples(self, kind, a, b, c, pa, pb, pc, t0_raw, t0_pos):
        t0 = domain_value(kind, t0_raw, t0_pos)
        d = make_distance(kind, t0)
        x = domain_value(kind, a, pa)
        y = domain_value(kind, b, pb)
        z = domain_value(kind, c, pc)
        assert d(x, x) == 0.0
        assert d(x, y) == d(y, x)
        assert d(x, z) <= d(x, y) + d(y, z) + 1e-12

    @pytest.mark.parametrize("kind", HALF_LINE_KINDS)
    def test_half_line_collapse_below_anchor(self, kind):
        t0 = 2.0
        d = make_distance(kind, t0)
        assert d(1.0, 1.5) == 0.0
        assert d(0.3, 2.0) == 0.0
        assert d(2.5, 1.0) > 0.0

    def test_the_log_ratio_takes_every_non_positive_value_as_one_point(self):
        # log maps all of (-inf, 0] to -inf: at distance 0 from itself and
        # infinitely far from every positive value.
        d = make_distance(SemiDistanceKind.LOG_RATIO, 1.0)
        assert d(0.0, 0.0) == d(-1.0, 0.0) == d(0.0, -1.0) == 0.0
        assert d(2.0, 0.0) == d(2.0, -3.0) == d(0.0, 2.0) == math.inf

    def test_studentized_needs_context(self):
        d = SemiDistance(SemiDistanceKind.STUDENTIZED)
        with pytest.raises(ValueError):
            d(0.0, 1.0)

    def test_studentized_degenerate_sample(self):
        d = SemiDistance(SemiDistanceKind.STUDENTIZED, context=Sample((2.0, 2.0, 2.0)))
        with pytest.raises(ValueError):
            d(0.0, 1.0)

    def test_anchor_required_for_half_line(self):
        with pytest.raises(ValueError):
            SemiDistance(SemiDistanceKind.HALF_LINE_ABSOLUTE)


LEVEL_ENTRY_POINTS = {
    "quantile": ("p", lambda v: distributions.quantile(distributions.normal(), v)),
    "z_alpha": ("alpha", lambda v: distributions.z_alpha(v, distributions.Tails.TWO)),
    "log-scale radius": (
        "alpha", lambda v: distributions.symmetric_log_interval_eta(distributions.chi_squared(4), v)
    ),
    "eta_alpha": ("alpha", lambda v: eta_alpha(mean_z(5, 1.0), None, v)),
    "eta_gamma": ("gamma", lambda v: eta_gamma(mean_z(5, 1.0), None, v)),
    "eta_alpha_generic": ("alpha", lambda v: eta_alpha_generic(mean_z(5, 1.0), State(0.0, 1.0), v)),
    "lrt_region": ("alpha", lambda v: lrt_region(Hypothesis.point(0.0), v, mean_z(5, 1.0))),
    "ExperimentPlan": ("level", lambda v: ExperimentPlan(mean_z(5, 1.0), State(0.0, 1.0), v, 10, 0)),
}

TWO_SIDED_AT_THE_SMALLEST_LEVEL = {
    "z_alpha": lambda v: distributions.z_alpha(v, distributions.Tails.TWO),
    "mean-z": lambda v: eta_alpha(mean_z(5, 1.0), None, v),
    "diff-means": lambda v: eta_alpha(mean_diff_z(5, 6, 1.0, 2.0), None, v),
    "mean-t": lambda v: eta_alpha(mean_t(5), None, v),
    "var": lambda v: eta_alpha(variance(5), None, v),
    "var-ratio": lambda v: eta_alpha(variance_ratio(5, 6), None, v),
    "lrt_region": lambda v: lrt_region(Hypothesis.point(0.0), v, mean_z(5, 1.0)),
}

# alpha = 10^-k, k = 1, 4, ..., 307.
_FAR_LEVELS = tuple(float(f"1e-{k}") for k in range(1, 308, 3))


class TestCalibratedRadii:
    @pytest.mark.parametrize("value", [0.0, 1.0, math.nan], ids=["0", "1", "nan"])
    @pytest.mark.parametrize("name,call", LEVEL_ENTRY_POINTS.values(), ids=LEVEL_ENTRY_POINTS)
    def test_every_level_is_refused_by_name(self, name, call, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must lie in (0, 1), got {value!r}')}$"):
            call(value)

    @pytest.mark.parametrize(
        "call", TWO_SIDED_AT_THE_SMALLEST_LEVEL.values(), ids=TWO_SIDED_AT_THE_SMALLEST_LEVEL
    )
    def test_a_level_whose_half_underflows_is_refused_by_name(self, call):
        # alpha / 2 rounds to 0 at alpha = 5e-324; the normal start then
        # took log 0 ("math domain error").
        with pytest.raises(
            ValueError,
            match="^alpha=5e-324 is too small for double precision: alpha / 2 underflows to 0$",
        ):
            call(5e-324)

    def test_one_sided_radii_at_the_smallest_level(self):
        # Only the halving underflows: one tail at 5e-324 is solved as before.
        z = distributions.z_alpha(5e-324, distributions.Tails.ONE)
        assert z == pytest.approx(38.467742167707804, rel=1e-13)
        assert eta_alpha(variance_upper(5), None, 5e-324) == pytest.approx(2.8526615036127483, rel=1e-13)
        region = lrt_region(Hypothesis.lower_half_line(0.0), 5e-324, mean_z_upper(5, 1.0))
        assert region.radius == eta_alpha(mean_z_upper(5, 1.0), None, 5e-324)
        assert region.radius == pytest.approx(z / math.sqrt(5), rel=1e-15)

    def test_mean_z_example(self):
        # sigma/sqrt(n) * z(alpha/2) at sigma=1, n=4, gamma=0.95
        problem = mean_z(4, 1.0)
        assert eta_gamma(problem, State(0.0, 1.0), 0.95) == pytest.approx(
            0.9799819922700268, abs=1e-10
        )

    def test_mean_z_upper_example(self):
        problem = mean_z_upper(4, 1.0)
        assert eta_alpha(problem, None, 0.05) == pytest.approx(
            0.8224268134757359, abs=1e-10
        )

    def test_variance_radius_is_state_free(self):
        problem = variance(10)
        vals = {
            eta_alpha(problem, State(mu, sigma), 0.05)
            for mu in (-3.0, 0.0, 7.0)
            for sigma in (0.1, 1.0, 9.0)
        }
        assert vals == {eta_alpha(problem, None, 0.05)}
        assert eta_alpha(problem, None, 0.05) == pytest.approx(
            0.5518321698792366, abs=1e-10
        )

    def test_variance_upper_radius(self):
        assert eta_alpha(variance_upper(10), None, 0.05) == pytest.approx(
            0.2629254170497565, abs=1e-10
        )

    def test_mean_diff_radius(self):
        problem = mean_diff_z(10, 20, 1.0, 2.0)
        expected = math.sqrt(1.0 / 10 + 4.0 / 20) * 1.9599639845400054
        assert eta_alpha(problem, None, 0.05) == pytest.approx(expected, abs=1e-8)

    def test_mean_t_radius(self):
        # t quantile with 9 dof at 0.975 (oracle-frozen)
        assert eta_alpha(mean_t(10), None, 0.05) == pytest.approx(
            2.262157162797621, abs=1e-8
        )
        assert eta_alpha(mean_t_upper(10), None, 0.05) == pytest.approx(
            1.833112932657059, abs=1e-8
        )

    def test_alpha_gamma_identity(self):
        problems = [mean_z(7, 2.0), variance(8), mean_t(12)]
        for problem in problems:
            # dyadic levels make the complements exact in floats
            for alpha in (0.25, 0.125, 0.0625):
                assert eta_alpha(problem, None, alpha) == eta_gamma(
                    problem, None, 1.0 - alpha
                )
            for alpha in (0.01, 0.05, 0.1):
                assert eta_alpha(problem, None, alpha) == pytest.approx(
                    eta_gamma(problem, None, 1.0 - alpha), rel=1e-12
                )

    def test_two_sided_radius_blows_up_as_alpha_vanishes(self):
        etas = [eta_alpha(mean_z(4, 1.0), None, a) for a in (0.2, 0.05, 1e-4, 1e-10)]
        assert all(a < b for a, b in zip(etas, etas[1:]))

    def test_missing_nuisance_points_to_t(self):
        message = "^mean-z needs known sigma; with sigma unknown use mean-t$"
        with pytest.raises(ValueError, match=message):
            eta_alpha(
                mean_z(4, 1.0).__class__(
                    quantity=mean_z(4, 1.0).quantity,
                    distance_kind=mean_z(4, 1.0).distance_kind,
                    n=4,
                ),
                None,
                0.05,
            )

    @pytest.mark.parametrize(
        "problem,omega,hypothesis",
        [
            (mean_z(10, 1.0), State(0.5, 1.0), Hypothesis.point(0.5)),
            (mean_z_upper(10, 1.0), State(0.5, 1.0), Hypothesis.lower_half_line(0.5)),
            (variance(10), State(0.0, 2.0), Hypothesis.point(2.0)),
            (variance_upper(10), State(0.0, 2.0), Hypothesis.lower_half_line(2.0)),
            (
                mean_diff_z(10, 20, 1.0, 2.0),
                TwoSampleState(State(1.0, 1.0), State(0.5, 2.0)),
                Hypothesis.point(0.5),
            ),
            (
                mean_diff_z_upper(10, 20, 1.0, 2.0),
                TwoSampleState(State(1.0, 1.0), State(0.5, 2.0)),
                Hypothesis.lower_half_line(0.5),
            ),
            (
                variance_ratio(10, 20),
                TwoSampleState(State(0.0, 2.0), State(0.0, 1.0)),
                Hypothesis.point(2.0),
            ),
            (
                variance_ratio_upper(10, 20),
                TwoSampleState(State(0.0, 2.0), State(0.0, 1.0)),
                Hypothesis.lower_half_line(2.0),
            ),
            (mean_t(10), State(0.0, 1.0), Hypothesis.point(0.0)),
            (mean_t_upper(10), State(0.0, 1.0), Hypothesis.lower_half_line(0.0)),
        ],
    )
    def test_closed_form_matches_generic_inversion(self, problem, omega, hypothesis):
        closed = eta_alpha(problem, omega, 0.05)
        generic = eta_alpha_generic(problem, omega, 0.05, anchor=hypothesis.value)
        assert generic == pytest.approx(closed, rel=1e-12)


    @pytest.mark.parametrize("alpha", [1e-108, 1e-150])
    def test_generic_inversion_where_the_density_product_underflows(self, alpha):
        # F(4, 1): the density at the upper end (about 5.6e215 at 1e-108)
        # underflows, but its log does not, so both solves keep their Newton
        # steps; the density product left the generic solve stepping past
        # the largest double (a bare OverflowError) and the closed form refused.
        problem, omega = variance_ratio(5, 2), TwoSampleState(State(0.0, 1.0), State(0.0, 1.0))
        closed = eta_alpha(problem, None, alpha)
        assert eta_alpha_generic(problem, omega, alpha) == pytest.approx(closed, rel=1e-12)

    @pytest.mark.parametrize("name", list(framework.CATALOG))
    def test_the_generic_answers_wherever_the_closed_form_does(self, name):
        # At the null boundary, over alpha = 10^-k, k = 1, 4, ..., 307, and
        # 1e-310: each n takes every fifth k from its own offset, so each
        # level is met at one n.  Far log-scale levels put the ends near the
        # largest double, and subnormal ones make f / alpha overflow.
        for i, n in enumerate((2, 3, 5, 10, 30)):
            problem = _half_line_problem(name, n)
            omega = _boundary(problem)
            for alpha in (*_FAR_LEVELS[i::5], 1e-310):
                try:
                    closed = eta_alpha(problem, omega, alpha)
                except ValueError:
                    continue  # refused by law and end, or as not positive
                generic = eta_alpha_generic(problem, omega, alpha, anchor=1.0)
                assert generic == pytest.approx(closed, rel=1e-12), (n, alpha)

    @pytest.mark.parametrize(
        "problem, alpha, reference",
        [
            # scipy: Brent on chi2(4).sf(5 e^(2 eta)) + chi2(4).cdf(5 e^(-2 eta)) = alpha,
            # t(4).isf(alpha / 2) and norm.isf(alpha) / sqrt(5).
            (variance(5), 1e-17, 10.07084521527643),
            (mean_t(5), 1e-17, 27831.576777253387),
            (mean_z_upper(5, 1.0), 1e-17, 3.7985398071872334),
        ],
    )
    def test_alpha_whose_complement_rounds_to_1_is_solved_on_its_tail(self, problem, alpha, reference):
        # 1 - alpha (and 1 - alpha/2) round to 1 here; the tail alpha does not.
        assert eta_alpha(problem, None, alpha) == pytest.approx(reference, rel=1e-12)

    def test_gamma_whose_complement_rounds_to_1_is_refused(self):
        with pytest.raises(ValueError, match="^gamma=1e-300 is too small .*: 1 - gamma rounds to 1$"):
            eta_gamma(mean_z(5, 1.0), None, 1e-300)

    def test_gamma_next_to_1_is_solved_on_its_tail(self):
        # 1 - gamma = 2^-53 exactly; scipy: t(4).isf(2^-54) and norm.isf(2^-54) / sqrt(5).
        gamma = 1.0 - 2**-53
        assert eta_gamma(mean_t(5), None, gamma) == pytest.approx(15247.029902217893, rel=1e-12)
        assert eta_gamma(mean_z(5, 1.0), None, gamma) == pytest.approx(3.7084566118984976, rel=1e-12)


def _scipy_radius(name, n, alpha):
    """The radius of catalog entry ``name`` at n = m rows and unit sigmas,
    from scipy: isf for z, t and chi-squared; one over F(d2, d1).ppf for an
    upper F tail (scipy's f.isf is itself off there); Brent on the two-tail
    mass for the two-sided log radii."""
    base, upper = name.removesuffix("-upper"), name.endswith("-upper")
    tail = alpha if upper else alpha / 2.0
    if base in ("mean-z", "diff-means"):
        return math.sqrt((1.0 if base == "mean-z" else 2.0) / n) * stats.norm.isf(tail)
    if base == "mean-t":
        return stats.t.isf(tail, n - 1)
    if base == "var":
        law, s, sf = stats.chi2(n - 1), float(n), stats.chi2(n - 1).sf
    else:
        law, s, sf = stats.f(n - 1, n - 1), 1.0, lambda x: stats.f(n - 1, n - 1).cdf(1.0 / x)
    if upper:
        point = law.isf(alpha) if base == "var" else 1.0 / law.ppf(alpha)
        return 0.5 * math.log(point / s)

    def excess(eta):
        return sf(s * math.exp(2.0 * eta)) + law.cdf(s * math.exp(-2.0 * eta)) - alpha

    return optimize.brentq(excess, 0.0, 64.0, xtol=1e-300, rtol=4 * np.finfo(float).eps)


@pytest.mark.parametrize("alpha", [1e-8, 1e-12, 1e-15])
@pytest.mark.parametrize("n", [5, 30])
def test_far_radii_are_the_scipy_ones(n, alpha):
    # Solved at 1 - alpha/2 instead of alpha, mean-t at n = 5 was 2.6e-2 off at 1e-15.
    for name, entry in framework.CATALOG.items():
        sigmas = {flag: 1.0 for flag in entry.known_sigmas}
        problem = framework.TestProblem(*entry, n, n if entry.quantity.two_sample else None, **sigmas)
        want = _scipy_radius(name, n, alpha)
        assert eta_alpha(problem, None, alpha) == pytest.approx(want, rel=1e-12), name


# Mean cdf calls per cold radius solve over the grid of cold CLI calls (each
# entry and its -upper variant x {test, ci} x alpha in _GRID_ALPHAS), per n,
# when every solve started from a fixed bracket.  The two normal entries
# shared one figure.
_GRID_ALPHAS = (0.1, 0.05, 0.01, 1e-4, 1e-8)
_BRACKET_CDF_CALLS = {
    "mean-z": (13.3, 13.3, 13.3, 13.3),
    "diff-means": (13.3, 13.3, 13.3, 13.3),
    "mean-t": (11.8, 13.1, 15.0, 19.8),
    "var": (16.5, 14.2, 22.0, 29.7),
    "var-ratio": (16.9, 13.9, 21.4, 27.6),
}


@pytest.mark.parametrize("column, n", enumerate((5, 30, 1000, 10000)))
def test_cold_radius_solves_take_half_the_cdf_calls(monkeypatch, column, n):
    # Every tail evaluation counts, lower (cdf) or upper (_sf), once: the
    # upper tail of z and t is itself a cdf call, which is not counted again.
    calls, depth = [], []

    def counting(tail):
        def call(spec, x):
            if not depth:
                calls.append(x)
            depth.append(x)
            try:
                return tail(spec, x)
            finally:
                depth.pop()
        return call

    for name in ("cdf", "_sf"):
        monkeypatch.setattr(distributions, name, counting(getattr(distributions, name)))
    for base, bracket in _BRACKET_CDF_CALLS.items():
        solves = 0
        calls.clear()
        for name in (base, f"{base}-upper"):
            entry = framework.CATALOG[name]
            sigmas = {flag: 1.0 for flag in entry.known_sigmas}
            m = n if entry.quantity.two_sample else None
            problem = framework.TestProblem(*entry, n, m, **sigmas)
            for alpha in _GRID_ALPHAS:
                for radius, level in ((eta_alpha, alpha), (eta_gamma, 1.0 - alpha)):
                    framework._radius.cache_clear()
                    radius(problem, None, level)
                    solves += 1
        assert len(calls) / solves <= bracket[column] / 2, base
    framework._radius.cache_clear()


def _rng_samples(problem, seed, count, truth=None):
    if truth is None:
        truth = (
            TwoSampleState(State(0.2, 1.3), State(-0.4, 0.8))
            if problem.two_sample
            else State(0.2, 1.3)
        )
    return [
        sample(truth, problem.n, problem.m, rng=stream(seed, j)) for j in range(count)
    ]


CATALOG = [
    ("mean-z", mean_z(10, 1.3), Hypothesis.point, 0.0),
    ("mean-z-upper", mean_z_upper(10, 1.3), Hypothesis.lower_half_line, 0.0),
    ("var", variance(10), Hypothesis.point, 1.0),
    ("var-upper", variance_upper(10), Hypothesis.lower_half_line, 1.0),
    ("diff-means", mean_diff_z(10, 12, 1.3, 0.8), Hypothesis.point, 0.0),
    ("diff-means-upper", mean_diff_z_upper(10, 12, 1.3, 0.8), Hypothesis.lower_half_line, 0.0),
    ("var-ratio", variance_ratio(10, 12), Hypothesis.point, 1.0),
    ("var-ratio-upper", variance_ratio_upper(10, 12), Hypothesis.lower_half_line, 1.0),
    ("mean-t", mean_t(10), Hypothesis.point, 0.0),
    ("mean-t-upper", mean_t_upper(10), Hypothesis.lower_half_line, 0.0),
]


def _catalog_truth(problem):
    if problem.two_sample:
        return TwoSampleState(State(0.2, 1.3), State(-0.1, 0.8))
    return State(0.2, 1.3)


def _null_candidates(problem, x, rng):
    # candidate null values spread around the realized estimate so both
    # decisions occur
    e = estimate(problem, x)
    if problem.quantity.value in ("sigma", "sigma_ratio"):
        return [e * math.exp(off) for off in rng.uniform(-1.5, 1.5, 4)]
    spread = eta_alpha(problem, None, 0.05) * 2.5
    return [e + off for off in rng.uniform(-spread, spread, 4)]


class TestNormalPivotScale:
    """The normal pivot's scale sqrt(sum of sigma^2 / k) over its one or
    two sides, taken at a power of two where the sum leaves the normal
    range: every sigma the entries accept gives a finite radius or one
    refused by name, with no bits lost to the range."""

    Z = 1.959963984540054  # scipy: norm.isf(0.025)

    @pytest.mark.parametrize("sigma", [1e-300, 1e-160, 1e-155, 1e155, 1e200, 1e300])
    def test_two_sided_radius_is_z_sigma_root_of_the_sizes(self, sigma):
        # sigma^2 / n is subnormal or 0 from sigma = 1e-155 down, and
        # overflows from 1e155 up; at 1e-160 the radius was 2.4e-4 off.
        want = self.Z * sigma * math.sqrt(1.0 / 5 + 1.0 / 5)
        assert eta_alpha(mean_diff_z(5, 5, sigma, sigma), None, 0.05) == pytest.approx(want, rel=1e-15, abs=0.0)
        want = self.Z * sigma / math.sqrt(5)
        assert eta_alpha(mean_z(5, sigma), None, 0.05) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_a_scale_in_the_range_is_the_plain_root(self):
        rng = np.random.default_rng(12)
        for _ in range(2000):
            s1, s2 = (float(s) for s in 10.0 ** rng.uniform(-150, 150, 2))
            n, m = (int(k) for k in rng.integers(1, 10**6, 2))
            _, scale = framework._pivot(mean_diff_z(n, m, s1, s2), None)
            assert scale == math.sqrt(s1 * s1 / n + s2 * s2 / m)
            assert framework._pivot(mean_z(n, s1), None)[1] == math.sqrt(s1 * s1 / n)

    @pytest.mark.parametrize("sigma", [2.0**-600, 2.0**600])
    def test_a_scale_out_of_the_range_is_a_power_of_two_times_one_in_it(self, sigma):
        for n, m in ((1, 1), (3, 7), (50, 2)):
            _, scale = framework._pivot(mean_diff_z(n, m, sigma, 3.0 * sigma), None)
            assert scale == sigma * math.sqrt(1.0 / n + 9.0 / m)
            state = TwoSampleState(State(0.0, sigma), State(1.0, 0.5 * sigma))
            assert framework._pivot(mean_diff_z(n, m, 1.0, 1.0), state)[1] == sigma * math.sqrt(1.0 / n + 0.25 / m)

    def test_a_scale_past_the_largest_double_is_refused_by_entry(self):
        with pytest.raises(ValueError, match=r"^diff-means with n=1, m=1 cannot meet alpha=0.05: its radius there overflows float64$"):
            eta_alpha(mean_diff_z(1, 1, 1.7e308, 1.7e308), None, 0.05)

    def test_coverage_at_a_huge_sigma_is_the_coverage_at_sigma_1(self):
        # 2^600 scales draws, estimates and the radius exactly; sigma^2
        # overflowed before, and the plan raised OverflowError.
        hits = []
        for sigma in (1.0, 2.0**600):
            truth = TwoSampleState(State(0.0, sigma), State(0.0, sigma))
            plan = ExperimentPlan(mean_diff_z(5, 5, sigma, sigma), truth, 0.95, 400, 11)
            hits.append(mc.coverage_experiment(plan).hits)
        assert hits[0] == hits[1]


class TestRegionsAndDuality:
    def test_mean_t_statistic_zero_at_null(self):
        result = run_test(mean_t(3), Hypothesis.point(2.0), 0.05, Sample((1.0, 2.0, 3.0)))
        assert result.statistic == 0.0
        assert not result.reject

    def test_far_mean_rejects(self):
        x = Sample(tuple(10.0 + v for v in (-0.1, 0.0, 0.1, 0.05)))
        result = run_test(mean_z(4, 1.0), Hypothesis.point(0.0), 0.05, x)
        assert result.reject

    def test_one_sided_rejects_superset_on_upper_side(self):
        # z(alpha) < z(alpha/2): anything the two-sided test rejects above
        # the null, the one-sided test rejects too
        problem2 = mean_z(10, 1.0)
        problem1 = mean_z_upper(10, 1.0)
        for j in range(300):
            x = sample(State(0.35, 1.0), 10, rng=stream(5, j))
            two = run_test(problem2, Hypothesis.point(0.0), 0.05, x)
            one = run_test(problem1, Hypothesis.lower_half_line(0.0), 0.05, x)
            if two.reject and estimate(problem2, x) > 0.0:
                assert one.reject

    @pytest.mark.parametrize("name,problem,make_hyp,theta0", CATALOG)
    def test_duality_on_random_data(self, name, problem, make_hyp, theta0):
        rng = np.random.default_rng(17)
        alpha = 0.05
        rejections = 0
        for j, x in enumerate(_rng_samples(problem, 23, 250, _catalog_truth(problem))):
            ci = confidence_region(problem, x, 1.0 - alpha)
            for value in _null_candidates(problem, x, rng):
                result = run_test(problem, make_hyp(value), alpha, x)
                assert result.reject == (not ci.contains(value)), (name, value)
                rejections += result.reject
        assert rejections > 0  # both branches exercised

    @pytest.mark.parametrize("name,problem,make_hyp,theta0", CATALOG)
    def test_region_predicate_matches_cutpoints(self, name, problem, make_hyp, theta0):
        region = rejection_region(problem, make_hyp(theta0), 0.05)
        for x in _rng_samples(problem, 31, 100, _catalog_truth(problem)):
            lo, hi = region.estimator_cutpoints(x)
            e = estimate(problem, x)
            by_cut = (lo is not None and e <= lo) or e >= hi
            assert region.contains(x) == by_cut

    @pytest.mark.parametrize("name,problem,make_hyp,theta0", CATALOG)
    def test_rejection_monotone_in_alpha(self, name, problem, make_hyp, theta0):
        r1 = rejection_region(problem, make_hyp(theta0), 0.01)
        r2 = rejection_region(problem, make_hyp(theta0), 0.05)
        r3 = rejection_region(problem, make_hyp(theta0), 0.2)
        assert r1.eta >= r2.eta >= r3.eta
        for x in _rng_samples(problem, 37, 60, _catalog_truth(problem)):
            if r1.contains(x):
                assert r2.contains(x)
            if r2.contains(x):
                assert r3.contains(x)

    @pytest.mark.parametrize("name,problem,make_hyp,theta0", CATALOG)
    def test_sure_region_is_exact_complement(self, name, problem, make_hyp, theta0):
        hyp = make_hyp(theta0)
        sure = sure_region(problem, hyp, 0.95)
        reject = rejection_region(problem, hyp, 1.0 - 0.95)
        for x in _rng_samples(problem, 41, 60, _catalog_truth(problem)):
            assert sure.contains(x) == (not reject.contains(x))

    @pytest.mark.parametrize("name,problem,make_hyp,theta0", CATALOG)
    def test_sure_region_complement_has_the_eta_of_the_level_alpha(
        self, name, problem, make_hyp, theta0
    ):
        # 1 - 0.95 is 0.05 plus 4.4e-17, so eta matches the region at
        # exactly that alpha, and at alpha = 0.05 to within rounding.
        hyp = make_hyp(theta0)
        complement = sure_region(problem, hyp, 0.95).complement
        assert complement == rejection_region(problem, hyp, 1.0 - 0.95)
        assert complement.eta == eta_gamma(problem, None, 0.95)
        assert complement.eta == pytest.approx(rejection_region(problem, hyp, 0.05).eta, rel=1e-12)

    @pytest.mark.parametrize("gamma,why", [
        (0.0, "must lie in (0, 1)"),
        (1.0, "must lie in (0, 1)"),
        (math.nan, "must lie in (0, 1)"),
        (1e-17, "too small for double precision"),
    ])
    def test_sure_region_refuses_a_gamma_as_eta_gamma_does(self, gamma, why):
        # The gamma is named before the hypothesis is read, even one that
        # does not pair with the problem.
        problem, hyp = mean_z(5, 1.0), Hypothesis.point(0.0)
        with pytest.raises(ValueError, match=re.escape(why)) as expected:
            eta_gamma(problem, None, gamma)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            sure_region(problem, hyp, gamma)
        with pytest.raises(ValueError, match=re.escape(str(expected.value))):
            sure_region(problem, Hypothesis.lower_half_line(0.0), gamma)

    def test_confidence_region_grows_with_gamma(self):
        x = Sample(tuple(sample(State(0.0, 1.0), 10, seed=3).values))
        levels = (0.5, 0.9, 0.99, 1.0 - 1e-9)
        regions = [confidence_region(mean_t(10), x, g) for g in levels]
        for a, b in zip(regions, regions[1:]):
            assert b.lo < a.lo and a.hi < b.hi
        wide = regions[-1]
        for theta in (wide.lo + 1e-9, 0.0, 1.0, wide.hi - 1e-9):
            assert wide.contains(theta)

    def test_confidence_interval_endpoints_match_predicate(self):
        # contains() runs on the distance arithmetic; the printed
        # endpoints must agree with it up to endpoint rounding
        x = sample(State(1.0, 2.0), 10, seed=5)
        for problem in (mean_z(10, 2.0), variance(10), mean_t(10)):
            ci = confidence_region(problem, x, 0.95)
            inside = 0.5 * (ci.lo + min(ci.hi, ci.lo + 10.0))
            assert ci.contains(inside)
            pad = 1e-9 * max(1.0, abs(ci.lo))
            assert not ci.contains(ci.lo - pad)
            if math.isfinite(ci.hi):
                assert not ci.contains(ci.hi + pad)

    def test_shift_equivariance_of_mean_tests(self):
        shift = 13.7
        for problem, make in ((mean_z(10, 1.0), Hypothesis.point), (mean_t(10), Hypothesis.point)):
            for j in range(50):
                x = sample(State(0.0, 1.0), 10, rng=stream(43, j))
                shifted = Sample(tuple(v + shift for v in x.values))
                a = run_test(problem, make(0.2), 0.05, x)
                b = run_test(problem, make(0.2 + shift), 0.05, shifted)
                assert a.reject == b.reject

    def test_scale_invariance_of_variance_test(self):
        scale = 3.1
        problem = variance(10)
        for j in range(50):
            x = sample(State(0.0, 1.0), 10, rng=stream(47, j))
            scaled = Sample(tuple(v * scale for v in x.values))
            a = run_test(problem, Hypothesis.point(0.9), 0.05, x)
            b = run_test(problem, Hypothesis.point(0.9 * scale), 0.05, scaled)
            assert a.reject == b.reject

    def test_hypothesis_kind_must_match_distance(self):
        with pytest.raises(ValueError):
            rejection_region(mean_z(4, 1.0), Hypothesis.lower_half_line(0.0), 0.05)
        with pytest.raises(ValueError):
            rejection_region(mean_z_upper(4, 1.0), Hypothesis.point(0.0), 0.05)

    def test_degenerate_sample_raises_for_studentized(self):
        x = Sample((2.0, 2.0, 2.0))
        with pytest.raises(ValueError):
            run_test(mean_t(3), Hypothesis.point(0.0), 0.05, x)
        with pytest.raises(ValueError):
            confidence_region(mean_t(3), x, 0.95)

    def test_wrong_sample_shape_rejected(self):
        with pytest.raises(ValueError):
            run_test(mean_z(4, 1.0), Hypothesis.point(0.0), 0.05, Sample((1.0, 2.0)))
        with pytest.raises(ValueError):
            estimate(mean_diff_z(3, 3, 1.0, 1.0), Sample((1.0, 2.0, 3.0)))


class TestGenericSolverCost:
    """The tail evaluations of ``eta_alpha_generic``'s own solve, with the
    closed form it starts from already cached, pinned on a fixed grid as
    ``TestSolverCost`` pins the quantiles'."""

    P = (0.2, 0.05, 1e-4, 1e-8, 1e-16, 1e-100)
    # At an interior state of a half-line null (quantity 0.9, null 1), the
    # start, the boundary's radius, lies off the root.
    INTERIOR = {
        "mean-z-upper": (5, 5, 4, 4, 4, 4),
        "var-upper": (0, 5, 5, 5, 5, 5),  # at 0.2 the mass at eta = 0 is below alpha
        "diff-means-upper": (4, 4, 4, 4, 4, 4),
        "var-ratio-upper": (5, 4, 4, 4, 3, 2),
    }

    @staticmethod
    def _counts(monkeypatch, name, theta):
        calls, real = [], distributions._invert

        def invert(f, *args, **kwargs):
            return real(lambda x: calls.append(x) or f(x), *args, **kwargs)

        monkeypatch.setattr(distributions, "_invert", invert)
        problem = _half_line_problem(name, 10)
        omega = framework.state_with_quantity(problem, _boundary(problem), theta)
        got = []
        for alpha in TestGenericSolverCost.P:
            eta_alpha(problem, omega, alpha)
            calls.clear()
            eta_alpha_generic(problem, omega, alpha, anchor=1.0)
            got.append(len(calls))
        return tuple(got)

    @pytest.mark.parametrize("name", list(framework.CATALOG))
    def test_a_boundary_solve_takes_one_evaluation(self, monkeypatch, name):
        # Its start is the closed form's root, so the mass there is within
        # the residual stop and one Newton step, with no second evaluation,
        # finishes it.
        assert self._counts(monkeypatch, name, 1.0) == (1,) * len(self.P)

    @pytest.mark.parametrize("name", INTERIOR)
    def test_an_interior_solve_takes_its_pinned_number_of_evaluations(self, monkeypatch, name):
        assert self._counts(monkeypatch, name, 0.9) == self.INTERIOR[name]


class TestGenericGridIntersection:
    def test_variance_point_null_over_mu_grid(self):
        # the null set {sigma = sigma0} is a whole line of states in mu;
        # intersecting the per-state regions must land on the closed form
        problem = variance(10)
        hyp = Hypothesis.point(2.0)
        states = [State(mu, 2.0) for mu in np.linspace(-8.0, 8.0, 81)]
        grid_eta = eta_alpha_over_null_grid(problem, hyp, 0.05, states)
        assert grid_eta == pytest.approx(eta_alpha(problem, None, 0.05), rel=1e-9)

    def test_mean_diff_point_null_over_line_grid(self):
        problem = mean_diff_z(10, 20, 1.0, 2.0)
        hyp = Hypothesis.point(0.0)
        states = [
            TwoSampleState(State(mu, 1.0), State(mu, 2.0))
            for mu in np.linspace(-6.0, 6.0, 81)
        ]
        grid_eta = eta_alpha_over_null_grid(problem, hyp, 0.05, states)
        assert grid_eta == pytest.approx(eta_alpha(problem, None, 0.05), rel=1e-9)

    def test_half_line_null_where_boundary_dominates(self):
        # interior states need smaller radii, so the intersection is
        # governed by the boundary state
        problem = mean_z_upper(10, 1.0)
        hyp = Hypothesis.lower_half_line(0.5)
        states = [State(mu, 1.0) for mu in np.linspace(-2.0, 0.5, 26)]
        grid_eta = eta_alpha_over_null_grid(problem, hyp, 0.05, states)
        assert grid_eta == pytest.approx(eta_alpha(problem, None, 0.05), rel=1e-9)

    @pytest.mark.parametrize(
        "problem, hypothesis, states, top",
        [
            # Stopping at 0 would give 0.0201, against the null's 0.520.
            (mean_z_upper(10, 1.0), Hypothesis.lower_half_line(0.5), [State(0.0, 1.0)], 0.0),
            (mean_z_upper(10, 1.0), Hypothesis.lower_half_line(0.5),
             [State(-2.0, 1.0), State(0.25, 1.0), State(-1.0, 1.0)], 0.25),
            (variance_upper(10), Hypothesis.lower_half_line(2.0), [State(0.0, 1.5)], 1.5),
        ],
    )
    def test_a_half_line_grid_short_of_its_boundary_is_refused(self, problem, hypothesis, states, top):
        # The largest radius lies at the boundary, so a grid without it
        # would give the radius of the grid, not of the null.
        message = f"the grid stops at {top!r}, below the null boundary {hypothesis.value!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            eta_alpha_over_null_grid(problem, hypothesis, 0.05, states)

    @pytest.mark.parametrize(
        "problem, hypothesis, states",
        [
            # A two-sided radius (0.620) would be returned for a half-line null.
            (mean_z(10, 1.0), Hypothesis.lower_half_line(0.5), [State(0.5, 1.0)]),
            (mean_z_upper(10, 1.0), Hypothesis.point(0.5), [State(0.5, 1.0)]),
            (variance(10), Hypothesis.point(-2.0), [State(0.0, 2.0)]),
        ],
    )
    def test_a_null_the_problem_cannot_pair_with_is_refused_as_the_region_refuses_it(
        self, problem, hypothesis, states
    ):
        with pytest.raises(ValueError) as refusal:
            rejection_region(problem, hypothesis, 0.05)
        with pytest.raises(ValueError, match=f"^{re.escape(str(refusal.value))}$"):
            eta_alpha_over_null_grid(problem, hypothesis, 0.05, states)

    def test_grid_state_outside_null_rejected(self):
        problem = variance(10)
        with pytest.raises(ValueError):
            eta_alpha_over_null_grid(
                problem, Hypothesis.point(2.0), 0.05, [State(0.0, 2.5)]
            )

    def test_an_interior_state_radius_is_zero(self):
        # Below the boundary the mass beyond eta = 0 is already under alpha:
        # every radius meets alpha there, and 0 is their infimum.
        problem = mean_z_upper(10, 1.0)
        assert eta_alpha_generic(problem, State(-2.0, 1.0), 0.05, anchor=0.5) == 0.0


# ---------------------------------------------------------------------------
# Levels the region cannot meet
# ---------------------------------------------------------------------------

HALF_LINE_ENTRIES = [name for name, entry in framework.CATALOG.items() if entry.kind.half_line]
HALF_LINE_NULL = Hypothesis.lower_half_line(1.0)


def _half_line_problem(name, n):
    """The entry at n, with m = n + 1 and known sigmas 1."""
    entry = framework.CATALOG[name]
    m = n + 1 if entry.quantity.two_sample else None
    return framework.TestProblem(*entry, n, m, **{flag: 1.0 for flag in entry.known_sigmas})


def _boundary(problem):
    """The state with sds 1 whose quantity is the null value 1."""
    base = State(0.0, 1.0)
    if problem.two_sample:
        base = TwoSampleState(base, base)
    return framework.state_with_quantity(problem, base, 1.0)


def _alpha_star(problem):
    """P(E > theta0) at the null boundary, from scipy."""
    n, m = problem.n, problem.m
    if problem.quantity is framework.QuantityKind.SIGMA:
        return stats.chi2.sf(n, n - 1)
    if problem.quantity is framework.QuantityKind.SIGMA_RATIO:
        return stats.f.sf(1.0, n - 1, m - 1)
    return 0.5


def _data(problem):
    x = tuple(float(v * v) for v in range(1, problem.n + 1))
    return Sample(x, x[::-1] + (0.5,) if problem.two_sample else None)


def _experiment(run, coverage):
    def radius(problem, alpha):
        plan = ExperimentPlan(
            problem, _boundary(problem), 1.0 - alpha if coverage else alpha, 4, 0,
            None if coverage else HALF_LINE_NULL,
        )
        run(plan)
        return mc._Rule.of(plan).eta
    return radius


# Entry point -> (its radius at level alpha, whether it takes gamma = 1 - alpha).
RADIUS_ENTRY_POINTS = {
    "eta_alpha": (lambda p, a: eta_alpha(p, None, a), False),
    "eta_gamma": (lambda p, a: eta_gamma(p, None, 1.0 - a), True),
    "rejection_region": (lambda p, a: rejection_region(p, HALF_LINE_NULL, a).eta, False),
    "run_test": (lambda p, a: run_test(p, HALF_LINE_NULL, a, _data(p)).eta, False),
    "confidence_region": (lambda p, a: confidence_region(p, _data(p), 1.0 - a).eta, True),
    "sure_region": (lambda p, a: sure_region(p, HALF_LINE_NULL, 1.0 - a).complement.eta, True),
    "size_experiment": (_experiment(mc.size_experiment, False), False),
    "coverage_experiment": (_experiment(mc.coverage_experiment, True), True),
    "eta_alpha_over_null_grid": (
        lambda p, a: eta_alpha_over_null_grid(p, HALF_LINE_NULL, a, [_boundary(p)]), False
    ),
    "lrt_region": (lambda p, a: lrt_region(HALF_LINE_NULL, a, p).radius, False),
}

REFUSAL_CASES = [
    pytest.param(point, name, n, id=f"{point}-{name}-n{n}")
    for point in RADIUS_ENTRY_POINTS
    for name in HALF_LINE_ENTRIES
    for n in (2, 5, 30)
    # The ratio test needs a normal pivot.
    if point != "lrt_region" or name in ("mean-z-upper", "diff-means-upper")
]


def _refused(call, problem, name, level, astar, via_gamma=False):
    """``call`` raises the one refusal, naming the entry, its sizes and the
    level as given: an alpha and an alpha* within rounding of ``astar``, or
    a confidence level gamma and gamma* = 1 - alpha*."""
    sizes = f"n={problem.n}" + (f", m={problem.m}" if problem.two_sample else "")
    symbol, side, bound = ("gamma", "above", 1.0 - astar) if via_gamma else ("alpha", "below", astar)
    message = (
        f"{name} with {sizes} cannot meet {symbol}={level!r}: its radius there is not positive, "
        f"so the region would reject every sample; the levels it meets lie {side} {symbol}*="
    )
    with pytest.raises(ValueError, match=f"^{re.escape(message)}") as refusal:
        call()
    assert float(str(refusal.value).removeprefix(message)) == pytest.approx(bound, rel=1e-13)


class TestLevelsTheRegionCannotMeet:
    """d is never negative, so a radius eta <= 0 rejects every sample: each
    entry point refuses such a level with one message.  On a half-line entry
    that happens from alpha* = P_boundary(E > theta0) up."""

    @pytest.mark.parametrize("factor", [1.0 + 1e-9, None], ids=["just-above-alpha*", "0.7"])
    @pytest.mark.parametrize("point,name,n", REFUSAL_CASES)
    def test_a_level_from_alpha_star_up_is_refused(self, point, name, n, factor):
        problem = _half_line_problem(name, n)
        astar = _alpha_star(problem)
        alpha = 0.7 if factor is None else astar * factor
        radius, via_gamma = RADIUS_ENTRY_POINTS[point]
        # The gamma entry points are called with gamma = 1 - alpha.
        seen = 1.0 - alpha if via_gamma else alpha
        _refused(lambda: radius(problem, alpha), problem, name, seen, astar, via_gamma)

    @pytest.mark.parametrize("point,name,n", REFUSAL_CASES)
    def test_a_level_just_below_alpha_star_is_met(self, point, name, n):
        problem = _half_line_problem(name, n)
        radius, _ = RADIUS_ENTRY_POINTS[point]
        assert radius(problem, _alpha_star(problem) * (1.0 - 1e-9)) > 0.0

    def test_a_two_sided_radius_that_rounds_below_zero_is_refused(self):
        # alpha* is 1 on a two-sided entry; at 1 - 2^-53 the F radius rounds
        # to -3.7e-16.
        problem, alpha = variance_ratio(5, 6), 1.0 - 2.0**-53
        for call in (
            lambda: eta_alpha(problem, None, alpha),
            lambda: rejection_region(problem, Hypothesis.point(1.0), alpha),
            lambda: run_test(problem, Hypothesis.point(1.0), alpha, _data(problem)),
        ):
            _refused(call, problem, "var-ratio", alpha, 1.0)

    @pytest.mark.parametrize("n", [2, 5, 30])
    @pytest.mark.parametrize("name", HALF_LINE_ENTRIES)
    def test_the_size_at_the_boundary_is_alpha(self, name, n):
        # P_boundary(d >= eta) from the pivot law; the worst relative error
        # measured over these grids was 1.06e-14 (var-upper, n = 30).
        problem = _half_line_problem(name, n)
        tail, _ = framework._statistic_law_tail(problem, _boundary(problem), 1.0)
        top = _alpha_star(problem) * (1.0 - 1e-9)
        for alpha in [*np.logspace(-12, math.log10(top), 40)[:-1], top]:
            alpha = float(alpha)
            size = tail(-eta_alpha(problem, None, alpha))
            assert size == pytest.approx(alpha, rel=2e-14), alpha


class TestQuantityValues:
    def test_all_maps(self):
        two = TwoSampleState(State(1.0, 2.0), State(0.25, 0.5))
        assert quantity_value(mean_z(4, 2.0), State(1.0, 2.0)) == 1.0
        assert quantity_value(variance(4), State(1.0, 2.0)) == 2.0
        assert quantity_value(mean_diff_z(4, 4, 2.0, 0.5), two) == 0.75
        assert quantity_value(variance_ratio(4, 4), two) == 4.0

    @pytest.mark.parametrize(
        "problem, state, message",
        [
            (mean_z(10, 1.0), TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)), "mu needs a State"),
            (variance(10), TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)), "sigma needs a State"),
            (mean_diff_z(10, 5, 1.0, 1.0), State(0.0, 1.0), "mu_diff needs a TwoSampleState"),
            (variance_ratio(10, 5), State(0.0, 1.0), "sigma_ratio needs a TwoSampleState"),
        ],
        ids=["mu", "sigma", "mu_diff", "sigma_ratio"],
    )
    def test_a_state_of_the_other_shape_is_refused_naming_the_quantity(self, problem, state, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            quantity_value(problem, state)
        with pytest.raises(ValueError, match=f"^{message}$"):
            framework.state_with_quantity(problem, state, 2.0)
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentPlan(problem, state, 0.95, 10, 1)
        with pytest.raises(ValueError, match=f"^{message}$"):
            eta_alpha(problem, state, 0.05)
        with pytest.raises(ValueError, match=f"^{message}$"):
            eta_alpha_generic(problem, state, 0.05, 1.0)
