"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Heavy Monte Carlo criteria use J = 100,000 replications and finish in
about a minute each on two cores; everything else runs in seconds.
"""

import math

import numpy as np
import pytest

import oracles as orc
from semidist.distributions import (
    Tails,
    chi_squared,
    fisher_f,
    normal,
    quantile,
    student_t,
    symmetric_log_interval_eta,
    upper_tail_log_eta,
    z_alpha,
)
from semidist.framework import (
    Hypothesis,
    SemiDistance,
    SemiDistanceKind,
    confidence_region,
    estimate,
    eta_alpha,
    eta_alpha_over_null_grid,
    mean_diff_z,
    mean_diff_z_upper,
    mean_t,
    mean_t_upper,
    mean_z,
    mean_z_upper,
    rejection_region,
    run_test,
    variance,
    variance_ratio,
    variance_ratio_upper,
    variance_upper,
)
from semidist.inference import (
    ParameterRegion,
    log_likelihood,
    lrt_region,
    mle_normal,
)
from semidist.measurement import (
    Sample,
    State,
    TwoSampleState,
    _sample_block,
    mu_bar,
    sample,
    sigma_bar,
    stream,
)
from semidist.montecarlo import (
    ExperimentPlan,
    coverage_experiment,
    power_curve,
    size_experiment,
)

WORKERS = 2
DOFS = (1, 2, 5, 9, 19, 49)
PROBS = (0.005, 0.025, 0.05, 0.5, 0.95, 0.975, 0.995)
SIZES = ((5, 5), (10, 10), (10, 20))
ALPHAS = (0.01, 0.05, 0.1)
J = 100_000


def _report(criterion: int, label: str) -> None:
    print(f"ACCEPTANCE {criterion}: PASS - {label}")


def test_criterion_1_quantile_correctness():
    """Library quantiles vs the quadrature+bisection oracle, |diff| <= 1e-8,
    and to 1e-12 relative at upper tails 1e-8 and 1e-12."""
    worst = 0.0
    for p in PROBS:
        worst = max(worst, abs(quantile(normal(), p) - orc.oracle_quantile(normal(), p)))
    for k in DOFS:
        for p in PROBS:
            for spec in (chi_squared(k), student_t(k)):
                worst = max(
                    worst, abs(quantile(spec, p) - orc.oracle_quantile(spec, p))
                )
    for k1 in DOFS:
        for k2 in DOFS:
            spec = fisher_f(k1, k2)
            for p in PROBS:
                worst = max(
                    worst, abs(quantile(spec, p) - orc.oracle_quantile(spec, p))
                )
    assert worst <= 1e-8, f"worst quantile deviation {worst:.3e}"
    # Far upper tails, against bisection on the quadrature upper tail at
    # the exact complement 1 - p: relative, as the quadrature resolves it.
    upper = 0.0
    for spec in (normal(), student_t(3), chi_squared(5), fisher_f(4, 7)):
        for p in (1.0 - 1e-8, 1.0 - 1e-12):
            want = orc.oracle_upper_quantile(spec, 1.0 - p)
            upper = max(upper, abs(quantile(spec, p) / want - 1.0))
    assert upper <= 1e-12, f"worst relative upper-tail quantile deviation {upper:.3e}"
    _report(1, f"quantiles match the oracle (worst |diff| = {worst:.2e}, upper tails {upper:.1e})")


def test_criterion_2_threshold_identities():
    """Closed-form radii against their defining equations and masses."""
    sigma, sigma2 = 1.3, 0.7
    for n, m in SIZES:
        for alpha in ALPHAS:
            # two-sided and one-sided mean radii
            assert eta_alpha(mean_z(n, sigma), None, alpha) == pytest.approx(
                sigma / math.sqrt(n) * z_alpha(alpha, Tails.TWO), rel=1e-12
            )
            assert eta_alpha(mean_z_upper(n, sigma), None, alpha) == pytest.approx(
                sigma / math.sqrt(n) * z_alpha(alpha, Tails.ONE), rel=1e-12
            )
            # symmetric log-interval radius: oracle round-trip mass
            eta6 = symmetric_log_interval_eta(chi_squared(n - 1), alpha)
            mass = orc.oracle_cdf(chi_squared(n - 1), n * math.exp(2 * eta6)) - (
                orc.oracle_cdf(chi_squared(n - 1), n * math.exp(-2 * eta6))
            )
            assert mass == pytest.approx(1.0 - alpha, abs=1e-10)
            # upper-tail radius: oracle tail mass
            eta7 = upper_tail_log_eta(chi_squared(n - 1), alpha)
            tail = 1.0 - orc.oracle_cdf(chi_squared(n - 1), n * math.exp(2 * eta7))
            assert tail == pytest.approx(alpha, abs=1e-10)
            # two-sample mean radius
            expected = math.sqrt(sigma**2 / n + sigma2**2 / m) * z_alpha(
                alpha, Tails.TWO
            )
            assert eta_alpha(
                mean_diff_z(n, m, sigma, sigma2), None, alpha
            ) == pytest.approx(expected, rel=1e-12)
            # studentized radius equals the t quantile
            assert eta_alpha(mean_t(n), None, alpha) == pytest.approx(
                orc.oracle_quantile(student_t(n - 1), 1.0 - alpha / 2.0), abs=1e-8
            )
            # F-band round trips (variance-ratio catalog entries)
            etaf = symmetric_log_interval_eta(fisher_f(n - 1, m - 1), alpha)
            fmass = orc.oracle_cdf(fisher_f(n - 1, m - 1), math.exp(2 * etaf)) - (
                orc.oracle_cdf(fisher_f(n - 1, m - 1), math.exp(-2 * etaf))
            )
            assert fmass == pytest.approx(1.0 - alpha, abs=1e-10)
    _report(2, "threshold identities hold at 1e-10 mass residuals")


def _catalog(n=10, m=10):
    return [
        ("mean-z", mean_z(n, 1.0), Hypothesis.point, State(0.0, 1.0), 0.0),
        (
            "mean-z-upper",
            mean_z_upper(n, 1.0),
            Hypothesis.lower_half_line,
            State(0.0, 1.0),
            0.0,
        ),
        ("var", variance(n), Hypothesis.point, State(0.0, 1.0), 1.0),
        (
            "var-upper",
            variance_upper(n),
            Hypothesis.lower_half_line,
            State(0.0, 1.0),
            1.0,
        ),
        (
            "diff-means",
            mean_diff_z(n, m, 1.0, 1.0),
            Hypothesis.point,
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            0.0,
        ),
        (
            "diff-means-upper",
            mean_diff_z_upper(n, m, 1.0, 1.0),
            Hypothesis.lower_half_line,
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            0.0,
        ),
        (
            "var-ratio",
            variance_ratio(n, m),
            Hypothesis.point,
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            1.0,
        ),
        (
            "var-ratio-upper",
            variance_ratio_upper(n, m),
            Hypothesis.lower_half_line,
            TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)),
            1.0,
        ),
        ("mean-t", mean_t(n), Hypothesis.point, State(0.0, 1.0), 0.0),
        (
            "mean-t-upper",
            mean_t_upper(n),
            Hypothesis.lower_half_line,
            State(0.0, 1.0),
            0.0,
        ),
    ]


def test_criterion_3_exact_duality():
    """reject at alpha <=> null value outside the (1-alpha) region, with
    zero exceptions over 10,000 seeded datasets per catalog test.  Entry k
    takes replications 10,000 k to 10,000 (k + 1) - 1 of seed 1000, drawn
    as one block: column j is ``sample(..., rng=stream(1000, 10_000 k + j))``
    bit for bit, as a few columns per entry check."""
    alpha = 0.05
    gamma = 1.0 - alpha
    rng = np.random.default_rng(2024)
    checked = 0
    for name, problem, make_hyp, truth, theta0 in _catalog():
        first, second = _sample_block(truth, problem.n, problem.m, 1000, checked, checked + 10_000)
        spread = 2.0 * eta_alpha(problem, None, alpha)
        for j in range(10_000):
            y = None if second is None else tuple(second[:, j].tolist())
            x = Sample(tuple(first[:, j].tolist()), y)
            if j in (0, 4_321, 9_999):
                reference = sample(truth, problem.n, problem.m, rng=stream(1000, checked))
                assert repr(x) == repr(reference), (name, j)
            ci = confidence_region(problem, x, gamma)
            if problem.quantity.value in ("sigma", "sigma_ratio"):
                value = estimate(problem, x) * math.exp(rng.uniform(-1.0, 1.0))
            else:
                value = estimate(problem, x) + rng.uniform(-spread, spread)
            result = run_test(problem, make_hyp(value), alpha, x)
            assert result.reject == (not ci.contains(value)), (name, j, value)
            checked += 1
    assert checked == 100_000
    _report(3, "duality exact on 10,000 datasets x 10 catalog tests")


def test_criterion_4_coverage():
    """Empirical coverage at gamma = 0.95, J = 100,000, truth (0, 1)."""
    exact = {
        "mean-z",
        "mean-z-upper",
        "var",
        "diff-means",
        "var-ratio",
        "mean-t",
    }
    lines = []
    for name, problem, _, truth, _ in _catalog():
        if name not in exact and name != "var-upper":
            continue  # one experiment per catalog example
        plan = ExperimentPlan(problem, truth, 0.95, J, seed=90)
        report = coverage_experiment(plan, workers=WORKERS)
        if name in exact:
            assert 0.945 <= report.rate <= 0.955, (name, report.rate)
        else:
            assert report.rate >= 0.945, (name, report.rate)
        lines.append(f"{name}={report.rate:.4f}")
    _report(4, "coverage in band: " + " ".join(lines))


def test_criterion_5_size():
    """Rejection rate at the null boundary <= 0.055; far-interior truths
    of composite nulls reject at <= 0.005."""
    alpha = 0.05
    lines = []
    for name, problem, make_hyp, truth, theta0 in _catalog():
        plan = ExperimentPlan(problem, truth, alpha, J, 91, make_hyp(theta0))
        report = size_experiment(plan, workers=WORKERS)
        assert report.rate <= 0.055, (name, report.rate)
        lines.append(f"{name}={report.rate:.4f}")
    interior = [
        ("mean-z-upper", mean_z_upper(10, 1.0), State(-1.0, 1.0), 0.0),
        ("mean-t-upper", mean_t_upper(10), State(-1.0, 1.0), 0.0),
        (
            "diff-means-upper",
            mean_diff_z_upper(10, 10, 1.0, 1.0),
            TwoSampleState(State(-1.0, 1.0), State(0.0, 1.0)),
            0.0,
        ),
        ("var-upper", variance_upper(10), State(0.0, 0.5), 1.0),
        (
            "var-ratio-upper",
            variance_ratio_upper(10, 10),
            TwoSampleState(State(0.0, 0.5), State(0.0, 1.0)),
            1.0,
        ),
    ]
    for name, problem, truth, theta0 in interior:
        plan = ExperimentPlan(
            problem, truth, alpha, J, 92, Hypothesis.lower_half_line(theta0)
        )
        report = size_experiment(plan, workers=WORKERS)
        assert report.rate <= 0.005, (name, report.rate)
    _report(5, "size within bounds: " + " ".join(lines))


def test_criterion_6_lrt_cross_validation():
    """Ratio-test calibrated radius equals the distance-based radius."""
    normal_pivots = (
        (lambda n: mean_z(n, 1.0), Hypothesis.point),
        (lambda n: mean_z_upper(n, 1.0), Hypothesis.lower_half_line),
        (lambda n: mean_diff_z(n, n + 5, 1.0, 0.7), Hypothesis.point),
        (lambda n: mean_diff_z_upper(n, n + 5, 1.0, 0.7), Hypothesis.lower_half_line),
    )
    for make, null in normal_pivots:
        for alpha in (0.5, 0.3, *ALPHAS, 1e-4, 1e-12):
            for n in (5, 10, 25):
                problem, hypothesis = make(n), null(0.0)
                region = lrt_region(hypothesis, alpha, problem)
                eta = rejection_region(problem, hypothesis, alpha).eta
                assert region.radius == eta, (problem, alpha)
    _report(6, "ratio-test radius equals the rejection radius on the four normal-pivot entries")


def test_criterion_7_mle():
    """Closed forms, stationarity, and the grid-search oracle."""
    rng = np.random.default_rng(7)
    # closed forms and stationarity on random samples
    for j in range(50):
        x = sample(State(0.5, 2.0), 9, rng=stream(300, j)).values
        est = mle_normal(x, ParameterRegion.full())
        assert est.mu == pytest.approx(mu_bar(x), rel=1e-14)
        assert est.sigma == pytest.approx(sigma_bar(x), rel=1e-14)
        h = 1e-6
        scale = max(1.0, abs(log_likelihood(x, est)))
        dmu = (
            log_likelihood(x, State(est.mu + h, est.sigma))
            - log_likelihood(x, State(est.mu - h, est.sigma))
        ) / (2 * h)
        dsg = (
            log_likelihood(x, State(est.mu, est.sigma + h))
            - log_likelihood(x, State(est.mu, est.sigma - h))
        ) / (2 * h)
        assert abs(dmu) <= 1e-6 * scale and abs(dsg) <= 1e-6 * scale
    # constrained maximizers vs an exhaustive grid, 100 instances
    for j in range(100):
        x = tuple(rng.normal(rng.uniform(-2, 2), rng.uniform(0.5, 2.5), 8))
        anchor = float(rng.uniform(-2, 2))
        region = (
            ParameterRegion.mu_fixed(anchor),
            ParameterRegion.mu_half_line(anchor, "lower"),
            ParameterRegion.mu_half_line(anchor, "upper"),
            ParameterRegion(anchor - 0.5, anchor + 0.5),
        )[j % 4]
        est = mle_normal(x, region)
        mus = np.append(
            np.linspace(min(x) - 2.0, max(x) + 2.0, 101), (anchor - 0.5, anchor, anchor + 0.5)
        )
        top = 2.0 * math.sqrt(sigma_bar(x) ** 2 + (mu_bar(x) - anchor) ** 2) + 0.5
        sigmas = np.linspace(0.02, top, 101)
        best, best_state = -math.inf, None
        for mu in mus:
            if not region.contains(State(mu, 1.0)):
                continue
            for s in sigmas:
                ll = log_likelihood(x, State(mu, s))
                if ll > best:
                    best, best_state = ll, State(mu, s)
        assert abs(est.mu - best_state.mu) <= mus[1] - mus[0]
        assert abs(est.sigma - best_state.sigma) <= sigmas[1] - sigmas[0]
        assert log_likelihood(x, est) >= best - 1e-9
    _report(7, "MLE closed forms, stationarity, and grid oracle agree")


def test_criterion_8_generic_region_equivalence():
    """2001-state grids over uncountable null sets reproduce the
    closed-form thresholds."""
    # variance point null: states (mu, sigma0) across mu
    problem6 = variance(10)
    hyp6 = Hypothesis.point(2.0)
    grid6 = [State(mu, 2.0) for mu in np.linspace(-10.0, 10.0, 2001)]
    eta6 = eta_alpha_over_null_grid(problem6, hyp6, 0.05, grid6)
    closed6 = eta_alpha(problem6, None, 0.05)
    assert abs(eta6 - closed6) <= 1e-3 * closed6
    # mean-difference point null: states along mu1 - mu2 = 0
    problem8 = mean_diff_z(10, 10, 1.0, 2.0)
    hyp8 = Hypothesis.point(0.0)
    grid8 = [
        TwoSampleState(State(mu, 1.0), State(mu, 2.0))
        for mu in np.linspace(-10.0, 10.0, 2001)
    ]
    eta8 = eta_alpha_over_null_grid(problem8, hyp8, 0.05, grid8)
    closed8 = eta_alpha(problem8, None, 0.05)
    assert abs(eta8 - closed8) <= 1e-3 * closed8
    _report(8, "2001-state grid intersections match closed forms")


def test_criterion_9_property_suites():
    """Semi-distance axioms on 1e4 random triples per kind, region
    monotonicity in alpha, decision equivariance, and Monte Carlo
    reproducibility / worker invariance."""
    rng = np.random.default_rng(99)
    context = Sample(tuple(rng.normal(0.0, 1.0, 8)))
    kinds = list(SemiDistanceKind)
    for kind in kinds:
        log_scale = kind in (
            SemiDistanceKind.LOG_RATIO,
            SemiDistanceKind.HALF_LINE_LOG_RATIO,
        )
        half_line = kind in (
            SemiDistanceKind.HALF_LINE_ABSOLUTE,
            SemiDistanceKind.HALF_LINE_LOG_RATIO,
            SemiDistanceKind.HALF_LINE_STUDENTIZED,
        )
        for _ in range(10_000):
            raw = rng.uniform(-20.0, 20.0, 4)
            t1, t2, t3, t0 = (np.exp(raw / 4.0) if log_scale else raw)
            d = SemiDistance(kind, theta0=t0 if half_line else None, context=context)
            assert d(t1, t1) == 0.0
            assert d(t1, t2) == d(t2, t1)
            assert d(t1, t3) <= d(t1, t2) + d(t2, t3) + 1e-12
            if half_line and t1 <= t0 and t2 <= t0:
                assert d(t1, t2) == 0.0
    # rejection regions nest in alpha
    for name, problem, make_hyp, truth, theta0 in _catalog():
        regions = [
            rejection_region(problem, make_hyp(theta0), a) for a in (0.01, 0.05, 0.2)
        ]
        for j in range(40):
            x = sample(truth, problem.n, problem.m, rng=stream(401, j))
            flags = [r.contains(x) for r in regions]
            assert flags == sorted(flags)  # False before True: nested
    # decision equivariance: shift for the mean, scale for the sd
    for j in range(60):
        x = sample(State(0.0, 1.0), 10, rng=stream(402, j))
        shifted = Sample(tuple(v + 5.5 for v in x.values))
        a = run_test(mean_t(10), Hypothesis.point(0.3), 0.05, x)
        b = run_test(mean_t(10), Hypothesis.point(0.3 + 5.5), 0.05, shifted)
        assert a.reject == b.reject
        scaled = Sample(tuple(3.0 * v for v in x.values))
        c = run_test(variance(10), Hypothesis.point(0.8), 0.05, x)
        d2 = run_test(variance(10), Hypothesis.point(2.4), 0.05, scaled)
        assert c.reject == d2.reject
    # Monte Carlo reproducibility and worker invariance
    plan = ExperimentPlan(mean_t(10), State(0.0, 1.0), 0.95, 2000, 5)
    first = coverage_experiment(plan, workers=1)
    assert first == coverage_experiment(plan, workers=1)
    assert first.hits == coverage_experiment(plan, workers=WORKERS).hits
    grid = [State(e, 1.0) for e in (-0.6, 0.0, 0.6)]
    base = ExperimentPlan(
        mean_z(10, 1.0), State(0.0, 1.0), 0.05, 2000, 5, Hypothesis.point(0.0)
    )
    rates = [r.rate for r in power_curve(base, grid)]
    assert rates[0] > rates[1] < rates[2]
    _report(9, "axioms, monotonicity, equivariance, reproducibility all hold")
