"""Semi-distance engine: confidence regions and rejection regions as two
sides of one construction.

A test problem bundles an estimator map, a quantity map from states to
the inference target, and a semi-distance on the target space.  The
calibrated radius eta is the smallest distance the estimator stays
within (probability >= gamma) or strays beyond (probability <= alpha);
the two radii coincide at alpha = 1 - gamma, which is what makes a
confidence region and a rejection region complements of each other.

Rejection uses ``d >= eta`` and coverage uses ``d < eta``; both sides
evaluate the same semi-distance arithmetic on the same estimate, so the
duality is exact, not merely within tolerance.

The ten catalog entries cover one- and two-sided tests of the mean
(known sigma), the standard deviation, the difference of two means
(known sigmas), the ratio of two standard deviations, and the mean with
unknown sigma (the data-studentized distance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

from . import distributions as dist
from .distributions import Tails, quantile, student_t, chi_squared, fisher_f, z_alpha
from .measurement import (
    Sample,
    State,
    TwoSampleState,
    mu_bar,
    sigma_bar,
    sigma_bar_prime,
)

__all__ = [
    "SemiDistanceKind",
    "SemiDistance",
    "EstimatorKind",
    "QuantityKind",
    "TestProblem",
    "HypothesisKind",
    "Hypothesis",
    "Region",
    "ConfidenceRegion",
    "SureRegion",
    "TestResult",
    "mean_z",
    "mean_z_upper",
    "variance",
    "variance_upper",
    "mean_diff_z",
    "mean_diff_z_upper",
    "variance_ratio",
    "variance_ratio_upper",
    "mean_t",
    "mean_t_upper",
    "estimate",
    "quantity_value",
    "eta_alpha",
    "eta_gamma",
    "eta_alpha_generic",
    "eta_alpha_over_null_grid",
    "confidence_region",
    "rejection_region",
    "sure_region",
    "run_test",
]


class SemiDistanceKind(Enum):
    ABSOLUTE = "absolute"
    HALF_LINE_ABSOLUTE = "half_line_absolute"
    LOG_RATIO = "log_ratio"
    HALF_LINE_LOG_RATIO = "half_line_log_ratio"
    STUDENTIZED = "studentized"
    HALF_LINE_STUDENTIZED = "half_line_studentized"

    # Each kind is |clamp(g(theta1)) - clamp(g(theta2))| / s for three
    # independent facts, spelled out in its value.
    @property
    def half_line(self) -> bool:
        """Anchored below: values under theta0 collapse onto it."""
        return self.value.startswith("half_line")

    @property
    def log_scale(self) -> bool:
        """g = log, on the target space (0, inf); otherwise g = identity."""
        return self.value.endswith("log_ratio")

    @property
    def studentized(self) -> bool:
        """s is the data's sigma_bar_prime / sqrt(n); otherwise s = 1."""
        return self.value.endswith("studentized")


def _safe_log(theta: float) -> float:
    # Estimates can realize 0 on degenerate data even though the target
    # space is (0, inf); treat them as infinitely far in log scale.
    return math.log(theta) if theta > 0.0 else -math.inf


@dataclass(frozen=True)
class SemiDistance:
    """A symmetric, triangle-inequality distance on the target space,
    possibly anchored below (half-line kinds collapse everything under
    theta0) or scaled by the data (studentized kinds).
    """

    kind: SemiDistanceKind
    theta0: float | None = None
    context: Sample | None = None

    def __post_init__(self) -> None:
        if self.kind.half_line and self.theta0 is None:
            raise ValueError(f"{self.kind.value} requires an anchor theta0")

    def _scale(self, x: Sample | None) -> float:
        x = x if x is not None else self.context
        if x is None:
            raise ValueError(f"{self.kind.value} requires a sample context")
        s = sigma_bar_prime(x.values)
        if s == 0.0:
            raise ValueError("degenerate sample: all values equal")
        return s / math.sqrt(x.n)

    def __call__(self, theta1: float, theta2: float, x: Sample | None = None) -> float:
        kind = self.kind
        if kind is SemiDistanceKind.ABSOLUTE:
            return abs(theta1 - theta2)
        if kind is SemiDistanceKind.HALF_LINE_ABSOLUTE:
            t0 = self.theta0
            return abs(max(theta1, t0) - max(theta2, t0))
        if kind is SemiDistanceKind.LOG_RATIO:
            a, b = _safe_log(theta1), _safe_log(theta2)
            if a == b:
                return 0.0
            return abs(a - b)
        if kind is SemiDistanceKind.HALF_LINE_LOG_RATIO:
            t0 = self.theta0
            if t0 <= 0.0:
                raise ValueError(f"log-scale anchor must be positive, got {t0!r}")
            return abs(math.log(max(theta1, t0)) - math.log(max(theta2, t0)))
        if kind is SemiDistanceKind.STUDENTIZED:
            return abs(theta1 - theta2) / self._scale(x)
        t0 = self.theta0
        return abs(max(theta1, t0) - max(theta2, t0)) / self._scale(x)


class EstimatorKind(Enum):
    MU_BAR = "mu_bar"
    SIGMA_BAR = "sigma_bar"
    DIFF_MU_BAR = "diff_mu_bar"
    SIGMA_PRIME_RATIO = "sigma_prime_ratio"
    MU_BAR_STUDENTIZED = "mu_bar_studentized"


class QuantityKind(Enum):
    MU = "mu"
    SIGMA = "sigma"
    MU_DIFF = "mu_diff"
    SIGMA_RATIO = "sigma_ratio"


_TWO_SAMPLE_QUANTITIES = frozenset({QuantityKind.MU_DIFF, QuantityKind.SIGMA_RATIO})


@dataclass(frozen=True)
class TestProblem:
    """Estimator + quantity + semi-distance kind, with sample sizes and
    any nuisance parameters the calibration needs."""

    estimator: EstimatorKind
    quantity: QuantityKind
    distance_kind: SemiDistanceKind
    n: int
    m: int | None = None
    sigma: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        two_sample = self.quantity in _TWO_SAMPLE_QUANTITIES
        if two_sample and (self.m is None or self.m < 1):
            raise ValueError("two-sample problems need m >= 1")
        if not two_sample and self.m is not None:
            raise ValueError("m is only meaningful for two-sample problems")
        for name in ("sigma", "sigma1", "sigma2"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")

    @property
    def two_sample(self) -> bool:
        return self.quantity in _TWO_SAMPLE_QUANTITIES


class HypothesisKind(Enum):
    POINT = "point"
    LOWER_HALF_LINE = "lower_half_line"


@dataclass(frozen=True)
class Hypothesis:
    kind: HypothesisKind
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ValueError(f"hypothesis value must be finite, got {self.value!r}")

    @staticmethod
    def point(value: float) -> "Hypothesis":
        return Hypothesis(HypothesisKind.POINT, value)

    @staticmethod
    def lower_half_line(value: float) -> "Hypothesis":
        return Hypothesis(HypothesisKind.LOWER_HALF_LINE, value)

    def holds_at(self, theta: float) -> bool:
        if self.kind is HypothesisKind.POINT:
            return theta == self.value
        return theta <= self.value


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def mean_z(n: int, sigma: float) -> TestProblem:
    """Two-sided test of the mean with known sigma."""
    return TestProblem(
        EstimatorKind.MU_BAR, QuantityKind.MU, SemiDistanceKind.ABSOLUTE, n, sigma=sigma
    )


def mean_z_upper(n: int, sigma: float) -> TestProblem:
    """One-sided (upper) test of the mean with known sigma."""
    return TestProblem(
        EstimatorKind.MU_BAR,
        QuantityKind.MU,
        SemiDistanceKind.HALF_LINE_ABSOLUTE,
        n,
        sigma=sigma,
    )


def variance(n: int) -> TestProblem:
    """Two-sided test of the standard deviation."""
    return TestProblem(
        EstimatorKind.SIGMA_BAR, QuantityKind.SIGMA, SemiDistanceKind.LOG_RATIO, n
    )


def variance_upper(n: int) -> TestProblem:
    """One-sided (upper) test of the standard deviation."""
    return TestProblem(
        EstimatorKind.SIGMA_BAR,
        QuantityKind.SIGMA,
        SemiDistanceKind.HALF_LINE_LOG_RATIO,
        n,
    )


def mean_diff_z(n: int, m: int, sigma1: float, sigma2: float) -> TestProblem:
    """Two-sided test of mu1 - mu2 with known sigmas."""
    return TestProblem(
        EstimatorKind.DIFF_MU_BAR,
        QuantityKind.MU_DIFF,
        SemiDistanceKind.ABSOLUTE,
        n,
        m,
        sigma1=sigma1,
        sigma2=sigma2,
    )


def mean_diff_z_upper(n: int, m: int, sigma1: float, sigma2: float) -> TestProblem:
    """One-sided (upper) test of mu1 - mu2 with known sigmas."""
    return TestProblem(
        EstimatorKind.DIFF_MU_BAR,
        QuantityKind.MU_DIFF,
        SemiDistanceKind.HALF_LINE_ABSOLUTE,
        n,
        m,
        sigma1=sigma1,
        sigma2=sigma2,
    )


def variance_ratio(n: int, m: int) -> TestProblem:
    """Two-sided test of sigma1 / sigma2."""
    return TestProblem(
        EstimatorKind.SIGMA_PRIME_RATIO,
        QuantityKind.SIGMA_RATIO,
        SemiDistanceKind.LOG_RATIO,
        n,
        m,
    )


def variance_ratio_upper(n: int, m: int) -> TestProblem:
    """One-sided (upper) test of sigma1 / sigma2."""
    return TestProblem(
        EstimatorKind.SIGMA_PRIME_RATIO,
        QuantityKind.SIGMA_RATIO,
        SemiDistanceKind.HALF_LINE_LOG_RATIO,
        n,
        m,
    )


def mean_t(n: int) -> TestProblem:
    """Two-sided test of the mean with unknown sigma (studentized distance)."""
    if n < 2:
        raise ValueError(f"studentized problems need n >= 2, got {n}")
    return TestProblem(
        EstimatorKind.MU_BAR_STUDENTIZED,
        QuantityKind.MU,
        SemiDistanceKind.STUDENTIZED,
        n,
    )


def mean_t_upper(n: int) -> TestProblem:
    """One-sided (upper) test of the mean with unknown sigma."""
    if n < 2:
        raise ValueError(f"studentized problems need n >= 2, got {n}")
    return TestProblem(
        EstimatorKind.MU_BAR_STUDENTIZED,
        QuantityKind.MU,
        SemiDistanceKind.HALF_LINE_STUDENTIZED,
        n,
    )


# ---------------------------------------------------------------------------
# Estimates and quantities
# ---------------------------------------------------------------------------


def _check_sizes(problem: TestProblem, x: Sample) -> None:
    if x.n != problem.n:
        raise ValueError(f"sample has n={x.n}, problem expects n={problem.n}")
    if problem.two_sample:
        if x.second is None:
            raise ValueError("two-sample problem needs a second block")
        if x.m != problem.m:
            raise ValueError(f"sample has m={x.m}, problem expects m={problem.m}")
    elif x.second is not None:
        raise ValueError("one-sample problem got a two-block sample")


def estimate(problem: TestProblem, x: Sample) -> float:
    """The realized estimator value E(x) for the problem."""
    _check_sizes(problem, x)
    kind = problem.estimator
    if kind in (EstimatorKind.MU_BAR, EstimatorKind.MU_BAR_STUDENTIZED):
        return mu_bar(x.values)
    if kind is EstimatorKind.SIGMA_BAR:
        return sigma_bar(x.values)
    if kind is EstimatorKind.DIFF_MU_BAR:
        return mu_bar(x.values) - mu_bar(x.second)
    num = sigma_bar_prime(x.values)
    den = sigma_bar_prime(x.second)
    if den == 0.0:
        if num == 0.0:
            raise ValueError("degenerate sample: both blocks constant")
        return math.inf
    return num / den


def quantity_value(problem: TestProblem, state: State | TwoSampleState) -> float:
    """The inference target pi(omega) of a state under the problem's quantity map."""
    q = problem.quantity
    if q is QuantityKind.MU:
        return state.mu
    if q is QuantityKind.SIGMA:
        return state.sigma
    if not isinstance(state, TwoSampleState):
        raise ValueError(f"{q.value} needs a TwoSampleState")
    if q is QuantityKind.MU_DIFF:
        return state.first.mu - state.second.mu
    return state.first.sigma / state.second.sigma


# ---------------------------------------------------------------------------
# Calibrated radii
# ---------------------------------------------------------------------------


def _resolve_sigmas(
    problem: TestProblem, omega: State | TwoSampleState | None
) -> tuple[float | None, float | None, float | None]:
    # The radius is a property of the state where one is supplied; the
    # problem's known-nuisance values cover the no-state calls (run_test,
    # regions), which is where "sigma fixed and known" actually bites.
    if problem.quantity is QuantityKind.MU_DIFF:
        if isinstance(omega, TwoSampleState):
            return None, omega.first.sigma, omega.second.sigma
        if problem.sigma1 is None or problem.sigma2 is None:
            raise ValueError(
                "mean-difference z tests need known sigma1 and sigma2; "
                "with unknown sigmas use the studentized mean tests "
                "(mean_t / mean_t_upper) on each sample"
            )
        return None, problem.sigma1, problem.sigma2
    if problem.quantity is QuantityKind.MU and not problem.distance_kind.studentized:
        if isinstance(omega, State):
            return omega.sigma, None, None
        if problem.sigma is None:
            raise ValueError(
                "mean z tests need a known sigma; with unknown sigma use "
                "the studentized mean tests (mean_t / mean_t_upper)"
            )
        return problem.sigma, None, None
    return None, None, None


@lru_cache(maxsize=1024)
def _eta_from_alpha(
    distance_kind: SemiDistanceKind,
    quantity: QuantityKind,
    n: int,
    m: int | None,
    sigma: float | None,
    sigma1: float | None,
    sigma2: float | None,
    alpha: float,
) -> float:
    if distance_kind is SemiDistanceKind.ABSOLUTE:
        if quantity is QuantityKind.MU:
            return sigma / math.sqrt(n) * z_alpha(alpha, Tails.TWO)
        return math.sqrt(sigma1**2 / n + sigma2**2 / m) * z_alpha(alpha, Tails.TWO)
    if distance_kind is SemiDistanceKind.HALF_LINE_ABSOLUTE:
        if quantity is QuantityKind.MU:
            return sigma / math.sqrt(n) * z_alpha(alpha, Tails.ONE)
        return math.sqrt(sigma1**2 / n + sigma2**2 / m) * z_alpha(alpha, Tails.ONE)
    if distance_kind is SemiDistanceKind.LOG_RATIO:
        if quantity is QuantityKind.SIGMA:
            return dist.symmetric_log_interval_eta(chi_squared(n - 1), n, alpha)
        return dist.symmetric_log_interval_eta(fisher_f(n - 1, m - 1), n, alpha)
    if distance_kind is SemiDistanceKind.HALF_LINE_LOG_RATIO:
        if quantity is QuantityKind.SIGMA:
            return dist.upper_tail_log_eta(chi_squared(n - 1), n, alpha)
        return dist.upper_tail_log_eta(fisher_f(n - 1, m - 1), n, alpha)
    if distance_kind is SemiDistanceKind.STUDENTIZED:
        return quantile(student_t(n - 1), 1.0 - alpha / 2.0)
    return quantile(student_t(n - 1), 1.0 - alpha)


def eta_alpha(
    problem: TestProblem, omega: State | TwoSampleState | None, alpha: float
) -> float:
    """The radius the estimator strays beyond with probability <= alpha.

    Closed-form per catalog entry via exact quantile inversion of the
    statistic's sampling law.  ``omega`` supplies the state's sigma(s)
    where the radius depends on them; pass None to use the problem's
    known nuisance values.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if problem.distance_kind.log_scale and problem.n < 2:
        raise ValueError("variance problems need n >= 2")
    sigma, sigma1, sigma2 = _resolve_sigmas(problem, omega)
    return _eta_from_alpha(
        problem.distance_kind,
        problem.quantity,
        problem.n,
        problem.m,
        sigma,
        sigma1,
        sigma2,
        alpha,
    )


def eta_gamma(
    problem: TestProblem, omega: State | TwoSampleState | None, gamma: float
) -> float:
    """The radius the estimator stays within with probability >= gamma;
    identical to eta_alpha at alpha = 1 - gamma (continuous laws)."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    return eta_alpha(problem, omega, 1.0 - gamma)


# ---------------------------------------------------------------------------
# Regions, tests, and their duality
# ---------------------------------------------------------------------------


def _distance(problem: TestProblem, anchor: float | None, x: Sample) -> SemiDistance:
    theta0 = anchor if problem.distance_kind.half_line else None
    return SemiDistance(problem.distance_kind, theta0=theta0, context=x)


def _validate_hypothesis(problem: TestProblem, hypothesis: Hypothesis) -> None:
    half_line = problem.distance_kind.half_line
    if half_line and hypothesis.kind is not HypothesisKind.LOWER_HALF_LINE:
        raise ValueError("half-line distances pair with lower-half-line hypotheses")
    if not half_line and hypothesis.kind is not HypothesisKind.POINT:
        raise ValueError("two-sided distances pair with point hypotheses")
    if problem.quantity in (QuantityKind.SIGMA, QuantityKind.SIGMA_RATIO):
        if hypothesis.value <= 0.0:
            raise ValueError(
                f"hypothesis value must be positive, got {hypothesis.value!r}"
            )


@dataclass(frozen=True)
class Region:
    """Rejection region: the estimates at least eta away from every null
    quantity value, evaluated on full measured values because the
    studentized distances depend on the data."""

    problem: TestProblem
    hypothesis: Hypothesis
    alpha: float
    eta: float

    def statistic(self, x: Sample) -> float:
        e = estimate(self.problem, x)
        d = _distance(self.problem, self.hypothesis.value, x)
        return d(e, self.hypothesis.value, x)

    def contains(self, x: Sample) -> bool:
        return self.statistic(x) >= self.eta

    def estimator_cutpoints(self, x: Sample | None = None) -> tuple[float | None, float]:
        """(lower, upper) estimator cut values: reject iff E(x) <= lower or
        >= upper; lower is None for one-sided entries.  Studentized
        entries need the sample for their data-dependent scale."""
        kind = self.problem.distance_kind
        t0 = self.hypothesis.value
        if kind.studentized:
            if x is None:
                raise ValueError("studentized cutpoints need the sample")
            scale = sigma_bar_prime(x.values) / math.sqrt(x.n)
            if kind is SemiDistanceKind.STUDENTIZED:
                return t0 - scale * self.eta, t0 + scale * self.eta
            return None, t0 + scale * self.eta
        if kind is SemiDistanceKind.ABSOLUTE:
            return t0 - self.eta, t0 + self.eta
        if kind is SemiDistanceKind.HALF_LINE_ABSOLUTE:
            return None, t0 + self.eta
        if kind is SemiDistanceKind.LOG_RATIO:
            return t0 * math.exp(-self.eta), t0 * math.exp(self.eta)
        return None, t0 * math.exp(self.eta)


@dataclass(frozen=True)
class ConfidenceRegion:
    """The quantity values within the calibrated radius of the observed
    estimate: an open interval in the target space."""

    problem: TestProblem
    gamma: float
    eta: float
    estimate: float
    lo: float
    hi: float
    sample: Sample

    def contains(self, theta: float) -> bool:
        # Same arithmetic as the test side (with the half-line anchor at
        # the candidate value), so "not rejected" and "covered" agree
        # exactly rather than up to endpoint rounding.
        d = _distance(self.problem, theta, self.sample)
        return d(self.estimate, theta, self.sample) < self.eta


@dataclass(frozen=True)
class SureRegion:
    """Estimates within the radius of some sure-hypothesis state; the
    exact complement of the rejection region at alpha = 1 - gamma."""

    gamma: float
    complement: Region

    def contains(self, x: Sample) -> bool:
        return not self.complement.contains(x)


@dataclass(frozen=True)
class TestResult:
    reject: bool
    statistic: float
    eta: float
    alpha: float
    region: Region


def rejection_region(
    problem: TestProblem, hypothesis: Hypothesis, alpha: float
) -> Region:
    """The alpha-rejection region of the null hypothesis.

    Realized in closed form for every catalog entry; the intersection
    over null states collapses because the radius is constant on the
    null set (or attained at its boundary for the half-line entries).
    """
    _validate_hypothesis(problem, hypothesis)
    eta = eta_alpha(problem, None, alpha)
    return Region(problem, hypothesis, alpha, eta)


def run_test(
    problem: TestProblem, hypothesis: Hypothesis, alpha: float, x: Sample
) -> TestResult:
    """Decide the null hypothesis at level alpha on the measured value x."""
    region = rejection_region(problem, hypothesis, alpha)
    statistic = region.statistic(x)
    return TestResult(statistic >= region.eta, statistic, region.eta, alpha, region)


def confidence_region(problem: TestProblem, x: Sample, gamma: float) -> ConfidenceRegion:
    """The gamma-confidence region around the observed estimate.

    Open interval (coverage uses strict inequality); a quantity value
    lies inside iff the corresponding point test at alpha = 1 - gamma
    does not reject it.
    """
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    e = estimate(problem, x)
    eta = eta_gamma(problem, None, gamma)
    kind = problem.distance_kind
    if kind is SemiDistanceKind.ABSOLUTE:
        lo, hi = e - eta, e + eta
    elif kind is SemiDistanceKind.HALF_LINE_ABSOLUTE:
        lo, hi = e - eta, math.inf
    elif kind.log_scale:
        if not 0.0 < e < math.inf:
            raise ValueError("degenerate sample: log-scale estimate is 0 or infinite")
        if kind is SemiDistanceKind.LOG_RATIO:
            lo, hi = e * math.exp(-eta), e * math.exp(eta)
        else:
            lo, hi = e * math.exp(-eta), math.inf
    else:
        scale = sigma_bar_prime(x.values) / math.sqrt(x.n)
        if scale == 0.0:
            raise ValueError("degenerate sample: all values equal")
        if kind is SemiDistanceKind.STUDENTIZED:
            lo, hi = e - scale * eta, e + scale * eta
        else:
            lo, hi = e - scale * eta, math.inf
    return ConfidenceRegion(problem, gamma, eta, e, lo, hi, x)


def sure_region(
    problem: TestProblem, hypothesis: Hypothesis, gamma: float
) -> SureRegion:
    """Estimates compatible with the sure hypothesis at confidence gamma:
    the complement of the rejection region at alpha = 1 - gamma."""
    if not 0.0 < gamma < 1.0:
        raise ValueError(f"gamma must lie in (0, 1), got {gamma!r}")
    return SureRegion(gamma, rejection_region(problem, hypothesis, 1.0 - gamma))


# ---------------------------------------------------------------------------
# Generic radius by direct inversion of the statistic's sampling law
# ---------------------------------------------------------------------------


def _statistic_law_cdf(
    problem: TestProblem,
    omega: State | TwoSampleState,
    anchor: float | None,
    eta: float,
) -> float:
    """P_omega(d^x(E(x), pi(omega)) < eta), from the exact sampling law."""
    kind = problem.distance_kind
    q = problem.quantity
    nrm = dist.normal()
    if q in (QuantityKind.MU, QuantityKind.MU_DIFF) and not kind.studentized:
        if q is QuantityKind.MU:
            s = omega.sigma / math.sqrt(problem.n)
        else:
            s = math.sqrt(
                omega.first.sigma**2 / problem.n + omega.second.sigma**2 / problem.m
            )
        if kind is SemiDistanceKind.ABSOLUTE:
            return dist.cdf(nrm, eta / s) - dist.cdf(nrm, -eta / s)
        shift = anchor - quantity_value(problem, omega)
        if shift < 0.0:
            raise ValueError("state lies outside the lower-half-line null")
        return dist.cdf(nrm, (eta + shift) / s)
    if q is QuantityKind.SIGMA:
        spec = chi_squared(problem.n - 1)
        n = problem.n
        if kind is SemiDistanceKind.LOG_RATIO:
            return dist.cdf(spec, n * math.exp(2.0 * eta)) - dist.cdf(
                spec, n * math.exp(-2.0 * eta)
            )
        ratio = anchor / omega.sigma
        if ratio < 1.0:
            raise ValueError("state lies outside the lower-half-line null")
        return dist.cdf(spec, n * math.exp(2.0 * eta) * ratio**2)
    if q is QuantityKind.SIGMA_RATIO:
        spec = fisher_f(problem.n - 1, problem.m - 1)
        if kind is SemiDistanceKind.LOG_RATIO:
            return dist.cdf(spec, math.exp(2.0 * eta)) - dist.cdf(
                spec, math.exp(-2.0 * eta)
            )
        ratio = anchor / quantity_value(problem, omega)
        if ratio < 1.0:
            raise ValueError("state lies outside the lower-half-line null")
        return dist.cdf(spec, math.exp(2.0 * eta) * ratio**2)
    spec = student_t(problem.n - 1)
    if kind is SemiDistanceKind.STUDENTIZED:
        return dist.cdf(spec, eta) - dist.cdf(spec, -eta)
    # Half-line studentized: the law at interior null states is
    # noncentral-t, outside this library's four families.
    if anchor != quantity_value(problem, omega):
        raise ValueError(
            "generic inversion of the one-sided studentized radius is only "
            "available at the null boundary"
        )
    return dist.cdf(spec, eta)


def eta_alpha_generic(
    problem: TestProblem,
    omega: State | TwoSampleState,
    alpha: float,
    anchor: float | None = None,
) -> float:
    """The radius by direct bisection on the statistic's sampling law,
    with no catalog algebra: cross-validates the closed forms.

    ``anchor`` is the half-line reference (the hypothesis value); it is
    ignored by two-sided kinds.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if problem.distance_kind.half_line and anchor is None:
        raise ValueError("half-line kinds need the hypothesis anchor")
    target = 1.0 - alpha
    if _statistic_law_cdf(problem, omega, anchor, 0.0) >= target:
        return 0.0
    hi = 1.0
    while _statistic_law_cdf(problem, omega, anchor, hi) < target:
        hi *= 2.0
        if hi > 1e12:
            raise ValueError("failed to bracket the radius")
    lo = 0.0
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if _statistic_law_cdf(problem, omega, anchor, mid) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-14 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def eta_alpha_over_null_grid(
    problem: TestProblem,
    hypothesis: Hypothesis,
    alpha: float,
    states: list[State | TwoSampleState],
) -> float:
    """Effective radius of the rejection region built the long way: the
    intersection over a grid of null states of the per-state rejection
    sets, which for a shared anchor is governed by the largest radius.
    """
    if not states:
        raise ValueError("empty state grid")
    best = 0.0
    for omega in states:
        theta = quantity_value(problem, omega)
        if not hypothesis.holds_at(theta):
            raise ValueError(f"grid state with quantity {theta!r} violates the null")
        best = max(
            best, eta_alpha_generic(problem, omega, alpha, anchor=hypothesis.value)
        )
    return best
