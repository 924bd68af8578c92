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

Every semi-distance is one formula,

    d(theta1, theta2) = |g(clamp(theta1)) - g(clamp(theta2))| / s,

read from three facts of its ``SemiDistanceKind``: ``half_line`` (clamp
values below the anchor theta0 up to it, else no clamp), ``log_scale``
(g = log, else the identity) and ``studentized`` (s is the sample's
sigma_bar_prime / sqrt(n), else 1).  Each problem's pivot has one of
four laws: normal, at scale sigma / sqrt(n) or
sqrt(sigma1^2 / n + sigma2^2 / m); chi-squared(n - 1) at scale n;
F(n - 1, m - 1) at scale 1; or Student-t(n - 1).  The radius is the
(1 - alpha) point of that law, as a symmetric interval or an upper tail,
and both ends of an interval are g^-1(g(e) -+ s * eta).  The estimates
and the formula are defined on rows, one measured value per row, so a
single measured value and a Monte Carlo block share one arithmetic.

``CATALOG`` holds the ten catalog entries, keyed by their command-line
names, each as its (estimator, quantity, kind): one- and two-sided tests
of the mean (known sigma), the standard deviation, the difference of two
means (known sigmas), the ratio of two standard deviations, and the mean
with unknown sigma (the data-studentized distance).  The ten
constructors, such as ``mean_z``, build their entry's problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from . import distributions as dist
from .distributions import DistributionSpec, quantile, student_t, chi_squared, fisher_f
from .measurement import Sample, State, TwoSampleState, _Rows

__all__ = [
    "SemiDistanceKind",
    "SemiDistance",
    "EstimatorKind",
    "QuantityKind",
    "TestProblem",
    "CatalogEntry",
    "CATALOG",
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
    "state_with_quantity",
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

    def __init__(self, value: str) -> None:
        # Each kind is |clamp(g(theta1)) - clamp(g(theta2))| / s for three
        # independent facts, spelled out in its value and read on every
        # distance, so they are stored once per member.
        #: Anchored below: values under theta0 collapse onto it.
        self.half_line = value.startswith("half_line")
        #: g = log, on the target space (0, inf); otherwise g = identity.
        self.log_scale = value.endswith("log_ratio")
        #: s is the data's sigma_bar_prime / sqrt(n); otherwise s = 1.
        self.studentized = value.endswith("studentized")


def _studentized_scale(x: _Rows) -> np.ndarray:
    s = x.sigma_bar_prime
    if not s.all():
        raise ValueError("degenerate sample: all values equal")
    return s / math.sqrt(x.n)


def _semi_distance(
    kind: SemiDistanceKind, theta1: np.ndarray, theta2: float, theta0: float | None, x: _Rows | None
) -> np.ndarray:
    """d(theta1, theta2) for each row of theta1, clamped at theta0 on the
    half-line kinds and, on the studentized ones, scaled by the rows of x."""
    if kind.half_line:
        theta1, theta2 = np.maximum(theta1, theta0), max(theta2, theta0)
    if kind.log_scale:
        # Estimates can realize 0 on degenerate data even though the target
        # space is (0, inf): all of (-inf, 0] is the one point -inf,
        # infinitely far from the rest and at distance 0 from itself (where
        # -inf - -inf would be nan).
        with np.errstate(divide="ignore"):
            theta1, theta2 = np.log(np.maximum(theta1, 0.0)), np.log(max(theta2, 0.0))
        if theta2 == -math.inf:
            return np.where(theta1 == theta2, 0.0, math.inf)
    d = np.abs(theta1 - theta2)
    if kind.studentized:
        if x is None:
            raise ValueError(f"{kind.value} requires a sample context")
        d = d / _studentized_scale(x)
    return d


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
        if self.kind.half_line and self.kind.log_scale and self.theta0 <= 0.0:
            raise ValueError(f"log-scale anchor must be positive, got {self.theta0!r}")

    def __call__(self, theta1: float, theta2: float, x: Sample | None = None) -> float:
        x = x if x is not None else self.context
        rows = x._rows[0] if x is not None and self.kind.studentized else None
        return float(_semi_distance(self.kind, np.array([theta1]), theta2, self.theta0, rows)[0])


class EstimatorKind(Enum):
    MU_BAR = "mu_bar"
    SIGMA_BAR = "sigma_bar"
    DIFF_MU_BAR = "diff_mu_bar"
    SIGMA_PRIME_RATIO = "sigma_prime_ratio"
    MU_BAR_STUDENTIZED = "mu_bar_studentized"

    @property
    def known_sigmas(self) -> tuple[str, ...]:
        """The TestProblem fields a z estimator's pivot law needs."""
        known = {EstimatorKind.MU_BAR: ("sigma",), EstimatorKind.DIFF_MU_BAR: ("sigma1", "sigma2")}
        return known.get(self, ())


class QuantityKind(Enum):
    MU = "mu"
    SIGMA = "sigma"
    MU_DIFF = "mu_diff"
    SIGMA_RATIO = "sigma_ratio"

    @property
    def two_sample(self) -> bool:
        """A target of two populations, estimated from two blocks."""
        return self in (QuantityKind.MU_DIFF, QuantityKind.SIGMA_RATIO)

    @property
    def positive(self) -> bool:
        """The target space is (0, inf), so null values must be positive."""
        return self in (QuantityKind.SIGMA, QuantityKind.SIGMA_RATIO)


class CatalogEntry(NamedTuple):
    estimator: EstimatorKind
    quantity: QuantityKind
    kind: SemiDistanceKind


# Test name -> (estimator, quantity, semi-distance kind).  Each "-upper"
# entry is the half-line kind of its two-sided entry.
_E, _Q, _K = EstimatorKind, QuantityKind, SemiDistanceKind
CATALOG: dict[str, CatalogEntry] = {
    "mean-z": CatalogEntry(_E.MU_BAR, _Q.MU, _K.ABSOLUTE),
    "mean-z-upper": CatalogEntry(_E.MU_BAR, _Q.MU, _K.HALF_LINE_ABSOLUTE),
    "var": CatalogEntry(_E.SIGMA_BAR, _Q.SIGMA, _K.LOG_RATIO),
    "var-upper": CatalogEntry(_E.SIGMA_BAR, _Q.SIGMA, _K.HALF_LINE_LOG_RATIO),
    "diff-means": CatalogEntry(_E.DIFF_MU_BAR, _Q.MU_DIFF, _K.ABSOLUTE),
    "diff-means-upper": CatalogEntry(_E.DIFF_MU_BAR, _Q.MU_DIFF, _K.HALF_LINE_ABSOLUTE),
    "var-ratio": CatalogEntry(_E.SIGMA_PRIME_RATIO, _Q.SIGMA_RATIO, _K.LOG_RATIO),
    "var-ratio-upper": CatalogEntry(_E.SIGMA_PRIME_RATIO, _Q.SIGMA_RATIO, _K.HALF_LINE_LOG_RATIO),
    "mean-t": CatalogEntry(_E.MU_BAR_STUDENTIZED, _Q.MU, _K.STUDENTIZED),
    "mean-t-upper": CatalogEntry(_E.MU_BAR_STUDENTIZED, _Q.MU, _K.HALF_LINE_STUDENTIZED),
}


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
        two_sample = self.quantity.two_sample
        if two_sample and (self.m is None or self.m < 1):
            raise ValueError("two-sample problems need m >= 1")
        if not two_sample and self.m is not None:
            raise ValueError("m is only meaningful for two-sample problems")
        for name in ("sigma", "sigma1", "sigma2"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive, got {value!r}")
        # A sample sd needs two values: its pivot has n - 1 (and m - 1) dof.
        kind = self.distance_kind
        if (kind.log_scale or kind.studentized) and min(self.n, self.m or self.n) < 2:
            entry = (self.estimator, self.quantity, kind)
            name = next((k for k, v in CATALOG.items() if v == entry), kind.value)
            sizes = f"n={self.n}" + (f", m={self.m}" if two_sample else "")
            raise ValueError(f"{name} needs at least 2 observations per sample, got {sizes}")

    @property
    def two_sample(self) -> bool:
        return self.quantity.two_sample


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
# Catalog constructors
# ---------------------------------------------------------------------------


def mean_z(n: int, sigma: float) -> TestProblem:
    """Two-sided test of the mean with known sigma."""
    return TestProblem(*CATALOG["mean-z"], n, sigma=sigma)


def mean_z_upper(n: int, sigma: float) -> TestProblem:
    """One-sided (upper) test of the mean with known sigma."""
    return TestProblem(*CATALOG["mean-z-upper"], n, sigma=sigma)


def variance(n: int) -> TestProblem:
    """Two-sided test of the standard deviation."""
    return TestProblem(*CATALOG["var"], n)


def variance_upper(n: int) -> TestProblem:
    """One-sided (upper) test of the standard deviation."""
    return TestProblem(*CATALOG["var-upper"], n)


def mean_diff_z(n: int, m: int, sigma1: float, sigma2: float) -> TestProblem:
    """Two-sided test of mu1 - mu2 with known sigmas."""
    return TestProblem(*CATALOG["diff-means"], n, m, sigma1=sigma1, sigma2=sigma2)


def mean_diff_z_upper(n: int, m: int, sigma1: float, sigma2: float) -> TestProblem:
    """One-sided (upper) test of mu1 - mu2 with known sigmas."""
    return TestProblem(*CATALOG["diff-means-upper"], n, m, sigma1=sigma1, sigma2=sigma2)


def variance_ratio(n: int, m: int) -> TestProblem:
    """Two-sided test of sigma1 / sigma2."""
    return TestProblem(*CATALOG["var-ratio"], n, m)


def variance_ratio_upper(n: int, m: int) -> TestProblem:
    """One-sided (upper) test of sigma1 / sigma2."""
    return TestProblem(*CATALOG["var-ratio-upper"], n, m)


def mean_t(n: int) -> TestProblem:
    """Two-sided test of the mean with unknown sigma (studentized distance)."""
    return TestProblem(*CATALOG["mean-t"], n)


def mean_t_upper(n: int) -> TestProblem:
    """One-sided (upper) test of the mean with unknown sigma."""
    return TestProblem(*CATALOG["mean-t-upper"], n)


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


def _estimates(
    problem: TestProblem, x: _Rows, y: _Rows | None, centres: bool = False
) -> np.ndarray:
    """E of each row, from the rows of the first block and of the second.
    As the ``centres`` of confidence regions, they must lie in (0, inf) on
    the log scale."""
    estimator = problem.estimator
    if estimator is EstimatorKind.SIGMA_BAR:
        e = x.sigma_bar
    elif estimator is EstimatorKind.DIFF_MU_BAR:
        e = x.mean - y.mean
    elif estimator is EstimatorKind.SIGMA_PRIME_RATIO:
        num, den = x.sigma_bar_prime, y.sigma_bar_prime
        if not (num + den).all():  # both 0: the sds are >= 0
            raise ValueError("degenerate sample: both blocks constant")
        with np.errstate(divide="ignore"):
            e = num / den
    else:
        e = x.mean
    if centres and problem.distance_kind.log_scale and not ((0.0 < e) & (e < math.inf)).all():
        raise ValueError("degenerate sample: log-scale estimate is 0 or infinite")
    return e


def _statistic(
    problem: TestProblem, anchor: float, x: _Rows, y: _Rows | None, coverage: bool = False
) -> np.ndarray:
    """d(E, anchor) of each row, anchored at ``anchor`` on the half-line
    kinds: a rejection region's statistic at the null value ``anchor``, or
    with ``coverage`` a confidence region's at the candidate ``anchor``."""
    e = _estimates(problem, x, y, centres=coverage)
    kind = problem.distance_kind
    return _semi_distance(kind, e, anchor, anchor if kind.half_line else None, x)


def estimate(problem: TestProblem, x: Sample) -> float:
    """The realized estimator value E(x) for the problem."""
    _check_sizes(problem, x)
    return float(_estimates(problem, *x._rows)[0])


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


def state_with_quantity(
    problem: TestProblem, state: State | TwoSampleState, theta: float
) -> State | TwoSampleState:
    """The inverse of quantity_value: ``state`` with its first component
    moved so that the quantity value is theta.  A positive quantity
    rejects theta <= 0 (as ``State`` does a non-positive sigma)."""
    q = problem.quantity
    if q is QuantityKind.MU:
        return State(theta, state.sigma)
    if q is QuantityKind.SIGMA:
        return State(state.mu, theta)
    second = state.second
    if q is QuantityKind.MU_DIFF:
        return TwoSampleState(State(second.mu + theta, state.first.sigma), second)
    return TwoSampleState(State(state.first.mu, theta * second.sigma), second)


# ---------------------------------------------------------------------------
# Calibrated radii
# ---------------------------------------------------------------------------


def _pivot(
    problem: TestProblem, omega: State | TwoSampleState | None
) -> tuple[DistributionSpec, float]:
    """The law of the problem's pivot and the scale that carries it onto
    the distance.  The sigma of a known-sigma entry is the state's where
    one is supplied; the problem's known-nuisance values cover the
    no-state calls (run_test, regions), which is where "sigma fixed and
    known" actually bites."""
    n, m, estimator = problem.n, problem.m, problem.estimator
    if estimator is EstimatorKind.SIGMA_BAR:
        return chi_squared(n - 1), float(n)
    if estimator is EstimatorKind.SIGMA_PRIME_RATIO:
        return fisher_f(n - 1, m - 1), 1.0
    if estimator is EstimatorKind.MU_BAR_STUDENTIZED:
        return student_t(n - 1), 1.0
    if estimator is EstimatorKind.MU_BAR:
        sigma = omega.sigma if isinstance(omega, State) else problem.sigma
        if sigma is None:
            raise ValueError(
                "mean z tests need a known sigma; with unknown sigma use "
                "the studentized mean tests (mean_t / mean_t_upper)"
            )
        return dist.normal(), sigma / math.sqrt(n)
    sigma1, sigma2 = problem.sigma1, problem.sigma2
    if isinstance(omega, TwoSampleState):
        sigma1, sigma2 = omega.first.sigma, omega.second.sigma
    elif sigma1 is None or sigma2 is None:
        raise ValueError(
            "mean-difference z tests need known sigma1 and sigma2; "
            "with unknown sigmas use the studentized mean tests "
            "(mean_t / mean_t_upper) on each sample"
        )
    return dist.normal(), math.sqrt(sigma1**2 / n + sigma2**2 / m)


@lru_cache(maxsize=1024)
def _radius(
    problem: TestProblem, omega: State | TwoSampleState | None, alpha: float
) -> float:
    # The (1 - alpha) point of the pivot law: an upper tail for half-line
    # kinds, a symmetric interval for two-sided ones.
    law, scale = _pivot(problem, omega)
    kind = problem.distance_kind
    if kind.log_scale:
        solve = dist.upper_tail_log_eta if kind.half_line else dist.symmetric_log_interval_eta
        return solve(law, problem.n, alpha)
    tails = 1.0 if kind.half_line else 2.0
    return scale * quantile(law, 1.0 - alpha / tails)


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
    return _radius(problem, omega, alpha)


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


def _endpoints(
    kind: SemiDistanceKind, center: float, eta: float, x: Sample | None
) -> tuple[float, float]:
    # g^-1(g(center) -+ s * eta).  The log scale multiplies by exp(-+eta)
    # rather than taking exp(log(center) -+ eta), which rounds differently.
    if kind.log_scale:
        return center * math.exp(-eta), center * math.exp(eta)
    s = float(_studentized_scale(x._rows[0])[0]) if kind.studentized else 1.0
    return center - s * eta, center + s * eta


def _validate_hypothesis(problem: TestProblem, hypothesis: Hypothesis) -> None:
    kind = problem.distance_kind
    expected = HypothesisKind.LOWER_HALF_LINE if kind.half_line else HypothesisKind.POINT
    if hypothesis.kind is not expected:
        raise ValueError(f"{kind.value} distances pair with {expected.value} hypotheses")
    if problem.quantity.positive and hypothesis.value <= 0.0:
        raise ValueError(f"hypothesis value must be positive, got {hypothesis.value!r}")


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
        _check_sizes(self.problem, x)
        return float(_statistic(self.problem, self.hypothesis.value, *x._rows)[0])

    def contains(self, x: Sample) -> bool:
        return self.statistic(x) >= self.eta

    def estimator_cutpoints(self, x: Sample | None = None) -> tuple[float | None, float]:
        """(lower, upper) estimator cut values: reject iff E(x) <= lower or
        >= upper; lower is None for one-sided entries.  Studentized
        entries need the sample for their data-dependent scale."""
        kind = self.problem.distance_kind
        if kind.studentized and x is None:
            raise ValueError("studentized cutpoints need the sample")
        lo, hi = _endpoints(kind, self.hypothesis.value, self.eta, x)
        return (None if kind.half_line else lo), hi


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
        return bool(_statistic(self.problem, theta, *self.sample._rows)[0] < self.eta)


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
    _check_sizes(problem, x)
    e = float(_estimates(problem, *x._rows, centres=True)[0])
    eta = eta_gamma(problem, None, gamma)
    kind = problem.distance_kind
    lo, hi = _endpoints(kind, e, eta, x)
    return ConfidenceRegion(problem, gamma, eta, e, lo, math.inf if kind.half_line else hi, x)


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
    law, scale = _pivot(problem, omega)
    if not kind.half_line:
        if kind.log_scale:
            return dist.cdf(law, scale * math.exp(2.0 * eta)) - dist.cdf(
                law, scale * math.exp(-2.0 * eta)
            )
        return dist.cdf(law, eta / scale) - dist.cdf(law, -eta / scale)
    theta = quantity_value(problem, omega)
    # Half-line studentized: the law at interior null states is
    # noncentral-t, outside this library's four families.
    if kind.studentized and anchor != theta:
        raise ValueError(
            "generic inversion of the one-sided studentized radius is only "
            "available at the null boundary"
        )
    if kind.log_scale:
        ratio = anchor / theta
        if ratio < 1.0:
            raise ValueError("state lies outside the lower-half-line null")
        return dist.cdf(law, scale * math.exp(2.0 * eta) * ratio**2)
    shift = anchor - theta
    if shift < 0.0:
        raise ValueError("state lies outside the lower-half-line null")
    return dist.cdf(law, (eta + shift) / scale)


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
