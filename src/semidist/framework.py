"""Semi-distance engine: confidence regions and rejection regions as two
sides of one construction.

A test problem bundles a quantity map from states to the inference
target and a semi-distance on the target space; the quantity fixes the
estimator: the mean for mu (under either distance), sigma_bar for sigma,
the difference of means for mu1 - mu2 and the ratio of sigma_bar_primes
for sigma1 / sigma2.  The calibrated radius eta is the smallest distance
the estimator stays within (probability >= gamma) or strays beyond
(probability <= alpha); the two radii coincide at alpha = 1 - gamma,
which is what makes a confidence region and a rejection region
complements of each other.  The statistic is never negative, so a radius
eta <= 0 would reject every sample, and a radius past the largest double
is no answer: every radius is solved through ``_positive_radius``, the
one refusal of a level the region cannot meet.

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
F(n - 1, m - 1) at scale 1; or Student-t(n - 1).  The radius leaves mass
alpha of that law outside it, in the upper tail or in both, and both
ends of an interval are g^-1(g(e) -+ s * eta).  The estimates and the
formula are defined on ``measurement._Rows`` blocks, one measured value
per column, so a single measured value and a Monte Carlo block share one
arithmetic.

``CATALOG`` holds the ten catalog entries, keyed by their command-line
names, each as its (quantity, kind): one- and two-sided tests
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
from .distributions import DistributionSpec, student_t, chi_squared, fisher_f
from .measurement import _TINY, Sample, State, TwoSampleState, _Rows

__all__ = [
    "SemiDistanceKind",
    "SemiDistance",
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
    """d(theta1, theta2) for each entry of theta1, clamped at theta0 on the
    half-line kinds and, on the studentized ones, scaled by the columns of
    x."""
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

    def __call__(self, theta1: float, theta2: float) -> float:
        x = self.context
        rows = x._rows[0] if x is not None and self.kind.studentized else None
        return float(_semi_distance(self.kind, np.array([theta1]), theta2, self.theta0, rows)[0])


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
    quantity: QuantityKind
    kind: SemiDistanceKind

    @property
    def known_sigmas(self) -> tuple[str, ...]:
        """The TestProblem fields a z entry's pivot law needs: the sigma of
        each sample of a mean measured on the plain scale."""
        if self.kind.log_scale or self.kind.studentized:
            return ()
        return ("sigma1", "sigma2") if self.quantity.two_sample else ("sigma",)


# Test name -> (quantity, semi-distance kind).  Each "-upper" entry is the
# half-line kind of its two-sided entry.
_Q, _K = QuantityKind, SemiDistanceKind
CATALOG: dict[str, CatalogEntry] = {
    "mean-z": CatalogEntry(_Q.MU, _K.ABSOLUTE),
    "mean-z-upper": CatalogEntry(_Q.MU, _K.HALF_LINE_ABSOLUTE),
    "var": CatalogEntry(_Q.SIGMA, _K.LOG_RATIO),
    "var-upper": CatalogEntry(_Q.SIGMA, _K.HALF_LINE_LOG_RATIO),
    "diff-means": CatalogEntry(_Q.MU_DIFF, _K.ABSOLUTE),
    "diff-means-upper": CatalogEntry(_Q.MU_DIFF, _K.HALF_LINE_ABSOLUTE),
    "var-ratio": CatalogEntry(_Q.SIGMA_RATIO, _K.LOG_RATIO),
    "var-ratio-upper": CatalogEntry(_Q.SIGMA_RATIO, _K.HALF_LINE_LOG_RATIO),
    "mean-t": CatalogEntry(_Q.MU, _K.STUDENTIZED),
    "mean-t-upper": CatalogEntry(_Q.MU, _K.HALF_LINE_STUDENTIZED),
}
_NAMES = {entry: name for name, entry in CATALOG.items()}


@dataclass(frozen=True)
class TestProblem:
    """Quantity + semi-distance kind, one of the ``CATALOG`` entries (the
    quantity fixes the estimator), with sample sizes and the known sigmas
    a z entry's calibration needs.  A refused field (a sigma or m the
    entry has no use for, a known sigma left out) names the entry as the
    command line does, which passes its flags here and prints the refusal."""

    quantity: QuantityKind
    distance_kind: SemiDistanceKind
    n: int
    m: int | None = None
    sigma: float | None = None
    sigma1: float | None = None
    sigma2: float | None = None

    def __post_init__(self) -> None:
        # Only a catalog entry has a pivot law; any other pair is refused.
        kind = self.distance_kind
        entry = CatalogEntry(self.quantity, kind)
        name = _NAMES.get(entry)
        if name is None:
            raise ValueError(f"({self.quantity.value}, {kind.value}) is not a catalog test")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        two_sample = self.quantity.two_sample
        if two_sample and (self.m is None or self.m < 1):
            raise ValueError("two-sample problems need m >= 1")
        if not two_sample and self.m is not None:
            raise ValueError(f"{name} does not use m")
        known = entry.known_sigmas
        for flag in ("sigma", "sigma1", "sigma2"):
            value = getattr(self, flag)
            if value is not None and flag not in known:
                raise ValueError(f"{name} does not use {flag}")
            if value is not None and not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{flag} must be positive, got {value!r}")
        if None in (getattr(self, flag) for flag in known):
            t_kind = _K.HALF_LINE_STUDENTIZED if kind.half_line else _K.STUDENTIZED
            each = " on each sample" if two_sample else ""
            raise ValueError(
                f"{name} needs known {' and '.join(known)}; with sigma unknown "
                f"use {_NAMES[CatalogEntry(_Q.MU, t_kind)]}{each}"
            )
        # A sample sd needs two values: its pivot has n - 1 (and m - 1) dof.
        if (kind.log_scale or kind.studentized) and min(self.n, self.m or self.n) < 2:
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


def _name(problem: TestProblem) -> str:
    """The command-line name of the problem's entry, which its refusals name."""
    return _NAMES[CatalogEntry(problem.quantity, problem.distance_kind)]


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
    """E of each replication, from the first block's columns and the
    second's.
    As the ``centres`` of confidence regions, they must lie in (0, inf) on
    the log scale."""
    q = problem.quantity
    if q is QuantityKind.SIGMA:
        e = x.sigma_bar
    elif q is QuantityKind.MU_DIFF:
        e = x.mean - y.mean
    elif q is QuantityKind.SIGMA_RATIO:
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
    """d(E, anchor) of each replication, anchored at ``anchor`` on the
    half-line kinds: a rejection region's statistic at the null value
    ``anchor``, or with ``coverage`` a confidence region's at the candidate
    ``anchor``."""
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
    refuses a theta that is not above 0, naming the entry."""
    q = problem.quantity
    if q.positive and not theta > 0.0:
        raise ValueError(f"{_name(problem)} needs a positive quantity value, got {theta!r}")
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
    the distance: the one statement of both for every entry, a log-scale
    entry's scale read from its law (``dist._log_scale``).  A known-sigma
    entry takes the state's sigma where one is supplied, else the
    problem's known value (run_test, regions), which is where "sigma
    fixed and known" actually bites."""
    n, m, q = problem.n, problem.m, problem.quantity
    if problem.distance_kind.log_scale:
        law = chi_squared(n - 1) if q is QuantityKind.SIGMA else fisher_f(n - 1, m - 1)
        return law, dist._log_scale(law)
    if problem.distance_kind.studentized:
        return student_t(n - 1), 1.0
    if q is QuantityKind.MU:
        sigmas = (omega.sigma if isinstance(omega, State) else problem.sigma,)
    elif isinstance(omega, TwoSampleState):
        sigmas = (omega.first.sigma, omega.second.sigma)
    else:
        sigmas = (problem.sigma1, problem.sigma2)
    return dist.normal(), _standard_error(tuple(zip(sigmas, (n, m))))


def _standard_error(sides: tuple[tuple[float, int], ...]) -> float:
    """sqrt(sum of sigma^2 / k) over the (sigma, k) sides, one or two: the
    normal pivot's scale.  Where the sum leaves the normal range (a square
    overflows, or every term is subnormal), it is taken on the sigmas times
    2^-600 or 2^600 and its root scaled back, as ``measurement._root`` does:
    both scalings are exact, so no bits are lost to the range, and a sum in
    the range keeps its bits."""
    var = sum(s * s / k for s, k in sides)
    if _TINY <= var < math.inf:
        return math.sqrt(var)
    c = 2.0**-600 if var == math.inf else 2.0**600
    return math.sqrt(sum((s * c) ** 2 / k for s, k in sides)) / c


def _positive_radius(
    problem: TestProblem, alpha: float, eta: float, gamma: float | None = None
) -> float:
    """``eta``, the problem's radius at level alpha, if it is positive and
    finite: the one refusal of a level the region cannot meet, for every
    entry.  A half-line statistic is clamped at 0, so at the null boundary
    P(d >= eta) takes no value between 1 and alpha* = P(E > theta0), the
    pivot law's mass beyond its origin; a two-sided entry's alpha* is 1.
    The test is on the rounded eta, not on alpha*, which is computed only to
    name it.  A finite solve times a pivot scale near the largest double
    can overflow, and that radius is refused as overflowing float64.  A
    confidence level ``gamma`` is named as given, met above 1 - alpha*."""
    if 0.0 < eta < math.inf:
        return eta
    sizes = f"n={problem.n}" + (f", m={problem.m}" if problem.two_sample else "")
    level = f"alpha={alpha!r}" if gamma is None else f"gamma={gamma!r}"
    head = f"{_name(problem)} with {sizes} cannot meet {level}: its radius there"
    if eta > 0.0:
        raise ValueError(f"{head} overflows float64")
    law, _ = _pivot(problem, None)
    astar = 1.0
    if problem.distance_kind.half_line:
        astar = dist._sf(law, dist._log_scale(law) if problem.distance_kind.log_scale else 0.0)
    bound = f"below alpha*={astar!r}" if gamma is None else f"above gamma*={1.0 - astar!r}"
    raise ValueError(
        f"{head} is not positive, so the region would reject every sample; the levels it "
        f"meets lie {bound}"
    )


@lru_cache(maxsize=1024)
def _radius(
    problem: TestProblem, omega: State | TwoSampleState | None, alpha: float,
    gamma: float | None = None,
) -> float:
    # The point of the pivot law with mass alpha beyond it: an upper tail
    # for half-line kinds, a symmetric interval for two-sided ones.
    law, scale = _pivot(problem, omega)
    kind = problem.distance_kind
    if kind.log_scale:
        solve = dist.upper_tail_log_eta if kind.half_line else dist.symmetric_log_interval_eta
        eta = solve(law, alpha)
    else:
        tails = 1.0 if kind.half_line else 2.0
        eta = scale * dist._solve(law, dist._per_tail(alpha, tails), upper=True)
    return _positive_radius(problem, alpha, eta, gamma)


def eta_alpha(
    problem: TestProblem, omega: State | TwoSampleState | None, alpha: float
) -> float:
    """The radius the estimator strays beyond with probability <= alpha.

    Closed-form per catalog entry via exact quantile inversion of the
    statistic's sampling law.  ``omega`` supplies the state's sigma(s)
    where the radius depends on them; pass None to use the problem's
    known nuisance values.
    """
    return _radius(problem, omega, dist._level("alpha", alpha))


def _alpha_of(gamma: float) -> float:
    """alpha = 1 - gamma, the one place a confidence level is checked and
    turned into a test level: gamma must lie in (0, 1), and not so near 0
    that 1 - gamma rounds to 1."""
    alpha = 1.0 - dist._level("gamma", gamma)
    if alpha == 1.0:
        raise ValueError(
            f"gamma={gamma!r} is too small for double precision: 1 - gamma rounds to 1"
        )
    return alpha


def eta_gamma(
    problem: TestProblem, omega: State | TwoSampleState | None, gamma: float
) -> float:
    """The radius the estimator stays within with probability >= gamma;
    identical to eta_alpha at alpha = 1 - gamma (continuous laws)."""
    return _radius(problem, omega, _alpha_of(gamma), gamma)


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
    """Refuse a null the problem cannot pair with: of the other kind, or
    not positive on a positive quantity (naming the entry)."""
    kind = problem.distance_kind
    expected = HypothesisKind.LOWER_HALF_LINE if kind.half_line else HypothesisKind.POINT
    if hypothesis.kind is not expected:
        raise ValueError(f"{kind.value} distances pair with {expected.value} hypotheses")
    if problem.quantity.positive and hypothesis.value <= 0.0:
        raise ValueError(f"{_name(problem)} needs a positive null value, got {hypothesis.value!r}")


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
    alpha = _alpha_of(gamma)
    _check_sizes(problem, x)
    e = float(_estimates(problem, *x._rows, centres=True)[0])
    eta = _radius(problem, None, alpha, gamma)
    kind = problem.distance_kind
    lo, hi = _endpoints(kind, e, eta, x)
    return ConfidenceRegion(problem, gamma, eta, e, lo, math.inf if kind.half_line else hi, x)


def sure_region(
    problem: TestProblem, hypothesis: Hypothesis, gamma: float
) -> SureRegion:
    """Estimates compatible with the sure hypothesis at confidence gamma:
    the complement of the rejection region at alpha = 1 - gamma."""
    alpha = _alpha_of(gamma)
    _validate_hypothesis(problem, hypothesis)
    eta = _radius(problem, None, alpha, gamma)
    return SureRegion(gamma, Region(problem, hypothesis, alpha, eta))


# ---------------------------------------------------------------------------
# Generic radius by direct inversion of the statistic's sampling law
# ---------------------------------------------------------------------------


def _statistic_law_tail(problem: TestProblem, omega: State | TwoSampleState, anchor: float | None):
    """P_omega(d^x(E(x), pi(omega)) >= eta) from the exact sampling law, and
    the log of its derivative, as functions of y = -eta (both nondecreasing
    in y)."""
    kind = problem.distance_kind
    law, scale = _pivot(problem, omega)
    shift = 0.0
    if kind.half_line:
        theta = quantity_value(problem, omega)
        # Half-line studentized: the law at interior null states is
        # noncentral-t, outside this library's four families.
        if kind.studentized and anchor != theta:
            raise ValueError(
                "generic inversion of the one-sided studentized radius is only "
                "available at the null boundary"
            )
        shift = math.log(anchor / theta) if kind.log_scale else anchor - theta
        if shift < 0.0:
            raise ValueError("state lies outside the lower-half-line null")

    # d >= eta where the pivot lies above point(eta), or on a two-sided
    # kind also below point(-eta).
    def point(eta: float) -> float:
        return scale * math.exp(2.0 * (eta + shift)) if kind.log_scale else (eta + shift) / scale

    def tail(y: float) -> float:
        return dist._sf(law, point(-y)) + (0.0 if kind.half_line else dist.cdf(law, point(y)))

    def log_slope(y: float) -> float:
        # The log density at each end plus log |d point / d eta| there: log 2
        # point on the log scale, -log scale otherwise.
        ends = (point(-y),) if kind.half_line else (point(-y), point(y))
        return dist._log_sum(*(
            (math.log(2.0 * u) if kind.log_scale else -math.log(scale)) + dist._log_pdf(law, u) for u in ends
        ))

    return tail, log_slope


def eta_alpha_generic(
    problem: TestProblem,
    omega: State | TwoSampleState,
    alpha: float,
    anchor: float | None = None,
) -> float:
    """The radius by direct inversion of the statistic's sampling law,
    with no catalog algebra: cross-validates the closed forms.  Its tail
    mass is solved for alpha by ``_invert`` from eta = 1.  Where the mass
    at eta = 0 is already at most alpha, as at an interior state of a
    half-line null, every radius meets alpha and 0 is their infimum.

    ``anchor`` is the half-line reference (the hypothesis value); it is
    ignored by two-sided kinds.
    """
    dist._level("alpha", alpha)
    if problem.distance_kind.half_line and anchor is None:
        raise ValueError("half-line kinds need the hypothesis anchor")
    tail, log_slope = _statistic_law_tail(problem, omega, anchor)
    if tail(0.0) <= alpha:
        return 0.0
    return -dist._invert(tail, log_slope, alpha, -1.0, hi=0.0)


def eta_alpha_over_null_grid(
    problem: TestProblem,
    hypothesis: Hypothesis,
    alpha: float,
    states: list[State | TwoSampleState],
) -> float:
    """Effective radius of the rejection region built the long way: the
    intersection over a grid of null states of the per-state rejection
    sets, which for a shared anchor is governed by the largest radius,
    refused by ``_positive_radius`` where it is not positive.  That of a
    half-line null lies at its boundary, which a grid must reach.  The
    hypothesis must pair with the problem, as for ``rejection_region``.
    """
    if not states:
        raise ValueError("empty state grid")
    _validate_hypothesis(problem, hypothesis)
    thetas = [quantity_value(problem, omega) for omega in states]
    for theta in thetas:
        if not hypothesis.holds_at(theta):
            raise ValueError(f"grid state with quantity {theta!r} violates the null")
    top = max(thetas)
    if top < hypothesis.value:
        raise ValueError(f"the grid stops at {top!r}, below the null boundary {hypothesis.value!r}")
    best = max(eta_alpha_generic(problem, omega, alpha, hypothesis.value) for omega in states)
    return _positive_radius(problem, alpha, best)
