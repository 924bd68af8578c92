"""Maximum likelihood for the normal model and the likelihood ratio test.

A constraint set of states is one box of the (mu, sigma) half-plane: mu
in [mu_lo, mu_hi] and sigma free or fixed.  Over a box the maximizer has
one closed form, the mean clamped to the box with sigma fixed or
re-centred there.

The likelihood here is the normalized form: the density ratio against
the best attainable density, so its supremum over the admissible
parameter region is exactly 1.  The ratio test calibrates a cutoff
epsilon(alpha) so that the worst-case null probability of landing in
the low-likelihood set stays at or below alpha.  It runs on a catalog
``TestProblem`` whose pivot is normal (mean-z, diff-means and their
"-upper" entries), at the scale ``framework._pivot`` states for it, so
its radius is the distance-based rejection region's, bit for bit: the
cross-check the test suite pins down.

Each check of an input lives in one function: a measured value's
emptiness and finiteness in ``measurement._finite_row`` (reached through
``mu_bar`` and, for the likelihood, through ``_ssq``, which adds the
overflow of the sum of squared deviations), and a level alpha in
``distributions._level``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from . import distributions as dist
from .framework import (
    Hypothesis,
    TestProblem,
    _name,
    _pivot,
    _positive_radius,
    _validate_hypothesis,
)
from .measurement import State, _finite_row, mu_bar

__all__ = [
    "ParameterRegion",
    "LikelihoodValue",
    "log_likelihood",
    "likelihood",
    "normalized_likelihood",
    "mle_normal",
    "LrtRegion",
    "lrt_lambda",
    "lrt_region",
]


@dataclass(frozen=True)
class ParameterRegion:
    """A constraint set K inside the (mu, sigma) state space: the states
    with mu in [mu_lo, mu_hi] and sigma free (``sigma0`` None) or equal to
    ``sigma0``.  The constructors name the boxes in use: the full space, a
    fixed mu, a half-line of mu and a fixed sigma."""

    mu_lo: float = -math.inf
    mu_hi: float = math.inf
    sigma0: float | None = None

    def __post_init__(self) -> None:
        # Refuses NaN too, which min and max would pass over when clamping.
        if not self.mu_lo <= self.mu_hi:
            raise ValueError(
                f"mu bounds must be ordered numbers, got [{self.mu_lo!r}, {self.mu_hi!r}]"
            )
        if self.sigma0 is not None and not (math.isfinite(self.sigma0) and self.sigma0 > 0.0):
            raise ValueError(f"sigma0 must be positive, got {self.sigma0!r}")

    @staticmethod
    def full() -> "ParameterRegion":
        return ParameterRegion()

    @staticmethod
    def mu_fixed(mu0: float) -> "ParameterRegion":
        return ParameterRegion(mu0, mu0)

    @staticmethod
    def mu_half_line(mu0: float, side: str = "lower") -> "ParameterRegion":
        """mu <= mu0 on the ``"lower"`` side, mu >= mu0 on the ``"upper"``."""
        if side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {side!r}")
        return ParameterRegion(mu_hi=mu0) if side == "lower" else ParameterRegion(mu_lo=mu0)

    @staticmethod
    def sigma_fixed(sigma0: float) -> "ParameterRegion":
        return ParameterRegion(sigma0=sigma0)

    def contains(self, state: State) -> bool:
        return (
            self.mu_lo <= state.mu <= self.mu_hi
            and (self.sigma0 is None or state.sigma == self.sigma0)
        )


@dataclass(frozen=True)
class LikelihoodValue:
    log_likelihood: float
    normalized_ratio: float


def _ssq(x: Sequence[float], mu: float) -> float:
    """The sum of squared deviations of x from mu, by ``math.fsum``.  An
    empty x or a non-finite value raises ``_finite_row``'s ValueError,
    which names it; a sum of finite values that overflows raises one that
    says so."""
    try:
        ssq = math.fsum((v - mu) ** 2 for v in x)
    except OverflowError:
        ssq = math.inf
    if len(x) < 1 or not math.isfinite(ssq):
        _finite_row(x, "sample")
        raise ValueError("sum of squared deviations overflows float64")
    return ssq


def log_likelihood(x: Sequence[float], state: State) -> float:
    """Log density of the n i.i.d. normal draws at ``state``."""
    return -0.5 * len(x) * math.log(2.0 * math.pi * state.sigma**2) - _ssq(x, state.mu) / (
        2.0 * state.sigma**2
    )


def likelihood(
    x: Sequence[float],
    state: State,
    region: ParameterRegion | None = None,
) -> LikelihoodValue:
    """Likelihood at ``state`` normalized by the maximum over ``region``
    (the full space by default), so the region's maximizer scores 1."""
    region = region if region is not None else ParameterRegion.full()
    top = mle_normal(x, region)
    raw = log_likelihood(x, state)
    return LikelihoodValue(raw, math.exp(min(raw - log_likelihood(x, top), 0.0)))


def normalized_likelihood(x: Sequence[float], state: State) -> float:
    """Density ratio against the unconstrained maximum; 1 exactly at the
    sample-mean / sample-sd state."""
    return likelihood(x, state).normalized_ratio


def _sigma_hat(x: Sequence[float], mu: float) -> float:
    return math.sqrt(_ssq(x, mu) / len(x))


def mle_normal(x: Sequence[float], region: ParameterRegion) -> State:
    """Likelihood maximizer over the region, in closed form: mu is the mean
    clamped to [mu_lo, mu_hi], and sigma is sigma0 where it is fixed, else
    the root mean square deviation from that mu."""
    mu = min(max(mu_bar(x), region.mu_lo), region.mu_hi)
    s = _sigma_hat(x, mu) if region.sigma0 is None else region.sigma0
    if s == 0.0:
        raise ValueError("degenerate sample: maximum-likelihood sigma is 0")
    return State(mu, s)


# ---------------------------------------------------------------------------
# Likelihood ratio test for the catalog problems with a normal pivot
# ---------------------------------------------------------------------------


def _normal_scale(problem: TestProblem, hypothesis: Hypothesis) -> float:
    """The standard error of the problem's estimate, from its pivot, once
    the hypothesis is paired with the problem as a rejection region pairs
    it.  An entry whose pivot is not normal is refused by name."""
    law, scale = _pivot(problem, None)
    if law.kind is not dist.Family.NORMAL:
        raise ValueError(
            f"the likelihood ratio test needs a normal pivot; {_name(problem)} has a "
            f"{law.kind.value} one"
        )
    _validate_hypothesis(problem, hypothesis)
    return scale


def lrt_lambda(theta: float, problem: TestProblem, hypothesis: Hypothesis) -> float:
    """Profile of the normalized likelihood over the null set: the best
    score any null state gives to the estimate value ``theta``.  The
    estimate is normal about the quantity at the pivot's scale, so the
    ratio has the closed form exp(-(theta - value)^2 / (2 scale^2))."""
    scale = _normal_scale(problem, hypothesis)
    if problem.distance_kind.half_line and theta <= hypothesis.value:
        return 1.0
    z = (theta - hypothesis.value) / scale
    return math.exp(-0.5 * z * z)


@dataclass(frozen=True)
class LrtRegion:
    """Rejection region of the ratio test: estimate values whose profile
    likelihood over the null falls at or below the calibrated cutoff."""

    problem: TestProblem
    hypothesis: Hypothesis
    alpha: float
    epsilon: float
    radius: float

    def contains(self, theta: float) -> bool:
        return lrt_lambda(theta, self.problem, self.hypothesis) <= self.epsilon


def lrt_region(hypothesis: Hypothesis, alpha: float, problem: TestProblem) -> LrtRegion:
    """Calibrate the cutoff on the worst-case null probability.

    The estimate lands r or more standard errors beyond the null value
    with probability at most alpha, attained at the null boundary, where r
    is the normal upper quantile at alpha / 2 on a point null and at alpha
    on a half-line.  A level whose radius is not positive, or overflows, is
    refused by ``framework._positive_radius``, as the rejection region
    refuses it.
    epsilon = exp(-r^2 / 2), kept below 1 (which would reject the null's
    own estimates), is the supremal cutoff whose worst-case null
    probability stays <= alpha; the region boundary then sits at
    ``radius`` from the null value in estimate space.
    """
    scale = _normal_scale(problem, hypothesis)
    k = 1.0 if problem.distance_kind.half_line else 2.0
    r = dist._solve(dist.normal(), dist._per_tail(alpha, k), upper=True)
    radius = _positive_radius(problem, alpha, scale * r)
    eps = min(math.exp(-0.5 * r * r), math.nextafter(1.0, 0.0))
    return LrtRegion(problem, hypothesis, alpha, eps, radius)
