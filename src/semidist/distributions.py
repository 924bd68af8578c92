"""Special-function numerics for the four sampling distributions.

Densities, CDFs and quantiles for the standard normal, chi-squared,
Student-t and Fisher-F families, plus the log-scale interval and tail
radii that the variance tests calibrate against.

Everything here is computed from scratch: regularized incomplete gamma
(series + continued fraction) backs the normal/chi-squared CDFs, and
regularized incomplete beta (continued fraction) backs t and F.  One
safeguarded Newton/bisection inversion, ``_invert``, serves both the
quantiles (a CDF) and the two-sided log radius (the mass of a log
interval).  All functions are pure and reentrant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

__all__ = [
    "Family",
    "Tails",
    "DistributionSpec",
    "normal",
    "chi_squared",
    "student_t",
    "fisher_f",
    "pdf",
    "cdf",
    "quantile",
    "z_alpha",
    "symmetric_log_interval_eta",
    "upper_tail_log_eta",
]

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 600


class Family(Enum):
    NORMAL = "normal"
    CHI_SQUARED = "chi_squared"
    STUDENT_T = "student_t"
    FISHER_F = "fisher_f"


class Tails(Enum):
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class DistributionSpec:
    """One of the four sampling distributions, with its degrees of freedom.

    dof2 is present iff kind is FISHER_F.
    """

    kind: Family
    dof1: int | None = None
    dof2: int | None = None

    def __post_init__(self) -> None:
        if self.kind is Family.NORMAL:
            if self.dof1 is not None or self.dof2 is not None:
                raise ValueError("normal distribution takes no degrees of freedom")
            return
        if self.dof1 is None or int(self.dof1) != self.dof1 or self.dof1 < 1:
            raise ValueError(f"dof1 must be a positive integer, got {self.dof1!r}")
        if self.kind is Family.FISHER_F:
            if self.dof2 is None or int(self.dof2) != self.dof2 or self.dof2 < 1:
                raise ValueError(f"dof2 must be a positive integer, got {self.dof2!r}")
        elif self.dof2 is not None:
            raise ValueError(f"{self.kind.value} takes a single degree of freedom")


def normal() -> DistributionSpec:
    return DistributionSpec(Family.NORMAL)


def chi_squared(dof: int) -> DistributionSpec:
    return DistributionSpec(Family.CHI_SQUARED, dof)


def student_t(dof: int) -> DistributionSpec:
    return DistributionSpec(Family.STUDENT_T, dof)


def fisher_f(dof1: int, dof2: int) -> DistributionSpec:
    return DistributionSpec(Family.FISHER_F, dof1, dof2)


# ---------------------------------------------------------------------------
# Regularized incomplete gamma and beta
# ---------------------------------------------------------------------------


def _gamma_p_series(a: float, x: float) -> float:
    # Lower series, converges for x < a + 1.
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(_MAX_ITER):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_q_cf(a: float, x: float) -> float:
    # Upper-tail continued fraction (modified Lentz), converges for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER + 1):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return math.exp(-x + a * math.log(x) - math.lgamma(a)) * h


def _gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x)."""
    if x <= 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_p_series(a, x)
    return 1.0 - _gamma_q_cf(a, x)


def _beta_cf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta (modified Lentz).
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < _TINY:
        d = _TINY
    d = 1.0 / d
    h = d
    for m in range(1, _MAX_ITER + 1):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < _TINY:
            d = _TINY
        c = 1.0 + aa / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h


def _beta_inc(a: float, b: float, x: float, xc: float | None = None) -> float:
    """Regularized incomplete beta I_x(a, b).

    ``xc`` is 1 - x; callers whose argument is a ratio u/(u+v) pass the
    complement v/(u+v) directly, which keeps the far tails accurate where
    the subtraction 1 - x would cancel.
    """
    if xc is None:
        xc = 1.0 - x
    if x <= 0.0:
        return 0.0
    if xc <= 0.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log(xc)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return math.exp(ln_front) * _beta_cf(a, b, x) / a
    return 1.0 - math.exp(ln_front) * _beta_cf(b, a, xc) / b


# ---------------------------------------------------------------------------
# Densities
# ---------------------------------------------------------------------------


def _normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / _SQRT_2PI


def _chi2_pdf(x: float, k: int) -> float:
    # x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2))
    half = 0.5 * k
    return math.exp(
        (half - 1.0) * math.log(x) - 0.5 * x - half * math.log(2.0) - math.lgamma(half)
    )


def _t_pdf(x: float, k: int) -> float:
    ln = (
        math.lgamma(0.5 * (k + 1))
        - math.lgamma(0.5 * k)
        - 0.5 * math.log(k * math.pi)
        - 0.5 * (k + 1) * math.log1p(x * x / k)
    )
    return math.exp(ln)


def _f_pdf(x: float, d1: int, d2: int) -> float:
    ln = (
        math.lgamma(0.5 * (d1 + d2))
        - math.lgamma(0.5 * d1)
        - math.lgamma(0.5 * d2)
        + 0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * math.log(x)
        - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
    )
    return math.exp(ln)


def pdf(spec: DistributionSpec, x: float) -> float:
    """Density of ``spec`` at ``x``.

    Raises ValueError for x outside the support (chi-squared and F
    require x > 0).
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if spec.kind is Family.NORMAL:
        return _normal_pdf(x)
    if spec.kind is Family.STUDENT_T:
        return _t_pdf(x, spec.dof1)
    if x <= 0.0:
        raise ValueError(f"{spec.kind.value} density requires x > 0, got {x!r}")
    if spec.kind is Family.CHI_SQUARED:
        return _chi2_pdf(x, spec.dof1)
    return _f_pdf(x, spec.dof1, spec.dof2)


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X <= x) for ``spec``; nondecreasing in x with limits 0 and 1."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if spec.kind is Family.NORMAL:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    if spec.kind is Family.CHI_SQUARED:
        if x <= 0.0:
            return 0.0
        return _gamma_p(0.5 * spec.dof1, 0.5 * x)
    if spec.kind is Family.STUDENT_T:
        k = spec.dof1
        if x == 0.0:
            return 0.5
        tail = 0.5 * _beta_inc(0.5 * k, 0.5, k / (k + x * x), x * x / (k + x * x))
        return 1.0 - tail if x > 0.0 else tail
    d1, d2 = spec.dof1, spec.dof2
    if x <= 0.0:
        return 0.0
    u = d1 * x
    return _beta_inc(0.5 * d1, 0.5 * d2, u / (u + d2), d2 / (u + d2))


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _invert(f, slope, target: float, lo: float, hi: float) -> float:
    """The x with f(x) = target, for f nondecreasing with derivative slope.

    [lo, hi] grows outward by doubling until it encloses the root (an end
    at 0 stays there); Newton steps then run inside it, bisecting whenever
    a step leaves it.  The stop is a residual within 8e-16 * target or a
    step within 2e-16 * |x|; ValueError if neither comes in 200 steps.
    """
    while f(hi) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"tail underflow inverting p={target!r}")
    while lo < 0.0 and f(lo) > target:
        lo *= 2.0
        if lo < -1e300:
            raise ValueError(f"tail underflow inverting p={target!r}")
    x = 0.5 * (lo + hi)
    for _ in range(200):
        r = f(x) - target
        if r > 0.0:
            hi = x
        else:
            lo = x
        if abs(r) <= 8.0 * _EPS * target:
            break
        try:
            d = slope(x)
        except ValueError:
            d = 0.0
        if d > 0.0 and math.isfinite(d):
            nxt = x - r / d
            if not lo < nxt < hi:
                nxt = 0.5 * (lo + hi)
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 2.0 * _EPS * abs(nxt):
            x = nxt
            break
        x = nxt
    else:
        raise ValueError(f"no convergence inverting p={target!r} in 200 steps")
    return x


def quantile(spec: DistributionSpec, p: float) -> float:
    """Inverse CDF: the x with cdf(spec, x) = p, for p in (0, 1).

    ``_invert`` drives the residual |cdf(x) - p| to 8e-16 p: relative
    precision below p = 1/2, about 1e-15 absolute above it (so the relative
    error grows as 1 - p shrinks).  Raises ValueError if it cannot.
    """
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if spec.kind is Family.NORMAL or spec.kind is Family.STUDENT_T:
        lo, hi = -2.0, 2.0
    else:
        lo, hi = 0.0, float(spec.dof1) if spec.kind is Family.CHI_SQUARED else 4.0
    return _invert(lambda x: cdf(spec, x), lambda x: pdf(spec, x), p, lo, hi)


def z_alpha(alpha: float, tails: Tails) -> float:
    """Normal critical value: mass alpha/2 per tail (TWO) or alpha in one (ONE)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return quantile(normal(), 1.0 - alpha / tails.value)


# ---------------------------------------------------------------------------
# Log-scale interval radii for the variance tests
# ---------------------------------------------------------------------------


def _log_scale(dist: DistributionSpec, n: int, alpha: float) -> float:
    # The scale s of a log-scale radius: n for chi-squared with n - 1 dof,
    # 1 for F with first dof n - 1.
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    if dist.kind is not Family.CHI_SQUARED and dist.kind is not Family.FISHER_F:
        raise ValueError(f"log-scale radius undefined for {dist.kind.value}")
    if n < 2 or dist.dof1 != n - 1:
        raise ValueError(f"expected {dist.kind.value} with first dof {n - 1} for n={n}")
    return float(n) if dist.kind is Family.CHI_SQUARED else 1.0


def symmetric_log_interval_eta(dist: DistributionSpec, n: int, alpha: float) -> float:
    """Radius eta with mass 1 - alpha on [s*e^(-2 eta), s*e^(2 eta)].

    For a chi-squared dist the interval is scaled by s = n (and dist must
    be chi-squared with n - 1 dof); for Fisher-F the scale is s = 1 and n
    must match dof1 + 1.  The map eta -> interval mass is strictly
    increasing from 0 to 1, with derivative
    2s (e^(2 eta) f(s e^(2 eta)) + e^(-2 eta) f(s e^(-2 eta))) for the
    density f, and :func:`quantile`'s Newton solve drives its residual
    to about 1e-15.
    """
    s = _log_scale(dist, n, alpha)

    def mass(eta: float) -> float:
        return cdf(dist, s * math.exp(2.0 * eta)) - cdf(dist, s * math.exp(-2.0 * eta))

    def slope(eta: float) -> float:
        up, down = s * math.exp(2.0 * eta), s * math.exp(-2.0 * eta)
        return 2.0 * (up * pdf(dist, up) + down * pdf(dist, down))

    return _invert(mass, slope, 1.0 - alpha, 0.0, 0.5)


def upper_tail_log_eta(dist: DistributionSpec, n: int, alpha: float) -> float:
    """Radius eta' with upper-tail mass alpha beyond s*e^(2 eta').

    Scale s as in :func:`symmetric_log_interval_eta`.  Equivalent to half
    the log of the upper-alpha quantile over s, so the quantile inversion
    does the work.  The result is positive for the small alpha these
    tests use; for large alpha the defining equation's (negative) root is
    returned as-is.
    """
    s = _log_scale(dist, n, alpha)
    return 0.5 * math.log(quantile(dist, 1.0 - alpha) / s)
