"""Independent slow-path references for the test suite.

Nothing here shares arithmetic with the library: log-gamma is a local
Lanczos sum (the library leans on math.lgamma), CDFs come from adaptive
quadrature of locally written densities, and quantiles from plain
bisection on those quadrature CDFs (or, for upper quantiles, on the
quadrature upper tails).
"""

from __future__ import annotations

import math
from functools import lru_cache

from scipy.integrate import quad

from semidist.distributions import DistributionSpec, Family

_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


# The densities call it at every quadrature point with a few fixed shapes;
# cached, it is computed once per shape, to the same bits.
@lru_cache(maxsize=None)
def lanczos_lgamma(z: float) -> float:
    """Log-gamma for z > 0 by the Lanczos sum (g=7, n=9)."""
    if z <= 0.0:
        raise ValueError(f"need z > 0, got {z!r}")
    if z < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.log(math.pi / math.sin(math.pi * z)) - lanczos_lgamma(1.0 - z)
    z -= 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (z + 0.5) * math.log(t) - t + math.log(acc)


def normal_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)


def chi2_pdf(x: float, k: int) -> float:
    if x <= 0.0:
        return 0.0
    half = 0.5 * k
    return math.exp(
        (half - 1.0) * math.log(x)
        - 0.5 * x
        - half * math.log(2.0)
        - lanczos_lgamma(half)
    )


def t_pdf(x: float, k: int) -> float:
    return math.exp(
        lanczos_lgamma(0.5 * (k + 1))
        - lanczos_lgamma(0.5 * k)
        - 0.5 * math.log(k * math.pi)
        - 0.5 * (k + 1) * math.log1p(x * x / k)
    )


def f_pdf(x: float, d1: int, d2: int) -> float:
    if x <= 0.0:
        return 0.0
    return math.exp(
        lanczos_lgamma(0.5 * (d1 + d2))
        - lanczos_lgamma(0.5 * d1)
        - lanczos_lgamma(0.5 * d2)
        + 0.5 * d1 * math.log(d1 / d2)
        + (0.5 * d1 - 1.0) * math.log(x)
        - 0.5 * (d1 + d2) * math.log1p(d1 * x / d2)
    )


def oracle_pdf(spec: DistributionSpec, x: float) -> float:
    if spec.kind is Family.NORMAL:
        return normal_pdf(x)
    if spec.kind is Family.CHI_SQUARED:
        return chi2_pdf(x, spec.dof1)
    if spec.kind is Family.STUDENT_T:
        return t_pdf(x, spec.dof1)
    return f_pdf(x, spec.dof1, spec.dof2)


def _quad(f, lo, hi) -> float:
    value, _ = quad(f, lo, hi, epsabs=1e-13, epsrel=1e-13, limit=400)
    return value


def oracle_cdf(spec: DistributionSpec, x: float) -> float:
    """CDF by adaptive quadrature (sqrt substitution tames the origin
    singularity of chi-squared/F with one degree of freedom; fat tails
    integrate from the far side)."""
    if spec.kind is Family.NORMAL:
        if x >= 0.0:
            return 0.5 + _quad(normal_pdf, 0.0, x)
        return 0.5 - _quad(normal_pdf, 0.0, -x)
    if spec.kind is Family.STUDENT_T:
        k = spec.dof1
        if x == 0.0:
            return 0.5
        tail = _quad(lambda u: t_pdf(u, k), abs(x), math.inf)
        return 1.0 - tail if x > 0.0 else tail
    if spec.kind is Family.CHI_SQUARED:
        k = spec.dof1
        if x <= 0.0:
            return 0.0
        if x <= k + 10.0:
            return _quad(lambda u: 2.0 * u * chi2_pdf(u * u, k), 0.0, math.sqrt(x))
        return 1.0 - _quad(lambda u: chi2_pdf(u, k), x, math.inf)
    d1, d2 = spec.dof1, spec.dof2
    if x <= 0.0:
        return 0.0
    if x <= 4.0:
        return _quad(lambda u: 2.0 * u * f_pdf(u * u, d1, d2), 0.0, math.sqrt(x))
    return 1.0 - _quad(lambda u: f_pdf(u, d1, d2), x, math.inf)


def oracle_sf(spec: DistributionSpec, x: float) -> float:
    """P(X > x) by adaptive quadrature of the density from x to infinity,
    the far-side integral of ``oracle_cdf`` without its ``1 -``, to a
    relative tolerance alone (the tail may be far below 1e-13)."""
    if spec.kind in (Family.CHI_SQUARED, Family.FISHER_F) and x <= 0.0:
        return 1.0
    value, _ = quad(lambda u: oracle_pdf(spec, u), x, math.inf, epsabs=0.0, epsrel=1e-13, limit=400)
    return value


def oracle_upper_quantile(spec: DistributionSpec, q: float) -> float:
    """The x with upper tail q < 1/2, by bisection on ``oracle_sf``."""
    if not 0.0 < q < 0.5:
        raise ValueError(f"q must lie in (0, 1/2), got {q!r}")
    lo, hi = 0.0, 1.0
    while oracle_sf(spec, hi) > q:
        lo, hi = hi, 2.0 * hi
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if oracle_sf(spec, mid) > q:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 8.0 * math.ulp(hi):
            break
    return 0.5 * (lo + hi)


def oracle_quantile(spec: DistributionSpec, p: float) -> float:
    """Quantile by bisection on the quadrature CDF."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p!r}")
    if spec.kind in (Family.NORMAL, Family.STUDENT_T):
        lo, hi = -2.0, 2.0
        while oracle_cdf(spec, hi) < p:
            hi *= 2.0
        while oracle_cdf(spec, lo) > p:
            lo *= 2.0
    else:
        lo, hi = 0.0, 4.0
        while oracle_cdf(spec, hi) < p:
            hi *= 2.0
    for _ in range(110):
        mid = 0.5 * (lo + hi)
        if oracle_cdf(spec, mid) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 8.0 * math.ulp(max(1.0, abs(hi))):
            break
    return 0.5 * (lo + hi)


def oracle_symmetric_log_eta(spec: DistributionSpec, n: int, alpha: float) -> float:
    """Bisection for the symmetric log-interval radius on the quadrature CDF."""
    scale = float(n) if spec.kind is Family.CHI_SQUARED else 1.0
    target = 1.0 - alpha

    def mass(eta: float) -> float:
        return oracle_cdf(spec, scale * math.exp(2.0 * eta)) - oracle_cdf(
            spec, scale * math.exp(-2.0 * eta)
        )

    lo, hi = 0.0, 0.5
    while mass(hi) < target:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mass(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
