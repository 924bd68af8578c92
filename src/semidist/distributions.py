"""Special-function numerics for the four sampling distributions.

Densities, CDFs and quantiles for the standard normal, chi-squared,
Student-t and Fisher-F families, plus the log-scale interval and tail
radii that the variance tests calibrate against.

Everything here is computed from scratch: regularized incomplete gamma
(series + continued fraction) backs chi-squared, and regularized
incomplete beta (continued fraction) backs t and F; each law has an upper
tail, ``_sf``, beside its CDF, and one log density, ``_log_pdf``, whose exp
is ``pdf``.  One safeguarded Newton inversion, ``_invert``, solves every
quantile and radius on a tail mass, never on 1 - mass: a lower tail, an
upper tail, or the two tails outside a log interval, each with its slope in
logs, so a step exists where the density underflows.  Each solve starts
next to its root, from a closed form: a rational normal quantile
(Abramowitz & Stegun 26.2.23), Hill's t quantile (CACM Algorithm 396),
Wilson & Hilferty's chi-squared, Paulson's cube-root F, the lower-tail
asymptotes of the incomplete gamma and beta, and for the log radius the
normal approximation of log chi-squared and log F.  All functions are pure
and reentrant.
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

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)
_EPS = 1e-16
_TINY = 1e-300
_MAX_ITER = 600
_MAX_STEPS = 100_000


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


def _steps(what: str, x: float, *shapes: float) -> int:
    """The step cap of a series or continued fraction at ``x`` with shape
    parameters ``shapes`` (a, or a and b).  Near x = a the incomplete gamma
    series needs about 8 sqrt(a) terms (580 at a = 5000, 5,493 at a = 5e5);
    the continued fractions need fewer.  A shape whose cap would pass
    ``_MAX_STEPS`` (near a = 1e8) is refused before the loop: the loop could
    run for seconds, and the prefactor exp(a log x - x - lgamma(a)) has lost
    about a log(a) 1e-16 to rounding there (2e-7 at a = 1e8, 0.2 at 5e13)."""
    cap = _MAX_ITER + int(10.0 * math.sqrt(max(shapes)))
    if cap > _MAX_STEPS:
        raise _unconverged(what, "is out of reach", **dict(zip("ab", shapes)), x=x)
    return cap


def _unconverged(what: str, why: str = "did not converge", **params: float) -> ValueError:
    named = ", ".join(f"{name}={value!r}" for name, value in params.items())
    return ValueError(f"{what} {why} for {named}")


def _gamma_series(a: float, x: float, steps: int) -> float:
    # Lower series, converges for x < a + 1.
    ap = a
    total = 1.0 / a
    term = total
    for _ in range(steps):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    else:
        raise _unconverged("incomplete gamma series", a=a, x=x)
    return total


def _gamma_cf(a: float, x: float, steps: int) -> float:
    # Upper-tail continued fraction (modified Lentz), converges for x >= a + 1.
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, steps + 1):
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
    else:
        raise _unconverged("incomplete gamma continued fraction", a=a, x=x)
    return h


def _gamma_tails(a: float, x: float) -> tuple[float, float]:
    """Regularized incomplete gammas (P(a, x), Q(a, x)) for x > 0: the
    series gives P below x = a + 1 and the continued fraction Q above, each
    times the prefactor x^a e^-x / Gamma(a); the other is its complement.
    Where the prefactor underflows to 0 that tail is exactly 0, the product
    the expansion gives wherever it converges, so the expansion is not run:
    from x near 1e32 the fraction's factors round to 1 - 2^-53, and never
    meet its stop.  The shape's step cap is checked first all the same."""
    lower = x < a + 1.0
    what = "incomplete gamma series" if lower else "incomplete gamma continued fraction"
    steps = _steps(what, x, a)
    front = math.exp(-x + a * math.log(x) - math.lgamma(a))
    tail = (_gamma_series if lower else _gamma_cf)(a, x, steps) * front if front else 0.0
    return (tail, 1.0 - tail) if lower else (1.0 - tail, tail)


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
    for m in range(1, _steps("incomplete beta continued fraction", x, a, b) + 1):
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
    else:
        raise _unconverged("incomplete beta continued fraction", a=a, b=b, x=x)
    return h


def _beta_inc(a: float, b: float, x: float, xc: float) -> float:
    """Regularized incomplete beta I_x(a, b).

    ``xc`` is 1 - x; every argument is a ratio u/(u+v), and its caller
    passes the complement v/(u+v) directly, which keeps the far tails
    accurate where the subtraction 1 - x would cancel.
    """
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


def _log_pdf(spec: DistributionSpec, x: float) -> float:
    """The log of the density of ``spec`` at x (x > 0 for chi-squared and
    F).  The t and F forms stay finite where x^2 or d1 x overflows, so a
    solve's slope in logs has a value where the density underflows."""
    if spec.kind is Family.NORMAL:
        return -0.5 * x * x - _LOG_SQRT_2PI
    if spec.kind is Family.CHI_SQUARED:
        # x^(k/2-1) e^(-x/2) / (2^(k/2) Gamma(k/2))
        half = 0.5 * spec.dof1
        return (half - 1.0) * math.log(x) - 0.5 * x - half * math.log(2.0) - math.lgamma(half)
    if spec.kind is Family.STUDENT_T:
        k = spec.dof1
        front = math.lgamma(0.5 * (k + 1)) - math.lgamma(0.5 * k) - 0.5 * math.log(k * math.pi)
        return front - 0.5 * (k + 1) * _log1p_product(abs(x), abs(x), k)
    d1, d2 = spec.dof1, spec.dof2
    front = math.lgamma(0.5 * (d1 + d2)) - math.lgamma(0.5 * d1) - math.lgamma(0.5 * d2)
    front = front + 0.5 * d1 * math.log(d1 / d2) + (0.5 * d1 - 1.0) * math.log(x)
    return front - 0.5 * (d1 + d2) * _log1p_product(d1, x, d2)


def _log1p_product(u: float, v: float, k: float) -> float:
    """log(1 + u v / k) for u, v >= 0 and k >= 1; where u v overflows, the
    1 is below its rounding and the log is taken factor by factor."""
    w = u * v
    return math.log1p(w / k) if w < math.inf else math.log(u) + math.log(v) - math.log(k)


def _log_sum(*logs: float) -> float:
    """log(sum(exp(t) for t in logs)), where each exp may underflow."""
    top = max(logs)
    return top + math.log(sum(math.exp(t - top) for t in logs))


def pdf(spec: DistributionSpec, x: float) -> float:
    """Density of ``spec`` at ``x``: the exp of its log density, which the
    solves use as their slope.

    Raises ValueError for x outside the support (chi-squared and F
    require x > 0).
    """
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if x <= 0.0 and spec.kind in (Family.CHI_SQUARED, Family.FISHER_F):
        raise ValueError(f"{spec.kind.value} density requires x > 0, got {x!r}")
    return math.exp(_log_pdf(spec, x))


def cdf(spec: DistributionSpec, x: float) -> float:
    """P(X <= x) for ``spec``; nondecreasing in x with limits 0 and 1."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x!r}")
    if spec.kind is Family.NORMAL:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))
    if spec.kind is Family.CHI_SQUARED:
        if x <= 0.0:
            return 0.0
        return _gamma_tails(0.5 * spec.dof1, 0.5 * x)[0]
    if spec.kind is Family.STUDENT_T:
        tail = _t_tail(spec.dof1, x)
        return 1.0 - tail if x > 0.0 else tail
    d1, d2 = spec.dof1, spec.dof2
    if x <= 0.0:
        return 0.0
    u = d1 * x
    return _beta_inc(0.5 * d1, 0.5 * d2, u / (u + d2), d2 / (u + d2))


def _sf(spec: DistributionSpec, x: float) -> float:
    """P(X > x) for ``spec``, with the relative precision of its own tail
    rather than that of 1 - cdf(spec, x)."""
    if spec.kind is Family.NORMAL or spec.kind is Family.STUDENT_T:
        return cdf(spec, -x)
    if x <= 0.0:
        return 1.0
    if spec.kind is Family.FISHER_F:
        u, d2 = spec.dof1 * x, spec.dof2
        # Where d1 x overflows, d2 / (d1 x) is the argument to rounding.
        w, wc = (d2 / (u + d2), u / (u + d2)) if u < math.inf else (d2 / spec.dof1 / x, 1.0)
        return _beta_inc(0.5 * d2, 0.5 * spec.dof1, w, wc)
    return _gamma_tails(0.5 * spec.dof1, 0.5 * x)[1]


def _t_tail(k: int, x: float) -> float:
    """P(T > |x|) for Student t with k dof: I_z(k/2, 1/2) / 2 at
    z = k/(k + x^2) = r^2/(1 + r^2), r = sqrt(k)/|x|.  At x = +-0, z is 1
    and ``_beta_inc`` returns 1 before any loop, so the tail is exactly 1/2.

    Where x^2 overflows, z < k * 5.6e-309, and z^(k/2)/(k B(k/2, 1/2)), the
    leading term of I_z(k/2, 1/2) / 2 with relative error O(z), is exact; it
    is taken in logs, as it may underflow.  A k so large that z is not
    negligible there is refused."""
    xx = x * x
    if xx < math.inf:
        return 0.5 * _beta_inc(0.5 * k, 0.5, k / (k + xx), xx / (k + xx))
    log_r = 0.5 * math.log(k) - math.log(abs(x))
    if log_r > -20.0:
        raise ValueError(f"Student t tail with {k} dof out of reach at x={x!r}")
    log_z = 2.0 * log_r - math.log1p(math.exp(2.0 * log_r))
    return math.exp(
        0.5 * k * log_z
        + math.lgamma(0.5 * (k + 1))
        - math.lgamma(0.5 * k)
        - 0.5 * math.log(math.pi)
        - math.log(k)
    )


# ---------------------------------------------------------------------------
# Inversion
# ---------------------------------------------------------------------------


def _invert(
    f, log_slope, target: float, x: float, lo: float = -math.inf, hi: float = math.inf
) -> float:
    """The x in (lo, hi) with f(x) = target, for a tail mass f nondecreasing
    from 0 at ``lo``, with derivative exp(log_slope), from the start x.  An
    upper tail, falling in its variable, is passed as a function of y = -x.

    Each evaluation of f shrinks the bracket (lo, hi), whose ends may start
    infinite.  The steps are Newton's on log f: in a far tail, where f is
    near exponential or a power, they converge quadratically where Newton on
    f moves by a fixed fraction.  f / f' is taken as exp(log f - log f'),
    the slope in logs as DiDonato & Morris (ACM TOMS 1992, Algorithm 708)
    take the incomplete beta's prefactor, so there is a step wherever f > 0,
    also where f' underflows (the t(3) density at its 1e-250 quantile).  A
    step that leaves the bracket goes to its midpoint instead, or, where f
    is 0 and the upper end infinite, out by max(|x|, 1): the lower tails of
    chi-squared(1000) below p = 1e-304 and of F(1000, d2) below about 1e-164
    underflow at their starts.  The stop is a residual within 8e-16 *
    target, or within 1e-9 * target with a Newton step in the bracket: from
    a relative residual r, Newton on log f leaves about K r^2, K =
    |(log f)''| / (2 (log f)'^2) being at most about 1 in these laws'
    tails.  x then takes that step without evaluating f.  A step within
    4e-16 * |x| stops too; ValueError if nothing stops in 200 steps.  Each
    point it evaluates f at, and the root, is a double: a step past the
    largest one raises OverflowError, which the caller names.
    """
    for _ in range(200):
        fx = f(_double(x))
        if fx > target:
            hi = x
        else:
            lo = x
        nxt = math.nan
        if fx > 0.0:
            nxt = x - math.log(fx / target) * math.exp(math.log(fx) - log_slope(x))
        newton = lo <= nxt <= hi
        if abs(fx - target) <= (1e-9 if newton else 8.0 * _EPS) * target:
            # Converged; the last Newton step costs no evaluation of f.
            return _double(nxt) if newton else x
        if lo < nxt < hi or abs(nxt - x) <= 4.0 * _EPS * abs(nxt):
            pass  # a Newton step, or one that converges without moving x
        elif hi == math.inf:
            nxt = x + max(abs(x), 1.0)
        else:
            nxt = 0.5 * (lo + hi)
        if abs(nxt - x) <= 4.0 * _EPS * abs(nxt):
            return _double(nxt)
        x = nxt
    raise ValueError(f"no convergence inverting p={target!r} in 200 steps")


def _double(x: float) -> float:
    """``x``, a point a solve evaluates or returns, if it is finite; else
    OverflowError."""
    if abs(x) < math.inf:
        return x
    raise OverflowError(f"a solve stepped to {x!r}")


def _beyond_float64(spec: DistributionSpec, what: str, end: str = "overflows") -> ValueError:
    """The refusal of a point of ``spec`` that leaves float64: ``what``
    names the point and its level, ``end`` the side it leaves by."""
    dofs = ", ".join(str(d) for d in (spec.dof1, spec.dof2) if d is not None)
    return ValueError(f"the {spec.kind.value}({dofs}) {what} {end} float64")


def _normal_start(p: float) -> float:
    """The normal quantile at p <= 1/2 to within 4.5e-4 (Abramowitz & Stegun 26.2.23)."""
    t = math.sqrt(-2.0 * math.log(p))
    x = t - (2.515517 + (0.802853 + 0.010328 * t) * t) / (
        1.0 + (1.432788 + (0.189269 + 0.001308 * t) * t) * t
    )
    return -x


def _t_start(p: float, k: int) -> float:
    """The t quantile at p <= 1/2 by Hill's approximation (CACM Algorithm
    396, 1970), which is exact for k <= 2."""
    q = 2.0 * p  # the two-tailed probability
    if k == 1:
        x = 1.0 / math.tan(0.5 * math.pi * q)
    elif k == 2:
        x = (1.0 - q) / math.sqrt(q * (1.0 - 0.5 * q))  # finite where 1 / q overflows
    else:
        a = 1.0 / (k - 0.5)
        b = 48.0 / (a * a)
        c = ((20700.0 * a / b - 98.0) * a - 16.0) * a + 96.36
        d = ((94.5 / (b + c) - 3.0) / b + 1.0) * math.sqrt(0.5 * math.pi * a) * k
        y = (d * q) ** (2.0 / k)
        if y > 0.05 + a:
            # An expansion about the normal quantile.
            z = _normal_start(0.5 * q)
            y = z * z
            if k < 5:
                c += 0.3 * (k - 4.5) * (z + 0.6)
            c += (((0.05 * d * z - 5.0) * z - 7.0) * z - 2.0) * z + b
            y = (((((0.4 * y + 6.3) * y + 36.0) * y + 94.5) / c - y - 3.0) / b + 1.0) * z
            y = math.expm1(a * y * y)
        else:
            # The far tail.
            y = (
                (1.0 / (((k + 6.0) / (k * y) - 0.089 * d - 0.822) * (k + 2.0) * 3.0)
                 + 0.5 / (k + 4.0)) * y - 1.0
            ) * (k + 1.0) / (k + 2.0) + 1.0 / y
        x = math.sqrt(k * y)
    return -x


def _chi2_start(z: float, log_p: float, k: int) -> float:
    """The chi-squared quantile at the lower mass p = e^log_p, whose normal
    quantile is z, by Wilson & Hilferty (1931), or, where larger, by the
    lower-tail bound P(k/2, x/2) <= (x/2)^(k/2) / Gamma(k/2 + 1)."""
    h = 2.0 / (9.0 * k)
    cube = k * (1.0 - h + z * math.sqrt(h)) ** 3
    return max(cube, 2.0 * math.exp((log_p + math.lgamma(0.5 * k + 1.0)) * 2.0 / k))


def _f_start(p: float, d1: int, d2: int) -> float:
    """The F quantile at p <= 1/2 by Paulson's cube-root approximation
    (1942), or, where that has no root, by the lower tail
    I_u(a, b) ~ u^a / (a B(a, b)) of the incomplete beta."""
    z = _normal_start(p)
    h1, h2 = 2.0 / (9.0 * d1), 2.0 / (9.0 * d2)
    a1, a2 = 1.0 - h1, 1.0 - h2
    disc = a2 * a2 * h1 + a1 * a1 * h2 - z * z * h1 * h2
    if disc > 0.0:
        # The root w = x^(1/3) of (a2 w - a1)^2 = z^2 (h2 w^2 + h1) on the
        # side of z, in the form that does not cancel for z <= 0.
        num, den = a1 * a1 - z * z * h1, a1 * a2 - z * math.sqrt(disc)
        if num > 0.0 and den > 0.0:
            return (num / den) ** 3
    a, b = 0.5 * d1, 0.5 * d2
    # log p + log a, not log(p a), which is log 0 at p = 5e-324 and d1 = 1.
    log_pa = math.log(p) + math.log(a)
    u = math.exp((log_pa + math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)) / a)
    return d2 * u / (d1 * (1.0 - u)) if u < 1.0 else 1.0


def _level(name: str, value: float) -> float:
    """``value``, a probability level named ``name`` (alpha, gamma, p), if
    it lies in (0, 1); the one check of every level, so each refusal reads
    the same.  NaN is refused too."""
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie in (0, 1), got {value!r}")
    return value


def _per_tail(alpha: float, tails: float) -> float:
    """The mass a level alpha leaves in each of ``tails`` (1 or 2) tails;
    the one place a two-sided level is halved, so a level whose half
    underflows to 0 (alpha = 5e-324) is refused here, by name."""
    mass = _level("alpha", alpha) / tails
    if mass == 0.0:
        raise ValueError(
            f"alpha={alpha!r} is too small for double precision: alpha / 2 underflows to 0"
        )
    return mass


def _solve(spec: DistributionSpec, q: float, upper: bool = False) -> float:
    """The x with P(X <= x) = q, or with ``upper`` P(X > x) = q, by
    ``_invert`` from a closed-form start; an upper start is the reflected
    lower one for z and t, and one over the lower one of F(d2, d1) for F.
    A start whose lower-tail asymptote is below the smallest double, where
    the quantile lies too, is refused, as is a start or a step beyond the
    largest double (the t quantile at p=1e-310 is about -1/(pi p))."""
    if q > 0.5:
        return _solve(spec, 1.0 - q, not upper)  # the smaller tail; 1 - q is exact
    z, lo = _normal_start(q), 0.0
    if spec.kind is Family.CHI_SQUARED:
        k = spec.dof1
        x = _chi2_start(-z, math.log1p(-q), k) if upper else _chi2_start(z, math.log(q), k)
    elif upper and spec.kind is Family.FISHER_F:
        w = _f_start(q, spec.dof2, spec.dof1)
        x = 1.0 / w if w > 0.0 else math.inf
    elif spec.kind is Family.FISHER_F:
        x = _f_start(q, spec.dof1, spec.dof2)
    else:
        x, lo = z if spec.kind is Family.NORMAL else _t_start(q, spec.dof1), -math.inf
        x = -x if upper else x
    if lo == 0.0 and x <= 0.0:
        raise _beyond_float64(spec, f"quantile at p={q!r}", "underflows")
    try:
        if upper:
            return -_invert(lambda y: _sf(spec, -y), lambda y: _log_pdf(spec, -y), q, -x, hi=-lo)
        return _invert(lambda x: cdf(spec, x), lambda x: _log_pdf(spec, x), q, x, lo)
    except OverflowError:
        raise _beyond_float64(spec, f"quantile at p={'1 - ' if upper else ''}{q!r}") from None


def quantile(spec: DistributionSpec, p: float) -> float:
    """Inverse CDF: the x with cdf(spec, x) = p, for p in (0, 1).

    Above p = 1/2 it is the x whose upper tail is 1 - p, which is exact
    there.  Each tail is solved on its own mass to the rounding of that
    mass, so the quantile has relative precision at either end.  Raises
    ValueError if it cannot.
    """
    return _solve(spec, _level("p", p))


def z_alpha(alpha: float, tails: Tails) -> float:
    """Normal critical value: mass alpha/2 per tail (TWO) or alpha in one (ONE)."""
    return _solve(normal(), _per_tail(alpha, tails.value), upper=True)


# ---------------------------------------------------------------------------
# Log-scale interval radii for the variance tests
# ---------------------------------------------------------------------------


def _log_scale(dist: DistributionSpec) -> float:
    """The scale s of a log-scale radius on ``dist``: k + 1 for
    chi-squared(k), the law of n sigma_bar^2 / sigma^2 with n = k + 1, and
    1 for F, the law of a ratio of sample variances."""
    if dist.kind is Family.CHI_SQUARED:
        return float(dist.dof1 + 1)
    if dist.kind is Family.FISHER_F:
        return 1.0
    raise ValueError(f"log-scale radius undefined for {dist.kind.value}")


def symmetric_log_interval_eta(dist: DistributionSpec, alpha: float) -> float:
    """Radius eta with mass 1 - alpha on [s*e^(-2 eta), s*e^(2 eta)].

    The scale s is read from the law: k + 1 for chi-squared(k), 1 for F.
    The mass outside, the sum of the two tails, falls strictly from 1 to 0
    as eta grows, with derivative -2s (e^(2 eta) f(s e^(2 eta)) +
    e^(-2 eta) f(s e^(-2 eta))) for the density f; ``_invert`` solves it
    for alpha in y = -eta.  A level whose solve takes the upper end past the
    largest double is refused: for chi-squared(1) every alpha below 1.2e-154,
    as its lower tail near 0, sqrt(2x / pi), puts that end at 2.5 / alpha^2.
    """
    s = _log_scale(dist)
    log_s = math.log(s)
    half = _per_tail(alpha, 2.0)

    def ends(y: float) -> tuple[float, float]:
        # An upper end past the largest double raises OverflowError: math.exp's
        # own, or _double's where s times it rounds to inf.
        return s * math.exp(2.0 * y), _double(s * math.exp(-2.0 * y))

    def outside(y: float) -> float:
        down, up = ends(y)
        return cdf(dist, down) + _sf(dist, up)

    def log_slope(y: float) -> float:
        # log 2 + log(u f(u)) summed over the ends u = s e^(+-2y), log u from y.
        down, up = ends(y)
        return math.log(2.0) + _log_sum(
            log_s + 2.0 * y + _log_pdf(dist, down), log_s - 2.0 * y + _log_pdf(dist, up)
        )

    # Y = log(X / s) / 2 is near normal: log(chi-squared(k) / k) has mean
    # psi(k/2) - log(k/2) ~ -1/k - 1/(3k^2) and variance psi'(k/2) ~
    # 2/k + 2/k^2 + 4/(3k^3), and log F is a difference of two such logs.
    # For Y ~ N(mu, sd^2), P(|Y| <= eta) = 1 - alpha at eta ~ z sd (1 + mu^2 / (2 sd^2)).
    def moments(k):
        return -(1.0 + 1.0 / (3.0 * k)) / k, (2.0 + (2.0 + 4.0 / (3.0 * k)) / k) / k

    m1, v1 = moments(dist.dof1)
    if dist.kind is Family.FISHER_F:
        m2, v2 = moments(dist.dof2)
        mu, var = 0.5 * (m1 - m2), 0.25 * (v1 + v2)
    else:
        mu, var = 0.5 * (m1 + math.log(dist.dof1 / s)), 0.25 * v1
    start = _normal_start(half) * (math.sqrt(var) + 0.5 * mu * mu / math.sqrt(var))
    try:
        return -_invert(outside, log_slope, alpha, start, hi=0.0)
    except OverflowError:
        raise _beyond_float64(dist, f"log interval at alpha={alpha!r} has an upper end that") from None


def upper_tail_log_eta(dist: DistributionSpec, alpha: float) -> float:
    """Radius eta' with upper-tail mass alpha beyond s*e^(2 eta').

    Scale s as in :func:`symmetric_log_interval_eta`.  Equivalent to half
    the log of the point whose upper tail is alpha, over s, so the upper
    tail's solve does the work.  From alpha = P(X > s) up the root is not
    positive; ``framework._positive_radius`` refuses such a level.
    """
    s = _log_scale(dist)
    return 0.5 * math.log(_solve(dist, _level("alpha", alpha), upper=True) / s)
