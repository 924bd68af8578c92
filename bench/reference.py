"""Independent references for the oneshot outputs, built on scipy.stats.

The critical value eta of every catalog entry is recomputed from scipy's
survival functions (``isf``), or, for the two-sided log-interval radii of
the variance entries, by solving the mass equation
``sf(s e^(2 eta)) + cdf(s e^(-2 eta)) = alpha`` with Brent's method.
Statistics and interval endpoints are recomputed with numpy from the
data the benchmark generated.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache

import numpy as np
from scipy import optimize, stats

from workloads import Call, base, is_upper, null_value

# Relative tolerance on eta.  The seed's worst error on the oneshot grid is
# about 5e-9 (alpha = 1e-8); see the README for the measured figure.
ETA_RTOL = 1e-7
# Relative tolerance on estimates and statistics, which involve no solve.
STAT_RTOL = 1e-10


@lru_cache(maxsize=None)
def eta_reference(entry: str, n: int, m: int | None, alpha: float, sd1: float, sd2: float) -> float:
    b, tail = base(entry), (alpha if is_upper(entry) else alpha / 2.0)
    if b == "mean-z":
        return sd1 / math.sqrt(n) * stats.norm.isf(tail)
    if b == "diff-means":
        return math.sqrt(sd1**2 / n + sd2**2 / m) * stats.norm.isf(tail)
    if b == "mean-t":
        return stats.t.isf(tail, n - 1)
    law, scale = (stats.chi2(n - 1), float(n)) if b == "var" else (stats.f(n - 1, m - 1), 1.0)
    if is_upper(entry):
        return 0.5 * math.log(law.isf(alpha) / scale)

    def excess(eta):
        return law.sf(scale * math.exp(2.0 * eta)) + law.cdf(scale * math.exp(-2.0 * eta)) - alpha

    hi = 1.0
    while excess(hi) > 0.0:
        hi *= 2.0
    return optimize.brentq(excess, 0.0, hi, xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500)


def _estimate(entry: str, x: np.ndarray, y: np.ndarray | None) -> float:
    b = base(entry)
    if b in ("mean-z", "mean-t"):
        return float(np.mean(x))
    if b == "diff-means":
        return float(np.mean(x) - np.mean(y))
    if b == "var":
        return float(np.std(x))
    return float(np.std(x, ddof=1) / np.std(y, ddof=1))


def _scale(entry: str, x: np.ndarray) -> float:
    """Data scale of the studentized entries; 1 for the others."""
    return float(np.std(x, ddof=1) / math.sqrt(len(x))) if base(entry) == "mean-t" else 1.0


def _log_scale(entry: str) -> bool:
    return base(entry) in ("var", "var-ratio")


def _statistic(entry: str, e: float, null: float, scale: float) -> float:
    if _log_scale(entry):
        e, null = math.log(e), math.log(null)
    d = max(e, null) - null if is_upper(entry) else abs(e - null)
    return d / scale


def _close(got, want, atol) -> bool:
    return got is not None and abs(got - want) <= atol


def check_call(call: Call, code: int, out: str) -> tuple[str | None, float | None]:
    """Check one CLI call's JSON payload.  Returns (failure or None, the
    relative error of the reported radius for ``test`` calls)."""
    if code != 0:
        return f"{call.argv}: exit code {code}", None
    try:
        payload = json.loads(out)
    except json.JSONDecodeError:
        return f"{call.argv}: not JSON: {out!r}", None
    data = call.data
    m = None if data.y is None else len(data.y)
    eta = eta_reference(call.entry, call.n, m, call.alpha, data.sd1, data.sd2)
    e = _estimate(call.entry, data.x, data.y)
    scale = _scale(call.entry, data.x)
    if call.command == "test":
        got_eta, stat = payload.get("eta"), payload.get("statistic")
        if got_eta is None or stat is None:
            return f"{call.argv}: missing eta or statistic: {payload}", None
        err = abs(got_eta - eta) / eta
        if err > ETA_RTOL:
            return f"{call.argv}: eta {got_eta!r}, reference {eta!r}", err
        want = _statistic(call.entry, e, null_value(call.entry), scale)
        if not _close(stat, want, STAT_RTOL * max(1.0, abs(want))):
            return f"{call.argv}: statistic {stat!r}, reference {want!r}", err
        if abs(stat - got_eta) > 1e-9 * got_eta and payload.get("reject") != (stat >= got_eta):
            return f"{call.argv}: reject {payload.get('reject')} disagrees with statistic and eta", err
        return None, err
    got_e, lo, hi = payload.get("estimator"), payload.get("lo"), payload.get("hi")
    if not _close(got_e, e, STAT_RTOL * max(1.0, abs(e))):
        return f"{call.argv}: estimate {got_e!r}, reference {e!r}", None
    if _log_scale(call.entry):
        want_lo, want_hi, width = got_e * math.exp(-eta), got_e * math.exp(eta), got_e * eta
    else:
        want_lo, want_hi, width = got_e - scale * eta, got_e + scale * eta, scale * eta
    atol = STAT_RTOL * abs(got_e) + ETA_RTOL * width
    if not _close(lo, want_lo, atol):
        return f"{call.argv}: lo {lo!r}, reference {want_lo!r}", None
    if is_upper(call.entry):
        if hi is not None:
            return f"{call.argv}: one-sided interval has finite hi {hi!r}", None
    elif not _close(hi, want_hi, atol):
        return f"{call.argv}: hi {hi!r}, reference {want_hi!r}", None
    return None, None
