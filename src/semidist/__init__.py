"""Confidence intervals and hypothesis tests as two sides of one
semi-distance construction on the normal model, with exact special-function
numerics and a Monte Carlo coverage/size harness.

``import semidist`` loads ``distributions``, ``framework`` and
``measurement``.  ``montecarlo`` and ``inference``, which no ``test`` or
``ci`` call runs, load on first use: the first access to either module or
to one of the names below that it exports, including through
``from semidist import ...`` and ``from semidist import *``."""

from .distributions import (
    DistributionSpec,
    Family,
    Tails,
    cdf,
    chi_squared,
    fisher_f,
    normal,
    pdf,
    quantile,
    student_t,
    symmetric_log_interval_eta,
    upper_tail_log_eta,
    z_alpha,
)
from .framework import (
    ConfidenceRegion,
    Hypothesis,
    HypothesisKind,
    Region,
    SemiDistance,
    SemiDistanceKind,
    SureRegion,
    TestProblem,
    TestResult,
    confidence_region,
    estimate,
    eta_alpha,
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
from .measurement import (
    Sample,
    State,
    TwoSampleState,
    image_prob_mean,
    image_prob_ss,
    mu_bar,
    normal_prob,
    sample,
    sigma_bar,
    sigma_bar_prime,
    ss_bar,
    stream,
)

__version__ = "0.1.0"

# The module of each name that loads on first use.
_LAZY = {
    "montecarlo": "montecarlo",
    "ExperimentPlan": "montecarlo",
    "ExperimentReport": "montecarlo",
    "coverage_experiment": "montecarlo",
    "power_curve": "montecarlo",
    "size_experiment": "montecarlo",
    "inference": "inference",
    "LikelihoodValue": "inference",
    "ParameterRegion": "inference",
    "lrt_lambda": "inference",
    "lrt_region": "inference",
    "mle_normal": "inference",
    "normalized_likelihood": "inference",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_LAZY[name]}")
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__all__ = sorted({*(name for name in globals() if name[0] != "_"), *_LAZY})
