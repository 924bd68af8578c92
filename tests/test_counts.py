"""The one count rule, ``distributions._count``: every size, degree of
freedom, replication, seed and worker count the library takes is an
integer in its range, read as ``range`` reads it (an int or a numpy
integer), and anything else is refused with one ValueError that names the
count, its range and the value."""

import re

import numpy as np
import pytest

from semidist import framework
from semidist.distributions import DistributionSpec, Family, chi_squared, fisher_f, student_t
from semidist.framework import (
    CATALOG,
    Hypothesis,
    mean_diff_z,
    mean_diff_z_upper,
    mean_t,
    mean_t_upper,
    mean_z,
    mean_z_upper,
    variance,
    variance_ratio,
    variance_ratio_upper,
    variance_upper,
)
from semidist.measurement import (
    State,
    TwoSampleState,
    _std_block,
    image_prob_mean,
    image_prob_ss,
    sample,
    stream,
)
from semidist.montecarlo import ExperimentPlan, coverage_experiment, power_curve, size_experiment

_TWO = TwoSampleState(State(0.0, 1.0), State(1.0, 2.0))


def _plan(replications=20, seed=3):
    return ExperimentPlan(mean_z(5, 1.0), State(0.0, 1.0), 0.95, replications, seed)


def _size_plan():
    return ExperimentPlan(mean_z(5, 1.0), State(0.0, 1.0), 0.05, 20, 3, Hypothesis.point(0.0))


# (id, the count's name, its range as the refusal spells it, a call that
# passes the value as that count, an in-range value, out-of-range values).
# Each call returns what a numpy integer must leave as an int leaves it.
COUNTS = [
    ("chi_squared", "dof1", ">= 1", chi_squared, 4, [0]),
    ("student_t", "dof1", ">= 1", student_t, 4, [0]),
    ("fisher_f-dof1", "dof1", ">= 1", lambda v: fisher_f(v, 3), 4, [0]),
    ("fisher_f-dof2", "dof2", ">= 1", lambda v: fisher_f(3, v), 4, [-1]),
    ("DistributionSpec", "dof1", ">= 1", lambda v: DistributionSpec(Family.STUDENT_T, v), 4, [0]),
    ("mean_z", "n", ">= 1", lambda v: mean_z(v, 1.0), 4, [0]),
    ("mean_z_upper", "n", ">= 1", lambda v: mean_z_upper(v, 1.0), 4, [0]),
    ("variance", "n", ">= 1", variance, 4, [0]),
    ("variance_upper", "n", ">= 1", variance_upper, 4, [-2]),
    ("mean_diff_z-n", "n", ">= 1", lambda v: mean_diff_z(v, 3, 1.0, 1.0), 4, [0]),
    ("mean_diff_z-m", "m", ">= 1", lambda v: mean_diff_z(3, v, 1.0, 1.0), 4, [0]),
    ("mean_diff_z_upper-n", "n", ">= 1", lambda v: mean_diff_z_upper(v, 3, 1.0, 1.0), 4, [0]),
    ("mean_diff_z_upper-m", "m", ">= 1", lambda v: mean_diff_z_upper(3, v, 1.0, 1.0), 4, [0]),
    ("variance_ratio-n", "n", ">= 1", lambda v: variance_ratio(v, 3), 4, [0]),
    ("variance_ratio-m", "m", ">= 1", lambda v: variance_ratio(3, v), 4, [0]),
    ("variance_ratio_upper-n", "n", ">= 1", lambda v: variance_ratio_upper(v, 3), 4, [0]),
    ("variance_ratio_upper-m", "m", ">= 1", lambda v: variance_ratio_upper(3, v), 4, [0]),
    ("mean_t", "n", ">= 1", mean_t, 4, [0]),
    ("mean_t_upper", "n", ">= 1", mean_t_upper, 4, [0]),
    ("TestProblem-n", "n", ">= 1", lambda v: framework.TestProblem(*CATALOG["var-ratio"], v, 3), 4, [0]),
    ("TestProblem-m", "m", ">= 1", lambda v: framework.TestProblem(*CATALOG["var-ratio"], 3, v), 4, [0]),
    ("sample-n", "n", ">= 1", lambda v: sample(State(0.0, 1.0), v, seed=5), 4, [0]),
    ("sample-m", "m", ">= 1", lambda v: sample(_TWO, 3, v, seed=5), 4, [0]),
    ("stream-seed", "seed", ">= 0", lambda v: stream(v).bit_generator.random_raw(4).tobytes(), 4, [-1]),
    (
        "stream-replication", "replication", "in 0..2**64 - 1",
        lambda v: stream(7, v).bit_generator.random_raw(4).tobytes(), 4, [-1, 2**64],
    ),
    ("_std_block-start", "start", "in 0..2**64", lambda v: _std_block(1, 5, v, 9).tobytes(), 4, [-1]),
    ("_std_block-stop", "stop", "in 4..2**64", lambda v: _std_block(1, 5, 4, v).tobytes(), 9, [3, 2**64 + 1]),
    ("image_prob_mean", "n", ">= 1", lambda v: image_prob_mean(State(0.0, 1.0), v, (0.0, 1.0)), 4, [0]),
    ("image_prob_ss", "n", ">= 2", lambda v: image_prob_ss(State(0.0, 1.0), v, (1.0, 3.0)), 4, [1]),
    ("ExperimentPlan-replications", "replications", "in 1..2**64", _plan, 20, [0, 2**64 + 1]),
    ("ExperimentPlan-seed", "seed", ">= 0", lambda v: _plan(seed=v), 3, [-1]),
    ("coverage_experiment", "workers", ">= 1", lambda v: coverage_experiment(_plan(), workers=v), 1, [0]),
    ("size_experiment", "workers", ">= 1", lambda v: size_experiment(_size_plan(), workers=v), 1, [0]),
    (
        "power_curve", "workers", ">= 1",
        lambda v: power_curve(_size_plan(), [State(0.0, 1.0), State(1.0, 1.0)], workers=v), 1, [-1],
    ),
]

_REFUSALS = [
    pytest.param(call, f"{name} must be an integer {span}, got {bad!r}", bad, id=f"{ident}-{bad!r}")
    for ident, name, span, call, _, out in COUNTS
    for bad in (2.5, 2.0, "3", None, *out)
]


@pytest.mark.parametrize("call, message, bad", _REFUSALS)
def test_a_value_that_is_no_count_in_range_is_refused_by_name(call, message, bad):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(bad)


@pytest.mark.parametrize(
    "call, ok", [pytest.param(row[3], row[4], id=row[0]) for row in COUNTS]
)
def test_a_numpy_integer_count_is_read_as_its_int(call, ok):
    assert call(np.int64(ok)) == call(ok)


@pytest.mark.parametrize(
    "built, fields",
    [
        (fisher_f(np.int64(3), np.uint8(4)), ("dof1", "dof2")),
        (mean_diff_z(np.int32(3), np.int64(4), 1.0, 1.0), ("n", "m")),
        (_plan(np.uint64(20), np.int64(3)), ("replications", "seed")),
    ],
    ids=["DistributionSpec", "TestProblem", "ExperimentPlan"],
)
def test_a_stored_count_is_an_int(built, fields):
    for field in fields:
        assert type(getattr(built, field)) is int
