"""The catalog registry: the constructors, the command line and the
grid-truth inverse all read it; sizes are checked when a problem is built."""

import argparse
import itertools
import math
import re

import pytest

from semidist import cli, framework
from semidist.framework import (
    CATALOG,
    Hypothesis,
    QuantityKind,
    SemiDistanceKind,
    confidence_region,
    quantity_value,
    rejection_region,
    state_with_quantity,
)
from semidist.measurement import Sample, State, TwoSampleState

CONSTRUCTORS = {
    "mean-z": lambda: framework.mean_z(5, 1.5),
    "mean-z-upper": lambda: framework.mean_z_upper(5, 1.5),
    "var": lambda: framework.variance(5),
    "var-upper": lambda: framework.variance_upper(5),
    "diff-means": lambda: framework.mean_diff_z(5, 6, 1.5, 0.5),
    "diff-means-upper": lambda: framework.mean_diff_z_upper(5, 6, 1.5, 0.5),
    "var-ratio": lambda: framework.variance_ratio(5, 6),
    "var-ratio-upper": lambda: framework.variance_ratio_upper(5, 6),
    "mean-t": lambda: framework.mean_t(5),
    "mean-t-upper": lambda: framework.mean_t_upper(5),
}


def _choices(parser: argparse.ArgumentParser, dest: str) -> tuple:
    (action,) = [a for a in parser._actions if a.dest == dest]
    return tuple(action.choices)


class TestRegistry:
    def test_every_entry_has_a_constructor(self):
        assert tuple(CONSTRUCTORS) == tuple(CATALOG)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_constructor_builds_its_entry(self, name):
        problem = CONSTRUCTORS[name]()
        assert (problem.quantity, problem.distance_kind) == CATALOG[name]

    def test_only_the_catalog_pairs_build(self):
        # Any other pair has no pivot law; the quantity fixes the estimator,
        # so no (estimator, quantity) mismatch can be stated at all.
        pairs = list(itertools.product(QuantityKind, SemiDistanceKind))
        assert len(pairs) == 24
        entries = set(CATALOG.values())
        refused = 0
        for quantity, kind in pairs:
            m = 6 if quantity.two_sample else None
            sigmas = {flag: 1.5 for flag in framework.CatalogEntry(quantity, kind).known_sigmas}
            if (quantity, kind) in entries:
                assert framework.TestProblem(quantity, kind, 5, m, **sigmas).distance_kind is kind
                continue
            refused += 1
            named = f"({quantity.value}, {kind.value}) is not a catalog test"
            with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
                framework.TestProblem(quantity, kind, 5, m, **sigmas)
        assert (len(entries), refused) == (10, 14)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_known_sigmas_are_those_of_the_z_entries(self, name):
        entry = CATALOG[name]
        want = {"mean-z": ("sigma",), "diff-means": ("sigma1", "sigma2")}
        assert entry.known_sigmas == want.get(name.removesuffix("-upper"), ())

    @pytest.mark.parametrize(
        "name, message",
        [
            ("mean-z", "mean-z needs known sigma; with sigma unknown use mean-t"),
            ("mean-z-upper", "mean-z-upper needs known sigma; with sigma unknown use mean-t-upper"),
            ("diff-means", "diff-means needs known sigma1 and sigma2; with sigma unknown "
             "use mean-t on each sample"),
            ("diff-means-upper", "diff-means-upper needs known sigma1 and sigma2; with sigma "
             "unknown use mean-t-upper on each sample"),
        ],
    )
    def test_a_z_entry_without_its_sigma_is_refused_when_built(self, name, message):
        entry = CATALOG[name]
        m = 6 if entry.quantity.two_sample else None
        known = entry.known_sigmas
        # Each known sigma left out in turn, and all of them.
        for missing in [*((flag,) for flag in known), known]:
            sigmas = {flag: 1.5 for flag in known if flag not in missing}
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                framework.TestProblem(*entry, 5, m, **sigmas)

    @pytest.mark.parametrize("name", list(CATALOG))
    def test_a_sigma_the_entry_does_not_use_is_refused_by_name(self, name):
        # The command line passes its flags here and prints this refusal.
        entry = CATALOG[name]
        m = 6 if entry.quantity.two_sample else None
        known = {flag: 1.5 for flag in entry.known_sigmas}
        for flag in {"sigma", "sigma1", "sigma2"} - set(known):
            with pytest.raises(ValueError, match=f"^{name} does not use {flag}$"):
                framework.TestProblem(*entry, 5, m, **known, **{flag: 2.0})

    def test_parser_choices_are_the_registry_names(self):
        parser = cli.build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        names = tuple(CATALOG)
        assert _choices(sub.choices["test"], "name") == names
        assert _choices(sub.choices["ci"], "name") == names
        assert _choices(sub.choices["experiment"], "test") == names


class TestSizesCheckedAtBuild:
    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: framework.variance_ratio(5, 1), "var-ratio"),
            (lambda: framework.variance(1), "var"),
            (lambda: framework.variance_ratio_upper(1, 5), "var-ratio-upper"),
            (lambda: framework.mean_t(1), "mean-t"),
            (lambda: framework.mean_t_upper(1), "mean-t-upper"),
        ],
    )
    def test_one_observation_is_refused_naming_the_problem(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} needs at least 2 observations"):
            build()

    def test_known_sigma_entries_take_one_observation(self):
        assert framework.mean_z(1, 1.0).n == 1
        assert framework.mean_diff_z_upper(1, 1, 1.0, 1.0).m == 1

    def test_cli_var_on_one_row_exits_2(self, tmp_path, capsys):
        path = tmp_path / "one_row.txt"
        path.write_text("1.5\n", encoding="utf-8")
        assert cli.main(["test", "var", str(path), "--null", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "var needs at least 2 observations" in captured.err


class TestDegenerateCutpoints:
    @pytest.mark.parametrize(
        "problem, hypothesis",
        [
            (framework.mean_t(3), Hypothesis.point(2.0)),
            (framework.mean_t_upper(3), Hypothesis.lower_half_line(2.0)),
        ],
    )
    def test_constant_sample_raises_like_contains(self, problem, hypothesis):
        region = rejection_region(problem, hypothesis, 0.05)
        x = Sample((2.0, 2.0, 2.0))
        message = "degenerate sample: all values equal"
        with pytest.raises(ValueError, match=message):
            region.contains(x)
        with pytest.raises(ValueError, match=message):
            confidence_region(problem, x, 0.95)
        with pytest.raises(ValueError, match=message):
            region.estimator_cutpoints(x)

    @pytest.mark.parametrize("name, null", [("mean-t", 0.0), ("var", 1.0)])
    def test_distinct_subnormal_values_name_the_underflow(self, name, null):
        # Their squared deviations underflow: SS is not 0 for equal values.
        problem = framework.TestProblem(*CATALOG[name], 4)
        x = Sample((1e-310, 2e-310, 3e-310, 5e-310))
        message = "^sum of squared deviations underflows float64$"
        with pytest.raises(ValueError, match=message):
            framework.run_test(problem, Hypothesis.point(null), 0.05, x)
        with pytest.raises(ValueError, match=message):
            confidence_region(problem, x, 0.95)


class TestGridTruthInverse:
    BASE = {
        "mean-z": State(0.25, 1.5),
        "var": State(0.25, 1.5),
        "diff-means": TwoSampleState(State(0.25, 1.5), State(0.0, 0.5)),
        "var-ratio": TwoSampleState(State(0.25, 1.5), State(-1.0, 0.75)),
    }

    @pytest.mark.parametrize("name", list(BASE))
    @pytest.mark.parametrize("theta", [0.3, 1.0, 1.7, 2.9, 1e-3, 123.456])
    def test_round_trips_quantity_value(self, name, theta):
        problem = CONSTRUCTORS[name]()
        state = state_with_quantity(problem, self.BASE[name], theta)
        assert abs(quantity_value(problem, state) - theta) <= math.ulp(theta)

    @pytest.mark.parametrize("name", ["var", "var-ratio"])
    @pytest.mark.parametrize("theta", [0.0, -0.5, math.nan])
    def test_positive_quantities_reject_non_positive_values(self, name, theta):
        message = f"{name} needs a positive quantity value, got {theta!r}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            state_with_quantity(CONSTRUCTORS[name](), self.BASE[name], theta)

    @pytest.mark.parametrize("name", ["var-upper", "var-ratio"])
    def test_cli_grid_must_be_positive(self, name, capsys):
        argv = ["experiment", "power", "--test", name, "--null", "1", "--grid", "1,0",
                "--reps", "10"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: {name} needs a positive quantity value, got 0.0\n"


class TestMissingSigmaHint:
    @pytest.mark.parametrize("name, hint", [("mean-z", "mean-t"), ("mean-z-upper", "mean-t-upper")])
    def test_names_the_flag_and_the_studentized_entry(self, tmp_path, capsys, name, hint):
        path = tmp_path / "x.txt"
        path.write_text("1\n2\n3\n", encoding="utf-8")
        assert cli.main(["test", name, str(path), "--null", "0"]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} needs known sigma; with sigma unknown use {hint}\n"
