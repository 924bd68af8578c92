"""Command-line interface: parsing, exit codes, JSON schema, and golden
agreement with direct library calls."""

import argparse
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import semidist
from semidist import cli, framework
from semidist.distributions import chi_squared, symmetric_log_interval_eta
from semidist.framework import (
    CATALOG,
    Hypothesis,
    confidence_region,
    eta_alpha,
    eta_gamma,
    mean_t,
    mean_z_upper,
    run_test,
    state_with_quantity,
    variance,
    variance_ratio,
    variance_upper,
)
from semidist.measurement import Sample, State, TwoSampleState
from semidist.montecarlo import ExperimentPlan, coverage_experiment


@pytest.fixture()
def one_col(tmp_path):
    path = tmp_path / "one.txt"
    path.write_text("1\n2\n3\n", encoding="utf-8")
    return str(path)


@pytest.fixture()
def ten_draws(tmp_path):
    from semidist.measurement import sample

    values = sample(State(0.0, 1.0), 10, seed=12).values
    path = tmp_path / "ten.txt"
    path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
    return str(path), Sample(values)


@pytest.fixture()
def two_col(tmp_path):
    path = tmp_path / "two.csv"
    path.write_text(
        "x,y\n1.0,2.0\n2.0,4.0\n3.0,6.0\n4.5,1.5\n0.25,0.75\n", encoding="utf-8"
    )
    sample_obj = Sample((1.0, 2.0, 3.0, 4.5, 0.25), (2.0, 4.0, 6.0, 1.5, 0.75))
    return str(path), sample_obj


class TestParsing:
    def test_header_and_commas(self, two_col, capsys):
        path, _ = two_col
        assert cli.main(["test", "var-ratio", path, "--null", "1"]) == 0
        out = capsys.readouterr().out
        assert "reject:" in out

    def test_whitespace_separated(self, tmp_path):
        path = tmp_path / "ws.txt"
        path.write_text("1.0 2.0\n2.0 4.0\n3.0 6.0\n", encoding="utf-8")
        assert cli.main(["test", "diff-means", str(path), "--null", "0",
                         "--sigma1", "1", "--sigma2", "1"]) == 0

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("header\n1.0\nnot-a-number\n", encoding="utf-8")
        assert cli.main(["test", "mean-t", str(path), "--null", "0"]) == 2
        assert "unparseable" in capsys.readouterr().err

    def test_unparseable_line_is_named(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("header\n1.0\nnot-a-number\n", encoding="utf-8")
        assert cli.main(["test", "mean-t", str(path), "--null", "0"]) == 2
        expected = f"unparseable line 3 of {str(path)!r}: 'not-a-number'"
        assert expected in capsys.readouterr().err

    @pytest.mark.parametrize("row", [",", " , ", ",,"])
    def test_separator_only_row_is_refused(self, tmp_path, capsys, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1,2\n{row}\n3,4\n", encoding="utf-8")
        assert cli.main(["ci", "var-ratio", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"empty field on line 3 of {str(path)!r}: {row!r}" in captured.err

    @pytest.mark.parametrize("row", [",5", "5,", " ,5"])
    def test_row_with_an_empty_field_is_refused(self, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"x,y\n1,2\n{row}\n3,4\n", encoding="utf-8")
        with pytest.raises(cli.CliError, match=f"empty field on line 3 of .*: {row!r}"):
            cli.read_columns(str(path))

    @pytest.mark.parametrize("first", [",5", ",y"])
    def test_first_line_with_an_empty_field_is_no_header(self, tmp_path, first):
        path = tmp_path / "bad.csv"
        path.write_text(f"{first}\n1,2\n3,4\n", encoding="utf-8")
        with pytest.raises(cli.CliError, match="empty field on line 1"):
            cli.read_columns(str(path))

    def test_spaces_around_commas_are_separators(self, tmp_path):
        path = tmp_path / "ok.csv"
        path.write_text("x, y\n1 , 2\n3,4 \n", encoding="utf-8")
        assert cli.read_columns(str(path)) == ([1.0, 3.0], [2.0, 4.0])

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "NaN"])
    @pytest.mark.parametrize("command", [["test", "mean-t"], ["ci", "var"]])
    def test_non_finite_value_names_the_line(self, tmp_path, capsys, bad, command):
        path = tmp_path / "bad.txt"
        path.write_text(f"x\n1.0\n\n2.5\n{bad}\n3.0\n", encoding="utf-8")
        argv = [*command, str(path)] + (["--null", "0"] if command[0] == "test" else [])
        assert cli.main(argv + ["--json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"non-finite value on line 5 of {str(path)!r}: {bad!r}" in captured.err

    @pytest.mark.parametrize("text", ["x\n1.0\n \t\nnan\n3.0\n", "1,2\n\t\n3,4\n5,nan\n"],
                             ids=["one column", "two columns"])
    def test_non_finite_value_after_a_whitespace_line_names_its_line(self, tmp_path, capsys, text):
        # A line of whitespace alone sends the file to the per-line scan,
        # which leaves the finiteness check to Sample.
        path = tmp_path / "bad.txt"
        path.write_text(text, encoding="utf-8")
        name = "var-ratio" if "," in text else "var"
        assert cli.main(["ci", name, str(path)]) == 2
        assert f"non-finite value on line 4 of {str(path)!r}" in capsys.readouterr().err

    def test_column_count_is_reported_before_a_non_finite_value(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,nan\n3,4\n", encoding="utf-8")
        assert cli.main(["ci", "var", str(path)]) == 2
        assert f"var takes a single data column, {str(path)!r} has two" in capsys.readouterr().err

    def test_non_finite_second_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,inf\n4,5\n", encoding="utf-8")
        assert cli.main(["ci", "var-ratio", str(path)]) == 2
        assert "non-finite value on line 2" in capsys.readouterr().err

    def test_finite_values_with_an_overflowing_sum(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_text("1e308\n1.5e308\n-3e307\n", encoding="utf-8")
        assert cli.read_columns(str(path)) == ([1e308, 1.5e308, -3e307], [])

    @pytest.mark.parametrize(
        "values",
        [[1e307 + 2e307 * (k / 99) for k in range(100)], [1e308, 1.5e308, -1e300]],
        ids=["100 values", "three values"],
    )
    @pytest.mark.parametrize("name", ["mean-t", "var"])
    def test_an_overflowing_sum_is_a_named_error(self, tmp_path, capsys, values, name):
        # Each list's sum overflows in any order of addition.
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        assert cli.main(["ci", name, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum of the sample values overflows float64\n"

    @pytest.mark.parametrize("command", [["test", "mean-t", "--null", "0"], ["ci", "var"]])
    def test_an_underflowing_sum_of_squares_is_a_named_error(self, tmp_path, capsys, command):
        # Distinct values, so not the "all values equal" refusal.
        path = tmp_path / "tiny.txt"
        path.write_text("1e-310\n2e-310\n3e-310\n5e-310\n", encoding="utf-8")
        assert cli.main([*command[:2], str(path), *command[2:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum of squared deviations underflows float64\n"

    def test_an_overflowing_sum_of_finite_values_is_read_in_bulk(self, tmp_path, monkeypatch):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{1e307 + k * 1e303!r}\n" for k in range(10_000)), "utf-8")
        seen = []
        row_values = cli._row_values
        monkeypatch.setattr(cli, "_row_values", lambda line: seen.append(line) or row_values(line))
        col1, col2 = cli.read_columns(str(path))
        assert len(col1) == 10_000 and col2 == []
        # Only the header probe of the first row reads a line on its own.
        assert seen == [f"{1e307!r}"]

    @pytest.mark.parametrize("header", ["", "x\n"])
    def test_byte_order_mark_is_not_data(self, tmp_path, capsys, header):
        path = tmp_path / "bom.csv"
        path.write_text(f"\ufeff{header}1.5\n2.0\n3.0\n4.0\n", encoding="utf-8")
        assert cli.read_columns(str(path)) == ([1.5, 2.0, 3.0, 4.0], [])
        assert cli.main(["ci", "mean-t", str(path)]) == 0
        assert "n: 4\n" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert cli.main(["test", "mean-t", "/nonexistent/nope.txt", "--null", "0"]) == 2
        assert "data file" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "data,reason",
        [
            (b"1\n\xff\n", "byte 0xff in position 2: invalid start byte"),
            (b"\xef\xbb\xbf1\n\xe9\n", "byte 0xe9 in position 2: invalid continuation byte"),
            # A byte order mark cut short is not UTF-8 either.
            (b"\xef\xbb", "bytes in position 0-1: unexpected end of data"),
        ],
        ids=["bad byte", "bad byte after a byte order mark", "cut byte order mark"],
    )
    def test_an_undecodable_file_names_the_bad_bytes(self, tmp_path, capsys, data, reason):
        path = tmp_path / "latin.txt"
        path.write_bytes(data)
        assert cli.main(["ci", "mean-t", str(path)]) == 2
        assert capsys.readouterr().err == f"error: 'utf-8' codec can't decode {reason}\n"

    def test_unknown_test_name(self, one_col):
        assert cli.main(["test", "mean-w", one_col, "--null", "0"]) == 2

    def test_null_flag_required(self, one_col):
        assert cli.main(["test", "mean-t", one_col]) == 2


class TestTestCommand:
    def test_trivial_no_reject(self, one_col, capsys):
        assert cli.main(["test", "mean-t", one_col, "--null", "2", "--alpha", "0.05"]) == 0
        out = capsys.readouterr().out
        assert out.endswith("\n")
        assert "statistic: 0" in out
        assert "reject: no" in out

    def test_missing_sigma_exits_2_and_names_the_alternative(self, one_col, capsys):
        assert cli.main(["test", "mean-z", one_col, "--null", "0"]) == 2
        err = capsys.readouterr().err
        assert err == "error: mean-z needs known sigma; with sigma unknown use mean-t\n"

    def test_rejection_not_in_exit_code(self, tmp_path, capsys):
        path = tmp_path / "far.txt"
        path.write_text("10.0\n10.1\n9.9\n10.05\n", encoding="utf-8")
        code = cli.main(
            ["test", "mean-z", str(path), "--null", "0", "--sigma", "1", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["reject"] is True

    def test_json_schema_and_golden_agreement(self, ten_draws, capsys):
        path, x = ten_draws
        assert cli.main(["test", "var", path, "--null", "1", "--alpha", "0.05",
                         "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["test", "statistic", "eta", "alpha", "reject"]
        direct = run_test(variance(10), Hypothesis.point(1.0), 0.05, x)
        assert payload["reject"] == direct.reject
        assert payload["statistic"] == pytest.approx(direct.statistic, rel=1e-11)
        assert payload["eta"] == pytest.approx(direct.eta, rel=1e-11)

    def test_two_sample_test_used_with_one_column(self, one_col):
        assert cli.main(["test", "var-ratio", one_col, "--null", "1"]) == 2

    def test_one_sample_test_used_with_two_columns(self, two_col):
        path, _ = two_col
        assert cli.main(["test", "mean-t", path, "--null", "0"]) == 2


class TestLevelsBeyondDoublePrecision:
    """A level whose 1 - alpha (or 1 - alpha/2) rounds to 1 is solved on its
    tail; only a gamma whose 1 - gamma rounds to 1 is refused, by name."""

    @pytest.fixture()
    def x_file(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("1\n2\n3\n4.5\n0.25\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv, reference",
        [
            # scipy: t(4).isf(alpha / 2); for var, Brent on
            # chi2(4).sf(5 e^(2 eta)) + chi2(4).cdf(5 e^(-2 eta)) = alpha.
            (["test", "mean-t", "--null", "0", "--alpha", "1e-15", "--json"], 8801.117178564038),
            (["test", "mean-t", "--null", "0", "--alpha", "1e-17", "--json"], 27831.576777253387),
            (["test", "var", "--null", "1", "--alpha", "1e-17", "--json"], 10.07084521527643),
        ],
    )
    def test_radius_is_the_reference(self, x_file, capsys, argv, reference):
        assert cli.main([*argv[:2], x_file, *argv[2:]]) == 0
        assert json.loads(capsys.readouterr().out)["eta"] == pytest.approx(reference, rel=1e-11)

    def test_gamma_next_to_1_is_the_reference(self, x_file, capsys):
        assert cli.main(["ci", "mean-t", x_file, "--gamma", "0.9999999999999999", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        # 1 - gamma = 2^-53; scipy: t(4).isf(2^-54) = 15247.029902217893, times
        # the sample sd over sqrt(5), 0.748331..., on each side of the mean 2.15.
        half = 15247.029902217893 * math.sqrt(sum((v - 2.15) ** 2 for v in (1, 2, 3, 4.5, 0.25)) / 20)
        assert payload["lo"] == pytest.approx(2.15 - half, rel=1e-11)
        assert payload["hi"] == pytest.approx(2.15 + half, rel=1e-11)

    def test_gamma_whose_complement_rounds_to_1_is_refused_by_name(self, x_file, capsys):
        assert cli.main(["ci", "mean-t", x_file, "--gamma", "1e-300"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: gamma=1e-300 is too small")
        assert "rounds to 1" in captured.err


class TestLevelsTheRegionCannotMeet:
    """A level whose radius is not positive would reject every sample; each
    command exits 2 with the library's one refusal and prints no result."""

    @pytest.fixture()
    def x_file(self, tmp_path):
        path = tmp_path / "five.txt"
        path.write_text("1.5\n2.0\n0.25\n3.0\n4.5\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv, radius",
        [
            # A radius of -0.2345 would reject mu <= 100 on data whose mean is 2.25.
            (["test", "mean-z-upper", "{x}", "--sigma", "1", "--null", "100", "--alpha", "0.7"],
             lambda: eta_alpha(mean_z_upper(5, 1.0), None, 0.7)),
            # A negative radius would put lo above the estimate 0.806; the
            # refusal names the gamma typed.
            (["ci", "var-upper", "{x}", "--gamma", "0.3"],
             lambda: eta_gamma(variance_upper(5), None, 0.3)),
            (["ci", "var-upper", "{x}", "--gamma", "0.3", "--json"],
             lambda: eta_gamma(variance_upper(5), None, 0.3)),
            # alpha* is 0.157 for var-upper at n = 2.
            (["experiment", "size", "--test", "var-upper", "--n", "2", "--alpha", "0.2",
              "--null", "1", "--reps", "100"], lambda: eta_alpha(variance_upper(2), None, 0.2)),
        ],
        ids=["test", "ci", "ci-json", "experiment-size"],
    )
    def test_exits_2_with_the_refusal(self, x_file, capsys, argv, radius):
        with pytest.raises(ValueError) as refusal:
            radius()
        assert cli.main([word.format(x=x_file) for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refusal.value}\n"

    def test_a_confidence_level_is_named_as_typed(self, x_file, capsys):
        argv = ["ci", "mean-z-upper", x_file, "--sigma", "1", "--gamma", "0.1"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == (
            "error: mean-z-upper with n=5 cannot meet gamma=0.1: its radius there is not "
            "positive, so the region would reject every sample; the levels it meets lie "
            "above gamma*=0.5\n"
        )


class TestLevelSweep:
    """Every entry, at levels from 1e-300 to 0.9 on two and five rows, runs
    (exit 0) or refuses with one ``error:`` line and no result (exit 2);
    no level ends in a traceback.  A level leaves float64 on two rows, where
    the laws have one degree of freedom: the refusal names the law, the
    level and the end."""

    ALPHAS = (1e-300, 1e-250, 1e-200, 1e-100, 1e-16, 0.3, 0.9)

    @pytest.mark.parametrize("n", [2, 5])
    @pytest.mark.parametrize("name", CATALOG)
    def test_every_level_runs_or_refuses_in_one_line(self, tmp_path, capsys, name, n):
        entry = CATALOG[name]
        values = (1.5, 2.0, 0.25, 3.0, 4.5)[:n]
        rows = [f"{v},{0.7 * v + 1.0}" if entry.quantity.two_sample else f"{v}" for v in values]
        path = tmp_path / "x.txt"
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        sigmas = [word for flag in entry.known_sigmas for word in (f"--{flag}", "1")]
        null = "1" if entry.kind.log_scale else "0"
        for alpha in self.ALPHAS:
            argvs = [["test", name, str(path), "--null", null, "--alpha", repr(alpha), *sigmas]]
            if 1.0 - alpha < 1.0:
                argvs.append(["ci", name, str(path), "--gamma", repr(1.0 - alpha), *sigmas])
            for argv in argvs:
                code = cli.main(argv)
                captured = capsys.readouterr()
                assert code in (0, 2), argv
                if code == 2:
                    assert captured.out == "", argv
                    assert captured.err.startswith("error: "), argv
                    assert captured.err.count("\n") == 1, argv

    @pytest.mark.parametrize(
        "name, alpha, refusal",
        [
            ("var", "1e-200", "the chi_squared(1) log interval at alpha=1e-200 has an upper end that"),
            ("var-ratio", "1e-200", "the fisher_f(1, 1) log interval at alpha=1e-200 has an upper end that"),
            ("var-ratio-upper", "1e-200", "the fisher_f(1, 1) quantile at p=1 - 1e-200"),
            ("mean-t", "1e-310", "the student_t(1) quantile at p=1 - 5e-311"),
        ],
        ids=["var", "var-ratio", "var-ratio-upper", "mean-t"],
    )
    def test_a_level_beyond_float64_is_refused_by_law_and_end(self, tmp_path, capsys, name, alpha, refusal):
        path = tmp_path / "x.csv"
        two_sample = CATALOG[name].quantity.two_sample
        path.write_text("1.5,2.5\n2.0,0.5\n" if two_sample else "1.5\n2.0\n", encoding="utf-8")
        null = "1" if CATALOG[name].kind.log_scale else "0"
        assert cli.main(["test", name, str(path), "--null", null, "--alpha", alpha]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refusal} overflows float64\n"

    def test_var_on_two_rows_at_1e_16_is_solved(self, tmp_path, capsys):
        # The radius's upper end, 2 e^(2 eta), is near 1.3e32, where the
        # incomplete gamma's continued fraction did not converge.
        path = tmp_path / "x.txt"
        path.write_text("1.5\n2.0\n", encoding="utf-8")
        assert cli.main(["test", "var", str(path), "--null", "1", "--alpha", "1e-16", "--json"]) == 0
        eta = json.loads(capsys.readouterr().out)["eta"]
        assert eta == symmetric_log_interval_eta(chi_squared(1), 1e-16)
        assert eta == pytest.approx(36.96, abs=0.005)


class TestCiCommand:
    def test_json_schema_and_golden_agreement(self, ten_draws, capsys):
        path, x = ten_draws
        assert cli.main(["ci", "mean-t", path, "--gamma", "0.95", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["lo", "hi", "gamma", "estimator"]
        direct = confidence_region(mean_t(10), x, 0.95)
        assert payload["lo"] == pytest.approx(direct.lo, rel=1e-11)
        assert payload["hi"] == pytest.approx(direct.hi, rel=1e-11)
        assert payload["estimator"] == pytest.approx(direct.estimate, rel=1e-11)

    def test_duality_with_test_command(self, ten_draws, capsys):
        path, x = ten_draws
        cli.main(["ci", "mean-t", path, "--gamma", "0.95", "--json"])
        ci_payload = json.loads(capsys.readouterr().out)
        for null in (ci_payload["lo"] - 0.01, 0.0, ci_payload["hi"] + 0.01):
            cli.main(["test", "mean-t", path, "--null", str(null), "--alpha",
                      str(1 - 0.95), "--json"])
            test_payload = json.loads(capsys.readouterr().out)
            inside = ci_payload["lo"] < null < ci_payload["hi"]
            assert test_payload["reject"] == (not inside)

    def test_one_sided_interval_prints_inf(self, ten_draws, capsys):
        path, _ = ten_draws
        assert cli.main(["ci", "mean-t-upper", path]) == 0
        assert "inf" in capsys.readouterr().out

    def test_one_sided_json_hi_is_null(self, ten_draws, capsys):
        path, _ = ten_draws
        cli.main(["ci", "mean-t-upper", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["hi"] is None

    def test_numbers_round_trip(self, ten_draws, capsys):
        path, x = ten_draws
        cli.main(["ci", "mean-t", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        direct = confidence_region(mean_t(10), x, 0.95)
        assert (payload["lo"], payload["hi"]) == (direct.lo, direct.hi)
        assert payload["estimator"] == direct.estimate

    def test_gamma_next_to_1_prints_as_given(self, ten_draws, capsys):
        # Rounded to 12 digits, it printed as 1.0, a level the CLI refuses.
        cli.main(["ci", "mean-t", ten_draws[0], "--gamma", "0.9999999999999999", "--json"])
        out = capsys.readouterr().out
        assert '"gamma": 0.9999999999999999,' in out
        assert json.loads(out)["gamma"] == 1.0 - 2.0**-53


# The whole stdout of experiment calls, plain and --json: each kind, one- and
# two-sample (the second sample's defaults and overrides), power points at
# rates 0 and 1, and a grid argparse reads ('=' form, a leading '-').
_GOLDEN_EXPERIMENTS = [
    (
        "experiment coverage --test mean-t --n 10 --reps 300 --seed 5",
        "coverage experiment: mean-t  gamma: 0.95\n"
        "rate: 0.93  hits: 279/300  band: (0.899668, 1)  pass: yes  seed: 5\n",
        '{"rate": 0.93, "hits": 279, "J": 300, "band": [0.8996677704315282, 1.0], '
        '"pass": true, "seed": 5, "stream_contract": 3}\n',
    ),
    (
        "experiment coverage --test var-ratio --n 8 --m 12 --mu2 1 --sd2 2 --gamma 0.9 "
        "--reps 300 --seed 6",
        "coverage experiment: var-ratio  gamma: 0.9\n"
        "rate: 0.9  hits: 270/300  band: (0.830718, 0.969282)  pass: yes  seed: 6\n",
        '{"rate": 0.9, "hits": 270, "J": 300, "band": [0.8307179676972449, '
        '0.9692820323027551], "pass": true, "seed": 6, "stream_contract": 3}\n',
    ),
    (
        "experiment size --test var --n 6 --null 1 --reps 300 --seed 7",
        "size experiment: var  alpha: 0.05\n"
        "rate: 0.0433333  hits: 13/300  band: (0, 0.100332)  pass: yes  seed: 7\n",
        '{"rate": 0.043333333333333335, "hits": 13, "J": 300, "band": [0.0, '
        '0.10033222956847167], "pass": true, "seed": 7, "stream_contract": 3}\n',
    ),
    (
        "experiment size --test diff-means --n 8 --null 0 --alpha 0.1 --reps 300 --seed 8",
        "size experiment: diff-means  alpha: 0.1\n"
        "rate: 0.0933333  hits: 28/300  band: (0.030718, 0.169282)  pass: yes  seed: 8\n",
        '{"rate": 0.09333333333333334, "hits": 28, "J": 300, "band": [0.030717967697244913, '
        '0.1692820323027551], "pass": true, "seed": 8, "stream_contract": 3}\n',
    ),
    (
        "experiment power --test mean-z-upper --n 10 --null 0 --grid=-0.5,0,0.5,1,3 "
        "--reps 300 --seed 9",
        "power experiment: mean-z-upper  alpha: 0.05\n"
        "theta: -0.5  rate: 0  hits: 0/300  band: (0, 0)  pass: yes  seed: 9\n"
        "theta: 0  rate: 0.0533333  hits: 16/300  band: (0.00144171, 0.105225)  pass: yes  "
        "seed: 9\n"
        "theta: 0.5  rate: 0.48  hits: 144/300  band: (0.364622, 0.595378)  pass: yes  "
        "seed: 9\n"
        "theta: 1  rate: 0.936667  hits: 281/300  band: (0.880419, 0.992915)  pass: yes  "
        "seed: 9\n"
        "theta: 3  rate: 1  hits: 300/300  band: (1, 1)  pass: yes  seed: 9\n",
        '[{"rate": 0.0, "hits": 0, "J": 300, "band": [0.0, 0.0], "pass": true, "seed": 9, '
        '"stream_contract": 3}, {"rate": 0.05333333333333334, "hits": 16, "J": 300, '
        '"band": [0.0014417083757282748, 0.10522495829093839], "pass": true, "seed": 9, '
        '"stream_contract": 3}, {"rate": 0.48, "hits": 144, "J": 300, '
        '"band": [0.36462235918515234, 0.5953776408148477], "pass": true, "seed": 9, '
        '"stream_contract": 3}, {"rate": 0.9366666666666666, "hits": 281, "J": 300, '
        '"band": [0.8804185391258156, 0.9929147942075177], "pass": true, "seed": 9, '
        '"stream_contract": 3}, {"rate": 1.0, "hits": 300, "J": 300, "band": [1.0, 1.0], '
        '"pass": true, "seed": 9, "stream_contract": 3}]\n',
    ),
    (
        "experiment power --test var-ratio-upper --n 8 --m 9 --sd2 2 --null 1 "
        "--grid 1,1.5,2.25 --reps 300 --seed 10",
        "power experiment: var-ratio-upper  alpha: 0.05\n"
        "theta: 1  rate: 0.0766667  hits: 23/300  band: (0.0152223, 0.138111)  pass: yes  "
        "seed: 10\n"
        "theta: 1.5  rate: 0.276667  hits: 83/300  band: (0.173356, 0.379978)  pass: yes  "
        "seed: 10\n"
        "theta: 2.25  rate: 0.673333  hits: 202/300  band: (0.565024, 0.781643)  pass: yes  "
        "seed: 10\n",
        '[{"rate": 0.07666666666666666, "hits": 23, "J": 300, "band": [0.01522232268443012, '
        '0.1381110106489032], "pass": true, "seed": 10, "stream_contract": 3}, '
        '{"rate": 0.27666666666666667, "hits": 83, "J": 300, "band": [0.17335555794555585, '
        '0.3799777753877775], "pass": true, "seed": 10, "stream_contract": 3}, '
        '{"rate": 0.6733333333333333, "hits": 202, "J": 300, "band": [0.5650237632900404, '
        '0.7816429033766262], "pass": true, "seed": 10, "stream_contract": 3}]\n',
    ),
]


class TestExperimentCommand:
    def test_coverage_golden_and_schema(self, capsys):
        code = cli.main(
            ["experiment", "coverage", "--test", "mean-t", "--n", "10",
             "--gamma", "0.95", "--reps", "500", "--seed", "9", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["rate", "hits", "J", "band", "pass", "seed", "stream_contract"]
        direct = coverage_experiment(
            ExperimentPlan(mean_t(10), State(0.0, 1.0), 0.95, 500, 9)
        )
        assert payload["hits"] == direct.hits
        assert payload["seed"] == 9
        assert payload["stream_contract"] == direct.stream_contract == 3

    def test_seed_determinism(self, capsys):
        argv = ["experiment", "size", "--test", "var", "--n", "10", "--null", "1",
                "--alpha", "0.05", "--reps", "400", "--seed", "3", "--json"]
        cli.main(argv)
        first = capsys.readouterr().out
        cli.main(argv)
        assert capsys.readouterr().out == first

    def test_worker_count_changes_nothing(self, capsys):
        base = ["experiment", "coverage", "--test", "mean-z", "--n", "10",
                "--reps", "600", "--seed", "4", "--json"]
        cli.main(base + ["--workers", "1"])
        one = capsys.readouterr().out
        cli.main(base + ["--workers", "3"])
        assert capsys.readouterr().out == one

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_fewer_than_one_worker_is_refused(self, capsys, workers):
        argv = ["experiment", "coverage", "--test", "mean-t", "--reps", "10",
                "--workers", workers]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"got {workers}" in err

    def test_env_var_seed_default(self, capsys, monkeypatch):
        argv = ["experiment", "coverage", "--test", "mean-t", "--n", "5",
                "--reps", "200", "--json"]
        monkeypatch.setenv(cli.SEED_ENV_VAR, "77")
        cli.main(argv)
        payload = json.loads(capsys.readouterr().out)
        assert payload["seed"] == 77

    @pytest.mark.parametrize(
        "flags, env, message",
        [
            (["--seed", "-3"], None, "seed must be a non-negative integer, got -3"),
            ([], "abc", "$SEMIDIST_SEED must be an integer, got 'abc'"),
            ([], "-2", "seed must be a non-negative integer, got -2"),
            (["--reps", str(2**64 + 1)], None, f"replications must lie in 1..2**64, got {2**64 + 1}"),
        ],
    )
    def test_seed_and_replications_are_checked_before_the_run(
        self, capsys, monkeypatch, flags, env, message
    ):
        if env is None:
            monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        else:
            monkeypatch.setenv(cli.SEED_ENV_VAR, env)
        assert cli.main(["experiment", "coverage", "--test", "mean-t", *flags]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"error: {message}\n")

    def test_size_requires_null(self, capsys):
        assert cli.main(["experiment", "size", "--test", "mean-t", "--reps", "10"]) == 2
        assert "--null" in capsys.readouterr().err

    def test_power_grid(self, capsys):
        code = cli.main(
            ["experiment", "power", "--test", "mean-z", "--n", "10", "--null", "0",
             "--grid", "0,0.5,1.0", "--reps", "400", "--seed", "8", "--json"]
        )
        assert code == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 3
        rates = [p["rate"] for p in payloads]
        assert rates[0] < rates[1] < rates[2]

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_power_grid_value_must_be_finite(self, capsys, bad):
        code = cli.main(["experiment", "power", "--test", "var", "--null", "1",
                         "--grid", f"1,{bad}", "--reps", "10"])
        assert code == 2
        assert capsys.readouterr().err == f"error: --grid values must be finite, got {bad}\n"

    def test_power_requires_grid(self, capsys):
        assert cli.main(["experiment", "power", "--test", "mean-z", "--null", "0",
                         "--reps", "10"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_two_sample_experiment(self, capsys):
        code = cli.main(
            ["experiment", "coverage", "--test", "var-ratio", "--n", "8", "--m", "12",
             "--reps", "400", "--seed", "2", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["J"] == 400

    @pytest.mark.parametrize(
        "argv, plain, payload", _GOLDEN_EXPERIMENTS,
        ids=[" ".join(argv.split()[1:4:2]) for argv, _, _ in _GOLDEN_EXPERIMENTS],
    )
    def test_golden_output(self, capsys, argv, plain, payload):
        for flags, expected in (([], plain), (["--json"], payload)):
            assert cli.main([*argv.split(), *flags]) == 0
            assert capsys.readouterr().out == expected


class TestUnusedFlags:
    @pytest.mark.parametrize(
        "argv, flag, name",
        [
            (["test", "var", "DATA", "--null", "1", "--sigma", "3"], "sigma", "var"),
            (["test", "mean-t", "DATA", "--null", "0", "--sigma1", "1"], "sigma1", "mean-t"),
            (["ci", "mean-z", "DATA", "--sigma", "1", "--sigma2", "2"], "sigma2", "mean-z"),
            (["ci", "var-ratio", "PAIR", "--sigma", "1"], "sigma", "var-ratio"),
        ],
    )
    def test_sigma_flag_a_test_does_not_use(self, one_col, two_col, capsys, argv, flag, name):
        data = {"DATA": one_col, "PAIR": two_col[0]}
        assert cli.main([data.get(a, a) for a in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {name} does not use {flag}\n"

    def test_sigma_flag_an_experiment_does_not_use(self, capsys):
        argv = ["experiment", "coverage", "--test", "var", "--sigma", "2", "--reps", "10"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == "error: var does not use sigma\n"

    @pytest.mark.parametrize(
        "flag, named",
        # The problem names its field m; the truth flags are the CLI's own.
        [pytest.param("--m", "m", id="--m"), pytest.param("--mu2", "--mu2", id="--mu2"),
         pytest.param("--sd2", "--sd2", id="--sd2")],
    )
    def test_second_sample_flag_on_a_one_sample_experiment(self, capsys, flag, named):
        argv = ["experiment", "coverage", "--test", "mean-z", flag, "7", "--reps", "10"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: mean-z does not use {named}\n"

    def test_second_sample_defaults_on_a_two_sample_experiment(self, capsys):
        argv = ["experiment", "size", "--test", "diff-means", "--null", "0", "--n", "8",
                "--reps", "200", "--json"]
        assert cli.main(argv) == 0
        implicit = capsys.readouterr().out
        explicit = argv + ["--m", "8", "--mu2", "0", "--sd2", "1"]
        assert cli.main(explicit) == 0
        assert capsys.readouterr().out == implicit


_ONE_SAMPLE = Sample((1.0, 2.0, 3.0))  # the one_col file


class TestOneOwnerPerRefusal:
    """What an entry does not accept is refused by the library alone: the
    CLI passes its flags on and prints the library's refusal as it is."""

    @pytest.mark.parametrize(
        "argv, call",
        [
            pytest.param(["test", "mean-z", "DATA", "--null", "0"],
                         lambda: framework.TestProblem(*CATALOG["mean-z"], 3),
                         id="missing-sigma"),
            pytest.param(["test", "var", "DATA", "--null", "1", "--sigma", "3"],
                         lambda: framework.TestProblem(*CATALOG["var"], 3, sigma=3.0),
                         id="test-sigma"),
            pytest.param(["ci", "mean-t", "DATA", "--sigma1", "1"],
                         lambda: framework.TestProblem(*CATALOG["mean-t"], 3, sigma1=1.0),
                         id="ci-sigma1"),
            pytest.param(["experiment", "coverage", "--test", "var", "--sigma", "2", "--reps", "10"],
                         lambda: framework.TestProblem(*CATALOG["var"], 10, sigma=2.0),
                         id="experiment-sigma"),
            pytest.param(["experiment", "coverage", "--test", "mean-z", "--m", "7", "--reps", "10"],
                         lambda: framework.TestProblem(*CATALOG["mean-z"], 10, 7, sigma=1.0),
                         id="experiment-m"),
            pytest.param(["test", "var", "DATA", "--null", "0"],
                         lambda: run_test(variance(3), Hypothesis.point(0.0), 0.05, _ONE_SAMPLE),
                         id="test-null-0"),
            pytest.param(["experiment", "size", "--test", "var", "--null", "0", "--reps", "10"],
                         lambda: ExperimentPlan(variance(10), State(0.0, 1.0), 0.05, 10, 0,
                                                Hypothesis.point(0.0)),
                         id="experiment-null-0"),
            pytest.param(["experiment", "power", "--test", "var-ratio", "--null", "1",
                          "--grid", "1,-0.5", "--reps", "10"],
                         lambda: state_with_quantity(
                             variance_ratio(10, 10),
                             TwoSampleState(State(0.0, 1.0), State(0.0, 1.0)), -0.5),
                         id="grid-negative"),
        ],
    )
    def test_the_cli_prints_the_library_refusal(self, one_col, monkeypatch, capsys, argv, call):
        monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
        with pytest.raises(ValueError) as refusal:
            call()
        assert cli.main([one_col if word == "DATA" else word for word in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {refusal.value}\n"


class TestHelp:
    @pytest.mark.parametrize("command", [[], ["test"], ["ci"], ["experiment"]])
    def test_help_wraps_to_the_terminal_width(self, monkeypatch, capsys, command):
        widest = {}
        for columns in (60, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            assert cli.main([*command, "--help"]) == 0
            lines = capsys.readouterr().out.splitlines()
            widest[columns] = max(map(len, lines))
            if command:
                # The test names are listed once, each on one line.
                text = " ".join(" ".join(lines).split())
                assert text.count("mean-z-upper") == 1
                assert f"catalog test: {', '.join(CATALOG)}" in text
        # argparse wraps to two columns less than the terminal
        assert widest[60] <= 58 < widest[200] <= 198

    def test_grid_help_gives_the_form_for_a_negative_first_value(self, capsys):
        # argparse reads "--grid -0.5,0,1" as a flag with no value, so the
        # help line says how such a grid is written, and that form runs.
        assert cli.main(["experiment", "--help"]) == 0
        assert (
            "--grid GRID comma-separated quantity values (power); write a grid that "
            "starts with a negative value as --grid=-0.5,0,1"
        ) in " ".join(capsys.readouterr().out.split())
        argv = ["experiment", "power", "--test", "mean-z", "--null", "0", "--grid=-0.5,0,1",
                "--reps", "20", "--seed", "3"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("  ")[0] for line in lines[1:]] == ["theta: -0.5", "theta: 0", "theta: 1"]

    def test_python_dash_m_runs_the_cli(self):
        done = _python_dash_m(["--help"])
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: semidist ")


def _python(*args):
    """Run ``python *args`` in a fresh interpreter on this checkout."""
    src = os.path.dirname(os.path.dirname(semidist.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60,
    )


def _python_dash_m(argv):
    return _python("-m", "semidist", *argv)


_DATA = "data.csv"
# Plain calls of every command, which ``main`` reads without argparse.
_PLAIN = [
    ["test", "var", _DATA, "--null", "1", "--json"],
    ["test", "mean-z", _DATA, "--sigma", "2", "--null", "nan", "--alpha", "0.1", "--alpha", "0.2"],
    ["test", "var", "", "--null", "1"],
    ["ci", "var-ratio", _DATA, "--gamma", "0.9", "--sigma", "2"],
    ["ci", "diff-means", _DATA, "--sigma1", "1", "--sigma2", "2", "--json", "--json"],
    ["experiment", "coverage", "--test", "mean-t", "--seed", "3"],
    ["experiment", "size", "--test", "var", "--null", "1", "--reps", "50"],
    ["experiment", "power", "--test", "mean-z", "--null", "0", "--grid", "0,1"],
    ["experiment", "power", "--test", "var-ratio", "--n", "8", "--m", "9", "--mu", "0.5",
     "--sd", "2", "--mu2", "1", "--sd2", "3", "--gamma", "0.9", "--alpha", "0.1", "--null",
     "1", "--grid", "1,2", "--reps", "20", "--seed", "4", "--workers", "2", "--sigma", "1",
     "--sigma1", "1", "--sigma2", "2", "--json"],
]
# Argument lists that argparse alone reads: abbreviated or '=' flags, values
# that start with '-', flags before positionals, help, and every way to stop
# in argparse on an unknown word or flag, an extra argument, a bad value or a
# missing option.
_PARSER_CORPUS = _PLAIN + [
    ["test", "var", _DATA, "--null=1", "--json", "--json"],
    ["-h"],
    ["test", "-h"],
    ["ci", "--help"],
    ["experiment", "-h"],
    ["test", "-h", "extra"],
    ["test", "var", _DATA, "--null", "1", "--he"],
    ["-h", "test"],
    [],
    ["test"],
    ["nope"],
    ["--"],
    ["test", "--", "var", _DATA, "--null", "1"],
    ["test", "var", _DATA, "--null", "1", "extra"],
    ["experiment", "coverage", "--test", "mean-t", "a", "b"],
    ["ci", "mean-t", _DATA, "--bogus"],
    ["test", "nope", _DATA, "--null", "1"],
    ["test", "var", _DATA, "--null", "x"],
    ["test", "var", _DATA, "--null", "1", "--alpha"],
    ["test", "var", _DATA],
    ["test", "var", _DATA, "--nu", "1"],
    ["experiment", "size", "--tes", "var", "--null", "1"],
    ["test", "var", _DATA, "--null", "-1"],
    ["test", "var", _DATA, "--null", "-.5"],
    ["test", "var", _DATA, "--null", "-inf"],
    ["test", "var", _DATA, "--null", "--json"],
    ["test", "--null", "1", "var", _DATA],
    ["experiment", "--test", "var", "size", "--null", "1"],
    ["test", "var", _DATA, "--null", "1", "--alpha", "x", "--alpha", "0.2"],
    ["test", "var", "-data.csv", "--null", "1"],
    ["ci", "mean-z", _DATA, "--sigma=2"],
    ["ci", "mean-z", _DATA, "--sig", "2"],
    ["experiment", "coverage", "--test", "mean-t", "--n", "1.5"],
    ["experiment", "spread", "--test", "mean-t"],
    ["experiment", "size", "--test", "mean-w", "--null", "1"],
    ["experiment", "coverage"],
    ["ci", "var", _DATA, "data", _DATA],
]


def _parse(parser, argv, capsys):
    """Exit code, stdout, stderr and namespace of one parse."""
    try:
        namespace, code = _comparable(parser.parse_args(argv)), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def _comparable(args):
    """A namespace's attributes, with floats by their repr so nan equals nan."""
    return {k: repr(v) if isinstance(v, float) else v for k, v in vars(args).items()}


# Words to build argument lists from: every command, positional and flag,
# values of each type, and the shapes argparse alone reads.
_WORDS = [
    *cli._COMMANDS, "coverage", "size", "power", "var", "mean-z", "var-ratio", "nope",
    _DATA, "", "-data.csv", "1", "0.5", "nan", "x", "1,2", "-1", "-.5", "-inf",
    "--sigma=2", "--sig", "--he", "-h", "--help", "--", "--bogus",
    *sorted({name for _, _, table in cli._COMMANDS.values() for name, _ in table}),
]


@st.composite
def _argvs(draw):
    """A command, its positionals, its required flags and some others, with
    values that mostly pass their type and choices, and now and then a stray
    word anywhere."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    _, _, table = cli._COMMANDS[command]
    positionals = [arg for arg in table if arg[0][0] != "-"]
    flags = [arg for arg in table if arg[0][0] == "-"]
    required = [arg for arg in flags if arg[1].get("required") and draw(st.integers(0, 5))]
    argv = [command]
    for name, keywords in [*positionals, *required, *draw(st.lists(st.sampled_from(flags), max_size=4))]:
        if name[0] == "-":
            argv.append(name)
            if "action" in keywords:
                continue
        values = {float: ["1", "0.5", "nan", "-1", "x"], int: ["1", "3", "-1", "1.5"]}
        pool = values.get(keywords.get("type")) or [*keywords.get("choices", [_DATA, "0,1"])[:3], ""]
        argv.append(draw(st.sampled_from([*pool, "-x"])))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(_WORDS)))
    return argv


class TestCommandParser:
    @pytest.fixture()
    def handed(self, monkeypatch):
        """The namespaces ``main`` hands the commands, which do nothing else."""
        seen = []

        def record(args):
            seen.append(args)
            return 0

        commands = {name: (line, record, table) for name, (line, _, table) in cli._COMMANDS.items()}
        monkeypatch.setattr(cli, "_COMMANDS", commands)
        return seen

    @pytest.mark.parametrize("argv", _PARSER_CORPUS, ids=lambda argv: " ".join(argv) or "empty")
    def test_main_parses_as_the_full_parser(self, monkeypatch, capsys, handed, argv):
        for columns in (60, 80, 200):
            monkeypatch.setenv("COLUMNS", str(columns))
            code = cli.main(argv)
            captured = capsys.readouterr()
            got = (code, captured.out, captured.err, _comparable(handed.pop()) if handed else None)
            assert got == _parse(cli.build_parser(), argv, capsys)
            assert not handed

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture], max_examples=300)
    @given(argv=_argvs())
    def test_generated_calls_parse_as_the_full_parser(self, capsys, handed, argv):
        code = cli.main(argv)
        captured = capsys.readouterr()
        got = (code, captured.out, captured.err, _comparable(handed.pop()) if handed else None)
        assert got == _parse(cli.build_parser(), argv, capsys)
        assert not handed

    @pytest.mark.parametrize("argv", _PLAIN, ids=" ".join)
    def test_plain_calls_build_no_parser(self, monkeypatch, handed, argv):
        expected = _comparable(cli.build_parser().parse_args(argv))
        monkeypatch.setattr(argparse, "ArgumentParser", lambda *a, **k: pytest.fail("parser built"))
        assert cli.main(argv) == 0
        assert [_comparable(args) for args in handed] == [expected]

    def test_console_call_reads_sys_argv_without_argparse(self, monkeypatch, one_col, capsys):
        argv = ["test", "var", one_col, "--null", "1", "--json"]
        assert cli.main(argv) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(argparse, "ArgumentParser", lambda *a, **k: pytest.fail("parser built"))
        monkeypatch.setattr(sys, "argv", ["semidist", *argv])
        assert cli.main() == 0
        assert capsys.readouterr().out == expected

    def test_python_dash_m_prints_what_main_prints(self, one_col, capsys):
        argv = ["test", "var", one_col, "--null", "1", "--json"]
        assert cli.main(argv) == 0
        done = _python_dash_m(argv)
        assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")

    def test_import_loads_neither_scipy_nor_statistics(self):
        src = os.path.dirname(os.path.dirname(semidist.__file__))
        code = "import sys, semidist.cli; print(sorted({'scipy', 'statistics'} & set(sys.modules)))"
        done = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def _fresh_python(code, *args):
    """The stdout of ``python -c code *args``, which must succeed."""
    done = _python("-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


# Runs ``semidist`` with the script's arguments as its command line, then
# prints its exit code, which of the modules in ``WATCHED`` are loaded and
# whether a worker pool is open, as JSON on the last line.
_CALL_AND_LIST = """
import json, sys
from semidist.cli import main
code = main(sys.argv[1:])
WATCHED = ("semidist.montecarlo", "semidist.inference", "argparse", "concurrent.futures",
           "concurrent.futures.process", "multiprocessing", "multiprocessing.util")
mc = sys.modules.get("semidist.montecarlo")
print(json.dumps([code, [m for m in WATCHED if m in sys.modules], getattr(mc, "_pool", None) is not None]))
"""
_POOL_MODULES = ("concurrent.futures.process", "multiprocessing", "multiprocessing.util")

# Every public name of the package by the module it comes from: the names
# ``import semidist`` bound, all at once, before montecarlo and inference
# loaded on first use.
_EXPORTS = {
    "distributions": (
        "DistributionSpec", "Family", "Tails", "cdf", "chi_squared", "fisher_f", "normal",
        "pdf", "quantile", "student_t", "symmetric_log_interval_eta", "upper_tail_log_eta",
        "z_alpha",
    ),
    "framework": (
        "ConfidenceRegion", "Hypothesis", "HypothesisKind", "Region", "SemiDistance",
        "SemiDistanceKind", "SureRegion", "TestProblem", "TestResult", "confidence_region",
        "estimate", "eta_alpha", "eta_gamma", "mean_diff_z", "mean_diff_z_upper", "mean_t",
        "mean_t_upper", "mean_z", "mean_z_upper", "quantity_value", "rejection_region",
        "run_test", "sure_region", "variance", "variance_ratio", "variance_ratio_upper",
        "variance_upper",
    ),
    "inference": (
        "LikelihoodValue", "ParameterRegion", "lrt_lambda", "lrt_region", "mle_normal",
        "normalized_likelihood",
    ),
    "measurement": (
        "Sample", "State", "TwoSampleState", "image_prob_mean", "image_prob_ss", "mu_bar",
        "normal_prob", "sample", "sigma_bar", "sigma_bar_prime", "ss_bar", "stream",
    ),
    "montecarlo": (
        "ExperimentPlan", "ExperimentReport", "coverage_experiment", "power_curve",
        "size_experiment",
    ),
}


class TestImportSet:
    """What a fresh ``semidist`` process imports: only what its call runs."""

    @pytest.fixture()
    def five_rows(self, tmp_path):
        path = tmp_path / "five.txt"
        path.write_text("x\n1.5\n2.0\n0.25\n3.0\n4.5\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("argv", [
        ["test", "mean-t", "FILE", "--null", "0"],
        ["ci", "var", "FILE", "--json"],
    ], ids=" ".join)
    def test_plain_test_and_ci_calls_load_no_experiment_module_or_argparse(self, five_rows, argv):
        argv = [five_rows if word == "FILE" else word for word in argv]
        code, loaded, pool = json.loads(_fresh_python(_CALL_AND_LIST, *argv).splitlines()[-1])
        assert (code, loaded, pool) == (0, [], False)

    def test_one_worker_experiment_loads_no_pool_module(self):
        # scipy.special, which draws the normals, may import concurrent.futures
        # itself (through numpy.testing); the pool's own modules stay out.
        argv = ["experiment", "coverage", "--test", "mean-z", "--reps", "200", "--workers", "1"]
        code, loaded, pool = json.loads(_fresh_python(_CALL_AND_LIST, *argv).splitlines()[-1])
        by_scipy = json.loads(_fresh_python(
            "import json, sys, scipy.special; print(json.dumps(sorted(sys.modules)))"
        ))
        assert (code, pool) == (0, False)
        assert "semidist.montecarlo" in loaded
        assert {m for m in loaded if m.startswith(("concurrent", "multiprocessing"))} <= set(by_scipy)
        assert not set(_POOL_MODULES) & set(loaded)

    def test_two_worker_experiment_opens_its_pool_and_exits(self):
        argv = ["experiment", "power", "--test", "mean-z", "--null", "0", "--grid", "0,1",
                "--reps", "200", "--seed", "3", "--workers", "2", "--json"]
        # _fresh_python returns only once the interpreter, pool and all, has exited.
        payload, listing = _fresh_python(_CALL_AND_LIST, *argv).splitlines()
        code, loaded, pool = json.loads(listing)
        assert (code, pool) == (0, True)
        assert set(_POOL_MODULES) <= set(loaded)
        assert len(json.loads(payload)) == 2

    def test_public_names_resolve_as_before(self):
        code = (
            "import importlib, json, sys\n"
            "import semidist\n"
            "lazy = sorted({'semidist.montecarlo', 'semidist.inference'} & set(sys.modules))\n"
            "exports = json.loads(sys.argv[1])\n"
            "star = {}\n"
            "exec('from semidist import *', star)\n"
            "wrong = [\n"
            "    name\n"
            "    for home, names in exports.items()\n"
            "    for module in [importlib.import_module('semidist.' + home)]\n"
            "    for name, value in [(home, module), *((n, getattr(module, n)) for n in names)]\n"
            "    if not getattr(semidist, name) is star[name] is value\n"
            "]\n"
            "print(json.dumps([lazy, sorted(set(star) - {'__builtins__'}), wrong,\n"
            "                  sorted(set(star) - set(dir(semidist)))]))\n"
        )
        lazy, star, wrong, undirected = json.loads(_fresh_python(code, json.dumps(_EXPORTS)))
        assert lazy == []
        assert star == sorted({*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)})
        assert wrong == []
        assert undirected == []
