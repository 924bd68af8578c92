"""Command-line interface: parsing, exit codes, JSON schema, and golden
agreement with direct library calls."""

import json
import os
import subprocess
import sys

import pytest

import semidist
from semidist import cli
from semidist.framework import (
    CATALOG,
    Hypothesis,
    confidence_region,
    mean_t,
    run_test,
    variance,
)
from semidist.measurement import Sample, State
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
        [[1e307 + 2e307 * (k / 99) for k in range(100)], [1e308, 1.5e308, -1e308]],
        ids=["100 values", "three values"],
    )
    @pytest.mark.parametrize("name", ["mean-t", "var"])
    def test_an_overflowing_sum_is_a_named_error(self, tmp_path, capsys, values, name):
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{v!r}\n" for v in values), encoding="utf-8")
        assert cli.main(["ci", name, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sum of the sample values overflows float64\n"

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
        assert "--sigma" in err
        assert "mean-t" in err

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

    def test_twelve_significant_digits(self, ten_draws, capsys):
        path, x = ten_draws
        cli.main(["ci", "mean-t", path, "--json"])
        payload = json.loads(capsys.readouterr().out)
        direct = confidence_region(mean_t(10), x, 0.95)
        assert payload["lo"] == float(f"{direct.lo:.12g}")


class TestExperimentCommand:
    def test_coverage_golden_and_schema(self, capsys):
        code = cli.main(
            ["experiment", "coverage", "--test", "mean-t", "--n", "10",
             "--gamma", "0.95", "--reps", "500", "--seed", "9", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["rate", "hits", "J", "band", "pass", "seed"]
        direct = coverage_experiment(
            ExperimentPlan(mean_t(10), State(0.0, 1.0), 0.95, 500, 9)
        )
        assert payload["hits"] == direct.hits
        assert payload["seed"] == 9

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


class TestUnusedFlags:
    @pytest.mark.parametrize(
        "argv, flag, name",
        [
            (["test", "var", "DATA", "--null", "1", "--sigma", "3"], "--sigma", "var"),
            (["test", "mean-t", "DATA", "--null", "0", "--sigma1", "1"], "--sigma1", "mean-t"),
            (["ci", "mean-z", "DATA", "--sigma", "1", "--sigma2", "2"], "--sigma2", "mean-z"),
            (["ci", "var-ratio", "PAIR", "--sigma", "1"], "--sigma", "var-ratio"),
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
        assert capsys.readouterr().err == "error: var does not use --sigma\n"

    @pytest.mark.parametrize("flag", ["--m", "--mu2", "--sd2"])
    def test_second_sample_flag_on_a_one_sample_experiment(self, capsys, flag):
        argv = ["experiment", "coverage", "--test", "mean-z", flag, "7", "--reps", "10"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err == f"error: mean-z does not use {flag}\n"

    def test_second_sample_defaults_on_a_two_sample_experiment(self, capsys):
        argv = ["experiment", "size", "--test", "diff-means", "--null", "0", "--n", "8",
                "--reps", "200", "--json"]
        assert cli.main(argv) == 0
        implicit = capsys.readouterr().out
        explicit = argv + ["--m", "8", "--mu2", "0", "--sd2", "1"]
        assert cli.main(explicit) == 0
        assert capsys.readouterr().out == implicit


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

    def test_python_dash_m_runs_the_cli(self):
        src = os.path.dirname(os.path.dirname(semidist.__file__))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "semidist", "--help"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: semidist ")
