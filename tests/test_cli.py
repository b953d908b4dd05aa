import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import pytest

from prolate import MatchFailure, ProlateContext, bound_report, cli, spectrum


def run_cli(*args):
    """Exit code, stdout and stderr of one command, run in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = cli.main(list(args))
        except SystemExit as exc:  # argparse refusals
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _assert_config_error(rc, out, err):
    assert rc == 2
    assert "configuration error" in err and "Traceback" not in err
    assert out == ""


def test_table1_csv_contract():
    # through the module entry point, in a fresh interpreter
    proc = subprocess.run([sys.executable, "-m", "prolate.cli", "table1", "--c", "10"],
                          capture_output=True, text=True, timeout=600)
    rc, out = proc.returncode, proc.stdout
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "c,n,pi_n_over_2c,abs_lambda,mu"
    assert len(lines) == 4
    assert lines[1].split(",")[:2] == ["10", "0"]


def test_table1_json_format():
    rc, out, _ = run_cli("table1", "--c", "10", "--format", "json")
    assert rc == 0
    rows = json.loads(out)
    assert rows[0]["n"] == 0
    assert rows[0]["abs_lambda"] == pytest.approx(0.79267, rel=1e-4)


def test_output_is_byte_stable(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run_cli("table1", "--c", "10", "--out", str(a))
    rc2, _, _ = run_cli("table1", "--c", "10", "--out", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_table2_row():
    rc, out, _ = run_cli("table2", "--c", "10", "--eps", "e-50")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "eps,c,n1,delta1,n2,delta2,n2_minus_n1"
    cells = lines[1].split(",")
    assert cells[0] == "e-50"
    assert cells[2] == "32" and cells[4] == "38" and cells[6] == "6"


def test_figures_window_restriction():
    rc, out, _ = run_cli("figures", "--c", "10", "--n-range", "8:16")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "c,n,log_abs_lambda,log_zeta"
    ns = [int(l.split(",")[1]) for l in lines[1:]]
    assert ns == [8, 10, 12, 14, 16]


def test_experiment3_small():
    rc, out, _ = run_cli("experiment3", "--c", "40")
    lines = out.splitlines()
    assert lines[0] == "c,n,log_abs_lambda,neg_delta,log_zeta,log_xi,ordered"
    assert rc in (0, 1)          # the empirical column decides the exit code


def test_verify_quick_passes():
    rc, out, err = run_cli("verify", "--quick", "--c", "10")
    assert rc == 0
    assert out.splitlines()[0] == "suite,check,c,n,passed,detail"
    assert "checks passed" in err


def test_verify_c_narrows_only_chi_structure_and_principal_chain():
    # route agreement, the sequence theorems, H/G and nu keep their own
    # grids, so rows at other band limits still appear
    rc, out, _ = run_cli("verify", "--quick", "--c", "10")
    assert rc == 0
    band_limits = {}
    for line in out.splitlines()[1:]:
        suite, _, c = line.split(",")[:3]
        band_limits.setdefault(suite, set()).add(c)
    assert band_limits["principal"] == {"10"}
    # and chi-structure's small-c limit check, which runs at c = 1e-4
    assert band_limits["chi_structure"] == {"10", "0.0001"}
    assert band_limits["routes"] == {"30"}
    assert band_limits["sequences"] == {"15", "40", "100", "300"}
    assert band_limits["hg"] == {""}
    assert "10" not in band_limits["nu"] | band_limits["negative_control"]


@pytest.mark.parametrize("c,rows", [("0.1", 0), ("0.5", 0), ("1", 0), ("1.1", 1)])
def test_figures_window_at_small_c(c, rows):
    # the window from the first even n above 2c/pi to 2c/pi + 20 log c is
    # empty for c <= 1: the command prints only the header and exits 0
    rc, out, _ = run_cli("figures", "--c", c)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "c,n,log_abs_lambda,log_zeta" and len(lines) == 1 + rows


def test_experiment3_at_c_100_fails_only_the_empirical_comparison():
    # at c <= 300 some rows miss log|lambda_n| < -delta(n); the rigorous
    # comparisons lambda < zeta < xi, and -delta < zeta, hold in every row
    rc, out, _ = run_cli("experiment3", "--c", "100", "--format", "json")
    assert rc == 1
    rows = json.loads(out)
    missed = [r for r in rows if not r["ordered"]]
    assert 0 < len(missed) < len(rows)
    for r in rows:
        assert r["log_abs_lambda"] < r["log_zeta"] < r["log_xi"]
        assert r["neg_delta"] < r["log_zeta"]
    assert all(r["log_abs_lambda"] >= r["neg_delta"] for r in missed)


def test_verify_exit_code_on_failure(monkeypatch, capsys):
    monkeypatch.setattr(cli, "verify_all",
                        lambda cfg, quick=False: [{"suite": "s", "check": "x",
                                                   "c": 1.0, "n": 0,
                                                   "passed": False, "detail": ""}])
    rc = cli.main(["verify", "--quick"])
    assert rc == 1


def test_config_error_exit_codes():
    rc, _, _ = run_cli("table1", "--c", "-5")
    assert rc == 2
    rc, _, _ = run_cli("nonsense")
    assert rc == 2


def test_nonconvergence_exit_code():
    rc, _, err = run_cli("table1", "--c", "100", "--truncation-dim", "40")
    assert rc == 3
    assert "non-convergence" in err


def test_unexpected_error_is_one_line_with_exit_4():
    # a failure no handler expects, injected into a fresh interpreter
    code = ("import sys\n"
            "from prolate import cli\n"
            "def boom(cfg):\n"
            "    return 1 / 0\n"
            "cli.experiment1 = boom\n"
            "sys.exit(cli.main(['table1', '--c', '10']))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("internal error: ZeroDivisionError")


def test_underflowing_band_limit_is_config_error():
    _assert_config_error(*run_cli("report", "--c", "1e-300", "--n", "2"))


def test_band_limit_with_subnormal_square_is_config_error():
    # c^2 = 1e-320 is subnormal, not zero; the profile would print nan
    _assert_config_error(*run_cli("report", "--c", "1e-160", "--n", "2"))


def test_small_band_limit_failed_match_is_not_nan():
    # at c = 1e-100 the direct route loses n = 5 and the log route's match
    # fails; that must be raised, not returned as nan (the command line
    # refuses such a c before it computes anything)
    with pytest.raises(MatchFailure):
        bound_report(ProlateContext(1e-100), 5)
    _assert_config_error(*run_cli("report", "--c", "1e-100", "--n", "5"))


def test_match_failure_exit_code(monkeypatch, capsys):
    # a MatchFailure inside a supported band limit is a non-convergence
    def fail(ctx, n, delta=None):
        raise MatchFailure(f"forward/backward ratio mismatch at n = {n}")
    monkeypatch.setattr(cli, "bound_report", fail)
    assert cli.main(["report", "--c", "100", "--n", "5"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("numerical non-convergence:") and "n = 5" in err


@pytest.mark.parametrize("c", ["0.05", "0.01", "0.0999", "inf", "nan"])
def test_band_limit_outside_supported_range_is_config_error(capsys, c):
    # below 0.1 the log route's forward/backward match fails
    assert cli.main(["report", "--c", c, "--n", "12"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error:") and "finite c >= 0.1" in err


@pytest.mark.parametrize("c", [0.05, float("inf")])
def test_band_limit_outside_supported_range_in_config_is_config_error(
        tmp_path, capsys, c):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c_list": [10.0, c]}))
    assert cli.main(["--config", str(cfg), "table1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("configuration error:") and "finite c >= 0.1" in err


def test_lowest_supported_band_limit_works(capsys):
    assert cli.main(["report", "--c", "0.1", "--n", "0,1,2,6,12"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["0", "1", "2", "6", "12"]


def test_commands_do_not_load_linalg_optimize_or_integrate():
    # the runtime needs numpy and scipy's LAPACK extension file only; the
    # package imports of scipy.linalg, scipy.optimize and scipy.integrate
    # would cost a fresh process about 0.6 s together
    code = ("import contextlib, io, sys\n"
            "import prolate\n"
            "def loaded():\n"
            "    return [m for m in ('scipy.linalg', 'scipy.optimize',\n"
            "                        'scipy.integrate') if m in sys.modules]\n"
            "after_import = loaded()\n"
            "from prolate import cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    rc = cli.main(['table1'])\n"
            "print(after_import, rc, loaded(),\n"
            "      sorted(m for m in sys.modules if m.startswith('scipy')))\n")
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=600)
    assert proc.stdout == "[] 0 [] ['scipy.linalg._flapack']\n", proc.stderr


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_lapack_failure_is_numerical_non_convergence(monkeypatch, routine):
    real = getattr(spectrum, routine)
    # the routine's own outputs, with info (always the last) set to 1
    monkeypatch.setattr(spectrum, routine, lambda *a: (*real(*a)[:-1], 1))
    rc, out, err = run_cli("report", "--c", "10", "--n", "2")
    assert rc == 3
    assert out == "" and "Traceback" not in err
    assert err.startswith("numerical non-convergence: ")
    assert f"LAPACK {routine} failed with info = 1" in err


@pytest.mark.parametrize("argv", [["report", "--large", "--n", "2"],
                                  ["verify", "--large", "--quick"]])
def test_large_flag_is_refused_where_it_does_nothing(argv):
    rc, out, err = run_cli(*argv)
    assert rc == 2
    assert out == "" and "unrecognized arguments: --large" in err


@pytest.mark.parametrize("command", [["report", "--n", "2"], ["verify", "--quick"]])
def test_large_config_key_is_refused_where_it_does_nothing(tmp_path, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"large": True}))
    rc, out, err = run_cli("--config", str(cfg), *command)
    assert rc == 2
    assert out == "" and f"config key 'large' does not apply to {command[0]}" in err


@pytest.mark.parametrize("dim", ["3", "40"])
def test_truncation_dim_flag_is_refused_by_verify(dim):
    # verify builds its own contexts, so a pinned dimension would be ignored
    rc, out, err = run_cli("verify", "--quick", "--truncation-dim", dim)
    assert rc == 2
    assert out == "" and "unrecognized arguments: --truncation-dim" in err


@pytest.mark.parametrize("dim", [3, 40])
def test_truncation_dim_config_key_is_refused_by_verify(tmp_path, dim):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"truncation_dim": dim}))
    rc, out, err = run_cli("--config", str(cfg), "verify", "--quick")
    assert rc == 2
    assert out == "" and "config key 'truncation_dim' does not apply to verify" in err


@pytest.mark.parametrize("command", [["table1", "--c", "10"],
                                     ["report", "--c", "10", "--n", "2"]])
def test_config_key_without_a_flag_is_refused(tmp_path, capsys, command):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps": "e-50"}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), *command])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "config key 'eps' does not apply" in err


def test_eps_config_key_applies_to_table2(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps": "e-50"}))
    assert cli.main(["--config", str(cfg), "table2", "--c", "10"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2
    eps, c, n1, _, n2, *_ = lines[1].split(",")
    assert (eps, c, n1, n2) == ("e-50", "10", "32", "38")


def test_removed_parallel_flag_is_rejected():
    rc, out, err = run_cli("figures", "--parallel", "2")
    assert rc == 2
    assert out == "" and "--parallel" in err


def test_unexpected_error_in_process_exit_4(monkeypatch, capsys):
    def boom(cfg):
        raise KeyError("missing")
    monkeypatch.setattr(cli, "experiment1", boom)
    assert cli.main(["table1", "--c", "10"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("internal error: KeyError: 'missing' (in boom, ")


@pytest.mark.parametrize("dim", ["0", "-5"])
def test_non_positive_pinned_dimension_is_config_error(dim):
    _assert_config_error(*run_cli("table1", "--c", "10", "--truncation-dim", dim))


def test_non_positive_pinned_dimension_in_config_is_config_error(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"truncation_dim": -5}))
    _assert_config_error(*run_cli("--config", str(cfg), "table1", "--c", "10"))


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c_list": [10.0], "format": "json"}))
    rc, out, _ = run_cli("--config", str(cfg), "table1")
    assert rc == 0
    rows = json.loads(out)
    assert {r["n"] for r in rows} == {0, 3, 6}


def test_report_flags_and_columns():
    rc, out, _ = run_cli("report", "--c", "100", "--n", "2,80")
    assert rc == 0
    lines = out.splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["c", "n", "chi", "log_abs_lambda"]
    row2 = dict(zip(header, lines[1].split(",")))
    row80 = dict(zip(header, lines[2].split(",")))
    assert row2["log_zeta"] == ""            # below the band edge: no value
    assert "zeta" in row80["flags"]
    assert float(row80["log_zeta"]) > float(row80["log_abs_lambda"])


def test_unwritable_output_is_config_error(tmp_path):
    target = tmp_path / "missing" / "x.csv"
    _assert_config_error(*run_cli("report", "--c", "10", "--n", "2", "--out", str(target)))


@pytest.mark.parametrize("data", [{"truncation_dim": "abc"}, {"eps": "zzz"},
                                  {"c_list": ["x"]}, {"format": "xml"},
                                  {"large": "false"}, [10.0],
                                  {"truncation_dim": 2.9},
                                  {"truncation_dim": True},
                                  {"parallel": 1.5}, {"paralel": 2}])
def test_bad_config_value_is_config_error(tmp_path, monkeypatch, data):
    monkeypatch.setattr(cli, "experiment1",
                        lambda cfg: pytest.fail("bad config value accepted"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(data))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "table1"])
    assert exc.value.code == 2


@pytest.mark.parametrize("c_list", ["55", [True], [], 10, ["10"], {"c": 10}])
def test_config_band_limits_must_be_a_list_of_numbers(tmp_path, monkeypatch,
                                                      capsys, c_list):
    # a string is iterable, so "55" once ran table1 at c = 5 twice
    monkeypatch.setattr(cli, "experiment1",
                        lambda cfg: pytest.fail(f"ran at c = {cfg.c_list}"))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"c_list": c_list}))
    with pytest.raises(SystemExit) as exc:
        cli.main(["--config", str(cfg), "table1"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "bad config value for 'c_list'" in err


@pytest.mark.parametrize("dim", [400.0, "400"])
def test_integral_config_values_are_accepted(tmp_path, dim):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"truncation_dim": dim}))
    parser = cli.build_parser()
    args = cli._apply_config(
        parser.parse_args(["--config", str(cfg), "table1"]), parser)
    assert args.truncation_dim == 400


@pytest.mark.parametrize("argv", [["--c", "10", "--eps", "e-0.01"],
                                  ["--c", "0.1,1", "--eps", "e-1"],
                                  ["--c", "0.5,2", "--eps", "0.5"]])
def test_eps_met_at_the_window_start_is_config_error(argv):
    rc, out, err = run_cli("table2", *argv)
    _assert_config_error(rc, out, err)
    assert "already holds at the window start n = " in err


@pytest.mark.parametrize("eps", ["e0", "e5", "e-0", "e-inf", "einf", "enan"])
def test_eps_exponent_must_be_finite_and_negative(eps):
    rc, out, err = run_cli("table2", "--c", "10", f"--eps={eps}")
    assert rc == 2
    assert out == "" and f"bad eps value: {eps!r}" in err


@pytest.mark.parametrize("eps", ["e0", "e-inf", "enan", ["e-50", "e5"]])
def test_eps_config_key_goes_through_the_same_parser(tmp_path, eps):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"eps": eps}))
    rc, out, err = run_cli("--config", str(cfg), "table2", "--c", "10")
    assert rc == 2
    assert out == "" and "bad config value for 'eps'" in err


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_refused(delta):
    rc, out, err = run_cli("report", "--c", "100", "--n", "70,80,200",
                           f"--delta={delta}")
    assert rc == 2
    assert out == "" and "argument --delta: expected a finite number" in err
