import math

import pytest

import prolate.bounds as bounds
import prolate.experiments as experiments
import prolate.spectrum as spectrum
from prolate import ProlateContext, bound_report, lambda_log
from prolate.experiments import (EXP3_HEADER, FIGURE_HEADER, TABLE1_HEADER,
                                 TABLE2_HEADER, RunConfig,
                                 decay_figure_rows, exp3_n_max, experiment1,
                                 experiment2, experiment3, find_n1, find_n2,
                                 negative_control, rows_to_csv, rows_to_json,
                                 sequence_sample_grid, table1_indices,
                                 verify_chi_structure, verify_hg_bounds,
                                 verify_nu)

def test_table1_indices_match_published_rows():
    assert table1_indices(10.0) == (0, 3, 6)
    assert table1_indices(100.0) == (0, 31, 63)
    assert table1_indices(1000.0) == (0, 318, 636)
    assert table1_indices(10000.0) == (0, 3183, 6366)
    assert table1_indices(100000.0) == (0, 31830, 63661)


def test_experiment1_small():
    cfg = RunConfig(c_list=(10.0,))
    rows = experiment1(cfg)
    assert [r["n"] for r in rows] == [0, 3, 6]
    r0 = rows[0]
    assert r0["abs_lambda"] == pytest.approx(0.79267, rel=1e-4)
    assert r0["mu"] == pytest.approx(1.0, rel=5e-4)
    assert r0["pi_n_over_2c"] == 0.0
    # mu column must be recomputable from the lambda column
    for r in rows:
        assert r["mu"] == pytest.approx(
            r["c"] / (2 * math.pi) * r["abs_lambda"] ** 2, rel=1e-12)


def test_lambda_flat_then_falling_up_to_the_band_edge(ctx100):
    # every index 0 <= n <= 2c/pi at c = 100
    top = int(2 * 100.0 / math.pi)
    lams = [lambda_log(ctx100, n).to_float() for n in range(top + 1)]
    assert len(lams) == 64
    # before the plunge the decay per index is far below double resolution,
    # so allow rounding-level jitter on the flat part
    assert all(b <= a * (1 + 1e-12) for a, b in zip(lams, lams[1:]))
    assert lams[-1] < 0.9 * lams[0]


def test_thresholds_at_small_c(ctx10):
    assert find_n1(ctx10, -50.0) == 32
    assert find_n2(ctx10, -50.0) == 38
    assert find_n1(ctx10, -100.0) == 50
    assert find_n2(ctx10, -100.0) == 56


def test_experiment2_records():
    cfg = RunConfig(c_list=(10.0,), eps_logs=(-50.0,))
    rows = experiment2(cfg)
    assert len(rows) == 1
    row = rows[0]
    assert set(row) == set(TABLE2_HEADER)
    assert (row["n1"], row["n2"]) == (32, 38)
    assert row["n2_minus_n1"] == 6
    assert row["delta1"] == pytest.approx((32 - 20 / math.pi) / math.log(10.0))
    assert row["eps"] == "e-50"


def test_experiment2_solves_only_the_indices_it_scans(monkeypatch):
    solves, asked = [], set()
    real_solve, real_mode = spectrum.eigh_tridiagonal, ProlateContext.mode
    monkeypatch.setattr(spectrum, "eigh_tridiagonal",
                        lambda *a, **k: solves.append(1) or real_solve(*a, **k))

    def mode(self, n):
        asked.add((self.c, n))
        return real_mode(self, n)
    monkeypatch.setattr(ProlateContext, "mode", mode)
    rows = experiment2(RunConfig(c_list=(10.0, 100.0), eps_logs=(-50.0, -100.0)))
    assert [(r["eps"], r["c"]) for r in rows] == [
        ("e-50", 10.0), ("e-50", 100.0), ("e-100", 10.0), ("e-100", 100.0)]
    # every solve belongs to an index some scan asked for, once
    assert len(solves) == len(asked)


def test_decay_figure_window(ctx10):
    rows = decay_figure_rows(ctx10)
    assert len(rows) > 10
    assert set(rows[0]) == set(FIGURE_HEADER)
    assert all(r["n"] % 2 == 0 for r in rows)
    assert rows[0]["n"] == 8
    assert all(r["log_abs_lambda"] < r["log_zeta"] for r in rows)


def test_exp3_n_max_formula():
    c = 10000.0
    t = 2 * c / math.pi + (2 / math.pi**2) * 150.0 * math.log(4 * math.e * math.pi * c / 150.0)
    n = exp3_n_max(c)
    assert n % 2 == 0
    assert n > t >= n - 2
    # the paper-stated shorthand 2c/pi + 30.4 log(0.23 c) lands within a row
    approx = 2 * c / math.pi + 30.4 * math.log(0.23 * c)
    assert abs(n - approx) <= 2


def test_experiment3_requires_large_bandlimit():
    with pytest.raises(ValueError):
        experiment3(RunConfig(c_list=(10.0,)))


def test_experiment3_rows_small_case():
    # at c = 40 the theorem-backed orderings hold everywhere; the empirical
    # -delta(n) sandwich belongs to large band limits and may fail here
    rows = experiment3(RunConfig(c_list=(40.0,)))
    assert set(rows[0]) == set(EXP3_HEADER)
    assert all(isinstance(r["ordered"], bool) for r in rows)
    assert all(r["log_abs_lambda"] < r["log_zeta"] < r["log_xi"] for r in rows)


def test_delta_solved_once_per_report_and_experiment3_row(monkeypatch):
    calls, real = [], bounds.delta_of_n

    def counted(n, c):
        calls.append(n)
        return real(n, c)
    monkeypatch.setattr(bounds, "delta_of_n", counted)
    monkeypatch.setattr(experiments, "delta_of_n", counted)
    ctx = ProlateContext(40.0)
    # inside 2c/pi < n < 10c/pi, with delta(n) clamped, pinned, or not defined
    for n, delta in ((30, None), (41, None), (60, 5.0), (60, None), (20, None)):
        calls.clear()
        bound_report(ctx, n, delta=delta)
        assert calls == ([] if n == 20 else [n])
    calls.clear()
    rows = experiment3(RunConfig(c_list=(40.0,)))
    assert calls == [r["n"] for r in rows]


def test_experiment1_isolates_row_failures():
    # dim 40 holds the whole c=10 spectrum but truncates c=100 badly:
    # the c=100 rows must fail row-by-row without poisoning the c=10 ones
    from prolate.experiments import failed_rows
    cfg = RunConfig(c_list=(10.0, 100.0), truncation_dim=40)
    rows = experiment1(cfg)
    assert len(rows) == 6
    bad = failed_rows(rows)
    assert {r["c"] for r in bad} == {100.0}
    assert all(r["abs_lambda"] is None for r in bad)
    good = [r for r in rows if not r.get("error")]
    assert {r["c"] for r in good} == {10.0}
    assert all(r["abs_lambda"] is not None for r in good)


def test_sample_grid_is_deterministic():
    assert sequence_sample_grid(30) == sequence_sample_grid(30)
    assert len(sequence_sample_grid(30)) == 30


def test_verify_row_shape_and_counts():
    rows = verify_chi_structure(c_list=(10.0,), n_extra=10, include_limit=False)
    assert len(rows) == 4                      # four named checks per band limit
    assert all(set(r) == {"suite", "check", "c", "n", "passed", "detail"} for r in rows)
    assert all(r["passed"] for r in rows)
    rows = verify_nu(c_list=(100.0,))
    assert len(rows) == 3
    assert all(r["passed"] for r in rows)


def test_negative_control_detects_perturbation():
    rows = negative_control()
    assert len(rows) == 1
    assert rows[0]["passed"]


def test_hg_suite_small_grid():
    rows = verify_hg_bounds(grid_points=300)
    assert all(r["passed"] for r in rows)


def test_csv_rendering_is_stable():
    cfg = RunConfig(c_list=(10.0,))
    rows_a = experiment1(cfg)
    rows_b = experiment1(RunConfig(c_list=(10.0,)))
    text_a = rows_to_csv(rows_a, TABLE1_HEADER)
    text_b = rows_to_csv(rows_b, TABLE1_HEADER)
    assert text_a == text_b
    assert text_a.splitlines()[0] == "c,n,pi_n_over_2c,abs_lambda,mu"
    assert text_a.splitlines()[1].startswith("10,0,0.00000,")


def test_header_constants():
    assert TABLE1_HEADER == ["c", "n", "pi_n_over_2c", "abs_lambda", "mu"]
    assert TABLE2_HEADER == ["eps", "c", "n1", "delta1", "n2", "delta2", "n2_minus_n1"]
    assert FIGURE_HEADER == ["c", "n", "log_abs_lambda", "log_zeta"]
    assert EXP3_HEADER[:2] == ["c", "n"]
    assert "neg_delta" in EXP3_HEADER and "log_xi" in EXP3_HEADER


def test_json_rendering():
    rows = [{"c": 10.0, "n": 1, "extra": "dropped"}]
    text = rows_to_json(rows, ["c", "n"])
    assert '"extra"' not in text
    assert text == rows_to_json(rows, ["c", "n"])
