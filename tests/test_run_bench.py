"""The standing-gate verdict of bench/run_bench.py, on synthetic runs."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture(scope="module")
def run_bench():
    spec = importlib.util.spec_from_file_location(
        "run_bench", os.path.join(ROOT, "bench", "run_bench.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [1.60, 1.62, 1.63, 1.65, 1.61, 1.64, 1.66, 1.63, 1.62, 1.64]


def test_clear_gain_is_shown_and_within_bound(run_bench):
    change = [1.27, 1.28, 1.26, 1.30, 1.25, 1.29, 1.27, 1.28, 1.26, 1.27]
    assert run_bench.gate(PARENT, change, 0.25) == {"gain_shown": True,
                                                     "within_bound": True}


def test_nine_wins_of_ten_suffice_but_eight_do_not(run_bench):
    change = [v - 0.3 for v in PARENT]
    change[0] = 2.0
    assert run_bench.gate(PARENT, change, 0.25)["gain_shown"]
    change[1] = 2.0
    assert not run_bench.gate(PARENT, change, 0.25)["gain_shown"]


def test_gap_inside_parent_iqr_is_no_gain(run_bench):
    # wins every pair, but by less than the parent's spread
    change = [v - 0.005 for v in PARENT]
    assert not run_bench.gate(PARENT, change, 0.25)["gain_shown"]


def test_ties_are_not_wins(run_bench):
    assert run_bench.gate(PARENT, PARENT, 0.25) == {"gain_shown": False,
                                                     "within_bound": True}


def test_bound_on_the_change_median(run_bench):
    parent = [10.0] * 4
    assert run_bench.gate(parent, [12.5] * 4, 0.25)["within_bound"]
    assert not run_bench.gate(parent, [12.6] * 4, 0.25)["within_bound"]


def test_pairs_must_match(run_bench):
    with pytest.raises(ValueError):
        run_bench.gate(PARENT, PARENT[:-1], 0.25)


def test_bounds_come_from_benchmark_json(run_bench):
    metrics = run_bench.end_to_end_metrics(ROOT)
    assert metrics["row_p50_ms"]["bound"] == 0.25
    assert metrics["peak_rss_mb"]["bound"] == 0.1


def test_refuses_a_higher_is_better_end_to_end_metric(run_bench, tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(
        '{"end_to_end": [{"name": "rate", "better": "higher", "bound": 0.1}]}')
    with pytest.raises(ValueError, match="lower-is-better"):
        run_bench.end_to_end_metrics(str(tmp_path))
