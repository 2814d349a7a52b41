"""The pair summary of tools/pairs.py, on synthetic numbers: no benchmark runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "pairs", Path(__file__).parents[1] / "tools" / "pairs.py"
)
pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(pairs)

PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.01, 0.99]


def test_nine_wins_and_a_gap_beyond_the_iqr_hold_the_claim():
    change = [p - 0.2 for p in PARENT]
    change[3] = PARENT[3] + 0.01  # one lost pair
    summary = pairs.summarize(PARENT, change, "lower", 0.25)
    assert summary["change_wins"] == 9
    assert summary["parent"]["median"] == 1.0
    q1, q3 = summary["parent"]["q1"], summary["parent"]["q3"]
    assert q1 < 1.0 < q3 and summary["parent_iqr"] == q3 - q1
    assert summary["median_gap_exceeds_parent_iqr"]
    assert summary["claim_rule_holds"] and summary["within_bound"]
    assert summary["worse_by_fraction_of_parent_median"] < 0


def test_eight_wins_do_not_hold_the_claim():
    change = [p - 0.2 for p in PARENT]
    change[0] = change[1] = 2.0
    summary = pairs.summarize(PARENT, change, "lower")
    assert summary["change_wins"] == 8 and summary["median_gap_exceeds_parent_iqr"]
    assert not summary["claim_rule_holds"] and "within_bound" not in summary


def test_ten_wins_inside_the_parent_iqr_do_not_hold_the_claim():
    change = [p - 0.001 for p in PARENT]
    summary = pairs.summarize(PARENT, change, "lower")
    assert summary["change_wins"] == 10
    assert not summary["median_gap_exceeds_parent_iqr"]
    assert not summary["claim_rule_holds"]


def test_higher_is_better_and_the_bound_reads_the_loss():
    change = [p * 0.7 for p in PARENT]  # 30 % lower throughput
    summary = pairs.summarize(PARENT, change, "higher", 0.25)
    assert summary["change_wins"] == 0 and not summary["claim_rule_holds"]
    assert math.isclose(summary["worse_by_fraction_of_parent_median"], 0.3)
    assert not summary["within_bound"]
    assert pairs.summarize(PARENT, change, "higher", 0.35)["within_bound"]


def test_one_pair_has_its_run_as_quartiles():
    summary = pairs.summarize([2.0], [1.0], "lower")
    assert summary["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert summary["change_wins"] == 1 and summary["claim_rule_holds"]


@pytest.mark.parametrize(
    "parent, change, better",
    [([1.0], [1.0, 2.0], "lower"), ([], [], "lower"), ([1.0], [1.0], "faster")],
)
def test_unpaired_or_undirected_runs_are_refused(parent, change, better):
    with pytest.raises(ValueError):
        pairs.summarize(parent, change, better)


def test_workload_summary_keeps_the_pairs_where_both_sides_report():
    def result(value, failed=0):
        return {
            "correct": failed == 0,
            "attempted": 5,
            "failed": failed,
            "metrics": {"t_s": {"value": value, "unit": "s"}},
        }

    specs = [
        {"name": "t_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "absent", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    results = {
        "parent": [result(2.0), result(None), result(2.2)],
        "change": [result(1.0), result(1.1), result(1.2, failed=1)],
    }
    summary = pairs.summarize_workload(results, specs)
    assert summary["pairs"] == 3 and summary["attempted"] == {"parent": 15, "change": 15}
    assert summary["failed"] == {"parent": 0, "change": 1} and not summary["correct"]
    metric = summary["metrics"]["t_s"]
    assert metric["parent_runs"] == [2.0, 2.2] and metric["change_runs"] == [1.0, 1.2]
    assert metric["pairs"] == 2 and metric["change_wins"] == 2
    assert summary["metrics"]["absent"] == {"unit": "s", "pairs": 0}
