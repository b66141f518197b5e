import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


def test_last_json_reads_the_final_line():
    out = 'perfbench two-party\n  trials_per_s 2.3 1/s\n{"correct": true}\n\n'
    assert ab_pairs.last_json(out) == {"correct": True}
    assert ab_pairs.last_json("no json here\n") is None
    assert ab_pairs.last_json("") is None
    assert ab_pairs.last_json("[1, 2]\n") is None


def test_a_clear_gain_on_a_higher_is_better_metric():
    parent = [2.30, 2.34, 2.36, 2.33, 2.31, 2.35, 2.32, 2.34, 2.33, 2.36]
    change = [p * 1.25 for p in parent]
    v = ab_pairs.verdict(parent, change, "higher", 0.25)
    assert (v["wins"], v["losses"], v["pairs"]) == (10, 0, 10)
    assert v["gain"] is True
    assert v["within_bound"] == "yes"
    assert v["worse_by"] == pytest.approx(-0.25)


def test_eight_wins_of_ten_is_no_gain():
    parent = [10.0] * 10
    change = [12.0] * 8 + [9.0] * 2
    v = ab_pairs.verdict(parent, change, "higher", 0.25)
    assert (v["wins"], v["losses"]) == (8, 2)
    assert v["gain"] is False
    assert v["why_not"] == "won 8 of 10 pairs, fewer than nine tenths"


def test_a_median_gap_inside_the_parent_iqr_is_no_gain():
    parent = [1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4, 1.0, 1.4]
    change = [p + 0.05 for p in parent]
    v = ab_pairs.verdict(parent, change, "higher", 0.5)
    assert v["wins"] == 10
    assert v["gain"] is False
    assert v["why_not"] == "median gap within the parent's interquartile range"


def test_lower_is_better_and_the_regression_bound():
    parent = [100.0, 101.0, 99.0, 100.0]
    v = ab_pairs.verdict(parent, [115.0, 116.0, 114.0, 115.0], "lower", 0.1)
    assert v["wins"] == 0 and v["gain"] is False
    assert v["within_bound"] == "no"
    v = ab_pairs.verdict(parent, [105.0, 106.0, 104.0, 105.0], "lower", 0.1)
    assert v["within_bound"] == "yes"


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [1.0, 2.0, 1.0, 2.0]
    assert ab_pairs.verdict(parent, [1.5] * 4, "higher", 0.1)["within_bound"] \
        .startswith("unresolved")
    assert ab_pairs.verdict(parent, [3.0] * 4, "higher", 0.1)["within_bound"] \
        == "yes, every change run better"


def test_fewer_than_ten_pairs_is_no_gain():
    parent = [3.5, 3.6, 3.4]
    v = ab_pairs.verdict(parent, [p * 1.2 for p in parent], "higher", 0.25)
    assert (v["wins"], v["pairs"]) == (3, 3)
    assert v["gain"] is False
    assert v["why_not"] == "3 pairs, fewer than the 10 a gain needs"
    v = ab_pairs.verdict(parent * 4, [p * 1.2 for p in parent * 4], "higher", 0.25)
    assert v["gain"] is True and v["why_not"] is None
