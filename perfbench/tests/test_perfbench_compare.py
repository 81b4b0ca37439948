"""The comparison rule on synthetic parent/change samples."""

from __future__ import annotations

from perfbench.compare import pair_win_share, quartiles, verdict

PARENT = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]


def test_quartiles_use_the_exclusive_quantile_method():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_a_clear_win_is_improved():
    change = [value * 0.8 for value in PARENT]
    assert pair_win_share(PARENT, change, "lower") == 1.0
    assert verdict(PARENT, change, "lower", bound=0.1) == "improved"
    # The same numbers read as a throughput are a loss.
    assert verdict(PARENT, change, "higher", bound=0.1) == "worse"


def test_a_tie_is_no_worse_and_wins_nothing():
    assert pair_win_share(PARENT, list(PARENT), "lower") == 0.0
    assert verdict(PARENT, list(PARENT), "lower", bound=0.1) == "no worse"


def test_a_small_consistent_gain_inside_the_parent_spread_is_not_improved():
    change = [value - 0.05 for value in PARENT]
    assert pair_win_share(PARENT, change, "lower") == 1.0
    assert verdict(PARENT, change, "lower", bound=0.1) == "no worse"


def test_wide_overlapping_spread_is_unresolved():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 13.0, 7.0, 10.5, 9.5, 12.5]
    change = [9.0, 13.0, 8.0, 12.0, 11.0, 10.0, 14.0, 9.5, 11.5, 8.5]
    assert verdict(parent, change, "lower", bound=0.1) == "unresolved"


def test_wide_spread_but_every_change_run_better_is_resolved():
    parent = [12.0, 16.0, 13.0, 15.0, 14.0]
    change = [8.0, 11.5, 9.0, 10.0, 11.0]
    assert verdict(parent, change, "lower", bound=0.1) != "unresolved"


def test_a_regression_beyond_the_bound_is_worse():
    change = [value * 1.3 for value in PARENT]
    assert verdict(PARENT, change, "lower", bound=0.1) == "worse"
    change = [value * 1.05 for value in PARENT]
    assert verdict(PARENT, change, "lower", bound=0.1) == "no worse"
