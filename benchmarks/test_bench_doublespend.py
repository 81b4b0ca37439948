"""Ext-4 benchmark — double-spend race outcomes under each protocol."""

from __future__ import annotations

import math

import pytest
#: Full figure/extension regeneration; skipped in the quick CI lane.
pytestmark = pytest.mark.slow


from repro.experiments.api import run_experiment


@pytest.fixture(scope="module")
def doublespend_run(quick_config):
    return run_experiment(
        "doublespend", quick_config, {"races_per_seed": 4, "race_horizon_s": 2.0}
    )


@pytest.fixture(scope="module")
def doublespend_points(doublespend_run):
    return doublespend_run.payload


def test_bench_doublespend(benchmark, quick_config, doublespend_run):
    """Time a single-protocol race batch and report the comparison."""

    def bcbpt_only():
        return run_experiment(
            "doublespend",
            quick_config.with_overrides(seeds=quick_config.seeds[:1]),
            {"races_per_seed": 2, "race_horizon_s": 1.0, "protocols": ("bcbpt",)},
        )

    benchmark.pedantic(bcbpt_only, rounds=1, iterations=1)
    print()
    print(doublespend_run.render())


def test_doublespend_merchant_detects_conflict_everywhere(doublespend_points):
    """Within the race horizon the merchant hears about the conflicting
    transaction under every protocol (the network is connected), so detection
    rates are high."""
    for point in doublespend_points:
        assert point.summary()["detection_rate"] >= 0.5


def test_doublespend_clustering_does_not_help_the_attacker(doublespend_points):
    """Faster propagation must not increase the attacker's first-seen share."""
    by_name = {p.protocol: p.summary() for p in doublespend_points}
    assert by_name["bcbpt"]["mean_attacker_share"] <= by_name["bitcoin"]["mean_attacker_share"] + 0.15


def test_doublespend_detection_faster_under_clustering(doublespend_points):
    """BCBPT's faster relay lets the merchant learn of the conflict sooner."""
    by_name = {p.protocol: p.summary() for p in doublespend_points}
    bcbpt = by_name["bcbpt"]["mean_detection_time_s"]
    bitcoin = by_name["bitcoin"]["mean_detection_time_s"]
    if not (math.isnan(bcbpt) or math.isnan(bitcoin)):
        assert bcbpt <= bitcoin
