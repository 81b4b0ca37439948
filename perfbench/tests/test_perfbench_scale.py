"""Host times are scaled by the host-reference timings around each repeat."""

from __future__ import annotations

import pytest

from perfbench.hostref import NOMINAL_S
from perfbench.run import end_to_end, host_scale


def repeat(wall_s: float, setup_s: float, hostref_s: list[float]) -> dict:
    return {"wall_s": wall_s, "setup_s": setup_s, "events": 1000, "messages": 500, "hostref_s": hostref_s}


def test_a_repeat_on_a_slower_host_scales_back_to_the_same_time():
    steady = repeat(2.0, 0.5, [NOMINAL_S, NOMINAL_S])
    # Everything ran at half speed: the workload and the kernel around it.
    slow = repeat(4.0, 1.0, [2 * NOMINAL_S, 2 * NOMINAL_S])
    assert host_scale(steady) == pytest.approx(1.0)
    assert host_scale(slow) == pytest.approx(0.5)
    assert end_to_end([slow], 80.0) == pytest.approx(end_to_end([steady], 80.0))


def test_the_first_repeat_has_one_timing_and_later_ones_two():
    assert host_scale(repeat(1.0, 0.1, [NOMINAL_S / 2])) == pytest.approx(2.0)
    assert host_scale(repeat(1.0, 0.1, [NOMINAL_S / 2, NOMINAL_S * 1.5])) == pytest.approx(1.0)


def test_metrics_are_medians_over_repeats():
    records = [repeat(wall, 0.5, [NOMINAL_S]) for wall in (1.5, 9.0, 2.5)]
    metrics = end_to_end(records, 80.0)
    assert metrics["wall_s"] == pytest.approx(2.5)
    assert metrics["setup_s"] == pytest.approx(0.5)
    assert metrics["sim_events_per_s"] == pytest.approx(1000 / 2.0)
    assert metrics["messages_per_s"] == pytest.approx(500 / 2.0)
    assert metrics["peak_rss_mb"] == 80.0
