"""Self time and span nesting, on synthetic spans and on real wrappers."""

from __future__ import annotations

import numpy as np
import pytest

from perfbench.probes import Probe, layer_summary, self_times


def test_self_time_of_a_nested_span_tree():
    # root [0, 10] holds a [1, 4] (which holds g [2, 3]) and b [5, 9].
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    parent = np.array([-1, 0, 1, 0])
    own = self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    # Self times partition the root span: nothing is counted twice.
    assert own.sum() == pytest.approx(end[0] - start[0])

    labels = ["x|root", "y|a", "y|g", "x|b"]
    summary = layer_summary(labels, np.arange(4), own)
    assert summary["x"] == {"self_s": 7.0, "calls": 2}
    assert summary["y"] == {"self_s": 3.0, "calls": 2}
    assert summary["y|g"] == {"self_s": 1.0, "calls": 1}


def test_span_wrappers_record_parents_cells_and_self_time():
    probe = Probe(trace=True)
    probe.labels = ["outer|run", "inner|step"]
    seen = []
    inner = probe._span_wrapper(1, lambda value: value * 2, seen.append)
    outer = probe._span_wrapper(0, lambda: [inner(1), inner(2)], None)
    probe.cells = 1
    assert outer() == [2, 4]
    assert seen == [2, 4]

    spans = probe.span_arrays()
    assert spans["entry"].tolist() == [0, 1, 1]
    assert spans["parent"].tolist() == [-1, 0, 0]
    assert spans["cell"].tolist() == [0, 0, 0]
    assert (spans["end"] >= spans["start"]).all()
    own = self_times(spans["start"], spans["end"], spans["parent"])
    assert (own >= 0).all()
    assert own.sum() == pytest.approx(spans["end"][0] - spans["start"][0])


def test_span_wrapper_closes_the_span_when_the_call_raises():
    probe = Probe(trace=True)
    probe.labels = ["a|boom"]

    def boom():
        raise ValueError("boom")

    wrapped = probe._span_wrapper(0, boom, None)
    with pytest.raises(ValueError):
        wrapped()
    spans = probe.span_arrays()
    assert spans["end"][0] >= spans["start"][0] > 0
    assert probe._stack == [-1]
