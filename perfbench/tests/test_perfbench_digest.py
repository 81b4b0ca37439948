"""The correctness gate catches a perturbed output."""

from __future__ import annotations

import copy
import math

from perfbench.run import check
from perfbench.workloads import output_digest
from repro.experiments.results import ExperimentResult

BUILD_OUTPUTS = [
    {
        "protocol": "bcbpt",
        "delays": [0.0123, 0.0456, 0.0789],
        "build_report": {"link_count": 812, "ping_exchanges": 5040},
        "clusters": {"cluster_count": 11, "mean_size": 9.09},
        "events": 20517,
        "messages": 98211,
    }
]


def record(digest: str) -> dict:
    return {"digest": digest, "wall_s": 1.0, "setup_s": 0.1}


def test_output_digest_sees_a_one_ulp_change():
    reference = output_digest(BUILD_OUTPUTS)
    assert output_digest(copy.deepcopy(BUILD_OUTPUTS)) == reference
    perturbed = copy.deepcopy(BUILD_OUTPUTS)
    perturbed[0]["delays"][1] = math.nextafter(perturbed[0]["delays"][1], 1.0)
    assert output_digest(perturbed) != reference
    assert check(record(output_digest(perturbed)), reference) is not None
    assert check(record(reference), reference) is None


def test_envelope_fingerprint_sees_a_perturbed_summary():
    def envelope(mean_s: float) -> ExperimentResult:
        return ExperimentResult(
            experiment="fig3",
            experiment_id="Fig. 3",
            title="t",
            created_at=0.0,
            config={"seeds": [3]},
            summaries={"bcbpt": {"mean_s": mean_s}},
        )

    reference = envelope(0.0421).fingerprint()
    assert envelope(0.0421).fingerprint() == reference
    perturbed = envelope(math.nextafter(0.0421, 1.0)).fingerprint()
    assert check(record(perturbed), reference) is not None


def test_a_failed_repeat_is_reported_with_its_reason():
    assert check({"error": "RuntimeError: boom"}, None) == "RuntimeError: boom"
    assert check(record("abc"), None) is None
