"""Golden envelope fingerprints: every deterministic experiment at tiny scale.

Each registered experiment runs once at the :data:`TINY_ARGS` scale of the
CLI smoke tests, and the full :meth:`ExperimentResult.fingerprint` of its
envelope (summaries, rendered sections, samples, verdicts, config) must equal
the pinned digest.  A refactor of pooling, reporting or summarising code that
claims "same results" is held to it byte for byte.

``scale`` is left out: its summaries carry wall time and peak RSS, so its
envelope differs from run to run.

When a change is *meant* to alter results, re-pin the digests it changes and
say why in the change log.
"""

import pytest

from repro.experiments.api import get_experiment, run_experiment
from repro.experiments.cli import build_run_parser
from repro.experiments.config import ExperimentConfig
from tests.experiments.test_cli import TINY_ARGS

GOLDEN_FINGERPRINTS = {
    "ablation": (
        "c920104cfa65b9a6d132582e13d96d65"
        "6ae2d2137ab4e4efc2d2d57a16104ea6"
    ),
    "attacks": (
        "a747cdb20dd234094439eb5cd5c3870f"
        "3b987ca975ac9362d5f8227a6490dbf0"
    ),
    "churn_resilience": (
        "47d331dd507831b624541969be36c010"
        "97b79ea1e3620076c7b7923722167126"
    ),
    "doublespend": (
        "d9ac46cfd762379f28799d56de285e56"
        "7907fcbd5630f775adc9acbdbb3e9990"
    ),
    "fig3": (
        "ec0b34899a5340323ab186a353bfdea6"
        "e274b9d195129526ff8b2c727dacda39"
    ),
    "fig4": (
        "8a5e661d085ab49175fa6b2d2ca506b7"
        "277d85204576fcff566afa6a53eb3681"
    ),
    "load_frontier": (
        "b307e9dc3579c9eddbedfb11b9671f37"
        "64f4ec084963038795a70c5dde18b129"
    ),
    "overhead": (
        "24b5bb485b985eedceef56c1ed6055fc"
        "7160a618c78ff71da325173d6d2a579d"
    ),
    "relay_comparison": (
        "ff6d01008cbba3c26998da2b9dc08d1d"
        "f7060613c3f4cb50f0439390b9077043"
    ),
    "threshold_sweep": (
        "d80fe7104e47079ee961b23fa57cf45e"
        "3bb5c633db8df63991d561735671d605"
    ),
    "validation": (
        "eb66fca9d150b673185aaa2d98a6210f"
        "5736a68a52fef2beedde581d66a78e92"
    ),
}


def test_goldens_cover_every_deterministic_experiment():
    assert sorted(GOLDEN_FINGERPRINTS) == sorted(set(TINY_ARGS) - {"scale"})


@pytest.mark.parametrize("name", sorted(GOLDEN_FINGERPRINTS))
def test_envelope_fingerprint_is_pinned(name):
    spec = get_experiment(name)
    args = build_run_parser(spec).parse_args(TINY_ARGS[name])
    options = {
        option.dest: getattr(args, option.dest)
        for option in spec.options
        if getattr(args, option.dest) is not None
    }
    result = run_experiment(name, ExperimentConfig.from_args(args), options)
    assert result.fingerprint() == GOLDEN_FINGERPRINTS[name]
