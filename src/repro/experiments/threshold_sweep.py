"""Ext-1 — fine-grained latency-threshold sweep (extends Fig. 4).

The paper asks "the optimal latency distance threshold that can speed up
information propagation" but only evaluates three values.  This extension
sweeps a wider range (including the Fig. 3 value of 25 ms), and reports, for
every threshold, the Δt summary alongside the cluster structure and average
link RTT — making explicit the mechanism the paper proposes (smaller
threshold ⇒ smaller clusters with shorter links ⇒ lower delay variance) and
exposing the connectivity cost of very small thresholds.

Run via ``python -m repro.experiments run threshold_sweep``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.experiments.api import ExperimentOption, experiment
from repro.experiments.config import ExperimentConfig
from repro.experiments.grid import SeedCells, run_seed_grid
from repro.experiments.reporting import ExperimentReport, format_table
from repro.experiments.runner import PropagationExperiment
from repro.measurement.stats import DelayDistribution
from repro.workloads.network_gen import NetworkParameters
from repro.workloads.scenarios import build_scenario

#: Default sweep, in seconds (10 ms .. 200 ms, including the paper's values).
DEFAULT_THRESHOLDS_S = (0.010, 0.025, 0.030, 0.050, 0.075, 0.100, 0.150, 0.200)


@dataclass(frozen=True)
class ThresholdPoint(SeedCells):
    """Measurements for one threshold value: a view over its per-seed
    :class:`ThresholdJobResult` cells."""

    threshold_s: float
    cells: tuple["ThresholdJobResult", ...]

    def summary(self) -> dict[str, float]:
        """The pooled Δt statistics and the across-seed cluster/link means
        (link figures are NaN when no seed's overlay has a link)."""
        delays = DelayDistribution(self.pooled("delay_samples")).summary()

        def seed_mean(name: str) -> float:
            values = [getattr(c, name) for c in self.cells if getattr(c, name) is not None]
            return sum(values) / len(values) if values else float("nan")

        return {
            "threshold_s": self.threshold_s,
            "mean_delay_s": delays["mean_s"],
            "median_delay_s": delays["median_s"],
            "variance_s2": delays["variance_s2"],
            "p90_delay_s": delays["p90_s"],
            "cluster_count": seed_mean("cluster_count"),
            "mean_cluster_size": seed_mean("mean_cluster_size"),
            "mean_link_rtt_s": seed_mean("mean_link_rtt_s"),
            "long_link_fraction": seed_mean("long_link_fraction"),
        }


@dataclass(frozen=True)
class ThresholdJob:
    """One (threshold, seed) BCBPT campaign for the fine-grained sweep."""

    threshold_s: float
    seed: int
    config: ExperimentConfig


@dataclass(frozen=True)
class ThresholdJobResult:
    """Per-(threshold, seed) measurements pooled by the sweep driver."""

    threshold_s: float
    seed: int
    delay_samples: tuple[float, ...]
    cluster_count: float
    mean_cluster_size: float
    mean_link_rtt_s: Optional[float]
    long_link_fraction: Optional[float]


def run_threshold_seed(job: ThresholdJob) -> ThresholdJobResult:
    """Execute one sweep point — the process-pool entry point."""
    scenario = build_scenario(
        "bcbpt",
        NetworkParameters(node_count=job.config.node_count, seed=job.seed),
        latency_threshold_s=job.threshold_s,
        max_outbound=job.config.max_outbound,
    )
    result = PropagationExperiment(scenario, job.config).run()
    summary = scenario.policy.clusters.summary()
    network = scenario.network.network
    links = list(network.topology.links())
    mean_link_rtt_s: Optional[float] = None
    long_link_fraction: Optional[float] = None
    if links:
        mean_link_rtt_s = sum(
            network.base_rtt(link.node_a, link.node_b) for link in links
        ) / len(links)
        long_link_fraction = sum(1 for link in links if link.is_long_link) / len(links)
    return ThresholdJobResult(
        threshold_s=job.threshold_s,
        seed=job.seed,
        delay_samples=tuple(result.delays.samples),
        cluster_count=summary["cluster_count"],
        mean_cluster_size=summary["mean_size"],
        mean_link_rtt_s=mean_link_rtt_s,
        long_link_fraction=long_link_fraction,
    )


def build_report(points: list[ThresholdPoint]) -> ExperimentReport:
    """Render the sweep as a report table."""
    report = ExperimentReport(
        experiment_id="Ext-1",
        description="Fine-grained BCBPT latency-threshold sweep",
    )
    rows = []
    for point in points:
        summary = point.summary()
        rows.append(
            [
                f"{point.threshold_s * 1000:.0f} ms",
                summary["mean_delay_s"] * 1e3,
                summary["median_delay_s"] * 1e3,
                summary["variance_s2"] * 1e6,
                summary["p90_delay_s"] * 1e3,
                summary["cluster_count"],
                summary["mean_cluster_size"],
                summary["mean_link_rtt_s"] * 1e3,
                summary["long_link_fraction"],
            ]
        )
    report.add_section(
        "Threshold sweep",
        format_table(
            [
                "d_t",
                "mean_ms",
                "median_ms",
                "var_ms2",
                "p90_ms",
                "clusters",
                "mean size",
                "link RTT ms",
                "long-link frac",
            ],
            rows,
        ),
    )
    return report


def summarize(points: list[ThresholdPoint]) -> dict[str, dict[str, float]]:
    """Per-threshold scalar summaries for the result envelope."""
    return {f"{point.threshold_s * 1000:g}ms": point.summary() for point in points}


@experiment(
    "threshold_sweep",
    experiment_id="Ext-1",
    title="Fine-grained BCBPT latency-threshold sweep",
    description=__doc__,
    protocols=("bcbpt",),
    options=(
        ExperimentOption(
            flag="--thresholds-ms",
            dest="thresholds_ms",
            type=float,
            nargs="+",
            help="thresholds to sweep, in milliseconds "
            "(default: 10 25 30 50 75 100 150 200)",
            convert=lambda values: tuple(t / 1000.0 for t in values),
            kwarg="thresholds_s",
        ),
    ),
    report=build_report,
    summarize=summarize,
)
def run_threshold_sweep(
    config: Optional[ExperimentConfig] = None,
    thresholds_s: Sequence[float] = DEFAULT_THRESHOLDS_S,
) -> list[ThresholdPoint]:
    """Measure BCBPT across a range of latency thresholds.

    Each (threshold, seed) point is an independent simulation; the shared
    seed-grid executor fans them out over ``cfg.workers`` processes and
    regroups in submission order, so the sweep result is identical for every
    worker count.
    """
    cfg = config if config is not None else ExperimentConfig()

    def make_job(threshold: float, seed: int) -> ThresholdJob:
        return ThresholdJob(threshold_s=threshold, seed=seed, config=cfg)

    grid = run_seed_grid(thresholds_s, make_job, run_threshold_seed, cfg)
    return [ThresholdPoint(threshold, tuple(cells)) for threshold, cells in grid]
