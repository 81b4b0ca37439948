"""The benchmark's workloads: fixed program inputs, each made from one seed.

Every workload runs serially in-process (``workers=1``) so the probes in
:mod:`perfbench.probes` see every cell, and returns a SHA-256 digest of its
simulated outputs with host timings excluded: the envelope fingerprint of
``ExperimentResult`` where the workload is a registered experiment.

A workload runs on the one network seed it is given.  Over seeds 1-10 the
simulated work (events executed) of every workload stays within a few
percent of its median.

Each repeat is sized to take a few seconds, so that a 40-second run holds
several repeats and their median.  The measurements of ``fig3`` and
``build`` count every connection of the measuring node
(``exclude_long_links=False``).  With the default, proximity connections
only, a measuring node left with nothing but long links stops the campaign
with ``RuntimeError``; at 200 nodes that happens on seeds 8, 27 and 32 of
0-39, and the benchmark must run on any seed.  With every connection
counted, and with few runs, fig3's ``paper_ordering`` verdict (BCBPT < LBC <
Bitcoin in both mean and variance) holds on few seeds, so the benchmark
checks digests, not that verdict.

Why each workload exists:

* ``fig3`` -- the paper's headline campaign (Bitcoin vs LBC vs BCBPT,
  flood relay).  Transaction propagation over the per-message path: fabric,
  delay model, flood handlers and event kernel.  Ledger work and
  clustering are small.
* ``build`` -- network build and overlay construction at 1,000 nodes for
  all three policies, then one measurement with only the measuring node
  funded.  Set-up and memory dominate (the O(N^2) long-link scan, DNS-seed
  prefiltering).
* ``relay`` -- every block-relay strategy (flood, compact, push, adaptive,
  headers) on Bitcoin and BCBPT overlays: the only workload where block
  relay and the strategy-specific handlers run, and the one with the most
  ledger work (mempool, UTXO, block connect, mining).

There is no saturated ``load_frontier`` workload.  Its simulated work varies
by 12-15% (IQR) over seeds, because the number of blocks mined over its
horizon is Poisson, and its 5-15 s repeats left two or three per run on a
2-vCPU host under load; its ``wall_s`` spread 0.18-0.32 of the median over
ten seeds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Callable

from repro.experiments import api
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import PropagationExperiment
from repro.workloads import scenarios
from repro.workloads.network_gen import NetworkParameters

FIG3_NODES = 200
FIG3_RUNS = 3
FIG3_MEASURING_NODES = 8

BUILD_NODES = 1_000
BUILD_PROTOCOLS = ("bitcoin", "lbc", "bcbpt")

RELAY_NODES = 100
RELAY_OPTIONS = {
    "relays": ("flood", "compact", "push", "adaptive", "headers"),
    "protocols": ("bitcoin", "bcbpt"),
    "blocks": 1,
    "txs_per_block": 8,
}


def output_digest(outputs: object) -> str:
    """SHA-256 over the canonical JSON of plain-data outputs.

    Floats are written with ``repr``, so a change in the last digit of any
    value changes the digest.
    """
    return hashlib.sha256(json.dumps(outputs, sort_keys=True).encode()).hexdigest()


def run_fig3(seed: int) -> str:
    config = ExperimentConfig(
        node_count=FIG3_NODES,
        runs=FIG3_RUNS,
        measuring_nodes=FIG3_MEASURING_NODES,
        seeds=(seed,),
        exclude_long_links=False,
        workers=1,
    )
    return api.run_experiment("fig3", config).fingerprint()


def run_relay(seed: int) -> str:
    config = ExperimentConfig(node_count=RELAY_NODES, seeds=(seed,), workers=1)
    return api.run_experiment("relay_comparison", config, RELAY_OPTIONS).fingerprint()


def run_build(seed: int) -> str:
    """Build each policy's overlay at scale, then take one measurement.

    The shape of the ``scale`` experiment's cell, without its snapshot files
    or the host timings its envelope carries.
    """
    config = ExperimentConfig(
        node_count=BUILD_NODES,
        runs=1,
        measuring_nodes=1,
        seeds=(seed,),
        exclude_long_links=False,
        workers=1,
    )
    parts = []
    for protocol in BUILD_PROTOCOLS:
        scenario = scenarios.build_scenario(
            protocol,
            NetworkParameters(node_count=BUILD_NODES, seed=seed),
            latency_threshold_s=config.latency_threshold_s,
            max_outbound=config.max_outbound,
        )
        result = PropagationExperiment(scenario, config, fund_measuring_only=True).run()
        parts.append(
            {
                "protocol": protocol,
                "delays": result.delays.samples,
                "build_report": dataclasses.asdict(scenario.build_report),
                "clusters": scenario.policy.clusters.summary(),
                "events": scenario.simulator.events_executed,
                "messages": scenario.network.network.total_messages(),
            }
        )
        # One scenario alive at a time, as in a scale cell.
        del scenario, result
    return output_digest(parts)


WORKLOADS: dict[str, Callable[[int], str]] = {
    "fig3": run_fig3,
    "build": run_build,
    "relay": run_relay,
}
