"""One run of one workload: repeats in a single fresh process.

    python3 perfbench/cell.py --workload fig3 --seed 3 --seconds 40 [--trace SPANS.npz]

Imports every module of the program (its drivers import some lazily, and the
probes must see them all before they are installed), then runs the workload
again and again for about ``--seconds`` from the process start; there is
always at least one repeat.  Each repeat installs
fresh probes, so its host times and counters are its own.  Without
``--trace`` the run times the host-speed reference (``perfbench/hostref.py``)
after every repeat.  With ``--trace`` untraced and traced repeats
alternate, and the spans of the last traced one are written to the given
file.  The repeat that raises stops the run.

Prints one JSON line: every repeat's host times, reference timings, cell
counters and output digest (with the per-layer metrics on traced repeats),
and the peak RSS over imports and the first repeat.  ``perfbench/run.py``
starts this script once per run.
"""

from __future__ import annotations

import time

PROCESS_STARTED = time.perf_counter()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import pkgutil  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Any, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

import repro  # noqa: E402
from repro.experiments.api import load_registry  # noqa: E402

from perfbench import hostref, probes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def import_program() -> None:
    """Import every module of the program and register the experiments."""
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if not module.name.endswith(".__main__"):
            importlib.import_module(module.name)
    load_registry()


def layer_metrics(probe: probes.Probe, wall_s: float) -> dict[str, float]:
    """Every per-layer metric of one traced repeat."""
    spans = probe.span_arrays()
    self_s = probes.self_times(spans["start"], spans["end"], spans["parent"])
    rows = probes.layer_summary(probe.labels, spans["entry"], self_s)
    counts, observed = probe.counters, probe.observed

    def share(part: float, whole: float) -> float:
        # A ratio whose base is zero on a workload (no compact block on
        # fig3) reads 0; its base is reported too.
        return part / whole if whole else 0.0

    metrics: dict[str, float] = {}
    for layer in probes.LAYERS:
        metrics[f"{layer}.self_s"] = rows[layer]["self_s"]
    for layer in ("protocol.network", "net", "protocol.relay", "protocol.mempool",
                  "protocol.utxo", "protocol.blockchain", "protocol.validation",
                  "protocol.discovery"):
        metrics[f"{layer}.calls"] = rows[layer]["calls"]
    metrics["sim.events"] = counts["events"]
    metrics["sim.ns_per_event"] = share(rows["sim"]["self_s"], counts["events"]) * 1e9
    metrics["protocol.network.messages"] = counts["messages"]
    metrics["protocol.network.bytes"] = counts["bytes"]
    metrics["protocol.network.drop_share"] = share(counts["dropped"], counts["messages"] + counts["dropped"])
    metrics["net.ns_per_call"] = share(rows["net"]["self_s"], rows["net"]["calls"]) * 1e9
    metrics["protocol.relay.getdata_per_inv"] = share(counts["getdata_sent"], counts["invs_received"])
    metrics["protocol.relay.duplicate_inv_share"] = share(counts["duplicate_invs"], counts["invs_received"])
    metrics["protocol.relay.compact_reconstruct_share"] = share(
        counts["compact_blocks_reconstructed"], counts["compact_blocks_received"]
    )
    metrics["protocol.utxo.copies"] = rows[probes.entry_label("protocol.utxo", "UtxoSet.copy")]["calls"]
    metrics["protocol.validation.tx_accept_share"] = share(observed["tx_accepted"], observed["tx_validated"])
    metrics["protocol.mining.blocks"] = observed["blocks"]
    metrics["core.ping_exchanges"] = counts["ping_exchanges"]
    metrics["core.control_messages"] = counts["control_messages"]
    metrics["measurement.runs"] = observed["runs"]
    metrics["measurement.coverage"] = share(observed["coverage_sum"], observed["runs"])
    metrics["experiments.envelope_s"] = rows[probes.entry_label("experiments", "ExperimentResult.fingerprint")]["self_s"]
    layer_total = sum(rows[layer]["self_s"] for layer in probes.LAYERS)
    metrics["untraced_s"] = wall_s - layer_total
    metrics["ledger.self_share"] = share(
        sum(rows[layer]["self_s"] for layer in probes.LEDGER_LAYERS), wall_s
    )
    return metrics


def repeat(workload: str, seed: int, trace: bool) -> tuple[dict[str, Any], probes.Probe]:
    """Run the workload once under fresh probes; its record and the probe."""
    probe = probes.Probe(trace=trace)
    probe.install()
    try:
        started = time.perf_counter()
        digest = WORKLOADS[workload](seed)
        probe.finish()
        wall_s = time.perf_counter() - started
    finally:
        probe.uninstall()
    record: dict[str, Any] = {
        "traced": trace,
        "wall_s": wall_s,
        "setup_s": probe.setup_s,
        "cells": probe.cells,
        "events": probe.counters["events"],
        "messages": probe.counters["messages"],
        "digest": digest,
    }
    if trace:
        record["layers"] = layer_metrics(probe, wall_s)
    return record, probe


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=Path, default=None, help="write spans to this .npz file")
    args = parser.parse_args(argv)

    import_program()
    kinds = (False, True) if args.trace is not None else (False,)
    # Untraced repeats are scaled to the host's speed around them; traced
    # runs report shares and counts, which need no scaling.
    reference = args.trace is None
    repeats: list[dict[str, Any]] = []
    rounds: list[float] = []
    last_traced: Optional[probes.Probe] = None
    peak_rss_mb = 0.0
    before: list[float] = []
    while True:
        round_started = time.perf_counter()
        for trace in kinds:
            try:
                record, probe = repeat(args.workload, args.seed, trace)
            except Exception:
                repeats.append({"traced": trace, "error": traceback.format_exc().strip().splitlines()[-1]})
                break
            if not peak_rss_mb:
                # Read before the first host-reference timing, whose own
                # working set must not count.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if reference:
                after = hostref.timed()
                record["hostref_s"] = before + [after]
                before = [after]
            repeats.append(record)
            if trace:
                last_traced = probe
        if "error" in repeats[-1]:
            break
        rounds.append(time.perf_counter() - round_started)
        # Start another round if it should end less than half a round past
        # --seconds, so that runs last --seconds on average.
        if time.perf_counter() - PROCESS_STARTED + statistics.median(rounds) / 2 > args.seconds:
            break

    if last_traced is not None:
        last_traced.save_spans(args.trace)
    print(json.dumps({
        "repeats": repeats,
        "peak_rss_mb": peak_rss_mb,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
