"""Outside-in probes: timers and spans around the program's public entry points.

Nothing here edits the program.  A :class:`Probe` replaces a handful of
public functions and methods with wrappers for the lifetime of one benchmark
process:

* always, ``build_scenario`` and ``fund_nodes`` are timed (their sum is
  ``setup_s``) and every scenario ``build_scenario`` returns is kept until
  the next one is built, when its simulator and fabric counters are read.
  That is how event and message totals are taken from outside the program;
* with ``trace=True``, every entry point in :data:`ENTRY_POINTS` also
  records a span (entry, start, end, parent span, cell) into compact
  in-memory arrays, which :meth:`Probe.save_spans` writes out at the end.

Module-level functions are replaced wherever a ``repro`` module has bound
them (``from x import f`` copies the reference), so every driver module must
be imported before :meth:`Probe.install`.
"""

from __future__ import annotations

import gc
import importlib
import sys
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

#: (layer, module, attribute) of every timed entry point.  Layers are named
#: after the program's modules.  Leaf calls made more than ~1M times per run
#: (``OverlayTopology.are_connected``) are deliberately absent: their time
#: counts to the calling layer.
ENTRY_POINTS: tuple[tuple[str, str, str], ...] = (
    ("sim", "repro.sim.engine", "Simulator.run"),
    ("protocol.network", "repro.protocol.network", "P2PNetwork.send"),
    ("protocol.network", "repro.protocol.network", "P2PNetwork.broadcast"),
    ("protocol.network", "repro.protocol.network", "P2PNetwork.multicast"),
    ("protocol.network", "repro.protocol.network", "P2PNetwork.connect"),
    ("net", "repro.net.link", "LinkDelayCalculator.message_delay_s"),
    ("net", "repro.net.link", "LinkDelayCalculator.ping_rtt_s"),
    ("net", "repro.net.link", "LinkDelayCalculator.ping_rtts_s"),
    ("net", "repro.net.link", "LinkDelayCalculator.base_rtt_s"),
    ("protocol.relay", "repro.protocol.node", "BitcoinNode.handle_message"),
    ("protocol.mempool", "repro.protocol.mempool", "Mempool.add"),
    ("protocol.mempool", "repro.protocol.mempool", "Mempool.select_for_block"),
    ("protocol.mempool", "repro.protocol.mempool", "Mempool.remove_confirmed"),
    ("protocol.mempool", "repro.protocol.mempool", "Mempool.remove_conflicts"),
    ("protocol.mempool", "repro.protocol.mempool", "Mempool.remove_unspendable"),
    ("protocol.utxo", "repro.protocol.utxo", "UtxoSet.copy"),
    ("protocol.utxo", "repro.protocol.utxo", "UtxoSet.apply_transaction"),
    ("protocol.blockchain", "repro.protocol.blockchain", "Blockchain.add_block"),
    ("protocol.blockchain", "repro.protocol.blockchain", "Blockchain.contains_transaction"),
    ("protocol.validation", "repro.protocol.validation", "TransactionValidator.validate_transaction"),
    ("protocol.validation", "repro.protocol.validation", "TransactionValidator.validate_block"),
    ("protocol.mining", "repro.protocol.mining", "MiningProcess.mine_one_block"),
    ("protocol.discovery", "repro.protocol.discovery", "DnsSeedService.query"),
    ("protocol.discovery", "repro.protocol.discovery", "DnsSeedService.query_proximity_ranked"),
    ("core", "repro.core.bcbpt", "BcbptPolicy.build_topology"),
    ("core", "repro.core.lbc", "LbcPolicy.build_topology"),
    ("core", "repro.core.random_topology", "RandomNeighbourPolicy.build_topology"),
    ("workloads.network_gen", "repro.workloads.network_gen", "build_network"),
    ("workloads.generators", "repro.workloads.generators", "fund_nodes"),
    ("measurement", "repro.measurement.measuring_node", "MeasuringNode.measure_once"),
    ("experiments", "repro.experiments.api", "run_experiment"),
    ("experiments", "repro.experiments.results", "ExperimentResult.fingerprint"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in ENTRY_POINTS))

#: The ledger layers, whose combined self-time share is ``ledger.self_share``.
LEDGER_LAYERS = ("protocol.mempool", "protocol.utxo", "protocol.blockchain", "protocol.validation")

#: ``NodeStatistics`` fields summed over every node of every cell.
NODE_COUNTERS = (
    "invs_received",
    "getdata_sent",
    "duplicate_invs",
    "compact_blocks_received",
    "compact_blocks_reconstructed",
)

def entry_label(layer: str, attribute: str) -> str:
    """The name a span's entry point is recorded under."""
    return f"{layer}|{attribute}"


def _resolve(module_name: str, attribute: str) -> tuple[Any, str, Any]:
    """(owner object, attribute name, current value) for a dotted attribute."""
    owner: Any = importlib.import_module(module_name)
    parts = attribute.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Probe:
    """Setup timer, per-cell counter harvest and (optionally) span recorder.

    Args:
        trace: also record a span at every entry point of
            :data:`ENTRY_POINTS`.
    """

    def __init__(self, *, trace: bool = False) -> None:
        self.trace = trace
        self.setup_s = 0.0
        self.cells = 0
        self.counters: Counter[str] = Counter()
        self.observed: Counter[str] = Counter()
        self._scenario: Any = None
        self._restore: list[tuple[Any, str, Any]] = []
        self.labels: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.entries = array("h")
        self.cell_ids = array("q")
        self._stack = [-1]

    # ----------------------------------------------------------- patching
    def _replace(self, owner: Any, name: str, old: Any, new: Any) -> None:
        """Swap ``old`` for ``new`` on ``owner`` and in every repro module."""
        self._restore.append((owner, name, old))
        setattr(owner, name, new)
        if isinstance(owner, type):
            return
        for module_name, module in list(sys.modules.items()):
            if module is owner or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is old:
                    self._restore.append((module, attr, old))
                    setattr(module, attr, new)

    def install(self) -> None:
        """Install every wrapper.  Import the driver modules first."""
        if self.trace:
            observers: dict[str, Callable[[Any], None]] = {
                "TransactionValidator.validate_transaction": self._observe_validation,
                "MiningProcess.mine_one_block": self._observe_mining,
                "MeasuringNode.measure_once": self._observe_measurement,
            }
            for layer, module_name, attribute in ENTRY_POINTS:
                owner, name, original = _resolve(module_name, attribute)
                self.labels.append(entry_label(layer, attribute))
                wrapper = self._span_wrapper(len(self.labels) - 1, original, observers.get(attribute))
                self._replace(owner, name, original, wrapper)
        owner, name, original = _resolve("repro.workloads.scenarios", "build_scenario")
        self._replace(owner, name, original, self._build_wrapper(original))
        owner, name, original = _resolve("repro.workloads.generators", "fund_nodes")
        self._replace(owner, name, original, self._setup_wrapper(original))

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        for owner, name, old in reversed(self._restore):
            setattr(owner, name, old)
        self._restore.clear()

    # ----------------------------------------------------------- wrappers
    def _setup_wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        clock = time.perf_counter

        def timed(*args: Any, **kwargs: Any) -> Any:
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                self.setup_s += clock() - started

        return timed

    def _build_wrapper(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        timed = self._setup_wrapper(fn)

        def build(*args: Any, **kwargs: Any) -> Any:
            # Serial cells: a new build means the previous cell is over.
            self.finish()
            self.cells += 1
            scenario = timed(*args, **kwargs)
            self._scenario = scenario
            return scenario

        return build

    def _span_wrapper(
        self,
        entry: int,
        fn: Callable[..., Any],
        observe: Optional[Callable[[Any], None]],
    ) -> Callable[..., Any]:
        clock = time.perf_counter
        starts, ends, parents = self.starts, self.ends, self.parents
        entries, cell_ids, stack = self.entries, self.cell_ids, self._stack

        def span(*args: Any, **kwargs: Any) -> Any:
            index = len(starts)
            entries.append(entry)
            parents.append(stack[-1])
            cell_ids.append(self.cells - 1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return span

    def _observe_validation(self, result: Any) -> None:
        self.observed["tx_validated"] += 1
        self.observed["tx_accepted"] += bool(result)

    def _observe_mining(self, block: Any) -> None:
        self.observed["blocks"] += block is not None

    def _observe_measurement(self, run: Any) -> None:
        self.observed["runs"] += 1
        self.observed["coverage_sum"] += run.coverage

    # -------------------------------------------------------------- cells
    def finish(self) -> None:
        """Read the counters of the last built scenario and let it go.

        The scenario's object graph is cyclic, so it is freed only when the
        collector next runs, and whether that happens before the next build
        depends on the seed.  Collecting here makes peak RSS that of the
        largest cell instead of a coin flip between one and two live
        networks.
        """
        scenario, self._scenario = self._scenario, None
        if scenario is None:
            return
        fabric = scenario.network.network
        counts = self.counters
        counts["events"] += scenario.simulator.events_executed
        counts["messages"] += fabric.total_messages()
        counts["bytes"] += fabric.total_bytes()
        counts["dropped"] += fabric.messages_dropped
        counts["ping_exchanges"] += scenario.build_report.ping_exchanges
        counts["control_messages"] += scenario.build_report.control_messages
        for node in scenario.network.nodes.values():
            for name in NODE_COUNTERS:
                counts[name] += getattr(node.stats, name)
        del scenario, fabric
        gc.collect()

    # -------------------------------------------------------------- spans
    def span_arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy arrays (one row per span)."""
        return {
            "entry": np.frombuffer(self.entries, dtype=np.int16).copy(),
            "start": np.frombuffer(self.starts, dtype=np.float64).copy(),
            "end": np.frombuffer(self.ends, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parents, dtype=np.int64).copy(),
            "cell": np.frombuffer(self.cell_ids, dtype=np.int64).copy(),
        }

    def save_spans(self, path: Path) -> None:
        """Write every span, plus the entry-label table, to ``path`` (.npz)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, labels=np.array(self.labels), **self.span_arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Spans nest strictly (a child starts and ends inside its parent), so the
    children's durations are exactly the part of the parent they cover.
    """
    duration = end - start
    covered = np.zeros_like(duration)
    nested = parent >= 0
    np.add.at(covered, parent[nested], duration[nested])
    return duration - covered


def layer_summary(labels: list[str], entry: np.ndarray, self_s: np.ndarray) -> dict[str, dict[str, float]]:
    """Per layer: summed self time and span count; per entry label: the same."""
    summary: dict[str, dict[str, float]] = {}
    calls = np.bincount(entry, minlength=len(labels))
    seconds = np.bincount(entry, weights=self_s, minlength=len(labels))
    for index, label in enumerate(labels):
        layer = label.split("|", 1)[0]
        row = summary.setdefault(layer, {"self_s": 0.0, "calls": 0})
        row["self_s"] += float(seconds[index])
        row["calls"] += int(calls[index])
        summary[label] = {"self_s": float(seconds[index]), "calls": int(calls[index])}
    return summary
