"""Tests for double-spend conflict observation and merchant detection.

The double-spend experiment relies on three node-level behaviours added for
it: recording when a conflicting transaction is first observed, relaying the
first conflicting transaction once (the double-spend alert), and serving the
rejected transaction to peers that request it.  These tests pin each of those
down plus the detection-time accounting and the NaN-on-zero-detections edge
case in the experiment aggregation.
"""

from __future__ import annotations

import math

import pytest

from repro.experiments.doublespend import (
    DoubleSpendJobResult,
    DoubleSpendPoint,
    mean_detection_time_s,
)
from repro.protocol.doublespend import DoubleSpendAttacker, merchant_detection, tally_first_seen
from repro.protocol.messages import GetDataMessage, InventoryType, TxMessage
from repro.protocol.node import NodeConfig
from repro.workloads.generators import fund_nodes
from repro.workloads.network_gen import NetworkParameters, build_network


def build_ring_network(node_count=12, seed=4, outputs=3, node_config=None):
    # Double-spend alerts are opt-in (vanilla Bitcoin drops conflicts
    # silently); this harness enables them unless a config says otherwise.
    if node_config is None:
        node_config = NodeConfig(relay_conflicts=True)
    parameters = NetworkParameters(node_count=node_count, seed=seed, node_config=node_config)
    simulated = build_network(parameters)
    ids = simulated.node_ids()
    for index, node_id in enumerate(ids):
        simulated.network.connect(node_id, ids[(index + 1) % len(ids)])
        simulated.network.connect(node_id, ids[(index + 2) % len(ids)])
    fund_nodes(list(simulated.nodes.values()), outputs_per_node=outputs)
    return simulated


def build_conflict_pair(simulated, attacker_id=0, merchant_id=6, amount=1000):
    attacker_node = simulated.node(attacker_id)
    merchant_node = simulated.node(merchant_id)
    attacker = DoubleSpendAttacker(attacker_node, merchant_node.keypair.address)
    return attacker.build_pair(amount)


class TestConflictObservation:
    def test_rejected_conflict_is_recorded(self):
        simulated = build_ring_network()
        node = simulated.node(3)
        pair = build_conflict_pair(simulated)
        node.accept_transaction(pair.victim_tx, origin_peer=None)
        result = node.accept_transaction(pair.attacker_tx, origin_peer=4)
        assert not result.valid
        assert pair.attacker_tx.txid in node.observed_conflicts
        conflicting_txid, observed_at = node.observed_conflicts[pair.attacker_tx.txid]
        assert conflicting_txid == pair.victim_tx.txid
        assert observed_at == node.now
        assert node.first_conflict_time(pair.attacker_tx.txid) == observed_at
        # The mempool still applies first-seen: only the victim tx is pending.
        assert pair.victim_tx.txid in node.mempool
        assert pair.attacker_tx.txid not in node.mempool

    def test_conflict_observed_only_once(self):
        simulated = build_ring_network()
        node = simulated.node(3)
        pair = build_conflict_pair(simulated)
        node.accept_transaction(pair.victim_tx, origin_peer=None)
        node.accept_transaction(pair.attacker_tx, origin_peer=4)
        first = node.observed_conflicts[pair.attacker_tx.txid]
        node.accept_transaction(pair.attacker_tx, origin_peer=5)
        assert node.observed_conflicts[pair.attacker_tx.txid] == first

    def test_no_conflict_recorded_for_clean_transactions(self):
        simulated = build_ring_network()
        node = simulated.node(3)
        pair = build_conflict_pair(simulated)
        node.accept_transaction(pair.victim_tx, origin_peer=None)
        assert node.observed_conflicts == {}

    def test_conflicting_transaction_served_on_getdata(self):
        simulated = build_ring_network()
        simulator = simulated.simulator
        node = simulated.node(3)
        peer = simulated.node(4)
        pair = build_conflict_pair(simulated)
        node.accept_transaction(pair.victim_tx, origin_peer=None)
        node.accept_transaction(pair.attacker_tx, origin_peer=2)
        request = GetDataMessage(
            sender=peer.node_id,
            inventory_type=InventoryType.TRANSACTION,
            hashes=(pair.attacker_tx.txid,),
        )
        node.handle_message(peer.node_id, request)
        simulator.run(until=simulator.now + 5.0)
        assert pair.attacker_tx.txid in peer.known_transactions

    def test_relay_conflicts_announces_the_alert(self):
        simulated = build_ring_network()
        simulator = simulated.simulator
        node = simulated.node(3)
        pair = build_conflict_pair(simulated)
        node.accept_transaction(pair.victim_tx, origin_peer=None)
        node.handle_message(2, TxMessage(sender=2, transaction=pair.attacker_tx))
        simulator.run(until=simulator.now + 5.0)
        # Neighbours other than the origin hear the alert.
        neighbours = [simulated.node(p) for p in node.neighbors() if p != 2]
        assert neighbours
        for neighbour in neighbours:
            assert pair.attacker_tx.txid in neighbour.known_transactions


class TestMerchantDetection:
    def test_merchant_detects_conflict_through_alert_flood(self):
        simulated = build_ring_network()
        simulator = simulated.simulator
        merchant = simulated.node(6)
        pair = build_conflict_pair(simulated)
        start = simulator.now
        merchant.accept_transaction(pair.victim_tx, origin_peer=None)
        merchant.announce_transaction(pair.victim_tx.txid)
        simulated.node(0).accept_transaction(pair.attacker_tx, origin_peer=None)
        simulated.node(0).announce_transaction(pair.attacker_tx.txid)
        simulator.run(until=start + 30.0)
        detected, detection_time = merchant_detection(
            merchant, pair, start_time=start, horizon_s=30.0
        )
        assert detected
        assert detection_time is not None
        assert 0.0 < detection_time <= 30.0
        # The first-seen split itself is unchanged by the alert relay.
        outcome = tally_first_seen(list(simulated.nodes.values()), pair)
        assert outcome.total_deciding_nodes == simulated.node_count

    def test_without_conflict_relay_the_merchant_stays_blind(self):
        # The default NodeConfig: conflicts are dropped silently, as in
        # vanilla Bitcoin — and as every non-doublespend experiment runs.
        simulated = build_ring_network(node_config=NodeConfig())
        simulator = simulated.simulator
        merchant = simulated.node(6)
        pair = build_conflict_pair(simulated)
        start = simulator.now
        merchant.accept_transaction(pair.victim_tx, origin_peer=None)
        merchant.announce_transaction(pair.victim_tx.txid)
        simulated.node(0).accept_transaction(pair.attacker_tx, origin_peer=None)
        simulated.node(0).announce_transaction(pair.attacker_tx.txid)
        simulator.run(until=start + 30.0)
        # The merchant sits inside the victim wave: without double-spend
        # alerts, the attacker wave halts at the first-seen frontier and the
        # conflicting txid never reaches it — the pre-fix detection_rate=0 bug.
        detected, detection_time = merchant_detection(
            merchant, pair, start_time=start, horizon_s=30.0
        )
        assert not detected
        assert detection_time is None

    def test_detection_time_uses_first_seen_not_acceptance(self):
        simulated = build_ring_network()
        merchant = simulated.node(6)
        pair = build_conflict_pair(simulated)
        merchant.accept_transaction(pair.victim_tx, origin_peer=None)
        merchant.accept_transaction(pair.attacker_tx, origin_peer=5)
        # The attacker tx is rejected, so it never gets an acceptance time —
        # but the reception (first-seen) time drives detection anyway.
        assert pair.attacker_tx.txid not in merchant.transaction_accept_times
        detected, detection_time = merchant_detection(
            merchant, pair, start_time=merchant.now, horizon_s=2.0
        )
        assert detected
        assert detection_time == 0.0

    def test_detection_time_clamps_to_horizon_and_zero(self):
        simulated = build_ring_network()
        merchant = simulated.node(6)
        pair = build_conflict_pair(simulated)
        merchant.accept_transaction(pair.victim_tx, origin_peer=None)
        merchant.accept_transaction(pair.attacker_tx, origin_peer=5)
        seen = merchant.transaction_first_seen_times[pair.attacker_tx.txid]
        # Start after the recorded time -> clamps to 0, never negative.
        detected, detection_time = merchant_detection(
            merchant, pair, start_time=seen + 1.0, horizon_s=2.0
        )
        assert detected and detection_time == 0.0
        # Start far before the recorded time -> clamps to the horizon.
        detected, detection_time = merchant_detection(
            merchant, pair, start_time=seen - 10.0, horizon_s=2.0
        )
        assert detected and detection_time == 2.0


class TestDetectionAggregation:
    def test_mean_detection_time_of_samples(self):
        assert mean_detection_time_s([0.5, 1.5]) == pytest.approx(1.0)

    def test_mean_detection_time_nan_on_zero_detections(self):
        assert math.isnan(mean_detection_time_s([]))

    @staticmethod
    def _cell(races: int) -> DoubleSpendJobResult:
        return DoubleSpendJobResult(
            protocol="bitcoin",
            seed=3,
            races=races,
            attacker_shares=(0.5,) * races,
            detections=0,
            detection_times_s=(),
        )

    def test_point_accepts_nan_detection_time(self):
        summary = DoubleSpendPoint("bitcoin", (self._cell(4),)).summary()
        assert math.isnan(summary["mean_detection_time_s"])
        assert summary["detection_rate"] == 0.0
        assert summary["mean_attacker_share"] == 0.5

    def test_point_needs_a_race(self):
        with pytest.raises(ValueError, match="at least one race"):
            DoubleSpendPoint("bitcoin", (self._cell(0),))
