"""Tests for wire-message sizing, the bandwidth model and the link layer."""

import numpy as np
import pytest

from repro.net.bandwidth import AccessClass, BandwidthModel
from repro.net.geo import GeoModel, GeoPosition
from repro.net.latency import LatencyModel, LatencyParameters
from repro.net.link import Link, LinkDelayCalculator
from repro.net.message import (
    ADDR_ENTRY_BYTES,
    BLOCK_HEADER_BYTES,
    BLOCK_TXN_INDEX_BYTES,
    BLOCK_TXN_REQUEST_BYTES,
    HEADER_BYTES,
    INV_ENTRY_BYTES,
    WireMessage,
    message_size_bytes,
)

LONDON = GeoPosition(51.51, -0.13, "uk", "GB")
PARIS = GeoPosition(48.86, 2.35, "france", "FR")


class TestMessageSizes:
    def test_every_size_includes_header(self):
        for command in ("version", "verack", "ping", "pong", "getaddr", "inv", "tx", "block"):
            assert message_size_bytes(command, 1) >= HEADER_BYTES

    def test_inv_scales_with_entry_count(self):
        one = message_size_bytes("inv", 1)
        ten = message_size_bytes("inv", 10)
        assert ten - one == 9 * INV_ENTRY_BYTES

    def test_getdata_matches_inv_sizing(self):
        assert message_size_bytes("getdata", 4) == message_size_bytes("inv", 4)

    def test_addr_scales_with_address_count(self):
        assert message_size_bytes("addr", 10) - message_size_bytes("addr", 1) == 9 * ADDR_ENTRY_BYTES

    def test_tx_uses_transaction_size(self):
        assert message_size_bytes("tx", 500) == HEADER_BYTES + 500

    def test_tx_default_size(self):
        assert message_size_bytes("tx") > HEADER_BYTES

    def test_block_uses_block_size(self):
        assert message_size_bytes("block", 1_000_000) == HEADER_BYTES + 1_000_000

    def test_verack_is_header_only(self):
        assert message_size_bytes("verack") == HEADER_BYTES

    def test_unknown_command_rejected(self):
        with pytest.raises(KeyError):
            message_size_bytes("bogus")

    def test_negative_inventory_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("inv", -1)

    def test_non_positive_tx_size_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("tx", 0)

    def test_wire_message_rejects_sub_header_size(self):
        with pytest.raises(ValueError):
            WireMessage("inv", HEADER_BYTES - 1)

    def test_cmpctblock_uses_payload_bytes(self):
        assert message_size_bytes("cmpctblock", 500) == HEADER_BYTES + 500
        assert message_size_bytes("cmpctblock") == HEADER_BYTES + BLOCK_HEADER_BYTES

    def test_cmpctblock_smaller_than_header_rejected(self):
        with pytest.raises(ValueError):
            message_size_bytes("cmpctblock", BLOCK_HEADER_BYTES - 1)

    def test_getblocktxn_scales_with_index_count(self):
        one = message_size_bytes("getblocktxn", 1)
        ten = message_size_bytes("getblocktxn", 10)
        assert one == HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + BLOCK_TXN_INDEX_BYTES
        assert ten - one == 9 * BLOCK_TXN_INDEX_BYTES
        with pytest.raises(ValueError):
            message_size_bytes("getblocktxn", -1)

    def test_blocktxn_uses_transaction_bytes(self):
        assert message_size_bytes("blocktxn", 700) == (
            HEADER_BYTES + BLOCK_TXN_REQUEST_BYTES + 700
        )
        with pytest.raises(ValueError):
            message_size_bytes("blocktxn", -1)

    def test_compact_announcement_is_much_smaller_than_block(self):
        """The whole point of compact relay: header + short ids << full block."""
        block_bytes = 1_000_000
        compact_bytes = BLOCK_HEADER_BYTES + 2000 * 6 + 258
        assert message_size_bytes("cmpctblock", compact_bytes) < (
            message_size_bytes("block", block_bytes) / 50
        )


class TestBandwidthModel:
    def test_assignment_is_persistent(self, rng):
        model = BandwidthModel(rng)
        first = model.assign(7)
        assert model.assign(7) == first

    def test_effective_rate_is_bottleneck(self, rng):
        classes = (
            AccessClass("slow", uplink_bps=100.0, downlink_bps=100.0, weight=1.0),
        )
        model = BandwidthModel(rng, classes=classes)
        assert model.effective_rate_bps(1, 2) == pytest.approx(100.0)

    def test_transmission_delay(self, rng):
        # The link layer swaps the flat-rate transmission term for the
        # bottleneck one: 500 bytes at 1000 B/s take 0.5 s.
        classes = (AccessClass("c", uplink_bps=1000.0, downlink_bps=1000.0, weight=1.0),)
        params = LatencyParameters(congestion_jitter_sigma=0.0)
        flat = LinkDelayCalculator(LatencyModel(np.random.default_rng(3), params))
        bottleneck = LinkDelayCalculator(
            LatencyModel(np.random.default_rng(3), params), BandwidthModel(rng, classes=classes)
        )
        size = 500
        expected = flat.message_delay_s(0, LONDON, 1, PARIS, "tx", size_bytes=size) + (
            0.5 - size / params.transmission_rate_bps
        )
        actual = bottleneck.message_delay_s(0, LONDON, 1, PARIS, "tx", size_bytes=size)
        assert actual == pytest.approx(expected)

    def test_empty_class_list_rejected(self, rng):
        with pytest.raises(ValueError):
            BandwidthModel(rng, classes=[])

    def test_invalid_class_rates_rejected(self):
        with pytest.raises(ValueError):
            AccessClass("bad", uplink_bps=0.0, downlink_bps=10.0, weight=1.0)

    def test_class_mix_follows_weights(self):
        rng = np.random.default_rng(5)
        model = BandwidthModel(rng)
        counts = {}
        for node_id in range(2000):
            name = model.assign(node_id).access_class
            counts[name] = counts.get(name, 0) + 1
        # residential-fast has weight 0.40 of the default mix.
        assert 0.3 <= counts.get("residential-fast", 0) / 2000 <= 0.5


class TestLink:
    def test_make_orders_endpoints(self):
        link = Link.make(9, 2, established_at=1.0)
        assert link.key == (2, 9)

    def test_self_link_rejected(self):
        with pytest.raises(ValueError):
            Link(3, 3, established_at=0.0)

    def test_unordered_construction_rejected(self):
        with pytest.raises(ValueError):
            Link(5, 2, established_at=0.0)

    def test_other_endpoint(self):
        link = Link.make(1, 2, established_at=0.0)
        assert link.other(1) == 2
        assert link.other(2) == 1
        with pytest.raises(ValueError):
            link.other(3)


class TestLinkDelayCalculator:
    def _calculator(self, with_bandwidth=False):
        rng = np.random.default_rng(3)
        latency = LatencyModel(
            rng, LatencyParameters(congestion_jitter_sigma=0.0, detour_probability=0.0)
        )
        bandwidth = BandwidthModel(np.random.default_rng(4)) if with_bandwidth else None
        return LinkDelayCalculator(latency, bandwidth)

    def test_message_delay_positive(self):
        calc = self._calculator()
        assert calc.message_delay_s(0, LONDON, 1, PARIS, "inv", 1) > 0

    def test_larger_messages_take_longer(self):
        calc = self._calculator()
        small = calc.message_delay_s(0, LONDON, 1, PARIS, "tx", 300, jittered=False)
        big = calc.message_delay_s(0, LONDON, 1, PARIS, "block", 1_000_000, jittered=False)
        assert big > small

    def test_bandwidth_model_changes_transmission_component(self):
        flat = self._calculator(with_bandwidth=False)
        heterogeneous = self._calculator(with_bandwidth=True)
        flat_delay = flat.message_delay_s(0, LONDON, 1, PARIS, "block", 500_000, jittered=False)
        hetero_delay = heterogeneous.message_delay_s(
            0, LONDON, 1, PARIS, "block", 500_000, jittered=False
        )
        assert flat_delay != pytest.approx(hetero_delay)

    def test_ping_rtt_close_to_base_rtt_without_jitter(self):
        calc = self._calculator()
        ping = calc.ping_rtt_s(0, LONDON, 1, PARIS)
        base = calc.base_rtt_s(0, LONDON, 1, PARIS)
        assert ping == pytest.approx(base)

    def test_control_message_delay_roughly_half_rtt(self):
        calc = self._calculator()
        delay = calc.message_delay_s(0, LONDON, 1, PARIS, "inv", 1, jittered=False)
        rtt = calc.base_rtt_s(0, LONDON, 1, PARIS)
        assert delay < rtt
        assert delay > rtt / 4


def parent_delay(latency, latency_rng, bandwidth, sender, receiver, positions, size, factor):
    """The per-message composition the link records must reproduce, written out.

    One-way delay over the pair's routed path with the flat-rate transmission
    term, jittered and floored; then, with a bandwidth model, the flat term is
    swapped for the bottleneck term and the result floored again.
    """
    params = latency.parameters
    floor = params.minimum_rtt_s / 2.0
    path_km = latency.routed_path_km(sender, positions[sender], receiver, positions[receiver])
    flat = size / params.transmission_rate_bps
    delay = flat + (path_km * 1000.0) / params.signal_speed_m_s + latency.queuing_delay_s()
    if params.congestion_jitter_sigma > 0:
        if factor is None:
            factor = float(latency_rng.lognormal(mean=0.0, sigma=params.congestion_jitter_sigma))
        delay *= factor
    delay = max(floor, delay)
    if bandwidth is not None:
        up = bandwidth.assign(sender).uplink_bps
        down = bandwidth.assign(receiver).downlink_bps
        delay = max(floor, delay - flat + size / min(up, down))
    return delay


class TestLinkRecordStreamExactness:
    """Per-link delay records reproduce the per-message composition bit for bit.

    Two identically seeded worlds run one interleaved workload: the
    :class:`LinkDelayCalculator` on one side, :func:`parent_delay` with the
    fan-out rule "batch the jitter draws once every destination pair's routing
    is drawn" on the other.  Pings draw some pairs' routing before their first
    message.  Every delay and both generators' final states must match.
    """

    @pytest.mark.parametrize("jitter_sigma", [0.0, 0.15])
    @pytest.mark.parametrize("with_bandwidth", [False, True])
    @pytest.mark.parametrize("array_backed", [False, True])
    def test_records_match_composition(self, array_backed, with_bandwidth, jitter_sigma):
        n = 10
        positions = GeoModel(np.random.default_rng(11)).sample_positions(n)
        params = LatencyParameters(congestion_jitter_sigma=jitter_sigma)
        node_count = n if array_backed else None

        def world():
            latency_rng, bandwidth_rng = np.random.default_rng(3), np.random.default_rng(4)
            latency = LatencyModel(latency_rng, params, node_count)
            bandwidth = BandwidthModel(bandwidth_rng) if with_bandwidth else None
            return latency_rng, bandwidth_rng, latency, bandwidth

        new_latency_rng, new_bandwidth_rng, new_latency, new_bandwidth = world()
        calc = LinkDelayCalculator(new_latency, new_bandwidth)
        old_latency_rng, old_bandwidth_rng, old_latency, old_bandwidth = world()
        routed: set[frozenset[int]] = set()
        workload = np.random.default_rng(99)  # drives the workload, not the models
        seen = {
            "first-touch": 0,
            "repeated": 0,
            "batched": 0,
            "batched-without-record": 0,
            "per-message": 0,
        }

        def send(sender, receiver, size, new_factor=None, old_factor=None):
            seen["repeated" if receiver in calc._links[sender] else "first-touch"] += 1
            new = calc.message_delay_s(
                sender, positions[sender], receiver, positions[receiver], "tx",
                size_bytes=size, jitter_factor=new_factor,
            )
            old = parent_delay(
                old_latency, old_latency_rng, old_bandwidth,
                sender, receiver, positions, size, old_factor,
            )
            routed.add(frozenset((sender, receiver)))
            assert new == old

        for _ in range(400):
            op = int(workload.integers(0, 4))
            sender = int(workload.integers(0, n))
            others = [peer for peer in range(n) if peer != sender]
            size = int(workload.integers(61, 5_000))
            if op == 0:  # one message
                seen["per-message"] += 1
                send(sender, int(workload.choice(others)), size)
            elif op == 1:  # a ping round on a pair, drawing routing before any message
                receiver = int(workload.choice(others))
                count = int(workload.integers(1, 4))
                assert calc.ping_rtts_s(
                    sender, positions[sender], receiver, positions[receiver], count
                ) == old_latency.sample_rtts(
                    sender, positions[sender], receiver, positions[receiver], count
                )
                routed.add(frozenset((sender, receiver)))
            else:  # a fan-out
                width = int(workload.integers(2, 5))
                peers = [int(p) for p in workload.choice(others, size=width, replace=False)]
                new_batch = calc.can_batch_jitter(sender, peers)
                new_factors = calc.jitter_factors(width) if new_batch else None
                old_batch = all(frozenset((sender, peer)) in routed for peer in peers)
                # The same rule, not merely the same draws: a byzantine sender
                # suppressing a copy makes batched and per-message differ.
                assert new_batch == old_batch
                if new_batch and any(peer not in calc._links[sender] for peer in peers):
                    seen["batched-without-record"] += 1
                old_factors = None
                if old_batch and jitter_sigma > 0:
                    old_factors = old_latency_rng.lognormal(mean=0.0, sigma=jitter_sigma, size=width)
                seen["batched" if new_batch else "per-message"] += 1
                for index, peer in enumerate(peers):
                    send(
                        sender, peer, size,
                        None if new_factors is None else new_factors[index],
                        None if old_factors is None else old_factors[index],
                    )

        assert new_latency_rng.bit_generator.state == old_latency_rng.bit_generator.state
        assert new_bandwidth_rng.bit_generator.state == old_bandwidth_rng.bit_generator.state
        assert min(seen.values()) > 0, seen
