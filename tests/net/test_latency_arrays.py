"""Tests for the array-backed pair store of :class:`LatencyModel`.

The scale plane (docs/ARCHITECTURE.md) rests on the claim that the array
backend (``node_count=n``) is *byte-identical* to the historical dict backend
for every delay either produces: same routing draws in the same stream order,
same resolved paths, same jitter consumption.  These tests pin that claim
directly — dict and array models fed from identically-seeded generators must
agree bit-for-bit on interleaved workloads — plus the index arithmetic and
the deferred-routing bookkeeping the equivalence depends on.
"""

import numpy as np
import pytest

from repro.net.geo import GeoModel
from repro.net.latency import LatencyModel, LatencyParameters
from repro.net.link import LinkDelayCalculator


def sample_positions(count, seed=11):
    """Deterministic node positions shared by both backends."""
    return GeoModel(np.random.default_rng(seed)).sample_positions(count)


def make_pair(node_count=12, seed=3, **overrides):
    """(dict-mode model, array-mode model) fed from identically-seeded rngs."""
    params = LatencyParameters(**overrides) if overrides else LatencyParameters()
    dict_model = LatencyModel(np.random.default_rng(seed), params)
    array_model = LatencyModel(np.random.default_rng(seed), params, node_count=node_count)
    return dict_model, array_model


class TestPairIndex:
    def test_bijection_covers_triangle(self):
        n = 17
        model = LatencyModel(np.random.default_rng(0), node_count=n)
        indices = [
            model._pair_index(a, b) for a in range(n) for b in range(a + 1, n)
        ]
        assert sorted(indices) == list(range(n * (n - 1) // 2))

    def test_order_insensitive(self):
        model = LatencyModel(np.random.default_rng(0), node_count=9)
        for a in range(9):
            for b in range(a + 1, 9):
                assert model._pair_index(a, b) == model._pair_index(b, a)

    def test_self_pair_rejected(self):
        model = LatencyModel(np.random.default_rng(0), node_count=5)
        with pytest.raises(ValueError):
            model._pair_index(3, 3)

    def test_out_of_range_rejected(self):
        model = LatencyModel(np.random.default_rng(0), node_count=5)
        with pytest.raises(ValueError):
            model._pair_index(0, 5)
        with pytest.raises(ValueError):
            model._pair_index(-1, 2)

    def test_node_count_below_two_rejected(self):
        with pytest.raises(ValueError):
            LatencyModel(np.random.default_rng(0), node_count=1)


class TestBackendEquivalence:
    def test_interleaved_workload_is_bit_identical(self):
        """The core contract: an interleaved mix of every public query —
        detour peeks, base RTTs, single and batched samples, message delays —
        produces the same bytes from both backends."""
        n = 12
        positions = sample_positions(n)
        dict_model, array_model = make_pair(node_count=n)
        dict_links = LinkDelayCalculator(dict_model)
        array_links = LinkDelayCalculator(array_model)
        rng = np.random.default_rng(99)  # drives the workload, not the models

        for _ in range(300):
            a, b = rng.choice(n, size=2, replace=False)
            a, b = int(a), int(b)
            op = int(rng.integers(0, 5))
            if op == 0:
                assert dict_model.pair_has_detour(a, b) == array_model.pair_has_detour(a, b)
            elif op == 1:
                assert dict_model.base_rtt_s(
                    a, positions[a], b, positions[b]
                ) == array_model.base_rtt_s(a, positions[a], b, positions[b])
            elif op == 2:
                expected = dict_model.sample_rtt(a, positions[a], b, positions[b])
                actual = array_model.sample_rtt(a, positions[a], b, positions[b])
                assert expected == actual
            elif op == 3:
                count = int(rng.integers(1, 6))
                assert dict_model.sample_rtts(
                    a, positions[a], b, positions[b], count
                ) == array_model.sample_rtts(a, positions[a], b, positions[b], count)
            else:
                assert dict_links.message_delay_s(
                    a, positions[a], b, positions[b], "tx", 345
                ) == array_links.message_delay_s(a, positions[a], b, positions[b], "tx", 345)

    def test_resolved_paths_match_dict_mode(self):
        n = 10
        positions = sample_positions(n)
        dict_model, array_model = make_pair(node_count=n)
        for a in range(n):
            for b in range(a + 1, n):
                km = positions[a].distance_km(positions[b])
                assert dict_model.path_km(a, b, km) == array_model.path_km(a, b, km)

    def test_array_mode_resolves_path_once(self):
        # Positions are immutable for a run, so array mode pins the first
        # resolution; dict mode recomputes from the persistent stretch draw.
        _, array_model = make_pair(node_count=6)
        first = array_model.path_km(0, 1, 1000.0)
        assert array_model.path_km(0, 1, 2000.0) == first

    def test_jitter_factors_match(self):
        dict_model, array_model = make_pair(node_count=6)
        expected = dict_model.jitter_factors(16)
        actual = array_model.jitter_factors(16)
        assert np.array_equal(expected, actual)


class TestDeferredRouting:
    def test_detour_peek_before_resolution_is_stream_exact(self):
        """``pair_has_detour`` on an unresolved pair draws routing immediately
        (same stream position as dict mode) and parks it; the later path
        resolution must consume the parked draw, not a fresh one."""
        n = 8
        positions = sample_positions(n)
        dict_model, array_model = make_pair(node_count=n)

        assert dict_model.pair_has_detour(2, 5) == array_model.pair_has_detour(2, 5)
        # Unresolved peek does not mark the pair as routed...
        assert not array_model.routing_cached(2, 5)
        # ...but the draw is parked and reused: the resolved path and every
        # later draw still line up with dict mode.
        assert dict_model.base_rtt_s(
            2, positions[2], 5, positions[5]
        ) == array_model.base_rtt_s(2, positions[2], 5, positions[5])
        assert array_model.routing_cached(2, 5)
        assert dict_model.pair_has_detour(2, 5) == array_model.pair_has_detour(2, 5)
        assert dict_model.sample_rtts(
            0, positions[0], 7, positions[7], 4
        ) == array_model.sample_rtts(0, positions[0], 7, positions[7], 4)

    def test_repeated_peeks_consume_one_draw(self):
        n = 8
        positions = sample_positions(n)
        dict_model, array_model = make_pair(node_count=n)
        for _ in range(3):
            assert dict_model.pair_has_detour(1, 4) == array_model.pair_has_detour(1, 4)
        assert dict_model.sample_rtt(
            1, positions[1], 4, positions[4]
        ) == array_model.sample_rtt(1, positions[1], 4, positions[4])


class TestRoutingCached:
    @pytest.mark.parametrize("array_backed", [False, True])
    def test_cached_after_first_touch(self, array_backed):
        positions = sample_positions(6)
        model = LatencyModel(
            np.random.default_rng(3),
            LatencyParameters(),
            node_count=6 if array_backed else None,
        )
        assert model.array_backed == array_backed
        assert not model.routing_cached(0, 1)
        model.base_rtt_s(0, positions[0], 1, positions[1])
        assert model.routing_cached(0, 1)
        assert model.routing_cached(1, 0)

    def test_array_footprint_is_compact(self):
        # The point of array mode: 9 bytes per pair, not ~500 of dict overhead.
        n = 100
        model = LatencyModel(np.random.default_rng(0), node_count=n)
        pairs = n * (n - 1) // 2
        assert model._pair_path_km.nbytes == 8 * pairs
        assert model._pair_flags.nbytes == pairs
