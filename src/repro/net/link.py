"""Link layer: turns latency + bandwidth models into per-message delays.

A :class:`Link` represents an established TCP connection between two peers in
the overlay.  The :class:`LinkDelayCalculator` computes the simulated delivery
delay of an individual protocol message across a link, combining:

* transmission delay at the bottleneck of the two endpoints' access rates
  (for small control messages this is negligible; for TX and BLOCK payloads it
  matters);
* one-way propagation over the pair's detour-adjusted physical distance;
* receiver queuing (Eq. 4);
* log-normal congestion jitter.

One quirk is kept bit-for-bit because the fig3 goldens depend on it: jitter
multiplies the *flat-rate* transmission term ``size / transmission_rate_bps``;
with a bandwidth model that unjittered flat term is then subtracted and the
bottleneck term ``size / rate`` added, so the bottleneck term is never jittered.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from repro.net.bandwidth import BandwidthModel
from repro.net.geo import GeoPosition
from repro.net.latency import LatencyModel
from repro.net.message import message_size_bytes


@dataclass(frozen=True)
class Link:
    """A live connection between two overlay nodes.

    Attributes:
        node_a: lower node id of the pair.
        node_b: higher node id of the pair.
        established_at: simulated time the connection completed its handshake.
        is_cluster_link: True when the connection was created by a clustering
            policy as an intra-cluster link (used by the overhead and attack
            experiments to distinguish link types).
        is_long_link: True for deliberate long-distance inter-cluster links
            (BCBPT keeps "a few long distance links to the outside cluster").
    """

    node_a: int
    node_b: int
    established_at: float
    is_cluster_link: bool = False
    is_long_link: bool = False

    def __post_init__(self) -> None:
        if self.node_a == self.node_b:
            raise ValueError(f"a node cannot link to itself (node {self.node_a})")
        if self.node_a > self.node_b:
            raise ValueError("Link endpoints must be ordered: node_a < node_b")

    @staticmethod
    def make(node_x: int, node_y: int, established_at: float, **kwargs: bool) -> "Link":
        """Create a link with endpoints in canonical order."""
        low, high = (node_x, node_y) if node_x < node_y else (node_y, node_x)
        return Link(low, high, established_at, **kwargs)

    @property
    def key(self) -> tuple[int, int]:
        """Canonical (low, high) endpoint pair."""
        return (self.node_a, self.node_b)

    def other(self, node_id: int) -> int:
        """The endpoint that is not ``node_id``."""
        if node_id == self.node_a:
            return self.node_b
        if node_id == self.node_b:
            return self.node_a
        raise ValueError(f"node {node_id} is not an endpoint of {self.key}")


class LinkDelayCalculator:
    """Computes message delivery delays across links.

    Positions, routing and access classes are fixed for a run, so each
    directed link keeps one record ``(propagation_s, bottleneck_rate_bps or
    None)``, filled on its first message in this order: path resolution
    (which may draw the pair's routing from the latency stream), then
    ``assign(sender)`` and ``assign(receiver)`` on the bandwidth model's own
    stream.  A later message costs one lookup; only its jitter draws.

    Args:
        latency_model: pairwise latency model (Eq. 2-4 + jitter + detours).
        bandwidth_model: optional per-node bandwidth model; when provided, the
            transmission component uses the endpoints' bottleneck rate instead
            of the link-wide rate from the latency parameters.
    """

    def __init__(
        self,
        latency_model: LatencyModel,
        bandwidth_model: Optional[BandwidthModel] = None,
    ) -> None:
        self._latency = latency_model
        self._bandwidth = bandwidth_model
        parameters = latency_model.parameters
        self._rate_bps = parameters.transmission_rate_bps
        self._queuing_s = latency_model.queuing_delay_s()
        self._floor_s = parameters.minimum_rtt_s / 2.0
        self._jittered = parameters.congestion_jitter_sigma > 0
        #: ``_links[sender][receiver]``: the directed link's record.
        self._links: defaultdict[int, dict[int, tuple[float, Optional[float]]]] = defaultdict(dict)

    def message_delay_s(
        self,
        sender_id: int,
        sender_position: GeoPosition,
        receiver_id: int,
        receiver_position: GeoPosition,
        command: str,
        payload: object = None,
        *,
        jittered: bool = True,
        size_bytes: Optional[int] = None,
        jitter_factor: Optional[float] = None,
    ) -> float:
        """Delivery delay in seconds for one protocol message.

        Args:
            size_bytes: precomputed wire size (skips re-deriving it from the
                command/payload — the network layer already sized the message
                for its byte counters).
            jitter_factor: pre-drawn congestion jitter multiplier for the
                batched broadcast path; None draws per-message as usual.
        """
        size = size_bytes if size_bytes is not None else message_size_bytes(command, payload)
        records = self._links[sender_id]
        record = records.get(receiver_id)
        if record is None:
            latency, bandwidth = self._latency, self._bandwidth
            km = latency.routed_path_km(sender_id, sender_position, receiver_id, receiver_position)
            rate = None
            if bandwidth is not None:
                rate = bandwidth.effective_rate_bps(sender_id, receiver_id)
            record = records[receiver_id] = (latency.propagation_delay_s(km), rate)
        propagation_s, rate_bps = record
        transmission_s = size / self._rate_bps
        delay = (transmission_s + propagation_s) + self._queuing_s
        if jittered and self._jittered:
            if jitter_factor is None:
                jitter_factor = self._latency.jitter_factor()
            delay *= jitter_factor
        # ``x if x > floor else floor`` is ``max(floor, x)`` without the call.
        floor_s = self._floor_s
        if not delay > floor_s:
            delay = floor_s
        if rate_bps is None:
            return delay
        delay = (delay - transmission_s) + size / rate_bps
        return delay if delay > floor_s else floor_s

    def can_batch_jitter(self, sender_id: int, receiver_ids: list[int]) -> bool:
        """Whether jitter for sends to all ``receiver_ids`` may be batch-drawn.

        True only when every pair's persistent routing is already drawn, so
        the batched draw consumes the latency stream exactly like sequential
        per-message draws would (see :meth:`LatencyModel.jitter_factors`).
        A record implies a routed pair, so only receivers without one ask the
        latency model.  "Every link has a record" would be a different rule:
        a byzantine sender's suppressed copy skips its per-message draw but
        not its slot in a batch.
        """
        records = self._links[sender_id]
        routing_cached = self._latency.routing_cached
        for receiver_id in receiver_ids:
            if receiver_id not in records and not routing_cached(sender_id, receiver_id):
                return False
        return True

    def jitter_factors(self, count: int) -> Optional[list[float]]:
        """Batch-draw ``count`` congestion jitter factors (None if disabled)."""
        factors = self._latency.jitter_factors(count)
        return None if factors is None else factors.tolist()

    def ping_rtt_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """One stochastic ping RTT measurement between two connected nodes."""
        return self._latency.sample_rtt(node_a, position_a, node_b, position_b).rtt_s

    def ping_rtts_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
        count: int,
    ) -> list[float]:
        """``count`` stochastic ping RTTs in one batched (stream-exact) call."""
        return self._latency.sample_rtts(node_a, position_a, node_b, position_b, count)

    def base_rtt_s(
        self,
        node_a: int,
        position_a: GeoPosition,
        node_b: int,
        position_b: GeoPosition,
    ) -> float:
        """Deterministic base RTT (no jitter) between two nodes."""
        return self._latency.base_rtt_s(node_a, position_a, node_b, position_b)
