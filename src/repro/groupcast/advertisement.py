"""Service announcement: SSA and NSSA (Sections 2.2 and 3.2).

The rendezvous point advertises the group; every receiving peer forwards
the advertisement onward with a decremented TTL.  The two schemes differ
in the forwarding set:

* **NSSA** (non-selective, DVMRP/Scattercast-style baseline) forwards to
  *every* neighbor not already on the message path — the full path is
  embedded to suppress loops and counting-to-infinity;
* **SSA** (selective) forwards to a *subset* of neighbors sampled by the
  utility function of Section 3.1: the probability of a neighbor being
  included is proportional to its selection-preference value, so
  advertisement paths run over high-utility links.  This is precisely how
  utility awareness is injected into the spanning tree (Section 3.2): the
  links an advertisement traversed become tree edges when a downstream
  peer subscribes.

Propagation is simulated in arrival-time order: a peer's *first* receipt
defines its upstream (reverse-path parent); later copies count as
duplicates and are dropped via the ``receivedAdvertising`` table.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from ..config import AnnouncementConfig, UtilityConfig
from ..errors import GroupError
from ..obs.registry import Registry, get_default_registry
from ..obs.tracer import (
    KIND_DEAD_LETTER,
    KIND_DELIVER,
    KIND_SEND,
    Tracer,
    get_default_tracer,
)
from ..overlay.graph import OverlayNetwork
from ..overlay.messages import MessageKind, MessageStats
from ..peers.peer import coordinate_distances
from ..sim.random import RandomSource, weighted_sample_without_replacement
from ..utility.preference import (
    capacity_preference,
    derive_parameters,
    distance_preference,
    selection_preference,
)
from ..utility.resource_level import estimate_resource_level

#: Maps a peer pair to the true message-transit latency in milliseconds.
LatencyFn = Callable[[int, int], float]

#: Optional trust hook: maps ``(observer, subject)`` to a weight in
#: (0, 1] multiplied into SSA forwarding preferences.
TrustFn = Callable[[int, int], float]


@dataclass(frozen=True)
class AdvertisementReceipt:
    """First receipt of the group advertisement at one peer."""

    peer_id: int
    upstream: int | None
    elapsed_ms: float
    hops: int


@dataclass(frozen=True)
class AdvertisementOutcome:
    """Result of propagating one announcement through the overlay."""

    group_id: int
    rendezvous: int
    scheme: str
    receipts: Mapping[int, AdvertisementReceipt]
    messages_sent: int
    duplicates: int

    def receiving_rate(self, overlay_size: int) -> float:
        """Fraction of the overlay that received the advertisement."""
        if overlay_size <= 0:
            raise GroupError("overlay_size must be positive")
        return len(self.receipts) / overlay_size

    def reverse_path(self, peer_id: int) -> list[int]:
        """Chain ``[peer, upstream, ..., rendezvous]`` for a receiver."""
        if peer_id not in self.receipts:
            raise GroupError(f"peer {peer_id} never received the ad")
        chain = [peer_id]
        node = peer_id
        guard = len(self.receipts) + 1
        while (upstream := self.receipts[node].upstream) is not None:
            chain.append(upstream)
            node = upstream
            guard -= 1
            if guard < 0:
                raise GroupError("cycle in advertisement reverse paths")
        return chain


def propagate_advertisement(
    overlay: OverlayNetwork,
    rendezvous: int,
    group_id: int,
    scheme: str,
    latency_fn: LatencyFn,
    rng: RandomSource,
    config: AnnouncementConfig | None = None,
    utility_config: UtilityConfig | None = None,
    stats: MessageStats | None = None,
    trust_fn: TrustFn | None = None,
    registry: Registry | None = None,
    tracer: Tracer | None = None,
) -> AdvertisementOutcome:
    """Propagate one advertisement and return the receipt map.

    ``latency_fn`` supplies true underlay transit latencies (drives arrival
    order); SSA's *forwarding decisions* use coordinate estimates carried
    in the peer quadruplets, as a real deployment would.  ``trust_fn``
    optionally scales each neighbor's forwarding preference by the
    sender's trust in it (see :mod:`repro.trust`), steering announcement
    paths — and hence spanning trees — around misbehaving peers.

    When a span-capturing ``tracer`` is supplied (or installed as the
    process default via :func:`~repro.obs.tracer.enable_tracing`), the
    whole flood records as one ``advertisement`` span tree: every copy
    is a child span of the receipt that caused it, with send/deliver
    records at the procedural virtual times.
    """
    if scheme not in ("ssa", "nssa"):
        raise GroupError(f"unknown announcement scheme {scheme!r}")
    if rendezvous not in overlay:
        raise GroupError(f"rendezvous {rendezvous} is not in the overlay")
    config = config or AnnouncementConfig()
    utility_config = utility_config or UtilityConfig()
    stats = stats or MessageStats()
    registry = registry if registry is not None else get_default_registry()
    tracer = tracer if tracer is not None else get_default_tracer()
    tracing = tracer is not None and tracer.spans
    c_messages = registry.counter(f"messages.{MessageKind.ADVERTISEMENT.value}")
    c_duplicates = registry.counter("advertisement.duplicates")
    c_receipts = registry.counter("advertisement.receipts")
    detail = MessageKind.ADVERTISEMENT.value

    root = (tracer.root_span(at_ms=0.0, kind="advertisement")
            if tracing else None)
    receipts: dict[int, AdvertisementReceipt] = {
        rendezvous: AdvertisementReceipt(rendezvous, None, 0.0, 0)
    }
    messages = 0
    duplicates = 0
    counter = itertools.count()
    # (arrival_ms, seq, sender, receiver, ttl, path, span); the unique
    # seq settles every heap comparison before the (non-orderable) span.
    heap: list[tuple] = []

    def forward_from(peer_id: int, elapsed_ms: float, ttl: int,
                     path: tuple[int, ...], parent_span) -> None:
        nonlocal messages
        if ttl <= 0:
            return
        targets = _forwarding_targets(
            overlay, peer_id, path, scheme, config, utility_config, rng,
            trust_fn)
        for target in targets:
            arrival = elapsed_ms + latency_fn(peer_id, target)
            span = None
            if tracing:
                span = tracer.child_span(parent_span)
                tracer.record(elapsed_ms, KIND_SEND, a=peer_id, b=target,
                              detail=detail, span=span)
            heapq.heappush(
                heap, (arrival, next(counter), peer_id, target, ttl - 1,
                       path, span))
            messages += 1
            stats.record(MessageKind.ADVERTISEMENT)
            c_messages.inc()

    forward_from(rendezvous, 0.0, config.advertisement_ttl, (rendezvous,),
                 root)
    while heap:
        arrival, _, sender, receiver, ttl, path, span = heapq.heappop(heap)
        if receiver in receipts:
            duplicates += 1  # dropped by the receivedAdvertising table
            c_duplicates.inc()
            if tracing:
                tracer.record(arrival, KIND_DELIVER, a=sender, b=receiver,
                              detail=detail, span=span)
            continue
        if receiver not in overlay:
            if tracing:
                tracer.record(arrival, KIND_DEAD_LETTER, a=sender,
                              b=receiver, detail=detail, span=span)
            continue  # peer departed mid-flight
        if tracing:
            tracer.record(arrival, KIND_DELIVER, a=sender, b=receiver,
                          detail=detail, span=span)
        receipts[receiver] = AdvertisementReceipt(
            receiver, sender, arrival, len(path))
        c_receipts.inc()
        forward_from(receiver, arrival, ttl, path + (receiver,), span)

    return AdvertisementOutcome(
        group_id=group_id,
        rendezvous=rendezvous,
        scheme=scheme,
        receipts=receipts,
        messages_sent=messages,
        duplicates=duplicates,
    )


def _forwarding_targets(
    overlay: OverlayNetwork,
    peer_id: int,
    path: tuple[int, ...],
    scheme: str,
    config: AnnouncementConfig,
    utility_config: UtilityConfig,
    rng: RandomSource,
    trust_fn: TrustFn | None = None,
) -> list[int]:
    """Neighbors a peer forwards the advertisement to.

    Only *local* knowledge excludes targets: nodes on the embedded message
    path (which certainly hold the ad) are skipped, as in DVMRP's loop
    suppression.  Copies sent to peers that received the ad via another
    path still cost a message and are dropped at the receiver — this
    duplicate traffic is exactly the overhead Figure 11 charges to NSSA.
    """
    on_path = set(path)
    neighbors = [n for n in overlay.neighbors(peer_id) if n not in on_path]
    if not neighbors:
        return []
    if scheme == "nssa":
        return neighbors

    fanout = max(config.ssa_min_fanout,
                 int(round(config.ssa_fanout_fraction * len(neighbors))))
    fanout = min(fanout, len(neighbors))
    if config.ssa_strategy == "random":
        # The basic framework of Section 2.2: a uniformly random subset.
        picks = rng.choice(len(neighbors), size=fanout, replace=False)
        return [neighbors[int(i)] for i in picks]

    me = overlay.peer(peer_id)
    capacities, coords = overlay.peer_columns(neighbors)
    distances = coordinate_distances(coords, me.coordinate)
    resource_level = estimate_resource_level(
        me.capacity, capacities, utility_config)
    if config.ssa_strategy == "distance":
        alpha, _, _ = derive_parameters(resource_level, utility_config)
        preference = distance_preference(distances, alpha, utility_config)
    elif config.ssa_strategy == "capacity":
        _, beta, _ = derive_parameters(resource_level, utility_config)
        preference = capacity_preference(capacities, beta)
    else:  # "utility" — the paper's Section 3.2 scheme
        preference = selection_preference(
            capacities, distances, resource_level, utility_config)
    if trust_fn is not None:
        weights = np.asarray(
            [trust_fn(peer_id, n) for n in neighbors], dtype=float)
        preference = preference * np.maximum(weights, 0.0)
        total = preference.sum()
        if total <= 0.0:
            return []
        preference = preference / total
    return weighted_sample_without_replacement(
        rng, neighbors, preference, fanout)
