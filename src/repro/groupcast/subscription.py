"""Subscription management and spanning-tree assembly (Step 3, Section 2.2).

A peer joining a communication group falls in one of two cases:

1. **It received the advertisement.**  It is already on a forwarding path;
   it subscribes by sending a join message in the *reverse direction* of
   the incoming SSA/NSSA message — one subscription message per hop up the
   reverse path until the chain meets the existing tree.  Lookup latency
   is zero: the group information is local.
2. **It never received the advertisement.**  It runs a *ripple search*
   (scoped flood, TTL 2 by default) over its overlay neighborhood for a
   peer holding the advertisement, then subscribes through the closest
   hit.  Search messages and the out-and-back latency are charged to the
   subscription (Figures 11-13); if no neighbor within the ripple holds
   the ad, the subscription fails.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..config import AnnouncementConfig
from ..errors import SubscriptionError
from ..obs.registry import Registry, get_default_registry
from ..obs.tracer import (
    KIND_DELIVER,
    KIND_SEND,
    SpanContext,
    Tracer,
    get_default_tracer,
)
from ..overlay.graph import OverlayNetwork
from ..overlay.messages import MessageKind, MessageStats
from ..overlay.search import ripple_search
from .advertisement import AdvertisementOutcome, LatencyFn
from .spanning_tree import SpanningTree


@dataclass(frozen=True)
class SubscriptionRecord:
    """How one member got onto the tree."""

    peer_id: int
    via_search: bool
    lookup_latency_ms: float
    search_messages: int
    subscription_messages: int


@dataclass(frozen=True)
class SubscriptionOutcome:
    """Result of subscribing a member set to one group."""

    group_id: int
    records: Mapping[int, SubscriptionRecord]
    failed: tuple[int, ...]
    search_messages: int
    subscription_messages: int

    @property
    def success_rate(self) -> float:
        """Fraction of requested members that got onto the tree."""
        attempted = len(self.records) + len(self.failed)
        if attempted == 0:
            return 1.0
        return len(self.records) / attempted

    def average_lookup_latency_ms(self,
                                  searchers_only: bool = True) -> float:
        """Mean service-lookup latency (Figure 13).

        By default averages over members that had to search; peers already
        holding the advertisement resolve locally at zero cost.
        """
        latencies = [r.lookup_latency_ms for r in self.records.values()
                     if r.via_search or not searchers_only]
        if not latencies:
            return 0.0
        return sum(latencies) / len(latencies)


def subscribe_members(
    overlay: OverlayNetwork,
    advertisement: AdvertisementOutcome,
    members: Sequence[int],
    latency_fn: LatencyFn,
    config: AnnouncementConfig | None = None,
    stats: MessageStats | None = None,
    registry: Registry | None = None,
    tracer: Tracer | None = None,
) -> tuple[SpanningTree, SubscriptionOutcome]:
    """Subscribe ``members`` and return the resulting spanning tree.

    Under span tracing (explicit ``tracer`` or the process default from
    :func:`~repro.obs.tracer.enable_tracing`) each member's join records
    as one ``subscription`` span tree: reverse-path joins as a chain of
    subscription hops, search joins as the ripple flood, the search
    response riding the winning probe, and the subscription chain riding
    the response.
    """
    config = config or AnnouncementConfig()
    stats = stats or MessageStats()
    registry = registry if registry is not None else get_default_registry()
    tracer = tracer if tracer is not None else get_default_tracer()
    tracing = tracer is not None and tracer.spans
    c_subscription = registry.counter(
        f"messages.{MessageKind.SUBSCRIPTION.value}")
    c_search = registry.counter(
        f"messages.{MessageKind.SUBSCRIPTION_SEARCH.value}")
    c_response = registry.counter(
        f"messages.{MessageKind.SEARCH_RESPONSE.value}")
    c_failures = registry.counter("subscription.failures")
    h_lookup = registry.histogram("lookup.latency_ms")
    tree = SpanningTree(advertisement.rendezvous)

    records: dict[int, SubscriptionRecord] = {}
    failed: list[int] = []
    total_search = 0
    total_subscription = 0

    for member in members:
        if member not in overlay:
            failed.append(member)
            c_failures.inc()
            continue
        if member == advertisement.rendezvous:
            records[member] = SubscriptionRecord(member, False, 0.0, 0, 0)
            continue
        if member in advertisement.receipts:
            chain = _graft_reverse_path(tree, advertisement, member)
            hops = len(chain) - 1
            if tracing:
                root = tracer.root_span(at_ms=0.0, kind="subscription")
                _emit_chain_spans(tracer, chain, 0.0, root, latency_fn)
            stats.record(MessageKind.SUBSCRIPTION, hops)
            c_subscription.inc(hops)
            total_subscription += hops
            records[member] = SubscriptionRecord(
                member, False, 0.0, 0, hops)
            continue

        receipts = advertisement.receipts
        root = (tracer.root_span(at_ms=0.0, kind="subscription")
                if tracing else None)
        found = ripple_search(
            overlay, member, lambda peer: peer in receipts,
            config.subscription_search_ttl, latency_fn, registry=registry,
            tracer=tracer, parent_span=root)
        total_search += found.messages
        stats.record(MessageKind.SUBSCRIPTION_SEARCH, found.messages)
        c_search.inc(found.messages)
        if found.hit is None:
            failed.append(member)
            c_failures.inc()
            continue
        stats.record(MessageKind.SEARCH_RESPONSE)
        c_response.inc()
        total_search += 1
        response_at = 2.0 * found.hit.latency_ms
        response_span = None
        if tracing:
            # The search response rides back on the winning probe's span;
            # the subscription chain then rides on the response.
            response_span = tracer.child_span(found.hit.span)
            tracer.record(found.hit.latency_ms, KIND_SEND,
                          a=found.hit.target, b=member,
                          detail=MessageKind.SEARCH_RESPONSE.value,
                          span=response_span)
            tracer.record(response_at, KIND_DELIVER,
                          a=found.hit.target, b=member,
                          detail=MessageKind.SEARCH_RESPONSE.value,
                          span=response_span)
        # Graft the informed peer's reverse path, then hang the searcher's
        # overlay route to it underneath.
        _graft_reverse_path(tree, advertisement, found.hit.target,
                            as_member=False)
        # hit.route runs searcher -> ... -> hop before target; append the
        # target as the in-tree anchor.
        chain = list(found.hit.route) + [found.hit.target]
        hops = tree.graft_chain(chain)
        tree.mark_member(member)
        hops += 1  # the subscription message handed to the informed peer
        if tracing:
            _emit_chain_spans(tracer, chain, response_at, response_span,
                              latency_fn)
        stats.record(MessageKind.SUBSCRIPTION, hops)
        c_subscription.inc(hops)
        total_subscription += hops
        h_lookup.observe(response_at)
        records[member] = SubscriptionRecord(
            member, True, response_at, found.messages + 1,
            hops)

    tree.validate()
    outcome = SubscriptionOutcome(
        group_id=advertisement.group_id,
        records=records,
        failed=tuple(failed),
        search_messages=total_search,
        subscription_messages=total_subscription,
    )
    return tree, outcome


def _graft_reverse_path(tree: SpanningTree,
                        advertisement: AdvertisementOutcome,
                        peer_id: int,
                        as_member: bool = True) -> list[int]:
    """Graft a receiver's reverse advertisement path into the tree.

    Returns the trimmed chain ``[peer, upstream, ..., anchor]`` actually
    walked (the anchor is the first node already on the tree); its
    length minus one is the subscription-hop count, and span emission
    walks the same chain.
    """
    chain = advertisement.reverse_path(peer_id)  # peer ... rendezvous
    # Trim the chain at the first node already in the tree.
    trimmed: list[int] = []
    for node in chain:
        trimmed.append(node)
        if node in tree:
            break
    if trimmed[-1] not in tree:
        raise SubscriptionError(
            f"reverse path of {peer_id} never reaches the tree")
    if len(trimmed) > 1:
        tree.graft_chain(trimmed)
    if as_member:
        tree.mark_member(peer_id)
    return trimmed


def _emit_chain_spans(tracer: Tracer, chain: Sequence[int],
                      start_ms: float, parent: SpanContext | None,
                      latency_fn: LatencyFn) -> None:
    """Record a hop-by-hop subscription walk as chained spans.

    ``chain`` is ``[joiner, next_hop, ..., anchor]``; each hop's span is
    the child of the previous hop's, so the walk reconstructs as a path
    whose critical-path latency is the accumulated underlay latency.
    """
    detail = MessageKind.SUBSCRIPTION.value
    elapsed = start_ms
    span = parent
    for sender, recipient in zip(chain, chain[1:]):
        span = tracer.child_span(span)
        arrival = elapsed + latency_fn(sender, recipient)
        tracer.record(elapsed, KIND_SEND, a=sender, b=recipient,
                      detail=detail, span=span)
        tracer.record(arrival, KIND_DELIVER, a=sender, b=recipient,
                      detail=detail, span=span)
        elapsed = arrival
