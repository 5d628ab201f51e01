"""Event-driven GroupCast protocol sessions.

The procedural modules (:mod:`.advertisement`, :mod:`.subscription`,
:mod:`.dissemination`) compute protocol outcomes directly, which is what
the large parameter sweeps use.  This module is the *faithful* runtime:
every peer is a :class:`GroupSessionNode` that owns only local state and
reacts to messages delivered by a :class:`~repro.sim.messaging.
MessageNetwork` over the discrete-event simulator — advertisement
forwarding, reverse-path subscription, ripple search and payload
flooding all happen as real timed message exchanges, including message
loss if the transport is configured with any.

The test suite cross-validates this runtime against the procedural fast
path: same overlay, same seeds, equivalent trees and delivery delays.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..config import AnnouncementConfig, UtilityConfig
from ..errors import GroupError
from ..obs.profiler import get_default_profiler
from ..obs.registry import Registry
from ..obs.topology import get_default_topology_recorder
from ..obs.tracer import Tracer
from ..overlay.graph import OverlayNetwork
from ..overlay.messages import MessageKind
from ..sim.engine import Simulator
from ..sim.messaging import Envelope, MessageNetwork
from ..sim.random import RandomSource
from .advertisement import _forwarding_targets


# ----------------------------------------------------------------------
# Wire messages
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Advertise:
    """A service announcement hop."""

    group_id: int
    rendezvous: int
    path: tuple[int, ...]
    ttl: int
    scheme: str


@dataclass(frozen=True)
class Subscribe:
    """A join request travelling up the reverse advertisement path."""

    group_id: int
    subscriber: int


@dataclass(frozen=True)
class Search:
    """Ripple search for a peer holding the advertisement."""

    group_id: int
    origin: int
    ttl: int


@dataclass(frozen=True)
class SearchReply:
    """An informed peer answering a ripple search."""

    group_id: int
    informed_peer: int


@dataclass(frozen=True)
class Payload:
    """A group payload flooding the spanning tree."""

    group_id: int
    payload_id: int
    source: int


# ----------------------------------------------------------------------
# Per-peer protocol agent
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SessionTreeView:
    """Dense single-pass snapshot of one group's protocol state.

    One row per session node that ever touched the group, in node-
    insertion order.  ``upstream_row`` is -1 when a peer's upstream is
    unset or holds no row itself (crashed, or never in the group).  The
    recovery sweeps below all run off one snapshot instead of re-walking
    every node's state dict per query, and the arrays plug directly into
    the :mod:`repro.core` kernels.
    """

    ids: np.ndarray
    index: Mapping[int, int]
    upstream_id: np.ndarray
    upstream_row: np.ndarray
    on_tree: np.ndarray
    is_member: np.ndarray


@dataclass(slots=True)
class _GroupState:
    """One peer's protocol state for one group.

    Most peers an announcement reaches never gain a child or see a
    payload, so ``children`` and ``seen_payloads`` stay None until their
    first add instead of holding two empty sets per touched peer.
    """

    upstream: int | None = None
    has_advertisement: bool = False
    on_tree: bool = False
    is_member: bool = False
    children: set[int] | None = None
    seen_payloads: set[int] | None = None
    search_answered: bool = False


class GroupSessionNode:
    """The GroupCast protocol state machine of one peer."""

    def __init__(self, peer_id: int, coordinator: "GroupSession") -> None:
        self.peer_id = peer_id
        self.coordinator = coordinator
        self.groups: dict[int, _GroupState] = {}

    def state(self, group_id: int) -> _GroupState:
        """Per-group protocol state (created on first touch)."""
        state = self.groups.get(group_id)
        if state is None:
            state = self.groups[group_id] = _GroupState()
        return state

    # ------------------------------------------------------------------
    def handle(self, envelope: Envelope) -> None:
        """Dispatch one delivered message."""
        payload = envelope.payload
        handler = _HANDLERS.get(type(payload))
        if handler is None:  # pragma: no cover - future message types
            raise GroupError(f"unknown message {payload!r}")
        handler(self, envelope, payload)

    # ------------------------------------------------------------------
    def _episode_root(self, kind: str):
        """Open a causal-episode root span (None when tracing is off).

        Entry points wrap their initial sends in
        ``transport.span_scope(root)`` so the whole protocol wave —
        every forwarded copy, every handler-triggered send —
        reconstructs as one span tree rooted at the episode.
        """
        transport = self.coordinator.transport
        if transport.tracer is None:
            return None
        return transport.tracer.root_span(
            at_ms=transport.now(), kind=kind)

    def start_advertisement(self, group_id: int, scheme: str) -> None:
        """Rendezvous entry point: seed the announcement."""
        state = self.state(group_id)
        state.has_advertisement = True
        state.on_tree = True
        state.is_member = True
        self.coordinator.rendezvous[group_id] = self.peer_id
        config = self.coordinator.announcement
        transport = self.coordinator.transport
        with transport.span_scope(self._episode_root("advertisement")):
            self._forward_advertisement(
                Advertise(group_id, self.peer_id, (self.peer_id,),
                          config.advertisement_ttl, scheme))

    def _on_advertise(self, envelope: Envelope, message: Advertise) -> None:
        state = self.state(message.group_id)
        if state.has_advertisement:
            self.coordinator.record_duplicate()
            return
        state.has_advertisement = True
        state.upstream = envelope.sender
        self.coordinator.record_receipt(
            message.group_id, self.peer_id, envelope.delivered_at_ms)
        # ttl counts the remaining overlay hops *including* the one that
        # delivered this copy, matching the procedural propagation in
        # :func:`repro.groupcast.advertisement.propagate_advertisement`:
        # with ttl=T the announcement reaches peers at most T hops out.
        if message.ttl > 1:
            self._forward_advertisement(
                Advertise(message.group_id, message.rendezvous,
                          message.path + (self.peer_id,),
                          message.ttl - 1, message.scheme))

    def _forward_advertisement(self, message: Advertise) -> None:
        coordinator = self.coordinator
        targets = _forwarding_targets(
            coordinator.overlay, self.peer_id, message.path,
            message.scheme, coordinator.announcement, coordinator.utility,
            coordinator.rng)
        for target in targets:
            coordinator.transport.send(
                self.peer_id, target, message, MessageKind.ADVERTISEMENT)

    # ------------------------------------------------------------------
    def start_subscription(self, group_id: int) -> None:
        """Member entry point: join over the reverse path or search."""
        state = self.state(group_id)
        state.is_member = True
        if state.on_tree:
            return
        transport = self.coordinator.transport
        if state.has_advertisement:
            with transport.span_scope(self._episode_root("subscription")):
                self._join_via_upstream(group_id)
            return
        ttl = self.coordinator.announcement.subscription_search_ttl
        if ttl <= 0:
            self.coordinator.record_failure(group_id, self.peer_id)
            return
        with transport.span_scope(self._episode_root("subscription")):
            for neighbor in self.coordinator.overlay.neighbors(
                    self.peer_id):
                transport.send(
                    self.peer_id, neighbor,
                    Search(group_id, self.peer_id, ttl - 1),
                    MessageKind.SUBSCRIPTION_SEARCH)

    def _join_via_upstream(self, group_id: int) -> None:
        state = self.state(group_id)
        state.on_tree = True
        if state.upstream is not None:
            self.coordinator.transport.send(
                self.peer_id, state.upstream,
                Subscribe(group_id, self.peer_id),
                MessageKind.SUBSCRIPTION)

    def _on_subscribe(self, envelope: Envelope,
                      message: Subscribe) -> None:
        state = self.state(message.group_id)
        if state.children is None:
            state.children = set()
        state.children.add(envelope.sender)
        if not state.on_tree:
            state.on_tree = True
            if state.upstream is not None:
                self.coordinator.transport.send(
                    self.peer_id, state.upstream,
                    Subscribe(message.group_id, self.peer_id),
                    MessageKind.SUBSCRIPTION)

    def _on_search(self, envelope: Envelope, message: Search) -> None:
        state = self.state(message.group_id)
        if state.has_advertisement:
            self.coordinator.transport.send(
                self.peer_id, message.origin,
                SearchReply(message.group_id, self.peer_id),
                MessageKind.SEARCH_RESPONSE)
            return
        if message.ttl <= 0:
            return
        for neighbor in self.coordinator.overlay.neighbors(self.peer_id):
            if neighbor in (message.origin, envelope.sender):
                continue
            self.coordinator.transport.send(
                self.peer_id, neighbor,
                Search(message.group_id, message.origin, message.ttl - 1),
                MessageKind.SUBSCRIPTION_SEARCH)

    def _on_search_reply(self, envelope: Envelope,
                         message: SearchReply) -> None:
        state = self.state(message.group_id)
        if state.search_answered or state.on_tree:
            return  # first reply wins
        state.search_answered = True
        state.upstream = message.informed_peer
        self._join_via_upstream(message.group_id)

    # ------------------------------------------------------------------
    def start_publish(self, group_id: int, payload_id: int) -> None:
        """Member entry point: flood a payload through the tree."""
        state = self.state(group_id)
        if not state.is_member:
            raise GroupError(
                f"peer {self.peer_id} is not a member of {group_id}")
        if state.seen_payloads is None:
            state.seen_payloads = set()
        state.seen_payloads.add(payload_id)
        transport = self.coordinator.transport
        self.coordinator.record_delivery(
            group_id, payload_id, self.peer_id, transport.now())
        with transport.span_scope(self._episode_root("dissemination")):
            self._flood(group_id,
                        Payload(group_id, payload_id, self.peer_id),
                        exclude=None)

    def _on_payload(self, envelope: Envelope, message: Payload) -> None:
        state = self.state(message.group_id)
        if state.seen_payloads is None:
            state.seen_payloads = set()
        elif message.payload_id in state.seen_payloads:
            return
        state.seen_payloads.add(message.payload_id)
        self.coordinator.record_delivery(
            message.group_id, message.payload_id, self.peer_id,
            envelope.delivered_at_ms)
        self._flood(message.group_id, message, exclude=envelope.sender)

    def _flood(self, group_id: int, message: Payload,
               exclude: int | None) -> None:
        state = self.state(group_id)
        links = set(state.children or ())
        if state.upstream is not None and state.on_tree:
            links.add(state.upstream)
        links.discard(exclude)
        links.discard(self.peer_id)
        for link in links:
            self.coordinator.transport.send(
                self.peer_id, link, message, MessageKind.PAYLOAD)


#: Message handlers keyed by wire type: one dict lookup per delivery
#: instead of an ``isinstance`` chain.
_HANDLERS = {
    Advertise: GroupSessionNode._on_advertise,
    Subscribe: GroupSessionNode._on_subscribe,
    Search: GroupSessionNode._on_search,
    SearchReply: GroupSessionNode._on_search_reply,
    Payload: GroupSessionNode._on_payload,
}


# ----------------------------------------------------------------------
# Session coordinator
# ----------------------------------------------------------------------
class GroupSession:
    """Owns the nodes, transport and measurement state of one session."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        latency_fn,
        rng: RandomSource,
        announcement: AnnouncementConfig | None = None,
        utility: UtilityConfig | None = None,
        loss_rate: float = 0.0,
        registry: Registry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        self.overlay = overlay
        self.rng = rng
        self.announcement = announcement or AnnouncementConfig()
        self.utility = utility or UtilityConfig()
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        # The process-default profiler (if any) rides this session's
        # clock; it only reads virtual time and its own registry, so
        # attaching it is bit-transparent to the trace digest.
        self.simulator = Simulator(tracer=tracer,
                                   profiler=get_default_profiler())
        self.network = MessageNetwork(
            self.simulator, latency_fn, rng, loss_rate=loss_rate,
            registry=self.registry, tracer=tracer)
        # Deferred import: repro.runtime's framing module registers the
        # wire dataclasses defined above, so the packages are mutually
        # aware and must not import each other at module load.
        from ..runtime.sim import SimTransport

        #: The transport seam.  Nodes issue every send and timer through
        #: this; over :class:`SimTransport` that is a pure delegation to
        #: ``network``/``simulator``, keeping same-seed runs
        #: bit-identical to pre-seam dispatch.
        self.transport = SimTransport(self.network)
        self.nodes: dict[int, GroupSessionNode] = {}
        for peer_id in overlay.peer_ids():
            node = GroupSessionNode(peer_id, self)
            self.nodes[peer_id] = node
            self.transport.register(peer_id, node.handle)
        self._c_duplicates = self.registry.counter("session.duplicates")
        self._c_receipts = self.registry.counter("session.receipts")
        self._c_failures = self.registry.counter("session.failures")
        self._h_delivery = self.registry.histogram("dissemination.delay_ms")
        self.receipts: dict[int, dict[int, float]] = {}
        self.failures: dict[int, set[int]] = {}
        self.deliveries: dict[tuple[int, int], dict[int, float]] = {}
        self.rendezvous: dict[int, int] = {}
        self._payload_ids = itertools.count(1)
        # Like the profiler, the process-default topology recorder (if
        # any) rides this session's clock; it only reads structure and
        # its own registry, so attaching is digest bit-transparent.
        topology = get_default_topology_recorder()
        if topology is not None and topology.enabled:
            topology.watch_session(self)

    @property
    def duplicates(self) -> int:
        """Advertisement copies dropped by the receivedAdvertising table."""
        return self._c_duplicates.value

    # ------------------------------------------------------------------
    # Measurement hooks (called by nodes)
    # ------------------------------------------------------------------
    def record_duplicate(self) -> None:
        """Count a dropped duplicate advertisement copy."""
        self._c_duplicates.inc()

    def record_receipt(self, group_id: int, peer_id: int,
                       at_ms: float) -> None:
        """Log a peer's first advertisement receipt time."""
        self._c_receipts.inc()
        self.receipts.setdefault(group_id, {})[peer_id] = at_ms

    def record_failure(self, group_id: int, peer_id: int) -> None:
        """Log a member whose subscription could not complete."""
        self._c_failures.inc()
        self.failures.setdefault(group_id, set()).add(peer_id)

    def record_delivery(self, group_id: int, payload_id: int,
                        peer_id: int, at_ms: float) -> None:
        """Log a payload delivery time at one peer."""
        self.deliveries.setdefault(
            (group_id, payload_id), {})[peer_id] = at_ms

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def establish(self, group_id: int, rendezvous: int,
                  members: list[int], scheme: str = "ssa") -> None:
        """Advertise, let the announcement settle, then subscribe."""
        if rendezvous not in self.nodes:
            raise GroupError(f"unknown rendezvous {rendezvous}")
        self.nodes[rendezvous].start_advertisement(group_id, scheme)
        self.simulator.run()  # announcement settles
        for member in members:
            if member not in self.nodes:
                self.record_failure(group_id, member)
                continue
            self.nodes[member].start_subscription(group_id)
        self.simulator.run()  # subscriptions settle

    def publish(self, group_id: int, source: int) -> dict[int, float]:
        """Flood one payload; returns member delivery delays (ms)."""
        payload_id = next(self._payload_ids)
        start = self.simulator.now
        self.nodes[source].start_publish(group_id, payload_id)
        self.simulator.run()
        delivered = self.deliveries.get((group_id, payload_id), {})
        delays = {
            peer: at - start
            for peer, at in delivered.items()
            if peer != source and self.nodes[peer].state(group_id).is_member
        }
        for delay in delays.values():
            self._h_delivery.observe(delay)
        return delays

    def remove_peer(self, peer_id: int) -> None:
        """A peer crashes mid-session.

        It stops receiving (in-flight messages dead-letter) and stops
        forwarding; downstream members lose payloads until they
        :meth:`rejoin`.  The overlay graph is left to the maintenance
        layer — this removes only the protocol agent.
        """
        self.transport.unregister(peer_id)
        self.nodes.pop(peer_id, None)

    # ``crash_peer`` is the fault-injection vocabulary for the same
    # operation: the peer falls silent mid-session.
    crash_peer = remove_peer

    def restart_peer(self, peer_id: int) -> None:
        """Bring a crashed peer back with blank protocol state.

        The restarted peer remembers nothing: it holds no advertisement
        and sits on no tree.  It resumes forwarding only after taking
        part in the protocol again (e.g. a member re-subscribing through
        it).  The peer must still exist in the overlay graph.
        """
        if peer_id in self.nodes:
            raise GroupError(f"peer {peer_id} is already in the session")
        if peer_id not in self.overlay:
            raise GroupError(
                f"peer {peer_id} is not in the overlay; it cannot restart")
        node = GroupSessionNode(peer_id, self)
        self.nodes[peer_id] = node
        self.transport.register(peer_id, node.handle)

    def rejoin(self, group_id: int, member: int) -> None:
        """Re-subscribe a member whose branch died.

        Resets the member's per-group state and re-runs the subscription
        (ripple search included, since the old upstream may be gone),
        then lets the simulator settle.
        """
        self.rejoin_async(group_id, member)
        self.simulator.run()

    def rejoin_async(self, group_id: int, member: int) -> None:
        """Like :meth:`rejoin` but without draining the simulator.

        Safe to call from inside an event callback (a crash-recovery
        policy reacting mid-run): the subscription messages are merely
        scheduled and settle with the surrounding ``run``.
        """
        node = self.nodes.get(member)
        if node is None:
            raise GroupError(f"peer {member} is not in the session")
        state = node.state(group_id)
        state.on_tree = False
        state.upstream = None
        state.has_advertisement = False
        state.search_answered = False
        node.start_subscription(group_id)

    def failover_upstream(self, group_id: int, orphan: int,
                          backup: int) -> bool:
        """Point an orphan at a pre-arranged backup parent (replication).

        The orphan re-attaches with a single subscription message to
        ``backup`` — the session-level equivalent of
        :func:`repro.groupcast.replication.failover`'s instant path.
        Returns False (no action) when either peer is gone from the
        session.
        """
        node = self.nodes.get(orphan)
        if node is None or backup not in self.nodes or backup == orphan:
            return False
        state = node.state(group_id)
        state.upstream = backup
        state.on_tree = False
        state.search_answered = False
        with self.transport.span_scope(node._episode_root("repair")):
            node._join_via_upstream(group_id)
        return True

    def broken_upstream_peers(self, group_id: int) -> list[int]:
        """On-tree peers whose upstream is gone or off the tree.

        The session-level symptom of an undetected parent failure: a
        peer can attach to a forwarder *after* it crashed (the search
        reply was already in flight), which no crash-time callback can
        observe.  In the paper the child notices via missed heartbeats;
        recovery policies model that detection by sweeping this list
        periodically and re-running the subscription for each broken
        branch.
        """
        view = self.tree_view(group_id)
        rendezvous = self.rendezvous.get(group_id)
        broken = view.on_tree.copy()
        if rendezvous is not None:
            row = view.index.get(rendezvous)
            if row is not None:
                broken[row] = False
        parent_on_tree = np.zeros(view.ids.shape[0], dtype=bool)
        has_row = view.upstream_row >= 0
        parent_on_tree[has_row] = \
            view.on_tree[view.upstream_row[has_row]]
        broken &= ~parent_on_tree
        return sorted(int(peer) for peer in view.ids[broken])

    def upstream_children(self, group_id: int, parent: int) -> list[int]:
        """Live peers whose upstream pointer targets ``parent``."""
        view = self.tree_view(group_id)
        rows = view.on_tree & (view.upstream_id == parent)
        return [int(peer) for peer in view.ids[rows]]

    def backup_parents(self, group_id: int) -> dict[int, int]:
        """Grandparent backups from the current upstream pointers.

        The session-level analogue of :meth:`repro.groupcast.
        replication.BackupPlan.refresh`: each on-tree peer's backup is
        its grandparent where one exists, else the rendezvous.
        """
        view = self.tree_view(group_id)
        rendezvous = self.rendezvous.get(group_id)
        sentinel = -1 if rendezvous is None else rendezvous
        grandparent = np.full(view.ids.shape[0], -1, dtype=np.int64)
        has_row = view.upstream_row >= 0
        grandparent[has_row] = \
            view.upstream_id[view.upstream_row[has_row]]
        fallback = (grandparent < 0) & (sentinel >= 0) \
            & (view.ids != sentinel)
        grandparent[fallback] = sentinel
        usable = (view.on_tree & (view.upstream_id >= 0)
                  & (view.ids != sentinel) & (grandparent >= 0)
                  & (grandparent != view.ids))
        return {int(view.ids[row]): int(grandparent[row])
                for row in np.nonzero(usable)[0]}

    def members_on_tree(self, group_id: int) -> set[int]:
        """Members that completed their subscription."""
        view = self.tree_view(group_id)
        return {int(peer)
                for peer in view.ids[view.on_tree & view.is_member]}

    def tree_view(self, group_id: int) -> SessionTreeView:
        """Snapshot the group's session state into dense arrays.

        One walk over the nodes replaces the per-query state-dict scans
        of the recovery sweeps; unlike ``node.state(group_id)`` it never
        *creates* per-group state on nodes outside the group.
        """
        ids_list: list[int] = []
        states: list[_GroupState] = []
        for peer_id, node in self.nodes.items():
            state = node.groups.get(group_id)
            if state is not None:
                ids_list.append(peer_id)
                states.append(state)
        count = len(ids_list)
        ids = np.asarray(ids_list, dtype=np.int64) if count \
            else np.empty(0, dtype=np.int64)
        index = {peer: row for row, peer in enumerate(ids_list)}
        upstream_id = np.full(count, -1, dtype=np.int64)
        upstream_row = np.full(count, -1, dtype=np.int64)
        on_tree = np.zeros(count, dtype=bool)
        is_member = np.zeros(count, dtype=bool)
        for row, state in enumerate(states):
            if state.upstream is not None:
                upstream_id[row] = state.upstream
                upstream_row[row] = index.get(state.upstream, -1)
            on_tree[row] = state.on_tree
            is_member[row] = state.is_member
        return SessionTreeView(ids=ids, index=index,
                               upstream_id=upstream_id,
                               upstream_row=upstream_row,
                               on_tree=on_tree, is_member=is_member)
