"""Hosting one protocol node over a live transport.

In the simulator a single :class:`~repro.groupcast.session.GroupSession`
owns every peer, the whole overlay graph and all measurement state — a
fine fiction for a sequential discrete-event run, but not how a deployed
peer works.  This module provides the honest per-peer analogue:

* :class:`LocalView` is the slice of the overlay one peer actually
  knows — itself and its direct neighbors.  It answers exactly the
  queries the protocol code makes (``neighbors`` of *itself*,
  ``peer`` info for itself and its neighbors) and refuses the global
  queries a real peer could never answer.
* :class:`PeerRuntime` implements the coordinator contract
  :class:`~repro.groupcast.session.GroupSessionNode` expects
  (``transport``, ``overlay``, ``announcement``, ``utility``, ``rng``,
  ``rendezvous``, ``record_*``) with purely local state, so the
  **identical** node class that runs inside ``GroupSession`` on the
  simulator runs here over an
  :class:`~repro.runtime.asyncio_transport.AsyncioTransport`.

:meth:`PeerRuntime.handle` is the transport entry point: it tracks
per-neighbor last-contact times (the heartbeat view an operator reads),
intercepts the ops introspection vocabulary
(:class:`~repro.runtime.ops.OpsRequest` is answered with this peer's
:meth:`~PeerRuntime.ops_view`, replies are collected for the prober),
and forwards everything else to the protocol state machine.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..config import AnnouncementConfig, UtilityConfig
from ..errors import PeerNotFoundError
from ..groupcast.session import GroupSessionNode
from ..overlay.messages import MessageKind
from ..peers.peer import PeerInfo
from ..sim.random import RandomSource
from .ops import OpsReply, OpsRequest
from .transport import Transport


class LocalView:
    """One peer's local overlay knowledge: itself and its neighbors."""

    __slots__ = ("peer_id", "_infos", "_neighbor_ids")

    def __init__(self, info: PeerInfo,
                 neighbor_infos: Iterable[PeerInfo]) -> None:
        self.peer_id = info.peer_id
        ordered = list(neighbor_infos)
        self._neighbor_ids = [n.peer_id for n in ordered]
        self._infos = {info.peer_id: info}
        for neighbor in ordered:
            self._infos[neighbor.peer_id] = neighbor

    def neighbors(self, peer_id: int) -> list[int]:
        """Neighbor ids — answerable only for the owning peer."""
        if peer_id != self.peer_id:
            raise PeerNotFoundError(
                f"peer {self.peer_id} has no neighbor list for {peer_id}")
        return list(self._neighbor_ids)

    def peer(self, peer_id: int) -> PeerInfo:
        """Info for the owning peer or one of its neighbors."""
        try:
            return self._infos[peer_id]
        except KeyError:
            raise PeerNotFoundError(
                f"peer {peer_id} is outside {self.peer_id}'s local view"
            ) from None

    def peer_columns(
        self, peer_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(capacity[k], coords[k, d])`` of peers inside the view."""
        infos = [self.peer(peer_id) for peer_id in peer_ids]
        return (np.asarray([info.capacity for info in infos], dtype=float),
                np.asarray([info.coordinate for info in infos], dtype=float))

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._infos


class PeerRuntime:
    """One peer's protocol host: the live analogue of ``GroupSession``.

    Satisfies the coordinator contract of
    :class:`~repro.groupcast.session.GroupSessionNode` with per-peer
    state only; the measurement hooks record into local dicts that the
    cluster layer aggregates for conformance comparison.
    """

    def __init__(
        self,
        view: LocalView,
        transport: Transport,
        announcement: AnnouncementConfig,
        utility: UtilityConfig,
        rng: RandomSource,
    ) -> None:
        self.overlay = view
        self.transport = transport
        self.announcement = announcement
        self.utility = utility
        self.rng = rng
        self.rendezvous: dict[int, int] = {}
        self.node = GroupSessionNode(view.peer_id, self)
        self.duplicates = 0
        self.receipts: dict[int, dict[int, float]] = {}
        self.failures: dict[int, set[int]] = {}
        self.deliveries: dict[tuple[int, int], dict[int, float]] = {}
        # Operational state: when each neighbor was last heard from and
        # the ops replies collected when this peer acts as a prober,
        # keyed (probe_id, replying peer).
        self.last_seen: dict[int, float] = {}
        self.ops_replies: dict[tuple[int, int], OpsReply] = {}

    @property
    def peer_id(self) -> int:
        """The hosted peer's identifier."""
        return self.overlay.peer_id

    # ------------------------------------------------------------------
    # Transport entry point
    # ------------------------------------------------------------------
    def handle(self, envelope) -> None:
        """Deliver one envelope: liveness tracking, ops interception,
        then the protocol state machine."""
        self.last_seen[envelope.sender] = envelope.delivered_at_ms
        payload = envelope.payload
        if isinstance(payload, OpsRequest):
            self.transport.send(self.peer_id, envelope.sender,
                                self.ops_view(payload.probe_id),
                                MessageKind.OPS_REPLY)
            return
        if isinstance(payload, OpsReply):
            self.ops_replies[(payload.probe_id, payload.peer_id)] = payload
            return
        self.node.handle(envelope)

    # ------------------------------------------------------------------
    # Ops introspection
    # ------------------------------------------------------------------
    def ops_view(self, probe_id: int = 0) -> OpsReply:
        """This peer's operational self-portrait, wire-encodable.

        Reads only local state plus the transport's introspection
        accessors (``incarnation`` / ``arq_window``, absent on the sim
        transport, default to -1/0).
        """
        now_ms = self.transport.now()
        groups = tuple(
            (group_id,
             state.upstream if state.upstream is not None else -1,
             int(state.on_tree),
             int(state.is_member),
             len(state.children or ()))
            for group_id, state in sorted(self.node.groups.items()))
        ages = tuple(
            (peer_id, float(now_ms - at_ms))
            for peer_id, at_ms in sorted(self.last_seen.items()))
        incarnation_of = getattr(self.transport, "incarnation", None)
        window_of = getattr(self.transport, "arq_window", None)
        return OpsReply(
            peer_id=self.peer_id,
            probe_id=probe_id,
            incarnation=(int(incarnation_of(self.peer_id))
                         if incarnation_of is not None else -1),
            at_ms=float(now_ms),
            unacked=(int(window_of(self.peer_id))
                     if window_of is not None else 0),
            groups=groups,
            last_seen=ages,
        )

    # ------------------------------------------------------------------
    # Measurement hooks (the GroupSession contract, scoped to one peer)
    # ------------------------------------------------------------------
    def record_duplicate(self) -> None:
        """Count a dropped duplicate advertisement copy."""
        self.duplicates += 1

    def record_receipt(self, group_id: int, peer_id: int,
                       at_ms: float) -> None:
        """Log this peer's first advertisement receipt time."""
        self.receipts.setdefault(group_id, {})[peer_id] = at_ms

    def record_failure(self, group_id: int, peer_id: int) -> None:
        """Log a subscription that could not complete."""
        self.failures.setdefault(group_id, set()).add(peer_id)

    def record_delivery(self, group_id: int, payload_id: int,
                        peer_id: int, at_ms: float) -> None:
        """Log a payload delivery time at this peer."""
        self.deliveries.setdefault(
            (group_id, payload_id), {})[peer_id] = at_ms

    # ------------------------------------------------------------------
    def reset_group(self, group_id: int) -> None:
        """Blank this peer's per-group state (rejoin support)."""
        state = self.node.state(group_id)
        state.on_tree = False
        state.upstream = None
        state.has_advertisement = False
        state.search_answered = False
