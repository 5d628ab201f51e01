"""Epoch-based neighborhood link maintenance (Section 3.3).

Peers exchange heartbeat messages carrying their identifier quadruplet
every heartbeat interval.  A neighbor that misses two consecutive
heartbeats is declared failed; a gracefully departing peer sends explicit
departure messages.  Failures are recorded during the epoch, and at each
epoch end the peer repairs its neighbor list through the same utility-
driven candidate selection used at bootstrap.  The epoch length adapts to
the observed churn so the overlay "agilely adapts to the current churn
pattern": heavy churn shortens the epoch (faster repair), calm periods
lengthen it (less maintenance traffic), within configured bounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import OverlayConfig
from ..errors import OverlayError
from ..obs.registry import Registry
from ..obs.tracer import (
    KIND_DELIVER,
    KIND_SEND,
    Tracer,
    get_default_tracer,
)
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from .bootstrap import UtilityBootstrap
from .graph import OverlayNetwork
from .hostcache import HostCacheServer
from .messages import MessageKind, MessageStats


@dataclass
class _PeerState:
    """Liveness bookkeeping for one maintained peer."""

    alive: bool = True
    missed: dict[int, int] = field(default_factory=dict)
    failures_this_epoch: int = 0
    epoch_ms: float = 0.0
    #: Armed timer handles, cancelled when the peer crashes, departs or
    #: is purged — a dead peer must never fire another maintenance
    #: event (its timers used to linger as scheduled no-ops).
    heartbeat_timer: object | None = None
    epoch_timer: object | None = None

    def cancel_timers(self) -> None:
        """Disarm both timer chains (idempotent)."""
        if self.heartbeat_timer is not None:
            self.heartbeat_timer.cancel()
            self.heartbeat_timer = None
        if self.epoch_timer is not None:
            self.epoch_timer.cancel()
            self.epoch_timer = None


class MaintenanceDaemon:
    """Runs heartbeats, failure detection and epoch repair on a simulator."""

    def __init__(
        self,
        simulator: Simulator,
        overlay: OverlayNetwork,
        host_cache: HostCacheServer,
        bootstrap: UtilityBootstrap,
        rng: RandomSource,
        config: OverlayConfig | None = None,
        stats: MessageStats | None = None,
        registry: Registry | None = None,
        tracer: Tracer | None = None,
    ) -> None:
        # Deferred import: the runtime package reaches back into the
        # protocol modules at load, so the seam is bound lazily here.
        from ..runtime.transport import SimTimers

        self.simulator = simulator
        #: Timer/clock seam.  All maintenance scheduling goes through
        #: this adapter (pure pass-through over the simulator), so the
        #: daemon can later ride an asyncio clock unchanged.
        self.timers = SimTimers(simulator)
        self.overlay = overlay
        self.host_cache = host_cache
        self.bootstrap = bootstrap
        self.rng = rng
        self.config = config or OverlayConfig()
        self.stats = stats or MessageStats()
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self._states: dict[int, _PeerState] = {}
        self.detected_failures: list[tuple[float, int, int]] = []
        self.repairs: list[tuple[float, int, int]] = []
        self._c_heartbeats = self.registry.counter("maintenance.heartbeats")
        self._c_replies = self.registry.counter(
            "maintenance.heartbeat_replies")
        self._c_failures = self.registry.counter(
            "maintenance.failures_detected")
        self._c_repaired = self.registry.counter(
            "maintenance.links_repaired")
        self._c_departures = self.registry.counter("maintenance.departures")
        self._g_alive = self.registry.gauge("maintenance.alive_peers")

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def activate(self, peer_id: int) -> None:
        """Start maintaining ``peer_id`` (must already be in the overlay)."""
        if peer_id not in self.overlay:
            raise OverlayError(f"cannot maintain unknown peer {peer_id}")
        if peer_id in self._states:
            raise OverlayError(f"peer {peer_id} is already maintained")
        state = _PeerState(epoch_ms=self.config.epoch_ms)
        self._states[peer_id] = state
        self._g_alive.inc()
        jitter = float(self.rng.uniform(0, self.config.heartbeat_interval_ms))
        state.heartbeat_timer = self.timers.arm_timer(
            jitter, lambda: self._heartbeat_round(peer_id))
        state.epoch_timer = self.timers.arm_timer(
            state.epoch_ms, lambda: self._epoch_end(peer_id))

    def is_alive(self, peer_id: int) -> bool:
        """True if the peer is maintained and not crashed/departed."""
        state = self._states.get(peer_id)
        return state is not None and state.alive

    def alive_peers(self) -> list[int]:
        """All currently live maintained peers."""
        return [p for p, s in self._states.items() if s.alive]

    def missed_heartbeats(self, peer_id: int) -> dict[int, int]:
        """``{neighbor: consecutive missed heartbeats}`` as seen by
        ``peer_id`` (read-only copy; invariant checkers use this to
        audit view consistency after partitions heal)."""
        state = self._states.get(peer_id)
        if state is None:
            raise OverlayError(f"peer {peer_id} is not maintained")
        return dict(state.missed)

    def crash(self, peer_id: int) -> None:
        """Kill a peer silently; neighbors must detect it via heartbeats."""
        state = self._states.get(peer_id)
        if state is None or not state.alive:
            return
        state.alive = False
        state.cancel_timers()
        self._g_alive.dec()
        self.host_cache.unregister(peer_id)

    def depart(self, peer_id: int) -> None:
        """Gracefully remove a peer: departure messages, immediate cleanup."""
        state = self._states.get(peer_id)
        if state is None or not state.alive:
            return
        state.alive = False
        state.cancel_timers()
        self._g_alive.dec()
        self.host_cache.unregister(peer_id)
        neighbors = self.overlay.neighbors(peer_id)
        self.stats.record(MessageKind.DEPARTURE, len(neighbors))
        self._c_departures.inc(len(neighbors))
        self.overlay.remove_peer(peer_id)
        del self._states[peer_id]

    # ------------------------------------------------------------------
    # Heartbeats
    # ------------------------------------------------------------------
    def _heartbeat_round(self, peer_id: int) -> None:
        state = self._states.get(peer_id)
        if state is None or not state.alive:
            return
        state.heartbeat_timer = None
        if peer_id not in self.overlay:
            return
        tracer = (self.tracer if self.tracer is not None
                  else get_default_tracer())
        tracing = tracer is not None and tracer.spans
        if tracing:
            self._heartbeat_scan_traced(peer_id, state, tracer)
        else:
            self._heartbeat_scan(peer_id, state)
        if state.alive:
            state.heartbeat_timer = self.timers.arm_timer(
                self.config.heartbeat_interval_ms,
                lambda: self._heartbeat_round(peer_id))

    def _heartbeat_scan(self, peer_id: int, state: _PeerState) -> None:
        """Bulk liveness scan — the untraced (default) fast path.

        Observable behavior is identical to the traced loop: the same
        miss counters move, failures are declared in the same neighbor
        order, and the aggregate message statistics end at the same
        values.  The per-neighbor Python work shrinks to one dict
        lookup; message counts are recorded in batch, which is what
        makes whole-overlay heartbeat rounds affordable at scale.
        """
        states = self._states
        missed = state.missed
        silent: list[int] = []
        replies = 0
        for neighbor in self.overlay.iter_neighbors(peer_id):
            neighbor_state = states.get(neighbor)
            if neighbor_state is not None and neighbor_state.alive:
                replies += 1
                if missed:
                    missed.pop(neighbor, None)
            else:
                silent.append(neighbor)
        total = replies + len(silent)
        self.stats.record(MessageKind.HEARTBEAT, total)
        self._c_heartbeats.inc(total)
        self.stats.record(MessageKind.HEARTBEAT_REPLY, replies)
        self._c_replies.inc(replies)
        threshold = self.config.missed_heartbeats_for_failure
        for neighbor in silent:
            count = missed.get(neighbor, 0) + 1
            missed[neighbor] = count
            if count >= threshold:
                self._declare_failed(peer_id, neighbor, state)

    def _heartbeat_scan_traced(self, peer_id: int, state: _PeerState,
                               tracer: Tracer) -> None:
        now = self.simulator.now
        # One span tree per round: a probe span per neighbor, closed by
        # the reply when the neighbor is alive and left open (unreplied)
        # when the heartbeat went unanswered.
        root = tracer.root_span(at_ms=now, kind="heartbeat")
        threshold = self.config.missed_heartbeats_for_failure
        for neighbor in self.overlay.neighbors(peer_id):
            self.stats.record(MessageKind.HEARTBEAT)
            self._c_heartbeats.inc()
            probe = tracer.child_span(root)
            tracer.record(now, KIND_SEND, a=peer_id, b=neighbor,
                          detail=MessageKind.HEARTBEAT.value,
                          span=probe)
            neighbor_state = self._states.get(neighbor)
            if neighbor_state is not None and neighbor_state.alive:
                self.stats.record(MessageKind.HEARTBEAT_REPLY)
                self._c_replies.inc()
                tracer.record(now, KIND_DELIVER, a=neighbor,
                              b=peer_id,
                              detail=MessageKind.HEARTBEAT_REPLY.value,
                              span=probe)
                state.missed.pop(neighbor, None)
                continue
            missed = state.missed.get(neighbor, 0) + 1
            state.missed[neighbor] = missed
            if missed >= threshold:
                self._declare_failed(peer_id, neighbor, state)

    def _declare_failed(self, peer_id: int, neighbor: int,
                        state: _PeerState) -> None:
        state.missed.pop(neighbor, None)
        if neighbor in self.overlay and self.overlay.has_link(
                peer_id, neighbor):
            self.overlay.remove_link(peer_id, neighbor)
        state.failures_this_epoch += 1
        self._c_failures.inc()
        self.detected_failures.append(
            (self.timers.now(), peer_id, neighbor))
        # Purge the dead peer's vertex once everyone has dropped it.
        if neighbor in self.overlay and self.overlay.degree(neighbor) == 0:
            dead_state = self._states.get(neighbor)
            if dead_state is not None and not dead_state.alive:
                dead_state.cancel_timers()
                self.overlay.remove_peer(neighbor)
                del self._states[neighbor]

    # ------------------------------------------------------------------
    # Epochs
    # ------------------------------------------------------------------
    def _epoch_end(self, peer_id: int) -> None:
        state = self._states.get(peer_id)
        if state is None or not state.alive:
            return
        state.epoch_timer = None
        if peer_id not in self.overlay:
            return
        info = self.overlay.peer(peer_id)
        target = self.config.target_degree(info.capacity)
        deficit = target - self.overlay.degree(peer_id)
        if deficit > 0:
            added = self.bootstrap.acquire_neighbors(info, deficit)
            if added:
                self._c_repaired.inc(len(added))
                self.repairs.append(
                    (self.timers.now(), peer_id, len(added)))
        state.epoch_ms = self._adapted_epoch(state)
        state.failures_this_epoch = 0
        state.epoch_timer = self.timers.arm_timer(
            state.epoch_ms, lambda: self._epoch_end(peer_id))

    def _adapted_epoch(self, state: _PeerState) -> float:
        """Shrink the epoch under churn, grow it when the neighborhood is
        calm, clamped to the configured range."""
        cfg = self.config
        if state.failures_this_epoch == 0:
            proposed = state.epoch_ms * 1.25
        else:
            proposed = state.epoch_ms / (1.0 + state.failures_this_epoch)
        return min(max(proposed, cfg.min_epoch_ms), cfg.max_epoch_ms)
