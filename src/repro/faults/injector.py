"""Deterministic fault injection over the message transport.

A :class:`FaultInjector` interprets a :class:`~repro.faults.plan.
FaultPlan` against a live :class:`~repro.sim.messaging.MessageNetwork`:
it intercepts every ``send`` (via the transport's ``fault_injector``
hook), drops/duplicates/delays/reorders messages inside the plan's
windows, severs messages across an active partition, and fires the
plan's crash/restart events on the simulator.

Three properties make the harness regression-grade:

* **Determinism** — all randomness comes from the injector's *own*
  :class:`~repro.sim.random.RandomSource` stream, so attaching an
  injector never perturbs protocol RNG streams, and the same seed
  always yields the same fault realization.
* **Transparency at zero** — with an empty plan the injector draws no
  random numbers and emits no trace records, so a run with a zero-fault
  injector attached is *bit-identical* (same ``trace_digest``) to a run
  without one.
* **Accountability** — every injected fault increments a ``faults.*``
  registry counter and, when a tracer is attached, lands in the trace
  stream, so tests can assert exactly what the schedule did.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import FaultPlanError
from ..obs.profiler import phase_timer
from ..obs.registry import Registry
from ..obs.tracer import (
    KIND_CRASH,
    KIND_FAULT_DELAY,
    KIND_FAULT_DROP,
    KIND_FAULT_DUPLICATE,
    KIND_FAULT_REORDER,
    KIND_PARTITION_DROP,
    KIND_PARTITION_HEAL,
    KIND_PARTITION_START,
    KIND_RESTART,
    Tracer,
)
from ..overlay.messages import MessageKind
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from .plan import FaultPlan, PartitionWindow, apply_partition, heal_partition


class FaultInjector:
    """Executes one :class:`FaultPlan` against a message transport."""

    def __init__(
        self,
        plan: FaultPlan,
        rng: RandomSource,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.plan = plan
        self.rng = rng
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.network = None
        self.simulator: Simulator | None = None
        self._overlay = None
        self._severed_links: list[tuple[int, int]] = []
        self._crashed: set[int] = set()
        self._c_dropped = self.registry.counter("faults.dropped")
        self._c_duplicated = self.registry.counter("faults.duplicated")
        self._c_delayed = self.registry.counter("faults.delayed")
        self._c_reordered = self.registry.counter("faults.reordered")
        self._c_partition_dropped = self.registry.counter(
            "faults.partition_dropped")
        self._c_partitions = self.registry.counter("faults.partitions")
        self._c_heals = self.registry.counter("faults.partition_heals")
        self._c_crashes = self.registry.counter("faults.crashes")
        self._c_restarts = self.registry.counter("faults.restarts")

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def attach(self, network) -> "FaultInjector":
        """Install this injector on a :class:`MessageNetwork`."""
        if network.fault_injector is not None:
            raise FaultPlanError("the network already has a fault injector")
        network.fault_injector = self
        self.network = network
        self.simulator = network.simulator
        return self

    def arm(
        self,
        simulator: Simulator | None = None,
        overlay=None,
        on_crash: Callable[[int], None] | None = None,
        on_restart: Callable[[int], None] | None = None,
    ) -> None:
        """Schedule the plan's timed events on the simulator.

        Partition windows sever/heal messages automatically; when
        ``overlay`` is given the corresponding overlay links are removed
        for the window's duration too, so hop-by-hop searches (tree
        repair, maintenance) observe the partition as well.  Crash and
        restart events call back into the harness (``on_crash`` /
        ``on_restart``), which owns the session/overlay side effects.
        """
        simulator = simulator or self.simulator
        if simulator is None:
            raise FaultPlanError("arm() needs a simulator (attach first)")
        self.simulator = simulator
        self._overlay = overlay
        now = simulator.now
        for partition in self.plan.partitions:
            if partition.end_ms <= now:
                continue
            simulator.schedule_at(
                max(partition.start_ms, now),
                lambda p=partition: self._partition_start(p))
            simulator.schedule_at(
                partition.end_ms,
                lambda p=partition: self._partition_heal(p))
        for crash in self.plan.crashes:
            if crash.at_ms >= now:
                simulator.schedule_at(
                    crash.at_ms,
                    lambda c=crash: self._crash(c.peer_id, on_crash))
            if crash.restart_at_ms is not None \
                    and crash.restart_at_ms >= now:
                simulator.schedule_at(
                    crash.restart_at_ms,
                    lambda c=crash: self._restart(c.peer_id, on_restart))

    # ------------------------------------------------------------------
    # Timed events
    # ------------------------------------------------------------------
    def _partition_start(self, partition: PartitionWindow) -> None:
        self._c_partitions.inc()
        if self._overlay is not None:
            self._severed_links.extend(
                apply_partition(self._overlay, partition.components))
        if self.tracer is not None:
            self.tracer.record(
                self.simulator.now, KIND_PARTITION_START,
                detail=f"components={len(partition.components)}")

    def _partition_heal(self, partition: PartitionWindow) -> None:
        self._c_heals.inc()
        restored = 0
        if self._overlay is not None and self._severed_links:
            restored = heal_partition(self._overlay, self._severed_links)
            self._severed_links.clear()
        if self.tracer is not None:
            self.tracer.record(self.simulator.now, KIND_PARTITION_HEAL,
                               detail=f"restored={restored}")

    def _crash(self, peer_id: int,
               on_crash: Callable[[int], None] | None) -> None:
        if peer_id in self._crashed:
            return
        self._crashed.add(peer_id)
        self._c_crashes.inc()
        if self.tracer is not None:
            self.tracer.record(self.simulator.now, KIND_CRASH, a=peer_id)
        if on_crash is not None:
            on_crash(peer_id)

    def _restart(self, peer_id: int,
                 on_restart: Callable[[int], None] | None) -> None:
        if peer_id not in self._crashed:
            return
        self._crashed.discard(peer_id)
        self._c_restarts.inc()
        if self.tracer is not None:
            self.tracer.record(self.simulator.now, KIND_RESTART, a=peer_id)
        if on_restart is not None:
            on_restart(peer_id)

    @property
    def crashed_peers(self) -> frozenset[int]:
        """Peers currently down because of a plan crash event."""
        return frozenset(self._crashed)

    def faults_injected(self) -> int:
        """Total message-level faults injected so far."""
        return (self._c_dropped.value + self._c_duplicated.value
                + self._c_delayed.value + self._c_reordered.value
                + self._c_partition_dropped.value)

    # ------------------------------------------------------------------
    # Transport hook
    # ------------------------------------------------------------------
    def on_send(self, network, sender: int, recipient: int, payload: object,
                kind: MessageKind | None, latency_ms: float,
                span=None) -> float | None:
        """Apply the plan to one message about to be scheduled.

        Returns the (possibly inflated) transit latency, or None when
        the message must be dropped.  Called by
        :meth:`MessageNetwork.send` after its own loss process, so
        ambient losses and injected faults are accounted separately.
        ``span`` is the message's causal span (None unless span tracing
        is on); fault records carry it so a span tree shows *which*
        message a window dropped, duplicated or delayed.
        """
        plan = self.plan
        if plan.is_zero:
            return latency_ms
        with phase_timer("faults.on_send"):
            return self._apply(network, sender, recipient, payload, kind,
                               latency_ms, span)

    def _apply(self, network, sender: int, recipient: int, payload: object,
               kind: MessageKind | None, latency_ms: float,
               span) -> float | None:
        plan = self.plan
        now = network.simulator.now
        detail = kind.value if kind is not None else ""
        partition = plan.partition_at(now)
        if partition is not None and partition.severed(sender, recipient):
            self._c_partition_dropped.inc()
            if self.tracer is not None:
                self.tracer.record(now, KIND_PARTITION_DROP,
                                   a=sender, b=recipient, detail=detail,
                                   span=span)
            return None
        for window in plan.active_windows(now, sender, recipient):
            if self.rng.random() >= window.probability:
                continue
            if window.kind == "drop":
                self._c_dropped.inc()
                if self.tracer is not None:
                    self.tracer.record(now, KIND_FAULT_DROP,
                                       a=sender, b=recipient, detail=detail,
                                       span=span)
                return None
            if window.kind == "duplicate":
                self._c_duplicated.inc()
                skew = float(self.rng.uniform(0.0, window.magnitude_ms))
                if self.tracer is not None:
                    self.tracer.record(now, KIND_FAULT_DUPLICATE,
                                       a=sender, b=recipient, detail=detail,
                                       span=span)
                network.schedule_delivery(
                    sender, recipient, payload, kind, latency_ms + skew,
                    span=span)
            elif window.kind == "delay":
                self._c_delayed.inc()
                jitter = float(self.rng.uniform(0.0, window.magnitude_ms))
                latency_ms += window.magnitude_ms + jitter
                if self.tracer is not None:
                    self.tracer.record(now, KIND_FAULT_DELAY,
                                       a=sender, b=recipient, detail=detail,
                                       span=span)
            else:  # "reorder"
                self._c_reordered.inc()
                latency_ms += float(self.rng.uniform(0.0, window.magnitude_ms))
                if self.tracer is not None:
                    self.tracer.record(now, KIND_FAULT_REORDER,
                                       a=sender, b=recipient, detail=detail,
                                       span=span)
        return latency_ms
