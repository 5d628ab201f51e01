"""Latency- and loss-aware message transport over the event simulator.

The procedural protocol implementations (advertisement, subscription)
compute outcomes directly for speed; this module provides the *faithful*
alternative: peers register handlers with a :class:`MessageNetwork`,
``send`` schedules a delivery event after the true underlay latency, and
deliveries can be lost with a configurable probability or dropped when
the recipient has departed.  The event-driven GroupCast session layer
(:mod:`repro.groupcast.session`) runs entirely on this transport, and
the test suite cross-validates it against the procedural fast path.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Iterator, NamedTuple, Optional

from ..errors import SimulationError
from ..obs.registry import Counter, Registry
from ..obs.tracer import (
    KIND_DEAD_LETTER,
    KIND_DELIVER,
    KIND_LOST,
    KIND_SEND,
    SpanContext,
    Tracer,
)
from ..overlay.messages import MessageKind, MessageStats
from .engine import Simulator
from .random import RandomSource

#: Maps a peer pair to the one-way message latency in milliseconds.
LatencyFn = Callable[[int, int], float]


class Envelope(NamedTuple):
    """One delivered message (a tuple: built once per message hop)."""

    sender: int
    recipient: int
    payload: object
    sent_at_ms: float
    delivered_at_ms: float
    kind: MessageKind | None = None
    #: Causal span of this message (None unless span tracing is on).
    span: SpanContext | None = None

    @property
    def transit_ms(self) -> float:
        """Time the message spent in flight."""
        return self.delivered_at_ms - self.sent_at_ms


class MessageNetwork:
    """Unicast message fabric between registered peers."""

    def __init__(
        self,
        simulator: Simulator,
        latency_fn: LatencyFn,
        rng: RandomSource,
        loss_rate: float = 0.0,
        stats: Optional[MessageStats] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
        bulk_latency_fn: Optional[Callable] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise SimulationError("loss_rate must be in [0, 1)")
        self.simulator = simulator
        self.latency_fn = latency_fn
        #: Vectorized counterpart of ``latency_fn`` — maps two equal-
        #: length peer-id vectors to elementwise latencies, bit-for-bit
        #: with the scalar call.  Auto-derived when ``latency_fn`` is a
        #: bound ``peer_distance_ms`` whose owner exposes the bulk
        #: ``peer_pair_distances`` gather (Deployment / UnderlayNetwork).
        self.bulk_latency_fn = bulk_latency_fn
        if self.bulk_latency_fn is None:
            owner = getattr(latency_fn, "__self__", None)
            if getattr(latency_fn, "__name__", "") == "peer_distance_ms":
                self.bulk_latency_fn = getattr(
                    owner, "peer_pair_distances", None)
        self.rng = rng
        self.loss_rate = loss_rate
        self.stats = stats or MessageStats()
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        #: Optional :class:`~repro.faults.injector.FaultInjector`; when
        #: set, every post-loss send is routed through its ``on_send``.
        self.fault_injector = None
        #: Ambient causal parent: set while a handler runs (to the span
        #: of the message being delivered) or inside a
        #: :meth:`span_scope` block; ``send`` parents new message spans
        #: on it, chaining causality across peers without threading span
        #: arguments through every protocol handler.
        self.current_span: Optional[SpanContext] = None
        self._handlers: dict[int, Callable[[Envelope], None]] = {}
        self._pending = 0
        self._c_sent = self.registry.counter("net.sent")
        self._c_delivered = self.registry.counter("net.delivered")
        self._c_lost = self.registry.counter("net.lost")
        self._c_dead = self.registry.counter("net.dead_lettered")
        #: ``messages.<kind>`` counters keyed by kind value: a str key
        #: hashes in C, an enum member through ``Enum.__hash__``.
        self._kind_counters: dict[str, Counter] = {}

    # ------------------------------------------------------------------
    # Transport counters (registry-backed; attributes kept as properties
    # for backward compatibility with the pre-telemetry API).
    # ------------------------------------------------------------------
    @property
    def sent(self) -> int:
        """Messages handed to the transport (including lost ones)."""
        return self._c_sent.value

    @property
    def delivered(self) -> int:
        """Messages that reached a registered handler."""
        return self._c_delivered.value

    @property
    def lost(self) -> int:
        """Messages dropped by the loss process."""
        return self._c_lost.value

    @property
    def dead_lettered(self) -> int:
        """Messages whose recipient had no handler on arrival."""
        return self._c_dead.value

    def edge_latencies(self, csr, ids) -> "np.ndarray":
        """Per-directed-edge transit latencies for the array kernels.

        ``csr`` is a :class:`~repro.core.arrays.CSRGraph` whose row ``i``
        is the peer ``ids[i]``; the result aligns with ``csr.indices``
        and prices every overlay hop with this network's ``latency_fn``,
        so a vectorized flood (:func:`repro.core.multigroup.
        flood_advertisements_batch`) sees exactly the transit times the
        event-driven transport would apply.  With a bulk latency
        callable available the whole edge set prices in one routing-core
        matrix gather (bit-for-bit with the scalar calls); otherwise
        each directed edge falls back to one ``latency_fn`` call.
        """
        import numpy as np

        ids = np.asarray(ids, dtype=np.int64)
        senders = ids[csr.edge_sources()]
        receivers = ids[csr.indices]
        if self.bulk_latency_fn is not None:
            return np.asarray(self.bulk_latency_fn(senders, receivers),
                              dtype=np.float64)
        latency_fn = self.latency_fn
        return np.fromiter(
            (latency_fn(int(a), int(b))
             for a, b in zip(senders.tolist(), receivers.tolist())),
            dtype=np.float64, count=senders.shape[0])

    def conservation_gap(self) -> int:
        """Transport accounting identity; zero on a healthy network.

        Every message handed to ``send`` (plus every injected duplicate)
        must end up in exactly one of: delivered, lost to the ambient
        loss process, dead-lettered, dropped by a fault window, severed
        by a partition, or still in flight.  A non-zero gap means a drop
        was double-counted or never counted.
        """
        injected_duplicates = 0
        injected_drops = 0
        injector = self.fault_injector
        if injector is not None:
            injected_duplicates = injector.registry.counter(
                "faults.duplicated").value
            injected_drops = (
                injector.registry.counter("faults.dropped").value
                + injector.registry.counter(
                    "faults.partition_dropped").value)
        return (self.sent + injected_duplicates
                - self.delivered - self.lost - self.dead_lettered
                - injected_drops - self._pending)

    # ------------------------------------------------------------------
    @contextmanager
    def span_scope(self, span: Optional[SpanContext]) -> Iterator[None]:
        """Run a block with ``span`` as the ambient causal parent.

        Session entry points open an episode root span and wrap their
        initial sends in this scope; the messages (and everything they
        transitively cause) then attach under that root.  A no-op when
        ``span`` is None, so call sites need no tracing guards.
        """
        previous = self.current_span
        self.current_span = span
        try:
            yield
        finally:
            self.current_span = previous

    def register(self, peer_id: int,
                 handler: Callable[[Envelope], None]) -> None:
        """Attach a peer's message handler (replaces any previous one)."""
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: int) -> None:
        """Detach a departed peer; in-flight messages to it dead-letter."""
        self._handlers.pop(peer_id, None)

    def is_registered(self, peer_id: int) -> bool:
        """True if the peer currently receives messages."""
        return peer_id in self._handlers

    # ------------------------------------------------------------------
    def send(self, sender: int, recipient: int, payload: object,
             kind: MessageKind | None = None) -> None:
        """Schedule delivery of ``payload`` after the underlay latency.

        The accounting is single-homed by construction: a message is
        counted in ``MessageStats`` and ``messages.*`` exactly once when
        it is handed to the transport, and its *fate* lands in exactly
        one of ``net.lost`` (ambient loss process, also broken out per
        kind under ``net.lost.<kind>``), ``net.dead_lettered`` (departed
        recipient, per-kind under ``net.dead_lettered.<kind>``),
        ``faults.*`` (injected drop), or ``net.delivered``.
        """
        if sender == recipient:
            raise SimulationError("peers do not message themselves")
        self._c_sent.inc()
        if kind is not None:
            self.stats.record(kind)
            value = kind._value_
            counter = self._kind_counters.get(value)
            if counter is None:
                counter = self._kind_counters[value] = \
                    self.registry.counter(f"messages.{value}")
            counter.inc()
        tracer = self.tracer
        span = None
        if tracer is not None:
            detail = kind._value_ if kind is not None else ""
            span = tracer.child_span(self.current_span)
            tracer.record(self.simulator.now, KIND_SEND,
                          a=sender, b=recipient, detail=detail, span=span)
        if self.loss_rate > 0.0 and self.rng.random() < self.loss_rate:
            self._c_lost.inc()
            if kind is not None:
                self.registry.counter(f"net.lost.{kind._value_}").inc()
            if tracer is not None:
                tracer.record(self.simulator.now, KIND_LOST,
                              a=sender, b=recipient, detail=detail,
                              span=span)
            return
        latency = self.latency_fn(sender, recipient)
        if latency < 0.0:
            raise SimulationError("latency function returned < 0")
        injector = self.fault_injector
        if injector is not None:
            faulted = injector.on_send(
                self, sender, recipient, payload, kind, latency,
                span=span)
            if faulted is None:
                return  # dropped by the fault plan (counted there)
            latency = faulted
        self.schedule_delivery(sender, recipient, payload, kind, latency,
                               span=span)

    def schedule_delivery(self, sender: int, recipient: int,
                          payload: object, kind: MessageKind | None,
                          latency_ms: float,
                          span: SpanContext | None = None) -> None:
        """Schedule one delivery after ``latency_ms`` (injector entry
        point for duplicates; does not touch the send-side counters)."""
        simulator = self.simulator
        sent_at = simulator.now
        self._pending += 1
        simulator.schedule_call(
            latency_ms, self._deliver,
            Envelope(sender, recipient, payload, sent_at,
                     sent_at + latency_ms, kind, span))

    def broadcast(self, sender: int, recipients: list[int],
                  payload: object, kind: MessageKind | None = None) -> None:
        """Send the same payload to several recipients (unicast copies)."""
        for recipient in recipients:
            self.send(sender, recipient, payload, kind)

    def _deliver(self, envelope: Envelope) -> None:
        self._pending -= 1
        handler = self._handlers.get(envelope.recipient)
        tracer = self.tracer
        if handler is None:
            kind = envelope.kind
            self._c_dead.inc()
            if kind is not None:
                self.registry.counter(
                    f"net.dead_lettered.{kind._value_}").inc()
            if tracer is not None:
                tracer.record(envelope.delivered_at_ms, KIND_DEAD_LETTER,
                              a=envelope.sender, b=envelope.recipient,
                              detail=kind._value_ if kind is not None
                              else "", span=envelope.span)
            return
        self._c_delivered.inc()
        if tracer is not None:
            tracer.record(envelope.delivered_at_ms, KIND_DELIVER,
                          a=envelope.sender, b=envelope.recipient,
                          span=envelope.span)
        # The handler runs with the delivered message's span as the
        # ambient parent, so any sends it performs chain causally.
        previous = self.current_span
        self.current_span = envelope.span
        try:
            handler(envelope)
        finally:
            self.current_span = previous
