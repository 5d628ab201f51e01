"""Real-socket substrate of the transport seam.

:class:`AsyncioTransport` carries the same protocol traffic the
simulator models over actual UDP datagram sockets on one asyncio loop.
Each locally hosted peer gets its own socket; frames are encoded by
:mod:`repro.runtime.framing`, sequenced and retransmitted-until-acked by
a per-peer :class:`~repro.runtime.reliability.ReliableEndpoint`, and
delivered to the registered handler as the same
:class:`~repro.sim.messaging.Envelope` objects the sim transport
produces — protocol code cannot tell the substrates apart.

Counters mirror the sim fabric (``net.sent`` / ``net.delivered`` /
``net.dead_lettered`` and per-kind ``messages.<kind>``) so the
conformance comparator can line up logical message counts; transport
chatter (acks, retransmits, duplicates, expiries) lands under
``runtime.*`` and never pollutes the logical counts.

An optional ``latency_fn`` *paces* deliveries: a frame delivered early
is held until ``sent_at + latency_fn(sender, recipient)``, and never
longer than that latency, whatever its send stamp says.  Loopback
jitter is ~1-2 ms, so pacing with the sim's own latency model (plus
topologies whose path sums differ by more than the jitter) makes the
live NSSA tree converge to the simulated one — the basis of the
loopback conformance test.

Each endpoint keeps **one lazily re-armed retransmit timer**: a send
arms it only when none is armed or the new frame's deadline is earlier
than the armed one; acks and purges never touch it (removing a frame
cannot make the earliest deadline earlier).  A timer that fires with
nothing due re-arms at the window's earliest deadline — the only place
the in-flight window is scanned, at most once per retransmit timeout
per endpoint rather than per datagram.  It may therefore fire early,
never late.  Quiescence is one O(1) count of unacked frames plus
deliveries not yet handed over; waiters wake the moment it reaches
zero.

Causal spans ride the frames themselves: :meth:`send` mints a child
span of the ambient :attr:`current_span` and stamps it into the
frame's ``"c"`` header, so the receiving side — even a peer in another
process — reconstructs the cross-datagram causality without any shared
span table.  Wire-level mishaps injected through an attached
:class:`~repro.runtime.faulty.FaultyTransport` (see
:meth:`inject_faults`) are recovered by the ARQ layer, so they count
under ``runtime.fault_*`` — never ``faults.*``, which would break the
transport conservation identity the reports check.
"""

from __future__ import annotations

import asyncio
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from ..errors import FramingError, TopologyError, TransportError
from ..obs.registry import Counter, Registry
from ..obs.tracer import (
    KIND_DEAD_LETTER,
    KIND_DELIVER,
    KIND_FAULT_DROP,
    KIND_SEND,
    SpanContext,
    Tracer,
)
from ..overlay.messages import MessageKind, MessageStats
from .framing import Frame, decode_frame, encode_frame
from .reliability import ReliableEndpoint, RetryPolicy
from .transport import AsyncioTimers, Handler, TimerHandle, Transport

#: Maps a peer pair to the pacing latency in milliseconds (optional).
LatencyFn = Callable[[int, int], float]


class _DatagramProtocol(asyncio.DatagramProtocol):
    """Forwards one peer socket's datagrams into the transport."""

    def __init__(self, owner: "AsyncioTransport", peer_id: int) -> None:
        self.owner = owner
        self.peer_id = peer_id

    def datagram_received(self, data: bytes, addr) -> None:
        self.owner._on_datagram(self.peer_id, data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        pass  # ICMP errors on loopback are not actionable; ARQ recovers


class _PeerEndpoint:
    """One locally hosted peer: socket + ARQ state + retransmit pump
    (``pump_due_ms`` is the deadline ``pump_handle`` is armed for)."""

    __slots__ = ("peer_id", "transport", "reliable", "pump_handle",
                 "pump_due_ms")

    def __init__(self, peer_id: int, transport, reliable: ReliableEndpoint
                 ) -> None:
        self.peer_id = peer_id
        self.transport = transport
        self.reliable = reliable
        self.pump_handle = None
        self.pump_due_ms = 0.0


class AsyncioTransport(Transport):
    """UDP loopback fabric with framing and retransmit-until-ack."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        policy: Optional[RetryPolicy] = None,
        latency_fn: Optional[LatencyFn] = None,
        stats: Optional[MessageStats] = None,
        registry: Optional[Registry] = None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.host = host
        self.policy = policy or RetryPolicy()
        self.latency_fn = latency_fn
        self.stats = stats or MessageStats()
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer
        self.current_span: Optional[SpanContext] = None
        self._timers: Optional[AsyncioTimers] = None
        self._incarnations: dict[int, int] = {}
        self._dead: set[int] = set()
        self._endpoints: dict[int, _PeerEndpoint] = {}
        self._routes: dict[int, tuple[str, int]] = {}
        self._handlers: dict[int, Handler] = {}
        self._outstanding = 0  # unacked frames + undelivered frames
        self._idle = asyncio.Event()
        self.faults = None  # optional FaultyTransport (inject_faults)
        self._c_sent = self.registry.counter("net.sent")
        self._c_delivered = self.registry.counter("net.delivered")
        self._c_dead = self.registry.counter("net.dead_lettered")
        self._c_malformed = self.registry.counter("runtime.malformed")
        self._c_fault_dropped = self.registry.counter(
            "runtime.fault_dropped")
        self._c_fault_duplicated = self.registry.counter(
            "runtime.fault_duplicated")
        self._kind_counters: dict[MessageKind, Counter] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the transport to the running loop (call before peers)."""
        self._timers = AsyncioTimers(asyncio.get_running_loop())

    async def start_peer(self, peer_id: int,
                         handler: Optional[Handler] = None,
                         port: int = 0) -> tuple[str, int]:
        """Open a datagram socket for ``peer_id``; returns its address.

        ``port=0`` lets the OS pick (single-process clusters);
        multi-process deployments pass explicit ports and publish them
        to the other processes through :meth:`add_route`.
        """
        if self._timers is None:
            raise TransportError("transport not started")
        if peer_id in self._endpoints:
            raise TransportError(f"peer {peer_id} already started")
        loop = asyncio.get_running_loop()
        transport, _ = await loop.create_datagram_endpoint(
            lambda: _DatagramProtocol(self, peer_id),
            local_addr=(self.host, port))
        address = transport.get_extra_info("sockname")[:2]
        # Each (re)start is a fresh incarnation: sequence numbers reset
        # to zero under a new nonce, so receivers' dedup state from a
        # previous life cannot swallow the reborn peer's frames.
        nonce = self._incarnations.get(peer_id, -1) + 1
        self._incarnations[peer_id] = nonce
        self._dead.discard(peer_id)
        self._endpoints[peer_id] = _PeerEndpoint(
            peer_id, transport,
            ReliableEndpoint(peer_id, self.policy, self.registry,
                             nonce=nonce))
        self._routes[peer_id] = address
        if handler is not None:
            self.register(peer_id, handler)
        return address

    async def stop_peer(self, peer_id: int) -> None:
        """Close a peer's socket and forget its route.

        Models a crash with failure detection already converged: no
        goodbye traffic, and the surviving endpoints abandon their
        in-flight frames toward the dead peer (counted as
        dead-lettered) instead of retransmitting into the void.  The
        purge runs even when the peer is hosted elsewhere (known only
        through :meth:`add_route`) — local survivors must stop burning
        retry budget against the dead incarnation either way.
        """
        endpoint = self._endpoints.pop(peer_id, None)
        if endpoint is not None:
            if endpoint.pump_handle is not None:
                endpoint.pump_handle.cancel()
            endpoint.transport.close()
            self._settle(endpoint.reliable.unacked())
        self.forget_peer(peer_id)

    def forget_peer(self, peer_id: int) -> int:
        """Converge local failure detection on ``peer_id``.

        Drops its route, marks it dead (new sends dead-letter
        immediately), and purges every surviving endpoint's ARQ state
        toward it — in-flight retransmit windows (abandoned frames are
        counted dead-lettered) and dedup sets for its late incarnation.
        Returns the number of in-flight frames abandoned.
        """
        self._routes.pop(peer_id, None)
        self._dead.add(peer_id)
        self.unregister(peer_id)
        total_abandoned = 0
        for survivor in self._endpoints.values():
            abandoned = survivor.reliable.forget_peer(peer_id)
            total_abandoned += abandoned
            for _ in range(abandoned):
                self._c_dead.inc()
        self._settle(total_abandoned)
        return total_abandoned

    async def close(self) -> None:
        """Stop every locally hosted peer."""
        for peer_id in list(self._endpoints):
            await self.stop_peer(peer_id)

    def add_route(self, peer_id: int, host: str, port: int) -> None:
        """Publish the address of a peer hosted by another process."""
        self._routes[peer_id] = (host, port)
        self._dead.discard(peer_id)

    # ------------------------------------------------------------------
    # Transport interface
    # ------------------------------------------------------------------
    def now(self) -> float:
        """Milliseconds since :meth:`start` (monotonic loop clock)."""
        if self._timers is None:
            raise TransportError("transport not started")
        return self._timers.now()

    def arm_timer(self, delay_ms: float,
                  action: Callable[[], None]) -> TimerHandle:
        """Arm a loop callback; the asyncio timer handle is returned."""
        if self._timers is None:
            raise TransportError("transport not started")
        return self._timers.arm_timer(delay_ms, action)

    def register(self, peer_id: int, handler: Handler) -> None:
        """Attach a peer's message handler (replaces any previous one)."""
        self._handlers[peer_id] = handler

    def unregister(self, peer_id: int) -> None:
        """Detach a peer; frames arriving for it dead-letter."""
        self._handlers.pop(peer_id, None)

    def is_registered(self, peer_id: int) -> bool:
        """True if the peer currently receives messages."""
        return peer_id in self._handlers

    def send(self, sender: int, recipient: int, payload: object,
             kind: MessageKind | None = None) -> None:
        """Frame, sequence and transmit one payload (ARQ underneath)."""
        if sender == recipient:
            raise TransportError("peers do not message themselves")
        endpoint = self._endpoints.get(sender)
        if endpoint is None:
            raise TransportError(f"peer {sender} is not hosted here")
        self._c_sent.inc()
        detail = ""
        if kind is not None:
            self.stats.record(kind)
            self._kind_counter(kind).inc()
            detail = kind.value
        if recipient in self._dead and recipient not in self._routes:
            # Failure detection has converged on this peer locally.
            # Mirror the sim fabric — which dead-letters sends to
            # unregistered peers — instead of burning the whole
            # retransmit budget into the void.
            self._c_dead.inc()
            if self.tracer is not None:
                span = self.tracer.child_span(self.current_span)
                self.tracer.record(self.now(), KIND_SEND, a=sender,
                                   b=recipient, detail=detail, span=span)
                self.tracer.record(self.now(), KIND_DEAD_LETTER, a=sender,
                                   b=recipient, detail=detail, span=span)
            return
        span = None
        if self.tracer is not None:
            span = self.tracer.child_span(self.current_span)
            self.tracer.record(self.now(), KIND_SEND, a=sender,
                               b=recipient, detail=detail, span=span)
        # The span travels in the frame header itself, so the receiver
        # — even one in another process — closes the same causal span
        # the sender opened.
        frame = endpoint.reliable.package(recipient, payload, kind,
                                          self.now(), span=span)
        self._outstanding += 1
        self._transmit(endpoint, frame)
        self._schedule_pump(
            endpoint, frame.sent_at_ms + self.policy.delay_ms(0))

    @contextmanager
    def span_scope(self, span: Optional[SpanContext]) -> Iterator[None]:
        """Run a block with ``span`` as the ambient causal parent."""
        previous = self.current_span
        self.current_span = span
        try:
            yield
        finally:
            self.current_span = previous

    # ------------------------------------------------------------------
    # Introspection (the ops endpoint reads these)
    # ------------------------------------------------------------------
    def incarnation(self, peer_id: int) -> int:
        """The peer's current incarnation number (-1 if never started
        here)."""
        return self._incarnations.get(peer_id, -1)

    def arq_window(self, peer_id: int) -> int:
        """Frames the locally hosted peer still holds unacked (0 for
        peers hosted elsewhere)."""
        endpoint = self._endpoints.get(peer_id)
        return 0 if endpoint is None else endpoint.reliable.unacked()

    def arq_window_to(self, sender: int, recipient: int) -> int:
        """In-flight frames from a local ``sender`` toward
        ``recipient`` — the window :meth:`forget_peer` purges."""
        endpoint = self._endpoints.get(sender)
        if endpoint is None:
            return 0
        return endpoint.reliable.unacked_to(recipient)

    # ------------------------------------------------------------------
    # Quiescence (tests wait on this instead of sleeping)
    # ------------------------------------------------------------------
    def quiescent(self) -> bool:
        """True when no frame is unacked and no delivery is pending."""
        return self._outstanding == 0

    async def wait_quiescent(self, timeout_s: float,
                             interval_s: float = 0.02) -> bool:
        """Wait until :meth:`quiescent` or the deadline passes.

        Wakes the moment the outstanding count reaches zero; nothing
        polls, so ``interval_s`` is unused (kept for callers that pass
        it).
        """
        async def idle() -> None:
            while self._outstanding:
                self._idle.clear()
                await self._idle.wait()

        if self._outstanding:
            try:
                await asyncio.wait_for(idle(), timeout_s)
            except asyncio.TimeoutError:
                pass
        return self.quiescent()

    def _settle(self, count: int = 1) -> None:
        """``count`` outstanding frames/deliveries are accounted for."""
        self._outstanding -= count
        if not self._outstanding:
            self._idle.set()

    # ------------------------------------------------------------------
    # Wire plumbing
    # ------------------------------------------------------------------
    def _kind_counter(self, kind: MessageKind) -> Counter:
        counter = self._kind_counters.get(kind)
        if counter is None:
            counter = self.registry.counter(f"messages.{kind.value}")
            self._kind_counters[kind] = counter
        return counter

    def inject_faults(self, faulty) -> None:
        """Route every wire transmission (DATA and ACK alike) through a
        :class:`~repro.runtime.faulty.FaultyTransport`.

        Wire-level drops/duplicates/delays are *recovered* by the ARQ
        layer, so they are accounted under ``runtime.fault_dropped`` /
        ``runtime.fault_duplicated`` — not the ``faults.*`` counters,
        which feed the conservation identity of unrecovered losses.
        Construct the injector with a small ``base_latency_ms``: its
        latency adds to real loopback time underneath any pacing.
        """
        self.faults = faulty

    def _transmit(self, endpoint: _PeerEndpoint, frame: Frame) -> None:
        address = self._routes.get(frame.recipient)
        if address is None:
            return  # crashed/unknown peer: let the ARQ budget expire
        data = encode_frame(frame)
        if self.faults is None:
            endpoint.transport.sendto(data, address)
            return
        now_ms = self.now()
        deliveries = self.faults.transmit(frame, now_ms)
        if not deliveries:
            self._c_fault_dropped.inc()
            if self.tracer is not None:
                # Span-less on purpose: the ARQ layer will retransmit,
                # so the logical span stays open instead of closing as
                # "dropped" (which would diverge live span-tree shapes
                # from the loss-free sim twin).
                self.tracer.record(now_ms, KIND_FAULT_DROP,
                                   a=frame.sender, b=frame.recipient,
                                   detail=frame.kind)
            return
        if len(deliveries) > 1:
            self._c_fault_duplicated.inc()
        for deliver_at_ms, _ in deliveries:
            delay_ms = deliver_at_ms - now_ms
            if delay_ms <= 0.0:
                endpoint.transport.sendto(data, address)
            else:
                self.arm_timer(
                    delay_ms,
                    lambda: self._wire_send(endpoint, data, address))

    def _wire_send(self, endpoint: _PeerEndpoint, data: bytes,
                   address: tuple[str, int]) -> None:
        """Late (fault-delayed) wire emission; drops if the sender's
        socket closed while the timer was in flight."""
        if endpoint.peer_id not in self._endpoints:
            return
        if endpoint.transport.is_closing():
            return
        endpoint.transport.sendto(data, address)

    def _schedule_pump(self, endpoint: _PeerEndpoint, due_ms: float) -> None:
        """Have the retransmit pump fire no later than ``due_ms``: a
        no-op while an armed timer is already due by then."""
        if endpoint.pump_handle is not None:
            if endpoint.pump_due_ms <= due_ms:
                return
            endpoint.pump_handle.cancel()
        endpoint.pump_due_ms = due_ms
        endpoint.pump_handle = self.arm_timer(
            max(0.0, due_ms - self.now()), lambda: self._pump(endpoint))

    def _pump(self, endpoint: _PeerEndpoint) -> None:
        endpoint.pump_handle = None
        if endpoint.peer_id not in self._endpoints:
            return  # stopped while the timer was in flight
        for frame in endpoint.reliable.due_retransmits(self.now()):
            self._transmit(endpoint, frame)
        for frame in endpoint.reliable.take_expired():
            self._c_dead.inc()
            self._settle()
            if self.tracer is not None:
                self.tracer.record(
                    self.now(), KIND_DEAD_LETTER, a=frame.sender,
                    b=frame.recipient, detail=frame.kind,
                    span=frame.span)
        due_ms = endpoint.reliable.next_due_ms()
        if due_ms is not None:
            self._schedule_pump(endpoint, due_ms)

    def _on_datagram(self, peer_id: int, data: bytes) -> None:
        endpoint = self._endpoints.get(peer_id)
        if endpoint is None:
            return
        try:
            frame = decode_frame(data)
        except FramingError:
            self._c_malformed.inc()
            return
        result = endpoint.reliable.on_frame(frame, self.now())
        if result.acked:
            self._settle()
        if result.ack is not None:
            self._transmit(endpoint, result.ack)
        if not result.deliver:
            return
        span = frame.span
        delay_ms = 0.0
        if self.latency_fn is not None:
            try:
                latency_ms = self.latency_fn(frame.sender, frame.recipient)
            except (KeyError, TopologyError):
                # Pairs outside the pacing table (ops probes cross the
                # overlay; edge-keyed tables only cover neighbors; the
                # underlay raises TopologyError for an unattached peer)
                # are delivered unpaced instead of wedging the socket
                # callback.
                latency_ms = 0.0
            # An honest frame is never stamped in the future, so its
            # hold never exceeds the transit latency; a forged future
            # stamp must not park the delivery beyond it.
            delay_ms = min(latency_ms, max(
                0.0, frame.sent_at_ms + latency_ms - self.now()))
        self._outstanding += 1
        self.arm_timer(delay_ms, lambda: self._deliver(frame, span))

    def _deliver(self, frame: Frame, span: Optional[SpanContext]) -> None:
        from ..sim.messaging import Envelope

        handler = self._handlers.get(frame.recipient)
        detail = frame.kind
        if handler is None:
            self._c_dead.inc()
            self._settle()
            if self.tracer is not None:
                self.tracer.record(self.now(), KIND_DEAD_LETTER,
                                   a=frame.sender, b=frame.recipient,
                                   detail=detail, span=span)
            return
        self._c_delivered.inc()
        if self.tracer is not None:
            self.tracer.record(self.now(), KIND_DELIVER, a=frame.sender,
                               b=frame.recipient, span=span)
        envelope = Envelope(
            sender=frame.sender,
            recipient=frame.recipient,
            payload=frame.payload,
            sent_at_ms=frame.sent_at_ms,
            delivered_at_ms=self.now(),
            kind=frame.message_kind(),
            span=span,
        )
        previous = self.current_span
        self.current_span = span
        try:
            handler(envelope)
        finally:
            self.current_span = previous
            # Last: what the handler sent is counted before this goes.
            self._settle()
