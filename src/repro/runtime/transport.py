"""The transport seam: one interface, two execution substrates.

Every event-driven protocol path in this repository — advertisement
floods, reverse-path subscriptions, ripple searches, payload
dissemination, heartbeat maintenance — issues its sends and arms its
timers exclusively through a :class:`Transport`.  The *identical*
protocol code then runs on two substrates:

* :class:`~repro.runtime.sim.SimTransport` adapts the deterministic
  discrete-event :class:`~repro.sim.messaging.MessageNetwork` /
  :class:`~repro.sim.engine.Simulator` pair.  It is a pure pass-through:
  same rng draws, same tracer records, same event sequence numbers —
  same-seed runs are bit-identical to pre-seam dispatch, which is what
  lets the sim act as the runtime's conformance oracle.
* :class:`~repro.runtime.asyncio_transport.AsyncioTransport` carries the
  same sends over real UDP datagram sockets with framing, per-peer
  sequence numbers and retransmit-until-ack reliability.

The interface is deliberately small.  ``send`` is fire-and-forget at
the protocol layer (reliability lives *below* the seam, in the
transport), handlers receive :class:`~repro.sim.messaging.Envelope`
objects on both substrates, and timers return cancellable handles so
protocol layers can disarm them when a peer crashes or departs.
"""

from __future__ import annotations

import abc
from contextlib import contextmanager
from typing import Callable, Iterator, Optional, Protocol, runtime_checkable

from ..obs.tracer import SpanContext, Tracer
from ..overlay.messages import MessageKind
from ..sim.engine import Simulator
from ..sim.messaging import Envelope

#: A registered peer's message callback.
Handler = Callable[[Envelope], None]


@runtime_checkable
class TimerHandle(Protocol):
    """A cancellable armed timer.

    Both substrates return one from :meth:`Transport.arm_timer`:
    the simulator's :class:`~repro.sim.engine.Event` (lazy-deletion
    ``cancel``) and asyncio's ``loop.call_later`` handle satisfy it
    structurally.
    """

    def cancel(self) -> None:  # pragma: no cover - protocol signature
        ...


class Transport(abc.ABC):
    """Send/receive/timer/clock surface the protocol layers run on."""

    #: Optional tracer; protocol code opens episode root spans on it.
    tracer: Optional[Tracer]

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def now(self) -> float:
        """Current transport time in milliseconds.

        Virtual time on the simulator substrate, monotonic wall-clock
        (relative to transport start) on the asyncio substrate.
        """

    # ------------------------------------------------------------------
    # Peers
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def register(self, peer_id: int, handler: Handler) -> None:
        """Attach a peer's message handler (replaces any previous one)."""

    @abc.abstractmethod
    def unregister(self, peer_id: int) -> None:
        """Detach a departed peer; in-flight messages to it dead-letter."""

    @abc.abstractmethod
    def is_registered(self, peer_id: int) -> bool:
        """True if the peer currently receives messages."""

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def send(self, sender: int, recipient: int, payload: object,
             kind: MessageKind | None = None) -> None:
        """Hand one message to the transport (fire-and-forget)."""

    def broadcast(self, sender: int, recipients: list[int],
                  payload: object, kind: MessageKind | None = None) -> None:
        """Send the same payload to several recipients (unicast copies)."""
        for recipient in recipients:
            self.send(sender, recipient, payload, kind)

    # ------------------------------------------------------------------
    # Timers
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def arm_timer(self, delay_ms: float,
                  action: Callable[[], None]) -> TimerHandle:
        """Run ``action`` after ``delay_ms``; returns a cancellable handle."""

    # ------------------------------------------------------------------
    # Causality
    # ------------------------------------------------------------------
    @contextmanager
    def span_scope(self, span: Optional[SpanContext]) -> Iterator[None]:
        """Run a block with ``span`` as the ambient causal parent.

        The base implementation is a no-op scope; substrates that
        propagate spans through their fabric override it.
        """
        yield


class SimTimers:
    """Minimal timer/clock seam over a bare :class:`Simulator`.

    Protocol layers that schedule but never message (the heartbeat
    maintenance daemon) arm their timers through this adapter instead of
    touching the simulator directly, so the same code can later ride an
    asyncio clock.  Pure pass-through: ``arm_timer`` is exactly
    ``Simulator.schedule`` and consumes the same sequence numbers.
    """

    __slots__ = ("simulator",)

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator

    def now(self) -> float:
        """Current virtual time in milliseconds."""
        return self.simulator.now

    def arm_timer(self, delay_ms: float,
                  action: Callable[[], None]) -> TimerHandle:
        """Schedule ``action`` on the simulator; the event is the handle."""
        return self.simulator.schedule(delay_ms, action)


class AsyncioTimers:
    """The asyncio counterpart of :class:`SimTimers`.

    Milliseconds in, ``loop.call_later`` underneath (``loop.call_soon``
    for a zero delay, which skips the timer heap); ``now()`` is
    wall-clock milliseconds since construction so protocol timestamps
    stay small and comparable with virtual-time traces.
    """

    __slots__ = ("_loop", "_epoch")

    def __init__(self, loop=None) -> None:
        import asyncio

        self._loop = loop if loop is not None else \
            asyncio.get_event_loop()
        self._epoch = self._loop.time()

    def now(self) -> float:
        """Milliseconds since this timer surface was created."""
        return (self._loop.time() - self._epoch) * 1_000.0

    def arm_timer(self, delay_ms: float,
                  action: Callable[[], None]) -> TimerHandle:
        """Arm a callback on the running loop; the asyncio handle
        (which has ``cancel``) is returned as-is.  Either way the
        callback runs on a later loop iteration, never inline."""
        if delay_ms <= 0.0:
            return self._loop.call_soon(action)
        return self._loop.call_later(delay_ms / 1_000.0, action)
