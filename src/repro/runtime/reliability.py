"""Sans-IO retransmit-until-ack reliability for datagram transports.

UDP loses, duplicates and reorders; the protocol layers above the
transport seam assume fire-and-forget delivery (the sim transport's
loss process is *modeled*, not compensated).  This module closes the
gap with a classic positive-ack ARQ scheme, written **sans-IO**: the
:class:`ReliableEndpoint` state machine never touches a socket or a
clock — callers feed it frames and timestamps and transmit whatever it
hands back.  That makes the retransmit logic deterministic under test:
the Hypothesis suite drives it against a seeded lossy
:class:`~repro.runtime.faulty.FaultyTransport` with a virtual clock and
proves every packaged payload is either delivered exactly once or
reported expired.

Per-peer sequence numbers do double duty: the sender keys its in-flight
window on ``(recipient, seq)`` and the receiver suppresses duplicates
on ``(sender, nonce, seq)`` — a retransmitted or fault-duplicated
datagram is re-acked but never re-delivered.  Dedup state is bounded:
per ``(sender, nonce)`` a contiguous watermark (every lower ``seq`` was
seen) plus the out-of-order arrivals within :data:`REORDER_WINDOW` of
it; a frame further ahead is neither acked nor delivered, so the
sender's own retransmit timer re-offers it once the gap has closed,
and a stream received in order costs O(1) memory however long it runs.
A gap the sender gave up on (an expired frame, a route published late)
never closes, so the receiver also keeps a few ``(when, highest seq)``
samples of what it refused: sequence numbers are handed out in
packaging order, so once a sample is older than the policy's whole
retry budget every unseen ``seq`` below it has expired at its sender
and the watermark moves past it — the pair stalls for one budget
instead of for ever, and nothing is acked that was not delivered
(sliding at once would ack, undelivered, any retransmission that
arrives more than a window late).  This assumes both ends run the
same :class:`RetryPolicy` and a datagram spends less than the
policy's longest backoff on the wire.  The ``nonce`` is the
sender's incarnation number: a restarted peer packages frames under a
fresh nonce, so its from-zero sequence numbers are not swallowed by
dedup state remembered from its previous life, and acks echoing an old
incarnation cannot clear new in-flight frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import TransportError
from ..obs.registry import Registry
from ..obs.tracer import SpanContext
from ..overlay.messages import MessageKind
from .framing import ACK, DATA, Frame

#: Bucket bounds for the per-frame transmission-attempt histogram:
#: 1 = first try acked, 2 = one retransmit, ... the overflow bucket
#: collects frames that needed most of their retry budget.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 5.0, 9.0)

#: Out-of-order DATA frames are accepted this far past the watermark.
REORDER_WINDOW = 1024


@dataclass(frozen=True)
class RetryPolicy:
    """Retransmit schedule: exponential backoff with a cap.

    Attempt ``n`` (0-based) is retransmitted ``timeout_ms *
    backoff**n`` (clamped to ``max_timeout_ms``) after the previous
    transmission; after ``max_retries`` unacknowledged transmissions the
    frame expires and is surfaced through
    :meth:`ReliableEndpoint.take_expired`.
    """

    timeout_ms: float = 200.0
    backoff: float = 2.0
    max_timeout_ms: float = 3_000.0
    max_retries: int = 8

    def __post_init__(self) -> None:
        if self.timeout_ms <= 0.0:
            raise TransportError("timeout_ms must be positive")
        if self.backoff < 1.0:
            raise TransportError("backoff must be >= 1")
        if self.max_timeout_ms < self.timeout_ms:
            raise TransportError("max_timeout_ms must be >= timeout_ms")
        if self.max_retries < 0:
            raise TransportError("max_retries must be non-negative")

    def delay_ms(self, attempt: int) -> float:
        """Backoff delay after the ``attempt``-th transmission (0-based)."""
        return min(self.timeout_ms * self.backoff ** attempt,
                   self.max_timeout_ms)


@dataclass
class _InFlight:
    frame: Frame
    due_ms: float
    attempts: int = 1


@dataclass
class _Seen:
    """Dedup state for one sender incarnation: every ``seq < low`` was
    seen (or has expired at the sender), plus the out-of-order
    ``ahead`` set (all within :data:`REORDER_WINDOW` of ``low``);
    ``refused`` holds ``(when, highest seq refused so far)`` samples."""

    low: int = 0
    ahead: set[int] = field(default_factory=set)
    high: int = 0
    refused: list[tuple[float, int]] = field(default_factory=list)


@dataclass(frozen=True)
class ReceiveResult:
    """What one incoming frame produced.

    ``ack`` is a frame the caller must transmit back (None for ACK
    frames, frames not addressed to this peer and frames beyond the
    reorder window); ``deliver`` is True when the payload should be
    handed to the protocol handler; ``duplicate`` marks an already-seen
    sequence number (re-acked, not re-delivered); ``acked`` is True
    when an ACK frame cleared an in-flight frame.
    """

    ack: Frame | None = None
    deliver: bool = False
    duplicate: bool = False
    acked: bool = False


_NOTHING = ReceiveResult()
_ACKED = ReceiveResult(acked=True)


class ReliableEndpoint:
    """Per-peer ARQ state: outgoing window, dedup index, ack plumbing."""

    def __init__(self, peer_id: int,
                 policy: RetryPolicy | None = None,
                 registry: Registry | None = None,
                 nonce: int = 0) -> None:
        self.peer_id = peer_id
        self.policy = policy or RetryPolicy()
        self.registry = registry if registry is not None else Registry()
        self.nonce = nonce
        self._next_seq: dict[int, int] = {}
        self._in_flight: dict[tuple[int, int], _InFlight] = {}
        self._seen: dict[tuple[int, int], _Seen] = {}
        self._expired: list[Frame] = []
        # How long a sender under this policy keeps a frame before it
        # expires (the receiver assumes its peers retry no longer).
        self._give_up_ms = sum(self.policy.delay_ms(attempt) for attempt
                               in range(self.policy.max_retries + 1))
        self._sample_ms = self._give_up_ms / 16  # <= 17 refusal samples
        self._c_retransmits = self.registry.counter("runtime.retransmits")
        self._c_duplicates = self.registry.counter(
            "runtime.duplicates_suppressed")
        self._c_expired = self.registry.counter("runtime.expired")
        self._c_acks = self.registry.counter("runtime.acks_sent")
        self._h_attempts = self.registry.histogram(
            "runtime.arq.attempts", bounds=ATTEMPT_BUCKETS)

    # ------------------------------------------------------------------
    # Sender side
    # ------------------------------------------------------------------
    def package(self, recipient: int, payload: object,
                kind: MessageKind | None, now_ms: float,
                span: SpanContext | None = None) -> Frame:
        """Wrap one payload into a sequenced DATA frame and track it.

        The returned frame must be transmitted by the caller; it stays
        in the in-flight window until its ack arrives or it expires.
        ``span`` stamps the frame's causal span header: retransmissions
        reuse the stored frame, so one logical send keeps one span no
        matter how many times it crosses the wire.
        """
        seq = self._next_seq.get(recipient, 0)
        self._next_seq[recipient] = seq + 1
        frame = Frame(
            frame_type=DATA,
            sender=self.peer_id,
            recipient=recipient,
            seq=seq,
            kind=kind.value if kind is not None else "",
            sent_at_ms=now_ms,
            payload=payload,
            nonce=self.nonce,
            span=span,
        )
        self._in_flight[(recipient, seq)] = _InFlight(
            frame=frame, due_ms=now_ms + self.policy.delay_ms(0))
        return frame

    def due_retransmits(self, now_ms: float) -> list[Frame]:
        """Frames whose retransmit timer elapsed; re-arms their timers.

        Frames past ``max_retries`` transmissions move to the expired
        list instead (collect with :meth:`take_expired`).
        """
        due: list[Frame] = []
        for key in list(self._in_flight):
            entry = self._in_flight[key]
            if entry.due_ms > now_ms:
                continue
            if entry.attempts > self.policy.max_retries:
                del self._in_flight[key]
                self._expired.append(entry.frame)
                self._c_expired.inc()
                self._h_attempts.observe(float(entry.attempts))
                continue
            entry.due_ms = now_ms + self.policy.delay_ms(entry.attempts)
            entry.attempts += 1
            self._c_retransmits.inc()
            due.append(entry.frame)
        return due

    def next_due_ms(self) -> float | None:
        """Earliest retransmit deadline, or None with an empty window."""
        if not self._in_flight:
            return None
        return min(entry.due_ms for entry in self._in_flight.values())

    def unacked(self) -> int:
        """Frames still awaiting acknowledgement."""
        return len(self._in_flight)

    def unacked_to(self, recipient: int) -> int:
        """In-flight frames addressed to one recipient (the per-peer
        ARQ window an ops probe or a crash-purge assertion reads)."""
        return sum(1 for key in self._in_flight if key[0] == recipient)

    def take_expired(self) -> list[Frame]:
        """Drain frames that exhausted their retransmit budget."""
        expired, self._expired = self._expired, []
        return expired

    def forget_peer(self, peer_id: int) -> int:
        """Drop all ARQ state tied to ``peer_id`` (it crashed).

        Purges in-flight frames addressed to it (nothing will ever ack
        them), its dedup state across every incarnation, and the outgoing
        sequence counter.  Returns the number of in-flight frames
        abandoned.
        """
        abandoned = [key for key in self._in_flight if key[0] == peer_id]
        for key in abandoned:
            del self._in_flight[key]
        for key in [k for k in self._seen if k[0] == peer_id]:
            del self._seen[key]
        self._next_seq.pop(peer_id, None)
        return len(abandoned)

    # ------------------------------------------------------------------
    # Receiver side
    # ------------------------------------------------------------------
    def on_frame(self, frame: Frame, now_ms: float) -> ReceiveResult:
        """Advance the state machine with one incoming frame."""
        if frame.frame_type == ACK:
            if frame.nonce == self.nonce:
                entry = self._in_flight.pop(
                    (frame.sender, frame.seq), None)
                if entry is not None:
                    self._h_attempts.observe(float(entry.attempts))
                    return _ACKED
            return _NOTHING
        if frame.recipient != self.peer_id:
            return _NOTHING  # stray datagram; drop silently
        seen = self._seen.get((frame.sender, frame.nonce))
        if seen is None:
            seen = self._seen[(frame.sender, frame.nonce)] = _Seen()
        seq = frame.seq
        if seq >= seen.low + REORDER_WINDOW:
            marks = seen.refused
            while marks and now_ms - marks[0][0] >= self._give_up_ms:
                # Every seq below a frame refused this long ago was
                # packaged before it and has since expired at its
                # sender: stop waiting for the unseen ones.
                seen.low = max(seen.low, marks.pop(0)[1])
                seen.ahead = {s for s in seen.ahead if s >= seen.low}
            if seq >= seen.low + REORDER_WINDOW:
                seen.high = max(seen.high, seq)
                if not marks or now_ms - marks[-1][0] >= self._sample_ms:
                    marks.append((now_ms, seen.high))
                return _NOTHING  # unacked: re-offered once the gap closes
        ack = Frame(
            frame_type=ACK,
            sender=frame.recipient,
            recipient=frame.sender,
            seq=seq,
            sent_at_ms=now_ms,
            nonce=frame.nonce,
        )
        self._c_acks.inc()
        if seq < seen.low or seq in seen.ahead:
            self._c_duplicates.inc()
            return ReceiveResult(ack=ack, deliver=False, duplicate=True)
        seen.ahead.add(seq)
        while seen.low in seen.ahead:
            seen.ahead.remove(seen.low)
            seen.low += 1
        return ReceiveResult(ack=ack, deliver=True)
