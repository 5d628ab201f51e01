"""Wiring the message guards into the event-driven session.

A :class:`GuardedNode` wraps a session node's handler: every incoming
envelope must carry a :class:`~repro.security.guards.GuardedMessage`
whose token verifies under the group key, or it is dropped and counted.
Senders wrap outgoing payloads with :meth:`GuardedNode.outgoing`.  An
attacker without the group key can still *send* bytes — the guard makes
sure they never reach the protocol state machine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..sim.messaging import Envelope
from .guards import (
    GroupKeyAuthority,
    GuardedMessage,
    SignatureError,
    guard_message,
    verify_message,
)


@dataclass
class GuardedNode:
    """Per-peer guard in front of a protocol message handler."""

    peer_id: int
    group_id: int
    key: bytes
    inner_handler: object  # Callable[[Envelope], None]
    rejected: int = 0
    accepted: int = 0

    @classmethod
    def issue(cls, authority: GroupKeyAuthority, group_id: int,
              peer_id: int, inner_handler) -> "GuardedNode":
        """Authorise the peer with the authority and build its guard."""
        key = authority.issue(group_id, peer_id)
        return cls(peer_id=peer_id, group_id=group_id, key=key,
                   inner_handler=inner_handler)

    def outgoing(self, payload: object) -> GuardedMessage:
        """Wrap a protocol payload for sending."""
        return guard_message(self.key, self.group_id, self.peer_id,
                             payload)

    def handle(self, envelope: Envelope) -> None:
        """Verify and unwrap one delivery; drop anything invalid."""
        message = envelope.payload
        if not isinstance(message, GuardedMessage):
            self.rejected += 1
            return
        try:
            verify_message(self.key, message)
        except SignatureError:
            self.rejected += 1
            return
        if message.sender != envelope.sender:
            # Token is valid for `message.sender`, but the transport
            # says someone else relayed it verbatim — fine for flooding
            # protocols; what matters is the payload's authenticity.
            pass
        self.accepted += 1
        self.inner_handler(envelope._replace(payload=message.payload))
