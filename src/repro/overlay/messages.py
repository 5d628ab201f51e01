"""Protocol message vocabulary and accounting.

The evaluation counts messages per scheme (Figure 11) and measures
latencies along message paths, so every protocol action in the library
records what it sent through a :class:`MessageStats` ledger.
:class:`AdvertisementMessage` mirrors the announcement of Section 2.2.
"""

from __future__ import annotations

import enum
from collections import Counter
from dataclasses import dataclass
from typing import Iterable


class MessageKind(enum.Enum):
    """Every message type any GroupCast protocol can emit."""

    HOSTCACHE_QUERY = "hostcache_query"
    HOSTCACHE_REPLY = "hostcache_reply"
    PROBE = "probe"
    PROBE_RESPONSE = "probe_response"
    CONNECT = "connect"
    BACK_CONNECT_REQUEST = "back_connect_request"
    BACK_CONNECT_ACK = "back_connect_ack"
    HEARTBEAT = "heartbeat"
    HEARTBEAT_REPLY = "heartbeat_reply"
    DEPARTURE = "departure"
    ADVERTISEMENT = "advertisement"
    SUBSCRIPTION = "subscription"
    SUBSCRIPTION_SEARCH = "subscription_search"
    SEARCH_RESPONSE = "search_response"
    RANDOM_WALK = "random_walk"
    PAYLOAD = "payload"
    # Operational introspection (live runtime only, never part of the
    # logical protocol vocabulary the conformance oracle compares).
    OPS = "ops"
    OPS_REPLY = "ops_reply"


#: Kinds that Figure 11 groups as "advertising" messages.
ADVERTISING_KINDS = frozenset({MessageKind.ADVERTISEMENT})

#: Kinds that Figure 11 groups as "subscription" messages.
SUBSCRIPTION_KINDS = frozenset({
    MessageKind.SUBSCRIPTION,
    MessageKind.SUBSCRIPTION_SEARCH,
    MessageKind.SEARCH_RESPONSE,
})


class MessageStats:
    """Counter of messages sent, by kind.

    Counts are keyed by the kind's string value: a str hash is cached
    and computed in C, while ``Enum.__hash__`` is a Python-level call,
    and :meth:`record` runs once per simulated message.
    """

    def __init__(self) -> None:
        self._counts: Counter[str] = Counter()

    def record(self, kind: MessageKind, count: int = 1) -> None:
        """Record ``count`` messages of ``kind``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._counts[kind._value_] += count

    def count(self, kind: MessageKind) -> int:
        """Messages of a single kind."""
        return self._counts[kind._value_]

    def total(self, kinds: Iterable[MessageKind] | None = None) -> int:
        """Total messages, optionally restricted to ``kinds``."""
        if kinds is None:
            return sum(self._counts.values())
        return sum(self._counts[k._value_] for k in kinds)

    def merge(self, other: "MessageStats") -> None:
        """Fold another ledger into this one."""
        self._counts.update(other._counts)

    def snapshot(self) -> dict[str, int]:
        """Plain-dict view, keyed by kind value."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"MessageStats({self.snapshot()})"


@dataclass(frozen=True)
class AdvertisementMessage:
    """A service announcement (SSA or NSSA) in flight.

    ``path`` is the peer-id trail from the rendezvous point to the current
    holder — NSSA embeds the full path to suppress loops (as in DVMRP);
    SSA uses it to set up reverse forwarding state.
    """

    group_id: int
    rendezvous: int
    path: tuple[int, ...]
    ttl: int
    elapsed_ms: float = 0.0

    def forwarded(self, via: int, link_latency_ms: float
                  ) -> "AdvertisementMessage":
        """Copy of the message after one more overlay hop through ``via``."""
        return AdvertisementMessage(
            group_id=self.group_id,
            rendezvous=self.rendezvous,
            path=self.path + (via,),
            ttl=self.ttl - 1,
            elapsed_ms=self.elapsed_ms + link_latency_ms,
        )
