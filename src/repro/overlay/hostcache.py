"""Host cache server (Gnucleus-style) used for bootstrapping.

Section 3.3: a joining peer contacts a host cache server that "caches the
information of a list of peers that are currently active".  On a query the
cache sorts its entries by network-coordinate distance to the joiner and
returns the closest ``|BD|`` entries plus ``|BR| = |BD|`` random entries,
with the combined list sized like a Gnutella neighbor list (5-8).

Like the real Gnucleus web caches, the server holds a bounded number of
entries (``max_entries``); when full, a random entry is evicted, keeping
the cache an unbiased sample of the active population.  Entries live in
preallocated numpy slots so a query is a single vectorised distance
computation — bootstrap cost stays flat as the network grows.
"""

from __future__ import annotations

import numpy as np

from ..errors import BootstrapError
from ..peers.peer import PeerInfo
from ..sim.random import RandomSource


class HostCacheServer:
    """Bounded registry of active peers answering bootstrap queries."""

    def __init__(self, max_entries: int = 1024, dimensions: int = 5,
                 rng: RandomSource | None = None) -> None:
        if max_entries < 2:
            raise BootstrapError("host cache needs at least two entries")
        if dimensions < 1:
            raise BootstrapError("dimensions must be >= 1")
        self.max_entries = max_entries
        self._rng = rng or np.random.default_rng(0)
        self._coords = np.zeros((max_entries, dimensions), dtype=float)
        self._slot_info: list[PeerInfo | None] = [None] * max_entries
        self._slot_of: dict[int, int] = {}
        # ``_order[:len(self)]``: the occupied slots in ``_slot_of``
        # (registration) order, which breaks a query's stable-argsort
        # ties and is what ``rng.choice`` indexes — so it is protocol.
        self._order = np.empty(max_entries, dtype=np.int64)
        self._free: list[int] = list(range(max_entries - 1, -1, -1))

    def __len__(self) -> int:
        return len(self._slot_of)

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._slot_of

    def register(self, info: PeerInfo) -> None:
        """Record a peer as active; evicts a random entry when full."""
        slot = self._slot_of.get(info.peer_id)
        if slot is None:
            if self._free:
                slot = self._free.pop()
            else:
                slot = int(self._rng.integers(self.max_entries))
                evicted = self._slot_info[slot]
                assert evicted is not None
                self._drop(evicted.peer_id)
            self._order[len(self._slot_of)] = slot
            self._slot_of[info.peer_id] = slot
        self._slot_info[slot] = info
        self._coords[slot] = info.coordinate

    def unregister(self, peer_id: int) -> None:
        """Remove a departed peer (idempotent)."""
        if peer_id in self._slot_of:
            slot = self._drop(peer_id)
            self._slot_info[slot] = None
            self._free.append(slot)

    def _drop(self, peer_id: int) -> int:
        """Forget ``peer_id``; returns the slot it occupied."""
        slot = self._slot_of.pop(peer_id)
        order = self._order
        used = len(self._slot_of) + 1
        at = int(np.flatnonzero(order[:used] == slot)[0])
        order[at:used - 1] = order[at + 1:used]
        return slot

    def entries(self) -> list[PeerInfo]:
        """All cached peers (copy)."""
        return [info for info in self._slot_info if info is not None]

    def bootstrap_candidates(
        self,
        joining: PeerInfo,
        rng: RandomSource,
        list_size: int = 8,
    ) -> list[PeerInfo]:
        """Return the bootstrap list ``B_i = BD_i U BR_i`` for a joiner.

        ``BD_i`` holds the ``ceil(list_size / 2)`` cached peers closest to
        the joiner in coordinate space; ``BR_i`` holds ``list_size // 2``
        uniformly random ones from the remainder.  Returns fewer peers
        when the cache is small, and an empty list for the very first
        peer.
        """
        if list_size < 2:
            raise BootstrapError("bootstrap list size must be >= 2")
        slots = self._order[:len(self._slot_of)]
        own = self._slot_of.get(joining.peer_id)
        if own is not None:
            slots = slots[slots != own]
        if slots.size == 0:
            return []
        distances = np.linalg.norm(
            self._coords[slots] - joining.coordinate, axis=1)
        order = np.argsort(distances, kind="stable")
        half = list_size // 2
        closest_slots = slots[order[:list_size - half]]
        rest_slots = slots[order[list_size - half:]]
        picked = closest_slots
        if rest_slots.size > 0:
            picked = np.concatenate([closest_slots, rng.choice(
                rest_slots, size=min(half, int(rest_slots.size)),
                replace=False)])
        return [self._slot_info[slot] for slot in picked.tolist()]
