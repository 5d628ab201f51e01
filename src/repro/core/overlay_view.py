"""Object-compatible overlay view over the struct-of-arrays store.

:class:`SoAOverlayNetwork` exposes the exact
:class:`~repro.overlay.graph.OverlayNetwork` API — vertices, links,
neighbor queries and the whole-graph statistics — while every byte of
state lives in a :class:`~repro.core.store.SoAStore`.  The protocols,
fault harness and observability layers run over it unchanged.

Equivalence contract (pinned by ``tests/test_soa_equivalence.py``):
given a view snapshotted with :meth:`from_overlay`, every observable —
``peer_ids()`` order, ``neighbors()`` order, statistic values, and the
rng draws consumed by sampled statistics — is identical to the source
object overlay, so same-seed protocol runs over either backend produce
bit-identical trace digests.  Neighbor *order* is the load-bearing
part: the object layer iterates Python sets, whose order feeds the
SSA sampling rng and the message schedule, so the snapshot captures the
set order and the pooled adjacency preserves it under removals.
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

import numpy as np

from ..errors import OverlayError
from ..overlay.graph import OverlayNetwork
from ..peers.peer import PeerInfo
from ..sim.random import RandomSource
from .arrays import CSRGraph
from .store import SoAStore


class SoAOverlayNetwork:
    """Array-backed drop-in for :class:`OverlayNetwork`."""

    def __init__(self, store: SoAStore | None = None,
                 dims: int = 2) -> None:
        self.store = store if store is not None else SoAStore(dims=dims)
        #: Lazily materialized PeerInfo per row (coords never mutate
        #: after insertion, so a cached info stays valid for the row's
        #: lifetime).
        self._infos: dict[int, PeerInfo] = {}

    # ------------------------------------------------------------------
    @classmethod
    def from_overlay(cls, overlay: OverlayNetwork) -> "SoAOverlayNetwork":
        """Snapshot an object overlay, preserving every iteration order.

        Peers are added in ``peer_ids()`` order and each row's neighbor
        slice is written in the exact order ``overlay.neighbors()``
        reported, so the view replays the object layer's behavior
        bit-for-bit from the snapshot point onward.
        """
        ids = overlay.peer_ids()
        dims = 2
        if ids:
            dims = int(np.asarray(overlay.peer(ids[0]).coordinate).size)
        view = cls(dims=dims)
        store = view.store
        for peer_id in ids:
            info = overlay.peer(peer_id)
            store.add_peer(peer_id, info.capacity, info.coordinate)
        adjacency = store.adjacency
        for peer_id in ids:
            row = store.row_of(peer_id)
            for neighbor in overlay.neighbors(peer_id):
                adjacency.add(row, store.row_of(neighbor))
        return view

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def add_peer(self, info: PeerInfo) -> None:
        """Insert an isolated peer (fresh row, never a reused one)."""
        row = self.store.add_peer(info.peer_id, info.capacity,
                                  info.coordinate)
        self._infos[row] = info

    def remove_peer(self, peer_id: int) -> None:
        """Remove a peer and all its links (its row is retired)."""
        self.store.remove_peer(peer_id)

    def peer(self, peer_id: int) -> PeerInfo:
        """Metadata of a peer."""
        row = self.store.row_of(peer_id)
        info = self._infos.get(row)
        if info is None:
            peers = self.store.peers
            info = PeerInfo.from_arrays(peer_id, row, peers.capacity,
                                        peers.coords)
            self._infos[row] = info
        return info

    def peer_columns(
        self, peer_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather ``(capacity[k], coords[k, d])`` for ``k`` live peers."""
        peers, row_of = self.store.peers, self.store.row_of
        rows = np.asarray([row_of(peer_id) for peer_id in peer_ids],
                          dtype=np.intp)
        return peers.capacity[rows], peers.coords[rows]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self.store

    def __len__(self) -> int:
        return self.store.live_count

    @property
    def peer_count(self) -> int:
        """Number of peers currently in the overlay."""
        return self.store.live_count

    def peer_ids(self) -> list[int]:
        """All peer identifiers (insertion order)."""
        return self.store.live_ids()

    def peers(self) -> Iterator[PeerInfo]:
        """Iterate over peer metadata."""
        for peer_id in self.store.live_ids():
            yield self.peer(peer_id)

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_link(self, a: int, b: int) -> bool:
        """Add the undirected link ``a-b``; return False if it existed."""
        return self.store.add_link(a, b)

    def remove_link(self, a: int, b: int) -> bool:
        """Remove the link ``a-b``; return False if it was absent."""
        return self.store.remove_link(a, b)

    def has_link(self, a: int, b: int) -> bool:
        """True if the link ``a-b`` exists."""
        row_a, row_b = self.store.row_of(a), self.store.row_of(b)
        return self.store.adjacency.contains(row_a, row_b)

    def neighbors(self, peer_id: int) -> list[int]:
        """Neighbor ids of a peer (copy; safe to mutate)."""
        rows = self.store.neighbor_rows(peer_id)
        return self.store.ids_of(rows)

    def iter_neighbors(self, peer_id: int) -> Iterator[int]:
        """Iterate a peer's neighbor ids, in :meth:`neighbors` order."""
        return iter(self.neighbors(peer_id))

    def degree(self, peer_id: int) -> int:
        """Number of overlay links of a peer."""
        return self.store.adjacency.degree(self.store.row_of(peer_id))

    @property
    def edge_count(self) -> int:
        """Number of undirected overlay links."""
        return self.store.adjacency.edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected links as ``(low, high)`` pairs."""
        for peer_id in self.store.live_ids():
            for neighbor in self.neighbors(peer_id):
                if peer_id < neighbor:
                    yield (peer_id, neighbor)

    # ------------------------------------------------------------------
    # Whole-graph statistics (evaluation only)
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every peer, in ``peer_ids()`` order."""
        rows = self.store.live_rows()
        return self.store.adjacency.length[rows].astype(np.int64)

    def degree_distribution(self) -> tuple[np.ndarray, np.ndarray]:
        """``(degree values, peer counts)`` — the data behind Figures 7-8."""
        degrees = self.degrees()
        if degrees.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
        values, counts = np.unique(degrees, return_counts=True)
        return values, counts

    def clustering_coefficient(
        self, rng: RandomSource | None = None, sample: int | None = None
    ) -> float:
        """Average local clustering coefficient.

        Consumes exactly the rng draws of the object implementation
        (one ``choice`` when sampling) and accumulates in the same peer
        order, so the result is bit-identical.
        """
        ids = self.peer_ids()
        if not ids:
            return 0.0
        if sample is not None and sample < len(ids):
            if rng is None:
                raise OverlayError("sampled clustering needs an rng")
            ids = [ids[i] for i in rng.choice(len(ids), size=sample,
                                              replace=False)]
        adjacency = self.store.adjacency
        total = 0.0
        for peer in ids:
            row = self.store.row_of(peer)
            nbrs = adjacency.neighbors(row)
            k = int(nbrs.shape[0])
            if k < 2:
                continue
            links = 0
            for i in range(k):
                # isin over the remaining suffix counts each triangle
                # corner once, matching the object nested loop.
                links += int(np.isin(
                    nbrs[i + 1:], adjacency.neighbors(int(nbrs[i]))
                ).sum())
            total += 2.0 * links / (k * (k - 1))
        return total / len(ids)

    def connected_component_sizes(self) -> list[int]:
        """Sizes of connected components, largest first."""
        csr = self.store.snapshot_csr()
        mask = self.store.live_mask()
        return csr.component_sizes(mask=mask)

    def is_connected(self) -> bool:
        """True if every peer can reach every other peer."""
        if self.store.live_count == 0:
            return True
        return self.connected_component_sizes()[0] == self.store.live_count

    def hop_distances_from(self, start: int) -> dict[int, int]:
        """BFS hop counts from ``start`` to every reachable peer."""
        row = self.store.row_of(start)
        adjacency = self.store.adjacency
        dist = {row: 0}
        queue = deque([row])
        while queue:
            node = queue.popleft()
            for neighbor in adjacency.neighbors(node):
                neighbor = int(neighbor)
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        id_of = self.store.id_of
        return {id_of(node): hops for node, hops in dist.items()}

    def estimated_diameter(self, rng: RandomSource, samples: int = 16) -> int:
        """Max eccentricity over a random sample of sources (lower bound)."""
        ids = self.peer_ids()
        if len(ids) < 2:
            return 0
        picks = rng.choice(len(ids), size=min(samples, len(ids)),
                           replace=False)
        best = 0
        for i in picks:
            dist = self.hop_distances_from(ids[int(i)])
            best = max(best, max(dist.values()))
        return best

    # ------------------------------------------------------------------
    # Array interop (scale path)
    # ------------------------------------------------------------------
    def csr(self) -> CSRGraph:
        """Frozen CSR snapshot of the adjacency (row-indexed)."""
        return self.store.snapshot_csr()

    def nbytes(self) -> int:
        """Bytes held by the backing store."""
        return self.store.nbytes()
