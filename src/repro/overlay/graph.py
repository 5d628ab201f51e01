"""The overlay network graph.

The P2P network of the paper is a directed graph in notation but all links
are used bidirectionally (forwarding connections plus back links); we model
the overlay as an undirected graph over :class:`~repro.peers.PeerInfo`
vertices.  Each peer only ever reads its own adjacency — "each peer is
aware of only its immediate neighbors; a global view of the network is not
maintained" — but the container offers whole-graph statistics for the
evaluation (degree distributions, clustering, component structure).
"""

from __future__ import annotations

from collections import deque
from typing import Iterator, Sequence

import numpy as np

from ..errors import OverlayError, PeerNotFoundError
from ..peers.peer import PeerInfo
from ..sim.random import RandomSource


class OverlayNetwork:
    """Undirected overlay graph with per-peer metadata."""

    def __init__(self) -> None:
        self._peers: dict[int, PeerInfo] = {}
        self._adjacency: dict[int, set[int]] = {}
        self._edge_count = 0
        # Capacity / coordinate columns: a ``PeerArrays`` sized by the
        # first peer's coordinate, one row per peer; a departed peer's
        # row goes to the next joiner so the columns do not grow.
        self._columns = None
        self._row_of: dict[int, int] = {}
        self._free_rows: list[int] = []

    # ------------------------------------------------------------------
    # Vertices
    # ------------------------------------------------------------------
    def add_peer(self, info: PeerInfo) -> None:
        """Insert an isolated peer."""
        if info.peer_id in self._peers:
            raise OverlayError(f"peer {info.peer_id} already present")
        columns = self._columns
        if columns is None:
            from ..core.arrays import PeerArrays

            columns = self._columns = PeerArrays(
                dims=np.asarray(info.coordinate).size)
        if self._free_rows:
            row = self._free_rows.pop()
            columns.capacity[row] = info.capacity
            columns.coords[row] = info.coordinate
        else:
            row = columns.add(info.capacity, info.coordinate)
        self._row_of[info.peer_id] = row
        self._peers[info.peer_id] = info
        self._adjacency[info.peer_id] = set()

    def remove_peer(self, peer_id: int) -> None:
        """Remove a peer and all its links."""
        self._require(peer_id)
        for neighbor in list(self._adjacency[peer_id]):
            self.remove_link(peer_id, neighbor)
        del self._adjacency[peer_id]
        del self._peers[peer_id]
        self._free_rows.append(self._row_of.pop(peer_id))

    def peer(self, peer_id: int) -> PeerInfo:
        """Metadata of a peer."""
        self._require(peer_id)
        return self._peers[peer_id]

    def peer_columns(
        self, peer_ids: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gather ``(capacity[k], coords[k, d])`` copies for ``k`` peers;
        row ``i`` is ``peer(peer_ids[i])``'s capacity and coordinate."""
        try:
            rows = [self._row_of[peer_id] for peer_id in peer_ids]
        except KeyError as missing:
            raise PeerNotFoundError(
                f"peer {missing.args[0]} is not in the overlay") from None
        columns = self._columns
        if columns is None:
            return np.empty(0), np.empty((0, 0))
        rows = np.asarray(rows, dtype=np.intp)
        return columns.capacity[rows], columns.coords[rows]

    def __contains__(self, peer_id: int) -> bool:
        return peer_id in self._peers

    def __len__(self) -> int:
        return len(self._peers)

    @property
    def peer_count(self) -> int:
        """Number of peers currently in the overlay."""
        return len(self._peers)

    def peer_ids(self) -> list[int]:
        """All peer identifiers."""
        return list(self._peers)

    def peers(self) -> Iterator[PeerInfo]:
        """Iterate over peer metadata."""
        return iter(self._peers.values())

    # ------------------------------------------------------------------
    # Edges
    # ------------------------------------------------------------------
    def add_link(self, a: int, b: int) -> bool:
        """Add the undirected link ``a-b``; return False if it existed."""
        if a == b:
            raise OverlayError("self-links are not allowed")
        self._require(a)
        self._require(b)
        if b in self._adjacency[a]:
            return False
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._edge_count += 1
        return True

    def remove_link(self, a: int, b: int) -> bool:
        """Remove the link ``a-b``; return False if it was absent."""
        self._require(a)
        self._require(b)
        if b not in self._adjacency[a]:
            return False
        self._adjacency[a].discard(b)
        self._adjacency[b].discard(a)
        self._edge_count -= 1
        return True

    def has_link(self, a: int, b: int) -> bool:
        """True if the link ``a-b`` exists."""
        self._require(a)
        self._require(b)
        return b in self._adjacency[a]

    def neighbors(self, peer_id: int) -> list[int]:
        """Neighbor ids of a peer (copy; safe to mutate)."""
        self._require(peer_id)
        return list(self._adjacency[peer_id])

    def iter_neighbors(self, peer_id: int) -> Iterator[int]:
        """Iterate a peer's neighbors without materializing a list.

        Same iteration order as :meth:`neighbors`; useful in scans that
        touch every peer's adjacency once (maintenance heartbeats).
        """
        self._require(peer_id)
        return iter(self._adjacency[peer_id])

    def csr(self) -> tuple["CSRGraph", list[int]]:
        """Array snapshot: ``(graph, ids)`` with row ``i`` = ``ids[i]``.

        The CSR rows are ordered by ``peer_ids()`` and each row's
        neighbors come out in the same set-iteration order
        :meth:`neighbors` reports, so vectorized kernels run over
        exactly the structure the object layer sees.  The snapshot is
        frozen — later graph mutations do not write through.
        """
        from ..core.arrays import CSRGraph

        ids = self.peer_ids()
        index = {peer_id: row for row, peer_id in enumerate(ids)}
        lengths = [len(self._adjacency[peer_id]) for peer_id in ids]
        indptr = np.zeros(len(ids) + 1, dtype=np.int64)
        np.cumsum(np.asarray(lengths, dtype=np.int64), out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        at = 0
        for peer_id in ids:
            for neighbor in self._adjacency[peer_id]:
                indices[at] = index[neighbor]
                at += 1
        return CSRGraph(indptr, indices), ids

    def degree(self, peer_id: int) -> int:
        """Number of overlay links of a peer."""
        self._require(peer_id)
        return len(self._adjacency[peer_id])

    @property
    def edge_count(self) -> int:
        """Number of undirected overlay links."""
        return self._edge_count

    def edges(self) -> Iterator[tuple[int, int]]:
        """Iterate over undirected links as ``(low, high)`` pairs."""
        for a, neighbors in self._adjacency.items():
            for b in neighbors:
                if a < b:
                    yield (a, b)

    # ------------------------------------------------------------------
    # Whole-graph statistics (evaluation only)
    # ------------------------------------------------------------------
    def degrees(self) -> np.ndarray:
        """Degree of every peer, in ``peer_ids()`` order."""
        return np.asarray(
            [len(self._adjacency[p]) for p in self._peers], dtype=np.int64)

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

        With ``sample`` set, estimates over a random subset of peers
        (adequate for large overlays).
        """
        ids = self.peer_ids()
        if not ids:
            return 0.0
        if sample is not None and sample < len(ids):
            if rng is None:
                raise OverlayError("sampled clustering needs an rng")
            ids = [ids[i] for i in rng.choice(len(ids), size=sample,
                                              replace=False)]
        total = 0.0
        for peer in ids:
            neighbors = self._adjacency[peer]
            k = len(neighbors)
            if k < 2:
                continue
            links = 0
            neighbor_list = list(neighbors)
            for i, u in enumerate(neighbor_list):
                adjacency_u = self._adjacency[u]
                for v in neighbor_list[i + 1:]:
                    if v in adjacency_u:
                        links += 1
            total += 2.0 * links / (k * (k - 1))
        return total / len(ids)

    def connected_component_sizes(self) -> list[int]:
        """Sizes of connected components, largest first."""
        seen: set[int] = set()
        sizes = []
        for start in self._peers:
            if start in seen:
                continue
            size = 0
            queue = deque([start])
            seen.add(start)
            while queue:
                node = queue.popleft()
                size += 1
                for neighbor in self._adjacency[node]:
                    if neighbor not in seen:
                        seen.add(neighbor)
                        queue.append(neighbor)
            sizes.append(size)
        sizes.sort(reverse=True)
        return sizes

    def is_connected(self) -> bool:
        """True if every peer can reach every other peer."""
        if not self._peers:
            return True
        return self.connected_component_sizes()[0] == len(self._peers)

    def hop_distances_from(self, start: int) -> dict[int, int]:
        """BFS hop counts from ``start`` to every reachable peer."""
        self._require(start)
        dist = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for neighbor in self._adjacency[node]:
                if neighbor not in dist:
                    dist[neighbor] = dist[node] + 1
                    queue.append(neighbor)
        return dist

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

    def _require(self, peer_id: int) -> None:
        if peer_id not in self._peers:
            raise PeerNotFoundError(f"peer {peer_id} is not in the overlay")
