"""Router-level underlay network with peer attachments and routing.

:class:`UnderlayNetwork` holds the router graph produced by
:func:`repro.network.topology.generate_transit_stub`, answers shortest-path
queries (latency, hop paths) through the array-backed
:class:`~repro.network.routing.RoutingCore`, and manages *peer
attachments*: end hosts attached to random stub routers through an access
link, exactly as in the paper's setup ("peers are randomly attached to the
stub domain routers").

Distances between peers are
``access(a) + shortest_path(router(a), router(b)) + access(b)`` in
milliseconds; a peer's distance to itself is zero.  The scalar methods
(:meth:`peer_distance_ms`, :meth:`peer_path_links`, ...) remain the
reference semantics; the bulk methods (:meth:`peer_distances_ms`,
:meth:`peer_distance_matrix`, :meth:`peer_hop_counts`,
:meth:`peer_path_links_many`, :meth:`multicast_links`) compute the same
values bit-for-bit with vectorized gathers and predecessor-array walks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ..errors import RoutingError, TopologyError
from ..sim.random import RandomSource
from .routing import EMPTY_F64, EMPTY_I64, RoutingCore

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .topology import Router


@dataclass(frozen=True)
class Attachment:
    """A peer's point of presence on the underlay."""

    peer_id: int
    router_id: int
    access_latency_ms: float


class UnderlayNetwork:
    """The physical network: routers, weighted links, and peer attachments."""

    def __init__(
        self,
        routers: Sequence["Router"],
        edges: Iterable[tuple[int, int, float]],
        stub_router_ids: np.ndarray,
        peer_access_latency: tuple[float, float],
    ) -> None:
        self.routers = list(routers)
        n = len(self.routers)
        edge_list = list(edges)
        if not edge_list:
            raise TopologyError("underlay has no links")
        rows, cols, weights = [], [], []
        seen: set[tuple[int, int]] = set()
        for a, b, w in edge_list:
            if a == b:
                raise TopologyError(f"self-loop on router {a}")
            if w <= 0.0:
                raise TopologyError(f"non-positive latency on link {a}-{b}")
            key = (min(a, b), max(a, b))
            if key in seen:
                continue
            seen.add(key)
            rows.extend((a, b))
            cols.extend((b, a))
            weights.extend((w, w))
        self._graph = coo_matrix(
            (weights, (rows, cols)), shape=(n, n)).tocsr()
        n_components, _ = connected_components(self._graph, directed=False)
        if n_components != 1:
            raise TopologyError(
                f"underlay is disconnected ({n_components} components)")
        self._stub_router_ids = stub_router_ids
        self._peer_access_latency = peer_access_latency
        self._attachments: dict[int, Attachment] = {}
        self._core = RoutingCore(self._graph, n)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def router_count(self) -> int:
        """Number of routers in the underlay."""
        return len(self.routers)

    @property
    def routing(self) -> RoutingCore:
        """The shared routing core (all-pairs matrices, attachments)."""
        return self._core

    @property
    def link_count(self) -> int:
        """Number of undirected physical links."""
        return self._graph.nnz // 2

    def link_latency_ms(self, a: int, b: int) -> float:
        """Latency of the physical link between routers ``a`` and ``b``."""
        latency = float(
            self._graph[self._check_router(a), self._check_router(b)])
        if latency == 0.0:
            raise RoutingError(f"no physical link between {a} and {b}")
        return latency

    # ------------------------------------------------------------------
    # Peer attachments
    # ------------------------------------------------------------------
    def attach_peer(self, peer_id: int, rng: RandomSource) -> Attachment:
        """Attach ``peer_id`` to a uniformly random stub router."""
        if peer_id in self._attachments:
            raise TopologyError(f"peer {peer_id} is already attached")
        router = int(rng.choice(self._stub_router_ids))
        low, high = self._peer_access_latency
        attachment = Attachment(peer_id, router, float(rng.uniform(low, high)))
        self._attachments[peer_id] = attachment
        self._core.attach(peer_id, router, attachment.access_latency_ms)
        return attachment

    def attachment(self, peer_id: int) -> Attachment:
        """Return the attachment of ``peer_id``."""
        try:
            return self._attachments[peer_id]
        except KeyError:
            raise TopologyError(f"peer {peer_id} is not attached")

    @property
    def attached_peer_count(self) -> int:
        """Number of peers currently attached."""
        return len(self._attachments)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _check_router(self, router: int) -> int:
        if not 0 <= router < len(self.routers):
            raise RoutingError(f"unknown router {router}")
        return router

    def router_distance_ms(self, a: int, b: int) -> float:
        """Shortest-path latency between two routers."""
        return float(self._core.dist[self._check_router(a), b])

    def router_distances_from(self, router: int) -> np.ndarray:
        """Read-only vector of shortest-path latencies from ``router``."""
        return self._core.dist[self._check_router(router)]

    def router_path(self, a: int, b: int) -> list[int]:
        """Router sequence of the shortest path from ``a`` to ``b``."""
        pred = self._core.pred[self._check_router(a)]
        path = [b]
        node = b
        while node != a:
            node = int(pred[node])
            if node < 0:
                raise RoutingError(f"broken predecessor chain {a}->{b}")
            path.append(node)
        path.reverse()
        return path

    # ------------------------------------------------------------------
    # Peer-level queries
    # ------------------------------------------------------------------
    def peer_distance_ms(self, a: int, b: int) -> float:
        """End-to-end latency between two attached peers."""
        if a == b:
            return 0.0
        core = self._core
        core.lookups += 1
        # Inline dict reads rather than two attachment() calls: this
        # runs once per simulated message.
        try:
            att_a = self._attachments[a]
            att_b = self._attachments[b]
        except KeyError as missing:
            raise TopologyError(
                f"peer {missing.args[0]} is not attached") from None
        return (att_a.access_latency_ms
                + core.dist.item(att_a.router_id, att_b.router_id)
                + att_b.access_latency_ms)

    def peer_distances_ms(self, peer_id: int,
                          others: Sequence[int]) -> np.ndarray:
        """Vector of end-to-end latencies from ``peer_id`` to ``others``.

        A single numpy gather over the source's distance row replaces the
        per-element :meth:`peer_distance_ms` arithmetic; entries equal to
        ``peer_id`` come out as exactly 0.0, matching the scalar path.
        An empty ``others`` returns a shared read-only empty float64
        vector without building any intermediate arrays.
        """
        att = self.attachment(peer_id)
        if len(others) == 0:
            return EMPTY_F64
        idx, routers, access = self._core.attach_info(others)
        # Same operand order as peer_distance_ms, so results match
        # bit-for-bit: access(a) + router_distance + access(b).
        out = (att.access_latency_ms
               + self._core.dist[att.router_id][routers] + access)
        self_mask = idx == peer_id
        if self_mask.any():
            out[self_mask] = 0.0
        return out

    def peer_distance_matrix(self, peers: Sequence[int],
                             others: Sequence[int] | None = None
                             ) -> np.ndarray:
        """Pairwise latency matrix ``(len(peers), len(others))``.

        ``others`` defaults to ``peers`` (the symmetric all-pairs case).
        Entry ``[i, j]`` equals ``peer_distance_ms(peers[i], others[j])``
        bit-for-bit; pairs with equal peer ids are exactly 0.0.
        """
        if others is None:
            others = peers
        if len(peers) == 0 or len(others) == 0:
            return np.empty((len(peers), len(others)), dtype=np.float64)
        idx_a, routers_a, access_a = self._core.attach_info(peers)
        idx_b, routers_b, access_b = self._core.attach_info(others)
        gathered = self._core.dist[np.ix_(routers_a, routers_b)]
        out = access_a[:, None] + gathered + access_b[None, :]
        self_mask = idx_a[:, None] == idx_b[None, :]
        if self_mask.any():
            out[self_mask] = 0.0
        return out

    def peer_pair_distances(self, peers_a: Sequence[int],
                            peers_b: Sequence[int]) -> np.ndarray:
        """Elementwise latencies ``peer_distance_ms(peers_a[i], peers_b[i])``.

        One flat gather for an arbitrary pair list — the building block
        for neighbor-distance metrics and coordinate-error sampling.
        """
        if len(peers_a) != len(peers_b):
            raise TopologyError(
                "peer_pair_distances needs equal-length id vectors")
        if len(peers_a) == 0:
            return EMPTY_F64
        idx_a, routers_a, access_a = self._core.attach_info(peers_a)
        idx_b, routers_b, access_b = self._core.attach_info(peers_b)
        out = access_a + self._core.dist[routers_a, routers_b] + access_b
        self_mask = idx_a == idx_b
        if self_mask.any():
            out[self_mask] = 0.0
        return out

    def peer_path_links(self, a: int, b: int) -> list[tuple[int, int]]:
        """Physical links traversed by a unicast packet from ``a`` to ``b``.

        Access links are encoded as ``(-peer_id - 1, router_id)`` so they are
        disjoint from router-router links; router links are normalised
        ``(min, max)`` pairs.  Used by the link-stress metric, where every
        physical link traversed carries one copy of the payload.
        """
        if a == b:
            return []
        self._core.lookups += 1
        att_a = self.attachment(a)
        att_b = self.attachment(b)
        return self._links_between(a, att_a.router_id, b, att_b.router_id,
                                   self._core.pred[att_a.router_id])

    def _links_between(self, a: int, router_a: int, b: int, router_b: int,
                       pred: np.ndarray) -> list[tuple[int, int]]:
        """Link list of the unicast route, walked off a predecessor row."""
        links: list[tuple[int, int]] = [(-a - 1, router_a)]
        hops: list[tuple[int, int]] = []
        node = router_b
        while node != router_a:
            parent = int(pred[node])
            if parent < 0:
                raise RoutingError(
                    f"broken predecessor chain {router_a}->{router_b}")
            hops.append((min(parent, node), max(parent, node)))
            node = parent
        links.extend(reversed(hops))
        links.append((-b - 1, router_b))
        return links

    def peer_path_links_many(
        self, peer_id: int, others: Sequence[int]
    ) -> list[list[tuple[int, int]]]:
        """Per-target :meth:`peer_path_links` lists over one predecessor row.

        Targets equal to ``peer_id`` yield an empty list, matching the
        scalar path.
        """
        att = self.attachment(peer_id)
        if len(others) == 0:
            return []
        idx, routers, _ = self._core.attach_info(others)
        pred = self._core.pred[att.router_id]
        out: list[list[tuple[int, int]]] = []
        for other, router in zip(idx.tolist(), routers.tolist()):
            if other == peer_id:
                out.append([])
            else:
                out.append(self._links_between(
                    peer_id, att.router_id, other, router, pred))
        return out

    def peer_hop_count(self, a: int, b: int) -> int:
        """Number of physical links between two peers (0 if colocated)."""
        if a == b:
            return 0
        self._core.lookups += 1
        att_a = self.attachment(a)
        att_b = self.attachment(b)
        # Two access links plus the router-level shortest-path hops.
        return self._core.hops.item(att_a.router_id, att_b.router_id) + 2

    def peer_hop_counts(self, peer_id: int,
                        others: Sequence[int]) -> np.ndarray:
        """Vector of :meth:`peer_hop_count` from ``peer_id`` to ``others``."""
        att = self.attachment(peer_id)
        if len(others) == 0:
            return EMPTY_I64
        idx, routers, _ = self._core.attach_info(others)
        out = self._core.hops[att.router_id][routers] + 2
        self_mask = idx == peer_id
        if self_mask.any():
            out[self_mask] = 0
        return out

    def multicast_links(self, source: int,
                        receivers: Sequence[int]) -> set[tuple[int, int]]:
        """Union of :meth:`peer_path_links` from ``source`` to ``receivers``.

        Merging the unicast routes of one Dijkstra source yields a
        shortest-path tree at the router level, so the union is built by
        walking the predecessor array from each receiver router toward
        the source and stopping at the first already-visited router —
        every router is visited at most once regardless of how many
        receivers sit behind it.
        """
        att_s = self.attachment(source)
        idx, routers, _ = self._core.attach_info(receivers)
        if (idx == source).any():
            raise TopologyError(
                "multicast_links receivers must exclude the source")
        pred = self._core.pred[att_s.router_id]
        links: set[tuple[int, int]] = {(-source - 1, att_s.router_id)}
        for peer, router in zip(idx.tolist(), routers.tolist()):
            links.add((-peer - 1, router))
        visited = np.zeros(self.router_count, dtype=bool)
        visited[att_s.router_id] = True
        for router in np.unique(routers).tolist():
            node = router
            while not visited[node]:
                visited[node] = True
                parent = int(pred[node])
                if parent < 0:
                    raise RoutingError(
                        f"broken predecessor chain "
                        f"{att_s.router_id}->{router}")
                links.add((min(parent, node), max(parent, node)))
                node = parent
        return links
