"""Array-backed routing core: one dense all-pairs router matrix.

Solved once when the network is built (the default transit-stub
underlay has 208 routers); every query is then a gather:

* ``dist`` / ``pred`` come from one all-source
  :func:`scipy.sparse.csgraph.dijkstra` call; scipy solves each source
  independently, so every row equals a single-source solve bit-for-bit.
* ``hops`` is filled on the first hop query by one pass,
  ``hops[s, t] = hops[s, pred[s, t]] + 1`` over targets in ascending
  ``dist[s]`` order (valid because every link weight is positive).

The matrices are read-only; a graph over :data:`MATRIX_BUDGET_BYTES`
raises ``ConfigurationError``.  Peer distances are always
``access(a) + dist[ra, rb] + access(b)``, in that operand order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
from scipy.sparse.csgraph import dijkstra

from ..errors import ConfigurationError, TopologyError
from ..obs.profiler import phase_timer

#: Shared read-only empty vectors returned by degenerate bulk queries.
EMPTY_F64 = np.empty(0, dtype=np.float64)
EMPTY_F64.flags.writeable = False
EMPTY_INTP = np.empty(0, dtype=np.intp)
EMPTY_INTP.flags.writeable = False
EMPTY_I64 = np.empty(0, dtype=np.int64)
EMPTY_I64.flags.writeable = False

#: Memory budget for ``dist`` + ``pred`` + ``hops`` (8 bytes per entry
#: each, counted conservatively): about 1,670 routers, 8x the default.
MATRIX_BUDGET_BYTES = 64 * 2**20


class RoutingCore:
    """All-pairs shortest-path matrices for one underlay router graph."""

    __slots__ = ("dist", "pred", "_hops", "_router", "_access", "_max_peer",
                 "lookups")

    def __init__(self, graph, router_count: int) -> None:
        if 3 * 8 * router_count * router_count > MATRIX_BUDGET_BYTES:
            raise ConfigurationError(
                f"{router_count} routers exceed {MATRIX_BUDGET_BYTES} bytes")
        with phase_timer("routing.solve"):
            self.dist, self.pred = dijkstra(graph, directed=False,
                                            return_predecessors=True)
        self.dist.flags.writeable = False
        self.pred.flags.writeable = False
        self._hops: np.ndarray | None = None
        # Dense attachment vectors, grown geometrically; -1 = unattached.
        self._router = np.full(64, -1, dtype=np.intp)
        self._access = np.zeros(64, dtype=np.float64)
        self._max_peer = -1
        #: Peer lookups served (bulk calls plus scalar peer queries).
        self.lookups = 0

    @property
    def hops(self) -> np.ndarray:
        """``hops[s, t]``: links on the shortest path from ``s`` to ``t``."""
        if self._hops is None:
            hops = np.zeros(self.dist.shape, dtype=np.int64)
            rows = np.arange(hops.shape[0])
            # Column 0 of the ordering is each source itself (hops 0).
            for targets in np.argsort(self.dist, axis=1).T[1:]:
                hops[rows, targets] = hops[rows, self.pred[rows, targets]] + 1
            hops.flags.writeable = False
            self._hops = hops
        return self._hops

    def attach(self, peer_id: int, router: int, access_ms: float) -> None:
        """Register a peer attachment."""
        if peer_id < 0:
            raise TopologyError(f"peer ids must be non-negative: {peer_id}")
        if peer_id >= self._router.shape[0]:
            size = max(peer_id + 1, 2 * self._router.shape[0])
            router_arr = np.full(size, -1, dtype=np.intp)
            router_arr[:self._router.shape[0]] = self._router
            access_arr = np.zeros(size, dtype=np.float64)
            access_arr[:self._access.shape[0]] = self._access
            self._router, self._access = router_arr, access_arr
        self._router[peer_id] = router
        self._access[peer_id] = access_ms
        if peer_id > self._max_peer:
            self._max_peer = peer_id

    def attach_info(
        self, peers: Sequence[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """``(ids, routers, access)`` vectors for ``peers``.

        Raises :class:`~repro.errors.TopologyError` naming the first peer
        that is not attached, matching the scalar error path.
        """
        self.lookups += 1
        idx = np.asarray(peers, dtype=np.intp)
        if idx.ndim != 1:
            idx = idx.reshape(-1)
        if idx.size == 0:
            return EMPTY_INTP, EMPTY_INTP, EMPTY_F64
        bad = (idx < 0) | (idx > self._max_peer)
        if bad.any():
            raise TopologyError(
                f"peer {int(idx[bad][0])} is not attached")
        routers = self._router[idx]
        missing = routers < 0
        if missing.any():
            raise TopologyError(
                f"peer {int(idx[missing][0])} is not attached")
        return idx, routers, self._access[idx]

    def cache_stats(self) -> dict[str, int]:
        """Peer lookups served; every one is a hit on the solved matrices."""
        return {"hits": self.lookups, "misses": 0}
