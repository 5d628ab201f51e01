"""Utility-aware overlay construction protocol (Section 3.3).

A joining peer ``p_i``:

1. queries the host cache and receives the bootstrap list
   ``B_i = BD_i U BR_i`` (closest half + random half);
2. sends a probe ``Mprob`` to every peer in ``B_i``; each reply
   ``Mprob_resp`` carries the responder's neighbor list;
3. compiles the candidate list ``LC_i`` from the replies.  Each candidate's
   *occurrence frequency* ``f_i(j)`` samples its degree, substituting for
   capacity in Equation 6; distances come from network coordinates;
4. estimates its resource level ``r_i`` from the sampled capacities and
   draws neighbors without replacement with probability proportional to
   the selection preference, until its capacity-derived target degree is
   reached;
5. asks each selected neighbor for a backward connection, accepted with
   probability ``PB`` (Section 3.3) or, failing that, with the fallback
   probability ``p_b = 0.5``.

Steps 3-5 compute on gathered peer columns (``overlay.peer_columns``): one
distance-kernel call and one preference vector per join, and ``PB`` for a
chunk of the ranking at once — a join only adds links at the joiner, so no
candidate's neighbor set changes while the ranking is walked in rng order.

Modelling note: the paper distinguishes forwarding (out) edges from back
links (in edges).  We model the overlay as an undirected graph, and fold
the back-link rule into link *establishment*: a selected link materialises
with probability ``PB + (1 - PB) * p_b``; a refused candidate is skipped
and the joiner moves to the next-ranked one.  The PB rule therefore shapes
the topology exactly as intended — powerful peers preferentially
inter-connect, weak peers attach nearby — while keeping a single
adjacency.  Refusals and their message costs are still accounted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from ..config import OverlayConfig, UtilityConfig
from ..peers.peer import PeerInfo, coordinate_distances
from ..sim.random import RandomSource, weighted_sample_without_replacement
from ..utility.backlink import back_link_acceptance_probabilities
from ..utility.preference import selection_preference
from ..utility.resource_level import estimate_resource_level
from .graph import OverlayNetwork
from .hostcache import HostCacheServer
from .messages import MessageKind, MessageStats


class _Candidates(NamedTuple):
    """The candidate list ``LC_i`` as ids plus gathered columns."""

    ids: list[int]
    frequencies: np.ndarray
    capacities: np.ndarray
    coords: np.ndarray


@dataclass(frozen=True)
class JoinResult:
    """Outcome of one utility-aware join."""

    peer_id: int
    connected: tuple[int, ...]
    refused: tuple[int, ...]
    candidates_seen: int
    resource_level: float
    target_degree: int

    @property
    def degree(self) -> int:
        """Number of links established by the join."""
        return len(self.connected)


class UtilityBootstrap:
    """Executes utility-aware joins against an overlay under construction."""

    def __init__(
        self,
        overlay: OverlayNetwork,
        host_cache: HostCacheServer,
        rng: RandomSource,
        overlay_config: OverlayConfig | None = None,
        utility_config: UtilityConfig | None = None,
        stats: MessageStats | None = None,
    ) -> None:
        self.overlay = overlay
        self.host_cache = host_cache
        self.rng = rng
        self.overlay_config = overlay_config or OverlayConfig()
        self.utility_config = utility_config or UtilityConfig()
        self.stats = stats or MessageStats()

    # ------------------------------------------------------------------
    def join(self, info: PeerInfo) -> JoinResult:
        """Run the full join protocol for ``info`` and wire it in."""
        self.overlay.add_peer(info)

        bootstrap_list = self._query_host_cache(info)
        self.host_cache.register(info)

        if not bootstrap_list:
            # First peer in the network: nothing to connect to yet.
            return JoinResult(info.peer_id, (), (), 0, 0.5, 0)

        candidates = self._probe(info, bootstrap_list)
        resource_level = self._estimate_resource_level(
            info, candidates.capacities)
        target = self.overlay_config.target_degree(info.capacity)
        connected, refused = self._select_and_connect(
            info, candidates, resource_level, target)
        return JoinResult(
            peer_id=info.peer_id,
            connected=tuple(connected),
            refused=tuple(refused),
            candidates_seen=len(candidates.ids),
            resource_level=resource_level,
            target_degree=target,
        )

    def acquire_neighbors(self, info: PeerInfo, needed: int) -> list[int]:
        """Connect an existing peer to up to ``needed`` new neighbors.

        Used by epoch-based maintenance to repair links lost to churn.
        Runs the same cache-query / probe / utility-selection pipeline as
        a fresh join, skipping peers already adjacent to ``info``.
        """
        if needed <= 0:
            return []
        bootstrap_list = self._query_host_cache(info)
        if not bootstrap_list:
            return []
        candidates = self._probe(info, bootstrap_list)
        fresh = self._askable(info, candidates.ids,
                              range(len(candidates.ids)))
        if not fresh:
            return []
        candidates = _Candidates(
            [candidates.ids[i] for i in fresh], candidates.frequencies[fresh],
            candidates.capacities[fresh], candidates.coords[fresh])
        resource_level = self._estimate_resource_level(
            info, candidates.capacities)
        connected, _ = self._select_and_connect(
            info, candidates, resource_level, needed)
        return connected

    # ------------------------------------------------------------------
    def _query_host_cache(self, info: PeerInfo) -> list[PeerInfo]:
        self.stats.record(MessageKind.HOSTCACHE_QUERY)
        bootstrap_list = self.host_cache.bootstrap_candidates(
            info, self.rng, self.overlay_config.bootstrap_list_size)
        self.stats.record(MessageKind.HOSTCACHE_REPLY)
        return bootstrap_list

    def _probe(self, info: PeerInfo,
               bootstrap_list: list[PeerInfo]) -> _Candidates:
        """Probe bootstrap peers; return the candidate view ``LC_i``.

        Bootstrap peers themselves join the candidate list with one base
        occurrence — they are directly known to the joiner — plus any
        appearances in other peers' neighbor lists.  Candidates keep
        first-sighting order.
        """
        overlay = self.overlay
        occurrences: dict[int, int] = {}
        # Entries the host cache still lists but the overlay no longer
        # holds answer no probe; the cached quadruplet stands in.
        stale: dict[int, PeerInfo] = {}
        for bootstrap_peer in bootstrap_list:
            peer_id = bootstrap_peer.peer_id
            occurrences[peer_id] = occurrences.get(peer_id, 0) + 1
            if peer_id not in overlay:
                stale[peer_id] = bootstrap_peer
                continue
            for neighbor in overlay.iter_neighbors(peer_id):
                if neighbor != info.peer_id:
                    occurrences[neighbor] = occurrences.get(neighbor, 0) + 1
        self.stats.record(MessageKind.PROBE, len(bootstrap_list))
        self.stats.record(MessageKind.PROBE_RESPONSE, len(bootstrap_list))
        ids = list(occurrences)
        frequencies = np.fromiter(
            occurrences.values(), dtype=float, count=len(ids))
        capacities, coords = overlay.peer_columns(
            [peer_id for peer_id in ids if peer_id not in stale]
            if stale else ids)
        for at in sorted(map(ids.index, stale)):
            capacities = np.insert(capacities, at, stale[ids[at]].capacity)
            coords = np.insert(
                coords, at, stale[ids[at]].coordinate, axis=0)
        return _Candidates(ids, frequencies, capacities, coords)

    def _estimate_resource_level(self, info: PeerInfo,
                                 capacities: np.ndarray) -> float:
        cfg = self.overlay_config
        if len(capacities) > cfg.resource_level_sample_size:
            capacities = capacities[self.rng.choice(
                len(capacities), size=cfg.resource_level_sample_size,
                replace=False)]
        return estimate_resource_level(
            info.capacity, capacities, self.utility_config)

    def _askable(self, info: PeerInfo, ids: list[int],
                 indices: Iterable[int]) -> list[int]:
        """``indices`` of candidates in the overlay, unlinked to ``info``."""
        overlay = self.overlay
        linked = set(overlay.iter_neighbors(info.peer_id))
        return [i for i in indices
                if ids[i] in overlay and ids[i] not in linked]

    def _select_and_connect(
        self,
        info: PeerInfo,
        candidates: _Candidates,
        resource_level: float,
        target: int,
    ) -> tuple[list[int], list[int]]:
        ids = candidates.ids
        distances = coordinate_distances(candidates.coords, info.coordinate)
        preference = selection_preference(
            candidates.frequencies, distances, resource_level,
            self.utility_config)
        # Rank every candidate by a weighted draw, then walk the ranking
        # until the degree target is met, skipping refusals.
        ranked = weighted_sample_without_replacement(
            self.rng, range(len(ids)), preference, len(ids))
        askable = self._askable(info, ids, ranked)
        fallback_prob = self.overlay_config.back_link_fallback_prob
        connected: list[int] = []
        refused: list[int] = []
        asked = 0
        while len(connected) < target and asked < len(askable):
            # Each asked candidate adds at most one link, so a chunk as
            # long as the remaining deficit never overshoots the target.
            chunk = askable[asked:asked + target - len(connected)]
            asked += len(chunk)
            accept = self._back_link_probabilities(
                info, candidates, distances, chunk)
            for i, probability in zip(chunk, accept):
                if self.rng.random() < probability \
                        or self.rng.random() < fallback_prob:
                    self.overlay.add_link(info.peer_id, ids[i])
                    connected.append(ids[i])
                else:
                    refused.append(ids[i])
        if asked:
            self.stats.record(MessageKind.BACK_CONNECT_REQUEST, asked)
        if connected:
            self.stats.record(MessageKind.BACK_CONNECT_ACK, len(connected))
            self.stats.record(MessageKind.CONNECT, len(connected))
        else:
            # Degenerate fallback: never leave a joiner isolated if anyone
            # is reachable — connect to the top-ranked candidate.
            fallback = next(
                (ids[i] for i in ranked if ids[i] in self.overlay), None)
            if fallback is not None:
                self.stats.record(MessageKind.CONNECT)
                self.overlay.add_link(info.peer_id, fallback)
                connected.append(fallback)
        return connected, refused

    def _back_link_probabilities(
        self, info: PeerInfo, candidates: _Candidates,
        distances: np.ndarray, asked: list[int],
    ) -> np.ndarray:
        """``PB`` of ``info`` at each of the ``asked`` candidates."""
        neighbors = [self.overlay.neighbors(candidates.ids[i]) for i in asked]
        counts = [len(ids) for ids in neighbors]
        neighbor_capacities, neighbor_coords = self.overlay.peer_columns(
            [peer_id for ids in neighbors for peer_id in ids])
        return back_link_acceptance_probabilities(
            own_capacities=candidates.capacities[asked],
            requester_capacity=info.capacity,
            requester_distances_ms=distances[asked],
            neighbor_counts=counts,
            neighbor_capacities=neighbor_capacities,
            neighbor_distances_ms=coordinate_distances(
                neighbor_coords,
                np.repeat(candidates.coords[asked], counts, axis=0)),
        )
