"""CAN (Content-Addressable Network) and CAN-multicast.

Section 2.1's third category also names CAN-multicast (Ratnasamy et al.,
2001): the group's members form their own d-dimensional CAN — a torus
``[0,1)^d`` partitioned into one rectangular zone per member — and the
payload floods across zone adjacencies.  This module implements:

* the CAN itself: sequential joins with zone splitting along the longest
  dimension, torus-adjacency neighbor tracking and greedy coordinate
  routing;
* CAN-multicast: a flood over zone neighbors with duplicate suppression
  at receivers, whose first-receipt parents yield a spanning tree that
  the comparison benches can score like any other ESM scheme.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError, GroupError, OverlayError
from ..groupcast.spanning_tree import SpanningTree
from ..network.underlay import UnderlayNetwork
from ..sim.random import RandomSource


@dataclass
class Zone:
    """A rectangular zone of the CAN torus, owned by one peer."""

    owner: int
    lows: np.ndarray
    highs: np.ndarray

    @property
    def dimensions(self) -> int:
        """Dimensionality of the torus."""
        return self.lows.size

    def contains(self, point: np.ndarray) -> bool:
        """True if ``point`` falls inside this zone."""
        return bool(((point >= self.lows) & (point < self.highs)).all())

    def split(self, new_owner: int) -> "Zone":
        """Halve this zone along its longest dimension; return the new
        upper half (this zone keeps the lower half)."""
        extents = self.highs - self.lows
        dim = int(np.argmax(extents))
        middle = self.lows[dim] + extents[dim] / 2.0
        new_lows = self.lows.copy()
        new_lows[dim] = middle
        new_zone = Zone(new_owner, new_lows, self.highs.copy())
        self.highs = self.highs.copy()
        self.highs[dim] = middle
        return new_zone


def _intervals_abut(low_a, high_a, low_b, high_b) -> bool:
    """True if [a) and [b) touch end-to-start on the unit torus."""
    return (np.isclose(high_a % 1.0, low_b % 1.0)
            or np.isclose(high_b % 1.0, low_a % 1.0))


def _intervals_overlap(low_a, high_a, low_b, high_b) -> bool:
    """True if the two (non-wrapped) intervals share positive length."""
    return (min(high_a, high_b) - max(low_a, low_b)) > 1e-12


def zones_adjacent(a: Zone, b: Zone) -> bool:
    """CAN adjacency: abut in exactly one dimension, overlap in the rest."""
    abutting = 0
    for dim in range(a.dimensions):
        if _intervals_overlap(a.lows[dim], a.highs[dim],
                              b.lows[dim], b.highs[dim]):
            continue
        if _intervals_abut(a.lows[dim], a.highs[dim],
                           b.lows[dim], b.highs[dim]):
            abutting += 1
        else:
            return False
    return abutting == 1


def torus_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance on the unit torus."""
    diff = np.abs(a - b)
    diff = np.minimum(diff, 1.0 - diff)
    return float(np.linalg.norm(diff))


def zone_torus_distance(zone: Zone, point: np.ndarray) -> float:
    """Distance from ``point`` to the closest point of ``zone``.

    Per dimension the gap is zero when the coordinate falls inside the
    zone's interval; otherwise the shorter of the direct and wrapped
    approaches to the nearest edge.  Greedy routing on this metric heads
    for the *zone*, not its centre, which keeps progress monotone when
    zone sizes are heterogeneous.
    """
    gaps = np.zeros(zone.dimensions)
    for dim in range(zone.dimensions):
        x = point[dim]
        low, high = zone.lows[dim], zone.highs[dim]
        if low <= x < high:
            continue
        direct = min(abs(x - low), abs(x - high))
        wrapped = min(abs(x - low + 1.0), abs(x - low - 1.0),
                      abs(x - high + 1.0), abs(x - high - 1.0))
        gaps[dim] = min(direct, wrapped)
    return float(np.linalg.norm(gaps))


class CANNetwork:
    """A d-dimensional CAN over a set of peers."""

    def __init__(self, peer_ids: list[int], rng: RandomSource,
                 dimensions: int = 2) -> None:
        if len(peer_ids) < 1:
            raise OverlayError("CAN needs at least one node")
        if dimensions < 1:
            raise ConfigurationError("dimensions must be >= 1")
        self.dimensions = dimensions
        self._zones: dict[int, Zone] = {}
        self._neighbors: dict[int, set[int]] = {}
        first, *rest = peer_ids
        self._zones[first] = Zone(
            first, np.zeros(dimensions), np.ones(dimensions))
        self._neighbors[first] = set()
        for peer_id in rest:
            self._join(peer_id, rng)

    # ------------------------------------------------------------------
    def _join(self, peer_id: int, rng: RandomSource) -> None:
        if peer_id in self._zones:
            raise OverlayError(f"peer {peer_id} already in the CAN")
        point = rng.random(self.dimensions)
        owner = self.owner_of(point)
        owner_zone = self._zones[owner]
        new_zone = owner_zone.split(peer_id)
        self._zones[peer_id] = new_zone
        self._neighbors[peer_id] = set()
        # Recompute adjacency for the two halves against the old
        # neighborhood (plus each other).
        affected = {owner, peer_id} | set(self._neighbors[owner])
        for a in affected:
            for b in affected:
                if a >= b:
                    continue
                adjacent = zones_adjacent(self._zones[a], self._zones[b])
                if adjacent:
                    self._neighbors[a].add(b)
                    self._neighbors[b].add(a)
                else:
                    self._neighbors[a].discard(b)
                    self._neighbors[b].discard(a)

    # ------------------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of zones/owners."""
        return len(self._zones)

    def zone_of(self, peer_id: int) -> Zone:
        """The zone owned by ``peer_id``."""
        try:
            return self._zones[peer_id]
        except KeyError:
            raise OverlayError(f"peer {peer_id} is not in the CAN")

    def neighbors(self, peer_id: int) -> list[int]:
        """Zone-adjacent owners."""
        self.zone_of(peer_id)
        return sorted(self._neighbors[peer_id])

    def owner_of(self, point: np.ndarray) -> int:
        """The peer whose zone contains ``point``."""
        point = np.asarray(point, dtype=float) % 1.0
        for peer_id, zone in self._zones.items():
            if zone.contains(point):
                return peer_id
        raise OverlayError(f"no zone contains {point}")  # pragma: no cover

    def validate(self) -> None:
        """Check the zones tile the torus exactly once."""
        volume = sum(
            float(np.prod(zone.highs - zone.lows))
            for zone in self._zones.values())
        if not np.isclose(volume, 1.0, atol=1e-9):
            raise OverlayError(f"zones cover volume {volume}, expected 1")

    # ------------------------------------------------------------------
    def route(self, source: int, point: np.ndarray) -> list[int]:
        """Route from ``source`` to the owner of ``point``.

        Greedy descent on the zone-to-point distance; if the greedy rule
        reaches a local minimum (possible with very skewed tilings) the
        remainder falls back to a breadth-first walk of the zone graph —
        the simulator analogue of CAN's perimeter routing.
        """
        point = np.asarray(point, dtype=float) % 1.0
        current = source
        path = [current]
        guard = 4 * self.size + 8
        while not self.zone_of(current).contains(point):
            current_distance = zone_torus_distance(
                self.zone_of(current), point)
            best, best_distance = None, current_distance
            for neighbor in self._neighbors[current]:
                distance = zone_torus_distance(
                    self.zone_of(neighbor), point)
                if distance < best_distance:
                    best, best_distance = neighbor, distance
            if best is None:
                path.extend(self._bfs_route(current, point))
                return path
            current = best
            path.append(current)
            guard -= 1
            if guard < 0:  # pragma: no cover - monotone descent guard
                raise OverlayError("routing loop detected")
        return path

    def _bfs_route(self, start: int, point: np.ndarray) -> list[int]:
        """Shortest zone-graph path from ``start`` to the point's owner."""
        from collections import deque

        target = self.owner_of(point)
        parents: dict[int, int] = {start: start}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            if node == target:
                break
            for neighbor in self._neighbors[node]:
                if neighbor not in parents:
                    parents[neighbor] = node
                    queue.append(neighbor)
        if target not in parents:  # pragma: no cover - connected tiling
            raise OverlayError("zone graph is disconnected")
        chain = [target]
        while chain[-1] != start:
            chain.append(parents[chain[-1]])
        chain.reverse()
        return chain[1:]


@dataclass(frozen=True)
class CANMulticastResult:
    """Outcome of one CAN-multicast flood."""

    tree: SpanningTree
    messages: int
    duplicates: int


def can_multicast(
    can: CANNetwork,
    source: int,
    underlay: UnderlayNetwork,
) -> CANMulticastResult:
    """Flood a payload across the mini-CAN from ``source``.

    Deliveries propagate zone-to-zone in arrival-time order (true
    underlay latency between zone owners); receivers suppress duplicates.
    The first-receipt parents form the returned spanning tree, with every
    zone owner a member (the mini-CAN contains exactly the group).
    """
    import heapq
    import itertools

    if source not in can._zones:
        raise GroupError(f"{source} is not in the CAN")
    tree = SpanningTree(root=source)
    arrival_of = {source: 0.0}
    counter = itertools.count()
    heap: list[tuple[float, int, int, int]] = []
    messages = 0
    duplicates = 0

    def forward(node: int, at_ms: float) -> None:
        nonlocal messages
        for neighbor in can.neighbors(node):
            latency = underlay.peer_distance_ms(node, neighbor)
            heapq.heappush(
                heap, (at_ms + latency, next(counter), node, neighbor))
            messages += 1

    forward(source, 0.0)
    while heap:
        at_ms, _, sender, receiver = heapq.heappop(heap)
        if receiver in arrival_of:
            duplicates += 1
            continue
        arrival_of[receiver] = at_ms
        tree.graft_chain([receiver, sender])
        tree.mark_member(receiver)
        forward(receiver, at_ms)

    tree.validate()
    return CANMulticastResult(tree=tree, messages=messages,
                              duplicates=duplicates)


def build_group_can(
    members: list[int],
    rng: RandomSource,
    dimensions: int = 2,
) -> CANNetwork:
    """The per-group mini-CAN of CAN-multicast: members only."""
    members = list(dict.fromkeys(members))
    if len(members) < 2:
        raise GroupError("a mini-CAN needs at least two members")
    return CANNetwork(members, rng, dimensions)
