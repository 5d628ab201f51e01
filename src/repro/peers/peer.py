"""Peer identity.

Section 3.3: "an arbitrary peer in our overlay is uniquely identified by a
tuple of four attributes <IP address, port number, coordinate, capacity>".
:class:`PeerInfo` is that quadruplet; the simulated IP address/port are
synthesised from the peer id so the wire-format identity stays faithful
while the simulator indexes peers by integer id.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def coordinate_distances(coords: np.ndarray, origin: np.ndarray) -> np.ndarray:
    """Coordinate-space latency estimates (ms) from ``origin`` to each row.

    ``coords`` is ``[k, d]``; ``origin`` is one point ``[d]`` or one per
    row ``[k, d]``.  The row-wise dot product is a stacked ``1 x d @ d x 1``
    matmul because numpy runs that through the ``dot`` kernel a 1-D
    ``np.linalg.norm`` uses: every row equals ``norm(a - b)`` bit for bit,
    where ``norm(axis=1)``, ``einsum`` and ``(d * d).sum(1)`` miss the
    last ulp on 14-25% of rows and would move distance-ranked draws.
    """
    diff = coords - origin
    return np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])


@dataclass(frozen=True)
class PeerInfo:
    """The identification quadruplet a peer advertises to the network."""

    peer_id: int
    capacity: float
    coordinate: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.peer_id < 0:
            raise ValueError("peer_id must be non-negative")
        if self.capacity <= 0.0:
            raise ValueError("capacity must be positive")

    @classmethod
    def from_arrays(cls, peer_id: int, row: int, capacity: np.ndarray,
                    coords: np.ndarray) -> "PeerInfo":
        """Materialize the quadruplet of one struct-of-arrays row.

        The coordinate is copied out of the column so the returned info
        stays valid even if the store later grows (reallocates) its
        arrays.
        """
        return cls(peer_id=peer_id, capacity=float(capacity[row]),
                   coordinate=coords[row].copy())

    @property
    def ip_address(self) -> str:
        """Synthetic dotted-quad address derived from the peer id."""
        value = self.peer_id & 0xFFFFFFFF
        return (f"10.{(value >> 16) & 0xFF}."
                f"{(value >> 8) & 0xFF}.{value & 0xFF}")

    @property
    def port(self) -> int:
        """Synthetic port in the registered range."""
        return 6346 + (self.peer_id % 1000)

    def quadruplet(self) -> tuple[str, int, tuple[float, ...], float]:
        """The `<IP, port, coordinate, capacity>` tuple of Section 3.3."""
        return (self.ip_address, self.port,
                tuple(float(x) for x in self.coordinate), self.capacity)

    def coordinate_distance(self, other: "PeerInfo") -> float:
        """Coordinate-space latency estimate to ``other`` (ms)."""
        return float(coordinate_distances(
            other.coordinate[None, :], self.coordinate)[0])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PeerInfo):
            return NotImplemented
        return (self.peer_id == other.peer_id
                and self.capacity == other.capacity
                and np.array_equal(self.coordinate, other.coordinate))

    def __hash__(self) -> int:
        return hash((self.peer_id, self.capacity))
