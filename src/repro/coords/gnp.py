"""GNP-style landmark coordinate embedding.

The paper assigns each peer a network coordinate using GNP (Ng & Zhang).
GNP works in two stages:

1. a small set of *landmarks* measure latencies among themselves and solve
   for landmark coordinates that minimise squared embedding error;
2. every joining host measures its latency to the landmarks and solves for
   its own coordinate against the (now fixed) landmark coordinates.

We implement both stages with plain gradient descent — stage 2 is
vectorised across all peers so embedding tens of thousands of hosts stays
fast.  Landmarks are routers of the underlay (a deployment would use
well-known hosts; the math is identical).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import ConfigurationError
from ..network.underlay import UnderlayNetwork
from ..sim.random import RandomSource
from .base import CoordinateSpace


@dataclass(frozen=True)
class GNPConfig:
    """Tunables of the GNP embedding."""

    dimensions: int = 5
    landmark_count: int = 12
    landmark_iterations: int = 400
    peer_iterations: int = 120
    learning_rate: float = 0.05

    def __post_init__(self) -> None:
        if self.dimensions < 1:
            raise ConfigurationError("dimensions must be >= 1")
        if self.landmark_count <= self.dimensions:
            raise ConfigurationError(
                "need more landmarks than dimensions for a stable embedding")
        if self.landmark_iterations < 1 or self.peer_iterations < 1:
            raise ConfigurationError("iteration counts must be >= 1")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ConfigurationError("learning_rate must be in (0, 1]")


class GNPSystem:
    """Landmark-based coordinate assignment for underlay-attached peers."""

    def __init__(self, config: GNPConfig | None = None) -> None:
        self.config = config or GNPConfig()
        self._landmark_routers: np.ndarray | None = None
        self._landmark_coords: np.ndarray | None = None
        self._underlay: UnderlayNetwork | None = None

    @property
    def is_fitted(self) -> bool:
        """True once the landmark frame has been solved."""
        return self._landmark_coords is not None

    # ------------------------------------------------------------------
    # Stage 1: landmark frame
    # ------------------------------------------------------------------
    def fit_landmarks(self, underlay: UnderlayNetwork,
                      rng: RandomSource) -> None:
        """Choose landmark routers and solve their coordinate frame."""
        cfg = self.config
        count = min(cfg.landmark_count, underlay.router_count)
        if count <= cfg.dimensions:
            raise ConfigurationError(
                "underlay too small for the requested landmark count")
        routers = rng.choice(underlay.router_count, size=count, replace=False)
        routers = np.sort(routers.astype(np.int64))
        measured = underlay.routing.dist[np.ix_(routers, routers)]

        coords = rng.normal(scale=measured.mean() / 4.0,
                            size=(count, cfg.dimensions))
        for _ in range(cfg.landmark_iterations):
            coords -= cfg.learning_rate * _landmark_gradient(coords, measured)
        self._landmark_routers = routers
        self._landmark_coords = coords
        self._underlay = underlay

    def landmark_fit_error(self) -> float:
        """Mean relative embedding error over landmark pairs (diagnostic)."""
        self._require_fitted()
        assert self._underlay is not None
        routers = self._landmark_routers
        coords = self._landmark_coords
        measured = self._underlay.routing.dist[np.ix_(routers, routers)]
        embedded = _pairwise_distances(coords)
        mask = ~np.eye(len(routers), dtype=bool)
        return float(np.mean(
            np.abs(embedded[mask] - measured[mask])
            / np.maximum(measured[mask], 1e-9)))

    # ------------------------------------------------------------------
    # Stage 2: peer embedding
    # ------------------------------------------------------------------
    def embed_peer(self, peer_id: int, space: CoordinateSpace,
                   rng: RandomSource) -> np.ndarray:
        """Solve the coordinate of one attached peer and record it."""
        coords = self.embed_peers([peer_id], space, rng)
        return coords[0]

    def embed_peers(self, peer_ids: list[int], space: CoordinateSpace,
                    rng: RandomSource) -> np.ndarray:
        """Vectorised stage-2 solve for many peers at once."""
        self._require_fitted()
        assert self._underlay is not None
        cfg = self.config
        landmarks = self._landmark_coords
        routers = self._landmark_routers
        n = len(peer_ids)
        if n == 0:
            return np.empty((0, cfg.dimensions), dtype=float)

        # Measured peer->landmark latencies, (n, L): access(peer) plus
        # the landmark's distance row, read landmark -> peer router.
        core = self._underlay.routing
        _, peer_routers, access = core.attach_info(peer_ids)
        measured = (access[:, None]
                    + core.dist[np.ix_(routers, peer_routers)].T)

        # Initialise each peer at the centroid of its two closest landmarks
        # plus noise; descend on squared embedding error.
        nearest = np.argsort(measured, axis=1)[:, :2]
        positions = landmarks[nearest].mean(axis=1)
        positions = positions + rng.normal(scale=1.0, size=positions.shape)
        # One join embeds one peer, so the arrays are tiny and numpy's
        # per-call wrappers dominate: preallocated buffers and the bare
        # ufuncs ``np.linalg.norm(axis=2)`` is defined as, every
        # operation and its order kept (bit-identical to the allocating
        # loop kept as the reference in tests/test_coords.py).
        diff = np.empty((n,) + landmarks.shape)                   # (n, L, d)
        squares = np.empty_like(diff)
        embedded = np.empty((n, len(routers)))                    # (n, L)
        safe = np.empty_like(embedded)
        scale = np.empty_like(embedded)
        grad = np.empty_like(positions)                           # (n, d)
        spread = positions[:, None, :]    # view: follows the in-place steps
        frame = landmarks[None, :, :]
        for _ in range(cfg.peer_iterations):
            np.subtract(spread, frame, out=diff)
            np.multiply(diff, diff, out=squares)
            np.add.reduce(squares, axis=2, out=embedded)
            np.sqrt(embedded, out=embedded)
            np.maximum(embedded, 1e-9, out=safe)
            np.subtract(embedded, measured, out=scale)
            np.divide(scale, safe, out=scale)
            np.einsum("nl,nld->nd", scale, diff, out=grad)
            grad *= 2.0
            grad /= len(routers)
            grad *= cfg.learning_rate
            positions -= grad

        for i, peer in enumerate(peer_ids):
            space.set(peer, positions[i])
        return positions

    def make_space(self) -> CoordinateSpace:
        """Create an empty coordinate space with this system's dimensions."""
        return CoordinateSpace(self.config.dimensions)

    def _require_fitted(self) -> None:
        if not self.is_fitted:
            raise ConfigurationError(
                "GNPSystem.fit_landmarks must be called first")


def _pairwise_distances(coords: np.ndarray) -> np.ndarray:
    diff = coords[:, None, :] - coords[None, :, :]
    return np.linalg.norm(diff, axis=2)


def _landmark_gradient(coords: np.ndarray,
                       measured: np.ndarray) -> np.ndarray:
    """Gradient of the squared embedding error over landmark coordinates."""
    diff = coords[:, None, :] - coords[None, :, :]
    embedded = np.linalg.norm(diff, axis=2)
    safe = np.maximum(embedded, 1e-9)
    scale = (embedded - measured) / safe
    np.fill_diagonal(scale, 0.0)
    # d/dx_i sum_{jk} (e_{jk} - m_{jk})^2: each pair contributes twice.
    return 4.0 * np.einsum("ij,ijd->id", scale, diff) / len(coords)
