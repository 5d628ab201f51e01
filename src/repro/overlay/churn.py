"""Network churn: peer arrivals, lifetimes, departures and failures.

The paper's experiments drive joins with exponential inter-arrival times
(``Expo(1s)``); churn resilience comes from heartbeat maintenance.  This
module provides a churn *process* that schedules joins, graceful
departures and silent crashes on the event simulator, so maintenance and
group-communication behaviour under membership dynamics can be studied.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..config import ConfigurationError
from ..coords.base import CoordinateSpace
from ..coords.gnp import GNPSystem
from ..network.underlay import UnderlayNetwork
from ..obs.registry import Registry
from ..peers.capacity import CapacityDistribution, PAPER_CAPACITY_DISTRIBUTION
from ..peers.peer import PeerInfo
from ..sim.engine import Simulator
from ..sim.random import RandomSource
from .bootstrap import UtilityBootstrap
from .maintenance import MaintenanceDaemon


@dataclass(frozen=True)
class ChurnConfig:
    """Arrival/lifetime parameters of the churn process."""

    join_interarrival_ms: float = 1_000.0
    mean_lifetime_ms: float = 600_000.0
    crash_fraction: float = 0.5
    max_joins: int = 1_000

    def __post_init__(self) -> None:
        if self.join_interarrival_ms <= 0.0:
            raise ConfigurationError("join_interarrival_ms must be positive")
        if self.mean_lifetime_ms <= 0.0:
            raise ConfigurationError("mean_lifetime_ms must be positive")
        if not 0.0 <= self.crash_fraction <= 1.0:
            raise ConfigurationError("crash_fraction must be a probability")
        if self.max_joins < 1:
            raise ConfigurationError("max_joins must be >= 1")


class ChurnProcess:
    """Schedules joins/leaves/crashes against a maintained overlay."""

    def __init__(
        self,
        simulator: Simulator,
        underlay: UnderlayNetwork,
        gnp: GNPSystem,
        space: CoordinateSpace,
        bootstrap: UtilityBootstrap,
        maintenance: MaintenanceDaemon,
        rng: RandomSource,
        config: ChurnConfig | None = None,
        capacities: CapacityDistribution = PAPER_CAPACITY_DISTRIBUTION,
        next_peer_id: int = 0,
        on_join: Callable[[PeerInfo], None] | None = None,
        registry: Registry | None = None,
    ) -> None:
        self.simulator = simulator
        self.underlay = underlay
        self.gnp = gnp
        self.space = space
        self.bootstrap = bootstrap
        self.maintenance = maintenance
        self.rng = rng
        self.config = config or ChurnConfig()
        self.capacities = capacities
        self._next_peer_id = next_peer_id
        self._joins_scheduled = 0
        self._on_join = on_join
        self.registry = registry if registry is not None else Registry()
        self._c_joins = self.registry.counter("churn.joins")
        self._c_departures = self.registry.counter("churn.departures")
        self._c_crashes = self.registry.counter("churn.crashes")
        self.joined: list[int] = []
        self.departed: list[int] = []
        self.crashed: list[int] = []

    def start(self) -> None:
        """Schedule the first arrival."""
        self._schedule_next_join()

    # ------------------------------------------------------------------
    def _schedule_next_join(self) -> None:
        if self._joins_scheduled >= self.config.max_joins:
            return
        self._joins_scheduled += 1
        gap = float(self.rng.exponential(self.config.join_interarrival_ms))
        self.simulator.schedule(gap, self._do_join)

    def _do_join(self) -> None:
        peer_id = self._next_peer_id
        self._next_peer_id += 1
        self.underlay.attach_peer(peer_id, self.rng)
        coordinate = self.gnp.embed_peer(peer_id, self.space, self.rng)
        info = PeerInfo(
            peer_id=peer_id,
            capacity=self.capacities.sample_one(self.rng),
            coordinate=coordinate,
        )
        self.bootstrap.join(info)
        self.maintenance.activate(peer_id)
        self.joined.append(peer_id)
        self._c_joins.inc()
        if self._on_join is not None:
            self._on_join(info)
        lifetime = float(self.rng.exponential(self.config.mean_lifetime_ms))
        self.simulator.schedule(lifetime, lambda: self._do_leave(peer_id))
        self._schedule_next_join()

    def _do_leave(self, peer_id: int) -> None:
        if not self.maintenance.is_alive(peer_id):
            return
        if self.rng.random() < self.config.crash_fraction:
            self.maintenance.crash(peer_id)
            self.crashed.append(peer_id)
            self._c_crashes.inc()
        else:
            self.maintenance.depart(peer_id)
            self.departed.append(peer_id)
            self._c_departures.inc()
