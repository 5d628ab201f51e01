"""Workload 2: the event-driven churn world (joins, leaves, crashes,
heartbeat failure detection, epoch repair)."""

from __future__ import annotations

import time

from repro.config import GroupCastConfig, OverlayConfig
from repro.coords.gnp import GNPSystem
from repro.experiments.churn_cost import EVENT_KINDS, KEEPALIVE_KINDS
from repro.network.topology import generate_transit_stub
from repro.overlay.bootstrap import UtilityBootstrap
from repro.overlay.churn import ChurnConfig, ChurnProcess
from repro.overlay.graph import OverlayNetwork
from repro.overlay.hostcache import HostCacheServer
from repro.overlay.maintenance import MaintenanceDaemon
from repro.overlay.messages import MessageStats
from repro.sim.engine import Simulator
from repro.sim.random import spawn_rng

from harness import (
    BenchmarkFailure,
    Outcome,
    Spans,
    Workload,
    digest_of,
    overlay_edges,
    run_timeboxed,
    stray_peers,
)


class SpannedBootstrap:
    """Timing proxy for the bootstrap the churn world is handed: the
    two entry points the churn process and the maintenance daemon call,
    each under a span."""

    def __init__(self, inner: UtilityBootstrap, spans: Spans) -> None:
        self._inner = inner
        self._spans = spans

    def join(self, info):
        with self._spans.span("overlay.churn_join"):
            return self._inner.join(info)

    def acquire_neighbors(self, info, needed):
        with self._spans.span("overlay.repair"):
            return self._inner.acquire_neighbors(info, needed)


class ChurnWorld:
    """The ``experiments/churn_cost.py`` world from public classes."""

    def __init__(self, seed: int, joins: int, spans: Spans | None) -> None:
        config = GroupCastConfig(seed=seed)
        self.simulator = Simulator()
        underlay = generate_transit_stub(
            config.underlay, spawn_rng(seed, "churn-topology"))
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(seed, "churn-landmarks"))
        space = gnp.make_space()
        self.overlay = OverlayNetwork()
        self.stats = MessageStats()
        host_cache = HostCacheServer(
            max_entries=512, dimensions=space.dimensions,
            rng=spawn_rng(seed, "churn-hostcache"))
        bootstrap = UtilityBootstrap(
            overlay=self.overlay, host_cache=host_cache,
            rng=spawn_rng(seed, "churn-protocol"),
            overlay_config=config.overlay,
            utility_config=config.utility, stats=self.stats)
        if spans is not None:
            bootstrap = SpannedBootstrap(bootstrap, spans)
        self.maintenance = MaintenanceDaemon(
            simulator=self.simulator, overlay=self.overlay,
            host_cache=host_cache, bootstrap=bootstrap,
            rng=spawn_rng(seed, "churn-maintenance"),
            config=OverlayConfig(
                heartbeat_interval_ms=5_000.0, epoch_ms=20_000.0,
                min_epoch_ms=10_000.0, max_epoch_ms=60_000.0),
            stats=self.stats)
        self.linkless_joins = 0
        self.churn = ChurnProcess(
            simulator=self.simulator, underlay=underlay, gnp=gnp,
            space=space, bootstrap=bootstrap,
            maintenance=self.maintenance,
            rng=spawn_rng(seed, "churn-process"),
            config=ChurnConfig(
                join_interarrival_ms=200.0, mean_lifetime_ms=60_000.0,
                crash_fraction=0.5, max_joins=joins),
            on_join=self._after_join)

    def _after_join(self, info) -> None:
        # With another live peer registered, the join protocol's
        # fallback always leaves the joiner at least one link.
        if self.overlay.degree(info.peer_id) == 0 \
                and len(self.maintenance.alive_peers()) > 1:
            self.linkless_joins += 1

    def run(self, horizon_ms: float) -> float:
        """Run to the horizon; returns host seconds."""
        start = time.perf_counter()
        self.churn.start()
        self.simulator.run(until=horizon_ms)
        return time.perf_counter() - start

    @property
    def events(self) -> int:
        churn = self.churn
        return len(churn.joined) + len(churn.departed) + len(churn.crashed)

    def record(self) -> tuple:
        """Everything a same-seed rerun must reproduce."""
        churn = self.churn
        return (churn.joined, churn.departed, churn.crashed,
                sorted(self.maintenance.alive_peers()),
                overlay_edges(self.overlay), self.stats.snapshot(),
                self.simulator.events_processed)


class ChurnRepair(Workload):
    work_unit = "churn events (joins + leaves + crashes)"
    op_unit = "one churn world run to its horizon"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.joins = 200 if quick else 1500
        # Arrivals stop at joins * 200 ms; the tail lets repair settle.
        self.horizon_ms = 60_000.0 if quick else 400_000.0
        self.first: ChurnWorld | None = None
        self.walls: list[float] = []
        self.events = 0
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.counts: dict = {}
        self.traced_worlds: list[tuple[ChurnWorld, float]] = []
        self.stray_alive = 0

    def setup(self) -> None:
        self.first = ChurnWorld(self.seed, self.joins, None)

    def _check(self, world: ChurnWorld) -> None:
        """Every churn event must leave the books straight: a join with
        a live peer to attach to ends linked, every joined peer is alive,
        departed or crashed, a departed peer is gone from the overlay
        and a live one is in it.  Live peers that repair has not yet
        reconnected at the horizon are a protocol outcome, reported as
        ``overlay.isolated_alive``."""
        churn, alive = world.churn, world.maintenance.alive_peers()
        self.attempted += world.events
        self.failed += (
            world.linkless_joins
            + abs(len(churn.joined) - len(alive) - len(churn.departed)
                  - len(churn.crashed))
            + sum(1 for p in churn.departed if p in world.overlay)
            + sum(1 for p in alive if p not in world.overlay))
        self.stray_alive += stray_peers(world.overlay, alive)

    def _unit(self, i: int, spans: Spans | None) -> None:
        seed = self.seed + i
        world = self.first if i == 0 \
            else ChurnWorld(seed, self.joins, None)
        traced = None if spans is None \
            else ChurnWorld(seed, self.joins, spans)

        def run_traced() -> float:
            with spans.span("sim.run"):
                return traced.run(self.horizon_ms)

        # Alternate which variant runs first.
        if traced is not None and i % 2:
            traced_s = run_traced()
        wall = world.run(self.horizon_ms)
        if traced is not None and not i % 2:
            traced_s = run_traced()
        self.walls.append(wall)
        self.events += world.events
        self._check(world)
        if traced is not None:
            if traced.record() != world.record():
                raise BenchmarkFailure(
                    "span-wrapped churn world diverged from the plain one")
            self.traced_worlds.append((traced, traced_s))
            self.plain_s += wall
            self.traced_s += traced_s
        if i == 0:
            self.digest = digest_of(*world.record())
            self.counts = {
                "events": world.events,
                "sim_events": world.simulator.events_processed,
                "messages": world.stats.total(),
                "alive_at_horizon": len(world.maintenance.alive_peers()),
            }

    def run(self, seconds: float, spans: Spans | None) -> None:
        run_timeboxed(lambda i: self._unit(i, spans), seconds,
                      min_units=1)

    def outcome(self, spans: Spans | None) -> Outcome:
        layers = {}
        if spans is not None:
            run_s = sum(s for _, s in self.traced_worlds)
            join_s = spans.total("overlay.churn_join")
            events = sum(w.events for w, _ in self.traced_worlds)
            sim_events = sum(w.simulator.events_processed
                             for w, _ in self.traced_worlds)
            worlds = len(self.traced_worlds)
            layers = {
                "overlay.churn_join_s": join_s / worlds,
                "overlay.repair_s": spans.total("overlay.repair") / worlds,
                # Everything on the engine that is not a join: heartbeat
                # rounds, failure detection, repair, departures.
                "overlay.maintenance_share": 1.0 - join_s / run_s,
                "overlay.msgs_per_event": sum(
                    w.stats.total(EVENT_KINDS)
                    for w, _ in self.traced_worlds) / events,
                "overlay.heartbeat_messages": sum(
                    w.stats.total(KEEPALIVE_KINDS)
                    for w, _ in self.traced_worlds) / worlds,
                "overlay.isolated_alive": sum(
                    stray_peers(w.overlay, w.maintenance.alive_peers())
                    for w, _ in self.traced_worlds) / worlds,
                "sim.events_processed": sim_events / worlds,
                "sim.host_us_per_event": run_s / sim_events * 1e6,
            }
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=self.events / sum(self.walls),
            op_ms=[w * 1e3 for w in self.walls],
            digest=self.digest, counts=self.counts, layers=layers,
            notes={"joins": self.joins, "worlds": len(self.walls),
                   "horizon_sim_s": self.horizon_ms / 1e3,
                   "live_peers_left_unconnected": self.stray_alive})
