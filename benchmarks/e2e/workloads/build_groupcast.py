"""Workload 1: building utility-aware overlays from scratch."""

from __future__ import annotations

from repro.config import GroupCastConfig
from repro.coords.gnp import GNPSystem
from repro.deployment import build_deployment
from repro.network.topology import generate_transit_stub
from repro.overlay.bootstrap import UtilityBootstrap
from repro.overlay.graph import OverlayNetwork
from repro.overlay.hostcache import HostCacheServer
from repro.overlay.messages import MessageKind, MessageStats
from repro.peers.capacity import PAPER_CAPACITY_DISTRIBUTION
from repro.peers.peer import PeerInfo
from repro.sim.random import spawn_rng

from harness import (
    BenchmarkFailure,
    Outcome,
    Spans,
    Workload,
    digest_of,
    median,
    overlay_edges,
    percentile,
    run_timeboxed,
    stray_peers,
    timed,
)


def staged_build(peer_count: int, seed: int, spans: Spans):
    """``build_deployment(peer_count, kind="groupcast", seed=seed)`` as
    its public stage calls, in the same order on the same named random
    streams, each under a span.  Returns ``(overlay, stats)``."""
    config = GroupCastConfig()
    with spans.span("network.topology"):
        underlay = generate_transit_stub(
            config.underlay, spawn_rng(seed, "topology"))
    gnp = GNPSystem()
    with spans.span("coords.fit_landmarks"):
        gnp.fit_landmarks(underlay, spawn_rng(seed, "landmarks"))
    peer_ids = list(range(peer_count))
    with spans.span("network.attach"):
        attach_rng = spawn_rng(seed, "attachment")
        for peer_id in peer_ids:
            underlay.attach_peer(peer_id, attach_rng)
    with spans.span("coords.embed"):
        space = gnp.make_space()
        gnp.embed_peers(peer_ids, space, spawn_rng(seed, "embedding"))
    capacities = PAPER_CAPACITY_DISTRIBUTION.sample(
        spawn_rng(seed, "capacities"), peer_count)
    infos = [PeerInfo(peer_id=pid, capacity=float(capacities[i]),
                      coordinate=space.get(pid))
             for i, pid in enumerate(peer_ids)]
    stats = MessageStats()
    overlay = OverlayNetwork()
    bootstrap = UtilityBootstrap(
        overlay=overlay,
        host_cache=HostCacheServer(
            max_entries=1024, dimensions=space.dimensions,
            rng=spawn_rng(seed, "hostcache")),
        rng=spawn_rng(seed, "protocol"),
        overlay_config=config.overlay,
        utility_config=config.utility,
        stats=stats)
    with spans.span("overlay.bootstrap"):
        for info in infos:
            with spans.span("overlay.join"):
                bootstrap.join(info)
    return overlay, stats


class BuildGroupcast(Workload):
    work_unit = "peers joined"
    op_unit = "one build_deployment call"
    setup_reps = 1  # no inputs beyond the seed; set-up is the warm-up

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.peers = 300 if quick else 1500
        self.walls: list[float] = []
        self.staged_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.digest = None
        self.counts: dict = {}

    def _build(self, seed: int):
        return build_deployment(self.peers, kind="groupcast", seed=seed)

    def warm_up(self) -> None:
        self._build(self.seed)

    def _check(self, overlay) -> None:
        """A join fails when the peer ends with no link or outside the
        overlay's largest component."""
        self.attempted += self.peers
        self.failed += stray_peers(overlay, overlay.peer_ids())

    def _unit(self, i: int, spans: Spans | None) -> None:
        seed = self.seed + 1 + i
        staged = None
        # Alternate which variant runs first so neither always inherits
        # the other's warm allocator and caches.
        if spans is not None and i % 2:
            staged_s, staged = timed(staged_build, self.peers, seed, spans)
        plain_s, deployment = timed(self._build, seed)
        if spans is not None and not i % 2:
            staged_s, staged = timed(staged_build, self.peers, seed, spans)
        self.walls.append(plain_s)
        self._check(deployment.overlay)
        edges = overlay_edges(deployment.overlay)
        snapshot = deployment.stats.snapshot()
        if staged is not None:
            overlay, stats = staged
            if overlay_edges(overlay) != edges \
                    or stats.snapshot() != snapshot:
                raise BenchmarkFailure(
                    "staged build diverged from build_deployment")
            self.staged_walls.append(staged_s)
            self.plain_s += plain_s
            self.traced_s += staged_s
        if i == 0:
            self.digest = digest_of(edges, snapshot)
            self.counts = {
                "edges": len(edges),
                "messages": deployment.stats.total(),
                "probe_messages": deployment.stats.count(MessageKind.PROBE),
            }

    def run(self, seconds: float, spans: Spans | None) -> None:
        run_timeboxed(lambda i: self._unit(i, spans), seconds,
                      min_units=2)

    def outcome(self, spans: Spans | None) -> Outcome:
        layers = {}
        if spans is not None:
            builds = len(self.staged_walls)
            joins = spans.durations("overlay.join")
            join_s = sum(joins) / builds
            layers = {
                "network.topology_s": median(
                    spans.durations("network.topology")),
                "network.attach_s": median(
                    spans.durations("network.attach")),
                "coords.fit_landmarks_s": median(
                    spans.durations("coords.fit_landmarks")),
                "coords.embed_s": median(spans.durations("coords.embed")),
                "overlay.bootstrap_join_s": join_s,
                "overlay.bootstrap_share":
                    join_s / median(self.staged_walls),
                "overlay.join_us_p50": median(joins) * 1e6,
                "overlay.join_us_p99": percentile(joins, 0.99) * 1e6,
                "overlay.join_messages": self.counts["messages"],
                "overlay.probe_messages": self.counts["probe_messages"],
                "overlay.edges": self.counts["edges"],
            }
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=self.peers / median(self.walls),
            op_ms=[w * 1e3 for w in self.walls],
            digest=self.digest, counts=self.counts, layers=layers,
            notes={"peers": self.peers, "builds": len(self.walls)})
