"""Unit tests for the utility-aware join protocol."""

import hashlib
import json

import numpy as np
import pytest

from repro.config import OverlayConfig
from repro.core.overlay_view import SoAOverlayNetwork
from repro.deployment import build_deployment
from repro.overlay.bootstrap import UtilityBootstrap
from repro.overlay.churn import ChurnConfig
from repro.overlay.graph import OverlayNetwork
from repro.overlay.hostcache import HostCacheServer
from repro.overlay.messages import MessageKind, MessageStats
from repro.peers.peer import PeerInfo
from repro.sim.random import spawn_rng

from .test_overlay_churn import build_world


def make_info(peer_id, capacity=10.0, x=None):
    x = float(peer_id) if x is None else x
    return PeerInfo(peer_id=peer_id, capacity=capacity,
                    coordinate=np.array([x, 0.0]))


@pytest.fixture()
def bootstrap():
    overlay = OverlayNetwork()
    cache = HostCacheServer(max_entries=64, dimensions=2,
                            rng=spawn_rng(0, "hc"))
    return UtilityBootstrap(
        overlay=overlay,
        host_cache=cache,
        rng=spawn_rng(0, "proto"),
        stats=MessageStats(),
    )


def grow(bootstrap, count, capacity_fn=lambda i: 10.0):
    results = []
    for i in range(count):
        results.append(bootstrap.join(make_info(i, capacity_fn(i))))
    return results


class TestJoin:
    def test_first_peer_joins_alone(self, bootstrap):
        result = bootstrap.join(make_info(0))
        assert result.degree == 0
        assert 0 in bootstrap.overlay
        assert 0 in bootstrap.host_cache

    def test_second_peer_connects_to_first(self, bootstrap):
        grow(bootstrap, 2)
        assert bootstrap.overlay.has_link(0, 1)

    def test_network_stays_connected(self, bootstrap):
        grow(bootstrap, 60)
        assert bootstrap.overlay.is_connected()

    def test_all_joiners_get_at_least_one_link(self, bootstrap):
        results = grow(bootstrap, 40)
        for result in results[1:]:
            assert result.degree >= 1

    def test_degree_does_not_exceed_target_at_join_time(self, bootstrap):
        results = grow(bootstrap, 40)
        for result in results[1:]:
            assert result.degree <= max(result.target_degree, 1)

    def test_powerful_peers_request_more_links(self, bootstrap):
        config = OverlayConfig()
        assert config.target_degree(10000.0) > config.target_degree(1.0)

    def test_join_messages_recorded(self, bootstrap):
        grow(bootstrap, 10)
        stats = bootstrap.stats
        assert stats.count(MessageKind.HOSTCACHE_QUERY) == 10
        assert stats.count(MessageKind.PROBE) > 0
        assert stats.count(MessageKind.PROBE_RESPONSE) == \
            stats.count(MessageKind.PROBE)
        assert stats.count(MessageKind.CONNECT) >= 9

    def test_back_connect_acks_do_not_exceed_requests(self, bootstrap):
        grow(bootstrap, 30)
        stats = bootstrap.stats
        assert stats.count(MessageKind.BACK_CONNECT_ACK) <= \
            stats.count(MessageKind.BACK_CONNECT_REQUEST)

    def test_resource_level_reflects_capacity_rank(self, bootstrap):
        grow(bootstrap, 30, capacity_fn=lambda i: 10.0)
        weak = bootstrap.join(make_info(100, capacity=1.0))
        strong = bootstrap.join(make_info(101, capacity=10000.0))
        assert weak.resource_level < strong.resource_level

    def test_candidates_seen_grows_with_network(self, bootstrap):
        results = grow(bootstrap, 30)
        assert results[-1].candidates_seen > results[1].candidates_seen


class TestAcquireNeighbors:
    def test_repair_adds_links(self, bootstrap):
        grow(bootstrap, 30)
        info = bootstrap.overlay.peer(5)
        before = bootstrap.overlay.degree(5)
        for neighbor in bootstrap.overlay.neighbors(5):
            bootstrap.overlay.remove_link(5, neighbor)
        added = bootstrap.acquire_neighbors(info, needed=3)
        assert len(added) >= 1
        assert bootstrap.overlay.degree(5) == len(added)
        assert before >= 1

    def test_zero_needed_is_noop(self, bootstrap):
        grow(bootstrap, 10)
        info = bootstrap.overlay.peer(3)
        assert bootstrap.acquire_neighbors(info, 0) == []

    def test_does_not_duplicate_existing_links(self, bootstrap):
        grow(bootstrap, 20)
        info = bootstrap.overlay.peer(4)
        existing = set(bootstrap.overlay.neighbors(4))
        added = bootstrap.acquire_neighbors(info, needed=2)
        assert existing.isdisjoint(added)


class TestTopologyShape:
    def test_powerful_core_emerges(self, bootstrap):
        """Peers with 100x+ capacity end with higher mean degree."""
        rng = spawn_rng(3, "caps")
        capacities = {}

        def capacity_fn(i):
            value = float(rng.choice([1.0, 10.0, 100.0, 1000.0],
                                     p=[0.2, 0.45, 0.3, 0.05]))
            capacities[i] = value
            return value

        grow(bootstrap, 150, capacity_fn)
        degrees = {i: bootstrap.overlay.degree(i) for i in range(150)}
        strong = [degrees[i] for i in range(150) if capacities[i] >= 100.0]
        weak = [degrees[i] for i in range(150) if capacities[i] <= 10.0]
        assert np.mean(strong) > np.mean(weak)


# ----------------------------------------------------------------------
# Same-seed regression.  Every constant below was recorded at the commit
# *before* join moved onto peer columns (scalar ``PeerInfo`` path), so
# a pass means identical edge sets, message ledgers and rng consumption.
# ----------------------------------------------------------------------
def overlay_digest(overlay, stats, *extra) -> str:
    edges = sorted([min(a, b), max(a, b)] for a, b in overlay.edges())
    blob = json.dumps([edges, stats.snapshot(), *extra], sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("seed, expected", [
    (7, "5dca3163d7163baa3ebb81890cbc50352171bb55e1615c8fa052780c5637aa36"),
    (11, "bf438b38227127ae687c0280f46c3d10173522e17f63d5086beeaa6e1f2a6d39"),
    (23, "53249fa3213062fc47b27edaf7542272c1c85e55ec7030b2444a341d1744f449"),
])
def test_build_deployment_digest_unchanged(seed, expected):
    deployment = build_deployment(300, kind="groupcast", seed=seed)
    assert overlay_digest(deployment.overlay, deployment.stats) == expected


def test_churn_world_digest_unchanged():
    """Joins, graceful leaves, crashes found by heartbeats, evictions
    from a 64-entry host cache and ``acquire_neighbors`` repair."""
    simulator, overlay, maintenance, churn = build_world(
        ChurnConfig(join_interarrival_ms=100.0, mean_lifetime_ms=8_000.0,
                    crash_fraction=0.5, max_joins=200),
        seed=5, cache_entries=64)
    churn.start()
    simulator.run(until=18_000.0)
    assert (len(churn.joined), len(churn.crashed), len(churn.departed),
            len(maintenance.repairs)) == (200, 56, 68, 42)
    assert overlay_digest(overlay, maintenance.stats) == \
        "a44a36db808869cd66be3f6337173952946dadaa8e5560605af90f69448e6968"


def test_stale_host_cache_entries_digest_unchanged():
    """Peers that vanish without unregistering stay in the host cache:
    they still take part in ranking (cached quadruplet) but are never
    asked.  Covers ``join`` and ``acquire_neighbors`` with such entries."""
    seed = 3
    rng = spawn_rng(seed, "infos")
    infos = [PeerInfo(i, float(rng.choice([1.0, 10.0, 100.0, 1000.0])),
                      rng.uniform(0.0, 100.0, size=3)) for i in range(120)]
    overlay = OverlayNetwork()
    stats = MessageStats()
    bootstrap = UtilityBootstrap(
        overlay=overlay,
        host_cache=HostCacheServer(max_entries=32, dimensions=3,
                                   rng=spawn_rng(seed, "hc")),
        rng=spawn_rng(seed, "proto"), stats=stats)
    outcomes = []
    for i, info in enumerate(infos):
        result = bootstrap.join(info)
        outcomes.append([list(result.connected), list(result.refused),
                         result.candidates_seen, result.resource_level,
                         result.target_degree])
        if i % 5 == 4:
            overlay.remove_peer(int(rng.choice(overlay.peer_ids())))
        if i % 7 == 6:
            peer = overlay.peer(int(rng.choice(overlay.peer_ids())))
            outcomes.append(bootstrap.acquire_neighbors(peer, 2))
    assert any(entry.peer_id not in overlay
               for entry in bootstrap.host_cache.entries())
    assert overlay_digest(overlay, stats, outcomes) == \
        "7033b7992c647cdd1934be17b11ad2dd7917af26d0450132d3edb98607bc2f92"


def test_joins_run_over_the_array_view():
    """The array-backed container answers everything a join asks of it
    (``iter_neighbors``, ``peer_columns``); its neighbor order differs
    from the set-backed one, so only the outcome's shape is compared."""
    bootstrap = UtilityBootstrap(
        overlay=SoAOverlayNetwork(dims=2),
        host_cache=HostCacheServer(max_entries=64, dimensions=2,
                                   rng=spawn_rng(0, "hc")),
        rng=spawn_rng(0, "proto"), stats=MessageStats())
    results = grow(bootstrap, 60)
    assert bootstrap.overlay.is_connected()
    assert all(result.degree >= 1 for result in results[1:])
