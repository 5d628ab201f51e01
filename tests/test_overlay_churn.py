"""Integration tests for the churn process driving joins and leaves."""

import pytest

from repro.config import OverlayConfig, TransitStubConfig
from repro.coords.gnp import GNPSystem
from repro.errors import ConfigurationError
from repro.network.topology import generate_transit_stub
from repro.overlay.bootstrap import UtilityBootstrap
from repro.overlay.churn import ChurnConfig, ChurnProcess
from repro.overlay.graph import OverlayNetwork
from repro.overlay.hostcache import HostCacheServer
from repro.overlay.maintenance import MaintenanceDaemon
from repro.overlay.messages import MessageStats
from repro.sim.engine import Simulator
from repro.sim.random import spawn_rng


def build_world(churn_config, seed=0, cache_entries=128):
    simulator = Simulator()
    underlay = generate_transit_stub(
        TransitStubConfig(transit_domains=2, transit_routers_per_domain=2,
                          stub_domains_per_transit=2, routers_per_stub=3),
        spawn_rng(seed, "topo"))
    gnp = GNPSystem()
    gnp.fit_landmarks(underlay, spawn_rng(seed, "lm"))
    space = gnp.make_space()
    overlay = OverlayNetwork()
    cache = HostCacheServer(max_entries=cache_entries,
                            dimensions=space.dimensions,
                            rng=spawn_rng(seed, "hc"))
    stats = MessageStats()
    bootstrap = UtilityBootstrap(
        overlay=overlay, host_cache=cache, rng=spawn_rng(seed, "b"),
        stats=stats)
    maintenance = MaintenanceDaemon(
        simulator=simulator, overlay=overlay, host_cache=cache,
        bootstrap=bootstrap, rng=spawn_rng(seed, "m"),
        config=OverlayConfig(heartbeat_interval_ms=1_000.0,
                             epoch_ms=5_000.0, min_epoch_ms=2_000.0,
                             max_epoch_ms=20_000.0),
        stats=stats)
    churn = ChurnProcess(
        simulator=simulator, underlay=underlay, gnp=gnp, space=space,
        bootstrap=bootstrap, maintenance=maintenance,
        rng=spawn_rng(seed, "churn"), config=churn_config)
    return simulator, overlay, maintenance, churn


def test_joins_arrive_at_configured_rate():
    config = ChurnConfig(join_interarrival_ms=100.0,
                         mean_lifetime_ms=1e9, max_joins=50)
    simulator, overlay, _, churn = build_world(config)
    churn.start()
    simulator.run(until=60_000.0)
    assert len(churn.joined) == 50
    assert overlay.peer_count == 50


def test_lifetimes_cause_departures_and_crashes():
    config = ChurnConfig(join_interarrival_ms=50.0,
                         mean_lifetime_ms=2_000.0,
                         crash_fraction=0.5, max_joins=60)
    simulator, overlay, maintenance, churn = build_world(config)
    churn.start()
    simulator.run(until=120_000.0)
    assert churn.departed, "expected graceful departures"
    assert churn.crashed, "expected crashes"
    assert len(churn.departed) + len(churn.crashed) <= len(churn.joined)


def test_live_network_survives_churn():
    config = ChurnConfig(join_interarrival_ms=100.0,
                         mean_lifetime_ms=8_000.0,
                         crash_fraction=0.4, max_joins=80)
    simulator, overlay, maintenance, churn = build_world(config)
    churn.start()
    simulator.run(until=60_000.0)
    alive = set(maintenance.alive_peers())
    if len(alive) >= 2:
        sizes = overlay.connected_component_sizes()
        assert sizes[0] >= 0.8 * len(alive)


def test_crash_fraction_zero_means_only_departures():
    config = ChurnConfig(join_interarrival_ms=50.0,
                         mean_lifetime_ms=1_000.0,
                         crash_fraction=0.0, max_joins=40)
    simulator, _, _, churn = build_world(config)
    churn.start()
    simulator.run(until=100_000.0)
    assert not churn.crashed
    assert churn.departed


def test_on_join_callback_invoked():
    seen = []
    config = ChurnConfig(join_interarrival_ms=10.0,
                         mean_lifetime_ms=1e9, max_joins=5)
    simulator, _, _, churn = build_world(config)
    churn._on_join = seen.append
    churn.start()
    simulator.run(until=10_000.0)
    assert len(seen) == 5


def test_churn_config_validation():
    with pytest.raises(ConfigurationError):
        ChurnConfig(join_interarrival_ms=0.0)
    with pytest.raises(ConfigurationError):
        ChurnConfig(crash_fraction=1.5)
    with pytest.raises(ConfigurationError):
        ChurnConfig(max_joins=0)
    with pytest.raises(ConfigurationError):
        ChurnConfig(mean_lifetime_ms=-1.0)
