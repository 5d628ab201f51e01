"""Scale smoke tier: a 10^4-peer session run inside hard budgets.

These tests are **excluded from tier-1** (``-m "not scale"`` in the
default addopts) and run in a dedicated CI job (``pytest -m scale``).
They pin the array core's scaling claim, not protocol correctness —
the differential suite does that at seed scale:

* a full advertise → subscribe → disseminate pass over 10^4 peers must
  finish inside a wall-clock budget;
* resident memory must stay inside the documented bytes/peer budget
  (see ``EXPERIMENTS.md``, *Memory budget* knob);
* the kernels must keep their structural invariants at this scale
  (connected flood, all-member trees, finite delays);
* a utility-aware (``kind="groupcast"``) overlay of the same size must
  build inside the same budget at a per-join cost that does not grow.
"""

from __future__ import annotations

import os
import resource
import time

import numpy as np
import pytest

from repro.core import (
    attach_searchers,
    climb_subscriptions,
    edge_latencies_from_coords,
    flood_advertisement,
    synthetic_power_law_csr,
    tree_delays,
)
from repro.core.store import TreeArrays
from repro.deployment import build_deployment
from repro.overlay.bootstrap import UtilityBootstrap
from repro.overlay.graph import OverlayNetwork
from repro.overlay.hostcache import HostCacheServer
from repro.sim.random import spawn_rng

pytestmark = pytest.mark.scale

#: Peers in the smoke run (the benchmark's mid tier).
SCALE_N = 10_000
#: Wall-clock budget for one full session pass, seconds.  Generous on
#: purpose: CI machines are slow and the point is catching quadratic
#: regressions (which overshoot by orders of magnitude), not jitter.
WALL_CLOCK_BUDGET_S = float(os.environ.get("REPRO_SCALE_BUDGET_S", "30"))
#: Resident-set budget for the whole test process, bytes.  The arrays
#: themselves are ~0.5 KiB/peer; the budget leaves room for the
#: interpreter, numpy and pytest overhead.
RSS_BUDGET_BYTES = int(
    os.environ.get("REPRO_SCALE_RSS_BUDGET", str(1_500 * 1024 * 1024)))


def _rss_bytes() -> int:
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB, macOS bytes.
    return usage * 1024 if usage < 1 << 32 else usage


@pytest.fixture(scope="module")
def scale_world():
    rng = spawn_rng(7, "scale-smoke")
    csr = synthetic_power_law_csr(SCALE_N, rng)
    coords = rng.uniform(0.0, 100.0, size=(SCALE_N, 2))
    latency = edge_latencies_from_coords(csr, coords)
    return csr, coords, latency, rng


def test_full_session_pass_inside_wall_clock_budget(scale_world):
    csr, coords, latency, rng = scale_world
    started = time.perf_counter()

    flood = flood_advertisement(csr, latency, root=0, ttl=12)
    members = np.sort(rng.choice(SCALE_N, size=SCALE_N // 20,
                                 replace=False))
    on_tree, is_member = climb_subscriptions(flood, members)
    parent, on_tree, failed = attach_searchers(
        csr, flood, members, on_tree, search_ttl=3)
    delays = tree_delays(parent, on_tree, coords=coords, root=0)

    elapsed = time.perf_counter() - started
    assert elapsed < WALL_CLOCK_BUDGET_S, (
        f"10^4-peer session pass took {elapsed:.1f}s "
        f"(budget {WALL_CLOCK_BUDGET_S:.0f}s)")

    # Structural sanity at scale: the synthetic overlay is connected,
    # so the flood reaches everyone and every member lands on the tree.
    assert flood.reached.all()
    assert failed.size == 0
    assert is_member[members].all()
    assert on_tree[members].all()
    assert np.isfinite(delays[on_tree]).all()
    assert (delays[~on_tree] == np.inf).all()


def test_ssa_flood_at_scale(scale_world):
    csr, coords, latency, rng = scale_world
    capacities = rng.choice([1.0, 10.0, 100.0, 1000.0], size=SCALE_N)
    started = time.perf_counter()
    flood = flood_advertisement(
        csr, latency, root=0, ttl=12, scheme="ssa",
        capacities=capacities, rng=spawn_rng(7, "scale-ssa"))
    elapsed = time.perf_counter() - started
    assert elapsed < WALL_CLOCK_BUDGET_S
    # Selective forwarding still reaches a substantial fraction of a
    # connected overlay, without flooding every edge.
    assert SCALE_N // 4 < flood.receipt_count() < SCALE_N


def test_tree_columns_support_scale_repair(scale_world):
    csr, coords, latency, rng = scale_world
    flood = flood_advertisement(csr, latency, root=0, ttl=12)
    members = np.sort(rng.choice(SCALE_N, size=SCALE_N // 20,
                                 replace=False))
    on_tree, is_member = climb_subscriptions(flood, members)
    tree = TreeArrays(SCALE_N, root=0)
    rows = np.nonzero(on_tree)[0]
    rows = rows[rows != 0]
    tree.parent[rows] = flood.upstream[rows]
    tree.on_tree[rows] = True
    tree.is_member[np.nonzero(is_member)[0]] = True
    tree.validate()

    alive = np.ones(SCALE_N, dtype=bool)
    victims = rng.choice(rows, size=200, replace=False)
    alive[victims] = False
    started = time.perf_counter()
    detached = tree.repair_dangling(alive)
    elapsed = time.perf_counter() - started
    assert elapsed < WALL_CLOCK_BUDGET_S
    assert tree.dangling_rows(alive).size == 0
    assert detached.size >= victims.size - np.count_nonzero(
        ~tree.on_tree[victims])


def test_resident_memory_inside_budget(scale_world):
    csr, coords, latency, _ = scale_world
    per_peer = (csr.nbytes() + coords.nbytes + latency.nbytes) / SCALE_N
    # The documented array budget: well under a KiB per peer for
    # adjacency + coordinates + per-edge latencies at average degree
    # ~2*min_degree.  A peer *object* graph costs two orders more.
    assert per_peer < 1024, f"{per_peer:.0f} B/peer exceeds budget"
    rss = _rss_bytes()
    assert rss < RSS_BUDGET_BYTES, (
        f"RSS {rss / 1e6:.0f} MB exceeds budget "
        f"{RSS_BUDGET_BYTES / 1e6:.0f} MB")


def test_groupcast_build_at_scale():
    """The paper's own overlay construction at 10^4 peers: inside the
    budget, connected, nobody linkless — and per-join cost flat in the
    overlay size, which the bounded host cache is there to guarantee (a
    per-join O(n) term fails the ratio by an order of magnitude)."""
    started = time.perf_counter()
    deployment = build_deployment(SCALE_N, kind="groupcast", seed=7)
    elapsed = time.perf_counter() - started
    assert elapsed < WALL_CLOCK_BUDGET_S, (
        f"10^4-peer GroupCast build took {elapsed:.1f}s "
        f"(budget {WALL_CLOCK_BUDGET_S:.0f}s)")
    overlay = deployment.overlay
    assert overlay.peer_count == SCALE_N
    assert overlay.is_connected()
    assert int(overlay.degrees().min()) >= 1

    rejoin = UtilityBootstrap(
        overlay=OverlayNetwork(),
        host_cache=HostCacheServer(
            max_entries=1024, dimensions=deployment.space.dimensions,
            rng=spawn_rng(7, "hostcache")),
        rng=spawn_rng(7, "protocol"),
        overlay_config=deployment.config.overlay,
        utility_config=deployment.config.utility)
    walls = []
    for info in overlay.peers():
        join_started = time.perf_counter()
        rejoin.join(info)
        walls.append(time.perf_counter() - join_started)
    assert sorted(rejoin.overlay.edges()) == sorted(overlay.edges())
    early, late = sum(walls[2_000:3_000]), sum(walls[-1_000:])
    assert late <= 2.0 * early, (
        f"last 1000 joins took {late:.2f}s, joins 2000-3000 {early:.2f}s")
