"""Differential equivalence: object overlay vs struct-of-arrays core.

The scale refactor's contract is that the array backend is *observably
indistinguishable* from the object backend at seed scale:

* :class:`~repro.core.overlay_view.SoAOverlayNetwork` snapshotted from
  an object overlay replays every iteration order, statistic and rng
  draw bit-for-bit;
* full event-driven sessions (SSA and NSSA, and all three recovery
  policies under a fault schedule) produce **identical trace digests**,
  conservation gaps and tree state over either backend;
* the vectorized NSSA flood of :mod:`repro.core.protocol` reproduces
  the procedural heap simulation receipt-for-receipt.

A digest mismatch here means the array path diverged from the pinned
protocol behavior — that is a bug, not an acceptable approximation.
"""

from __future__ import annotations

import hashlib
from collections import Counter

import numpy as np
import pytest

from repro.config import AnnouncementConfig, GroupCastConfig
from repro.core import (
    SoAOverlayNetwork,
    flood_advertisement,
    flood_advertisements_batch,
)
from repro.deployment import Deployment, build_deployment
from repro.experiments.resilience import (
    POLICIES,
    _publish_if_alive,
    _reset_branch,
)
from repro.faults import CrashEvent, FaultInjector, FaultPlan, FaultWindow
from repro.groupcast.advertisement import propagate_advertisement
from repro.groupcast.session import GroupSession
from repro.groupcast.subscription import subscribe_members
from repro.metrics import (
    node_stress,
    node_stress_arrays,
    overload_index,
    overload_index_arrays,
)
from repro.obs.registry import Registry
from repro.obs.tracer import Tracer
from repro.sim.random import spawn_rng

from .conftest import SMALL_CONFIG

SEED = 42
GROUP = 1
ANNOUNCEMENT = AnnouncementConfig(advertisement_ttl=7,
                                  subscription_search_ttl=3)
#: sha256 over arrival + upstream + hops of the single-group SSA flood
#: in ``test_vectorized_ssa_flood_is_deterministic``, recorded at the
#: commit before SSA sampling became one segmented pass per epoch cell.
SSA_FLOOD_DIGEST = (
    "f3b0190e0ad18b86f4466c676fec25aa27899cc6ea14c4fedc1d032a4b5a24c4")


def _view(deployment: Deployment) -> SoAOverlayNetwork:
    return SoAOverlayNetwork.from_overlay(deployment.overlay)


# ----------------------------------------------------------------------
# Overlay view: every observable matches the object graph
# ----------------------------------------------------------------------
class TestOverlayViewEquivalence:
    def test_structure_is_identical(self, groupcast_deployment):
        overlay = groupcast_deployment.overlay
        view = _view(groupcast_deployment)
        assert view.peer_ids() == overlay.peer_ids()
        assert len(view) == len(overlay)
        assert view.edge_count == overlay.edge_count
        for peer in overlay.peer_ids():
            assert view.neighbors(peer) == overlay.neighbors(peer)
            assert view.degree(peer) == overlay.degree(peer)
            assert view.peer(peer) == overlay.peer(peer)
        assert sorted(view.edges()) == sorted(overlay.edges())

    def test_statistics_match_bit_for_bit(self, groupcast_deployment):
        overlay = groupcast_deployment.overlay
        view = _view(groupcast_deployment)
        assert np.array_equal(view.degrees(), overlay.degrees())
        values_a, counts_a = overlay.degree_distribution()
        values_b, counts_b = view.degree_distribution()
        assert np.array_equal(values_a, values_b)
        assert np.array_equal(counts_a, counts_b)
        assert (view.clustering_coefficient()
                == overlay.clustering_coefficient())
        assert (view.connected_component_sizes()
                == overlay.connected_component_sizes())
        assert view.is_connected() == overlay.is_connected()
        start = overlay.peer_ids()[3]
        assert (view.hop_distances_from(start)
                == overlay.hop_distances_from(start))

    def test_sampled_statistics_consume_identical_rng(
            self, groupcast_deployment):
        overlay = groupcast_deployment.overlay
        view = _view(groupcast_deployment)
        assert (overlay.clustering_coefficient(spawn_rng(SEED, "cc"), 40)
                == view.clustering_coefficient(spawn_rng(SEED, "cc"), 40))
        assert (overlay.estimated_diameter(spawn_rng(SEED, "diam"), 8)
                == view.estimated_diameter(spawn_rng(SEED, "diam"), 8))

    def test_mutations_track_the_object_graph(self):
        deployment = build_deployment(120, kind="groupcast",
                                      config=SMALL_CONFIG)
        overlay = deployment.overlay
        view = _view(deployment)
        ids = overlay.peer_ids()
        # Removals preserve the surviving neighbor order in both
        # backends; link re-addition is excluded from the equivalence
        # contract (set slot reuse vs list append diverges).
        for victim in (ids[7], ids[31], ids[64]):
            overlay.remove_peer(victim)
            view.remove_peer(victim)
        a, b = ids[3], ids[90]
        if overlay.has_link(a, b):
            overlay.remove_link(a, b)
            view.remove_link(a, b)
        assert view.peer_ids() == overlay.peer_ids()
        for peer in overlay.peer_ids():
            assert view.neighbors(peer) == overlay.neighbors(peer)
        assert view.edge_count == overlay.edge_count


# ----------------------------------------------------------------------
# Full sessions: identical digests over either backend
# ----------------------------------------------------------------------
def _run_session(overlay, deployment: Deployment, scheme: str,
                 policy: str, members_count: int = 30):
    """One fault-schedule session; returns its full observable state.

    The fault plan deliberately has **no partition**: partition heal
    re-adds overlay links, whose position differs between a Python set
    (slot reuse) and the pooled array rows (append) — the one documented
    place the backends may diverge.  Crashes, restarts, drops,
    duplicates and reorder windows never touch overlay adjacency.
    """
    registry = Registry()
    tracer = Tracer()
    session = GroupSession(
        overlay, deployment.peer_distance_ms,
        spawn_rng(SEED, "soa-session"), announcement=ANNOUNCEMENT,
        utility=deployment.config.utility, registry=registry,
        tracer=tracer)
    member_rng = spawn_rng(SEED, "soa-members")
    ids = deployment.peer_ids()
    picks = member_rng.choice(len(ids), size=members_count, replace=False)
    members = [ids[int(i)] for i in picks]
    rendezvous = members[0]
    session.establish(GROUP, rendezvous, members, scheme)

    t0 = session.simulator.now
    interior = [peer for peer in sorted(session.nodes)
                if peer != rendezvous
                and session.upstream_children(GROUP, peer)]
    victims = interior[:2]
    span = 2_000.0
    plan = FaultPlan(
        windows=(
            FaultWindow("drop", t0, t0 + span / 4, 0.08),
            FaultWindow("duplicate", t0 + span / 4, t0 + span / 2,
                        0.15, magnitude_ms=3.0),
            FaultWindow("reorder", t0 + span / 2, t0 + span,
                        0.2, magnitude_ms=5.0),
        ),
        crashes=tuple(
            CrashEvent(t0 + span * (0.2 + 0.3 * i), victim,
                       restart_at_ms=t0 + span * 0.9 if i == 0 else None)
            for i, victim in enumerate(victims)),
    )
    injector = FaultInjector(plan, spawn_rng(SEED, "soa-faults"),
                             registry, tracer)
    injector.attach(session.network)
    backups = session.backup_parents(GROUP)

    def on_crash(victim: int) -> None:
        orphans = sorted(session.upstream_children(GROUP, victim))
        session.crash_peer(victim)
        if policy == "replication":
            for orphan in orphans:
                backup = backups.get(orphan)
                if backup is None or not session.failover_upstream(
                        GROUP, orphan, backup):
                    _reset_branch(session, GROUP, [orphan])
        elif policy == "repair":
            _reset_branch(session, GROUP, orphans)

    def on_restart(peer_id: int) -> None:
        if peer_id in overlay:
            session.restart_peer(peer_id)

    injector.arm(session.simulator, overlay=overlay,
                 on_crash=on_crash, on_restart=on_restart)

    if policy != "none":
        def sweep() -> None:
            broken = session.broken_upstream_peers(GROUP)
            if broken:
                _reset_branch(session, GROUP, broken)

        session.simulator.every(span / 8, sweep)

    for index in range(4):
        payload_id = next(session._payload_ids)
        session.simulator.schedule_at(
            t0 + (index + 0.5) * span / 4,
            lambda p=payload_id: _publish_if_alive(
                session, GROUP, rendezvous, p))
    session.simulator.run()

    view = session.tree_view(GROUP)
    fanout = Counter(
        int(upstream) for upstream, on in
        zip(view.upstream_id, view.on_tree) if on and upstream >= 0)
    return {
        "digest": tracer.trace_digest(),
        "conservation_gap": session.network.conservation_gap(),
        "members_on_tree": sorted(session.members_on_tree(GROUP)),
        "fanout": dict(fanout),
        "deliveries": {
            key: sorted(delivered.items())
            for key, delivered in sorted(session.deliveries.items())},
        "events": session.simulator.events_processed,
    }


@pytest.mark.slow
@pytest.mark.parametrize("scheme", ["ssa", "nssa"])
def test_session_digest_identical_across_backends(scheme):
    deployment = build_deployment(150, kind="groupcast",
                                  config=SMALL_CONFIG)
    view = _view(deployment)
    object_run = _run_session(deployment.overlay, deployment, scheme,
                              "none")
    array_run = _run_session(view, deployment, scheme, "none")
    assert object_run == array_run
    assert object_run["conservation_gap"] == 0


@pytest.mark.slow
@pytest.mark.parametrize("policy", POLICIES)
def test_recovery_policies_identical_across_backends(policy):
    deployment = build_deployment(150, kind="groupcast",
                                  config=SMALL_CONFIG)
    view = _view(deployment)
    object_run = _run_session(deployment.overlay, deployment, "ssa",
                              policy)
    array_run = _run_session(view, deployment, "ssa", policy)
    assert object_run == array_run
    assert object_run["conservation_gap"] == 0


# ----------------------------------------------------------------------
# Vectorized flood vs procedural heap simulation
# ----------------------------------------------------------------------
def _exact_edge_latencies(csr, store, deployment: Deployment):
    sources = csr.edge_sources()
    return np.fromiter(
        (deployment.peer_distance_ms(store.id_of(int(sources[edge])),
                                     store.id_of(int(csr.indices[edge])))
         for edge in range(csr.indices.shape[0])),
        dtype=np.float64, count=csr.indices.shape[0])


@pytest.mark.parametrize("ttl", [2, 4, 7])
def test_vectorized_nssa_flood_matches_heap_simulation(
        groupcast_deployment, ttl):
    """Every row of one batched flood equals its own heap simulation."""
    deployment = groupcast_deployment
    overlay = deployment.overlay
    rendezvous = [overlay.peer_ids()[i] for i in (5, 60, 200)]
    view = _view(deployment)
    csr, store = view.csr(), view.store
    latency = _exact_edge_latencies(csr, store, deployment)
    flood = flood_advertisements_batch(
        csr, latency, np.array([store.row_of(r) for r in rendezvous]), ttl)

    for g, root in enumerate(rendezvous):
        outcome = propagate_advertisement(
            overlay, root, GROUP, "nssa", deployment.peer_distance_ms,
            spawn_rng(SEED, "flood"),
            config=AnnouncementConfig(advertisement_ttl=ttl))
        assert flood.receipt_counts()[g] == len(outcome.receipts)
        for peer, receipt in outcome.receipts.items():
            row = store.row_of(peer)
            assert flood.arrival[g, row] == receipt.elapsed_ms
            assert flood.hops[g, row] == receipt.hops
            upstream = (None if flood.upstream[g, row] < 0
                        else store.id_of(int(flood.upstream[g, row])))
            assert upstream == receipt.upstream


def test_vectorized_ssa_flood_is_deterministic(groupcast_deployment):
    view = _view(groupcast_deployment)
    csr, store = view.csr(), view.store
    latency = _exact_edge_latencies(csr, store, groupcast_deployment)
    capacities = store.peers.capacity[: store.row_count]
    runs = [
        flood_advertisement(
            csr, latency, root=0, ttl=6, scheme="ssa",
            capacities=capacities, rng=spawn_rng(SEED, "ssa-flood"))
        for _ in range(2)
    ]
    assert np.array_equal(runs[0].arrival, runs[1].arrival)
    assert np.array_equal(runs[0].upstream, runs[1].upstream)
    # A selective flood must actually be selective.
    assert 0 < runs[0].receipt_count() <= csr.node_count
    # Repeatability cannot see a change of the draw order itself: pin it.
    digest = hashlib.sha256()
    for column in (runs[0].arrival, runs[0].upstream, runs[0].hops):
        digest.update(np.ascontiguousarray(column).tobytes())
    assert digest.hexdigest() == SSA_FLOOD_DIGEST


# ----------------------------------------------------------------------
# Tree interop: SpanningTree <-> TreeArrays and metric fast paths
# ----------------------------------------------------------------------
def _procedural_tree(deployment: Deployment):
    overlay = deployment.overlay
    ids = overlay.peer_ids()
    rng = spawn_rng(SEED, "tree")
    picks = rng.choice(len(ids), size=40, replace=False)
    members = [ids[int(i)] for i in picks]
    advertisement = propagate_advertisement(
        overlay, members[0], GROUP, "ssa", deployment.peer_distance_ms,
        rng, ANNOUNCEMENT, deployment.config.utility)
    tree, _ = subscribe_members(
        overlay, advertisement, members, deployment.peer_distance_ms,
        ANNOUNCEMENT)
    return tree


def test_spanning_tree_array_round_trip(groupcast_deployment):
    tree = _procedural_tree(groupcast_deployment)
    view = _view(groupcast_deployment)
    store = view.store
    arrays = tree.to_arrays(store._live, rows=store.row_count)
    arrays.validate()
    rebuilt = type(tree).from_arrays(arrays, store._id_of)
    assert rebuilt.root == tree.root
    assert set(rebuilt.nodes()) == set(tree.nodes())
    assert rebuilt.members == tree.members
    for node in tree.nodes():
        assert rebuilt.parent(node) == tree.parent(node)
        assert set(rebuilt.children(node)) == set(tree.children(node))

    depth = arrays.depths()
    assert depth[store.row_of(tree.root)] == 0
    assert arrays.height() == max(
        len(tree.path_to_root(node)) - 1 for node in tree.nodes())


def test_metric_fast_paths_match_object_metrics(groupcast_deployment):
    tree = _procedural_tree(groupcast_deployment)
    view = _view(groupcast_deployment)
    store = view.store
    arrays = tree.to_arrays(store._live, rows=store.row_count)
    assert node_stress_arrays([arrays]) == pytest.approx(
        node_stress([tree]))
    workloads = {peer: fanout
                 for peer, fanout in tree.workloads().items() if fanout}
    capacities = {peer: groupcast_deployment.overlay.peer(peer).capacity
                  for peer in workloads}
    dense_load = np.zeros(store.row_count, dtype=np.int64)
    dense_cap = store.peers.capacity[: store.row_count]
    for peer, fanout in workloads.items():
        dense_load[store.row_of(peer)] = fanout
    assert overload_index_arrays(
        dense_load, dense_cap, capacity_scale=0.01) == pytest.approx(
        overload_index(workloads, capacities, capacity_scale=0.01))
