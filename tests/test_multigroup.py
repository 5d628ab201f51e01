"""Differential suite for the multi-group batch core.

Pins the contracts the batched kernels and the sharded executor are
built on (``repro.core.multigroup`` / ``repro.core.parallel``):

* results are independent of batch composition — one batch, a loop of
  one-group batches and any slicing merged in group order agree digest
  for digest (NSSA and SSA);
* the sharded executor produces identical merged metrics and digests
  for every ``shards``/``jobs`` combination, including the inline path;
* the SSA draw sequence is pinned (a constant recorded before the
  sampler served all groups per cell; the differentials above cannot
  see a change both sides share) and the per-link preferences it ranks
  by are the procedural Eq. 1-5 helpers' row for row;
* the climb kernel builds the tree the procedural ``subscribe_members``
  walk builds, and the bulk ``edge_latencies`` gather matches the
  per-edge loop.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro.core
from repro.config import SSA_STRATEGIES, AnnouncementConfig, UtilityConfig
from repro.core import (
    BatchFloodResult,
    CSRGraph,
    SoAOverlayNetwork,
    climb_subscriptions_batch,
    edge_latencies_from_coords,
    flood_advertisements_batch,
    pack_members,
    run_group_pass,
    run_group_pass_loop,
    run_sharded,
    merge_results,
    shard_bounds,
    synthetic_power_law_csr,
)
from repro.core.multigroup import _ssa_link_preferences
from repro.errors import GroupError
from repro.groupcast.advertisement import propagate_advertisement
from repro.groupcast.subscription import subscribe_members
from repro.obs.registry import (
    NULL_REGISTRY,
    Registry,
    enable_telemetry,
    set_default_registry,
)
from repro.overlay.messages import MessageStats
from repro.sim.engine import Simulator
from repro.sim.messaging import MessageNetwork
from repro.sim.random import spawn_rng
from repro.utility.preference import selection_preference
from repro.utility.resource_level import estimate_resource_level
from repro.workloads.groups import sample_group_rows

SRC = Path(repro.core.__file__).resolve().parents[2]
SEED = 7
N = 400
GROUPS = 24
TTL = 8
#: ``merged_digest()`` of the SSA pass over ``world``, recorded at the
#: commit before SSA sampling became one segmented pass per epoch cell.
SSA_PASS_DIGEST = (
    "52c9ec00b6d8fab768e1e5c9d050cc4d6ae7105285512e587836e31c329a2821")


@pytest.fixture(scope="module")
def world():
    rng = spawn_rng(SEED, "multigroup-world")
    csr = synthetic_power_law_csr(N, rng)
    coords = rng.uniform(0.0, 100.0, size=(N, 2))
    latency = edge_latencies_from_coords(csr, coords)
    capacities = rng.choice([1.0, 10.0, 100.0, 1000.0], size=N)
    roots, member_rows, indptr = sample_group_rows(
        spawn_rng(SEED, "multigroup-groups"), GROUPS, N, max_size=64)
    return csr, coords, latency, capacities, roots, member_rows, indptr


def _pass_kwargs(world, scheme):
    csr, coords, latency, capacities, roots, member_rows, indptr = world
    kwargs = dict(ttl=TTL, scheme=scheme)
    if scheme == "ssa":
        kwargs.update(capacities=capacities, ssa_seed=SEED)
    return (csr, latency, coords, roots, member_rows, indptr), kwargs


# ----------------------------------------------------------------------
# One batch vs a loop of one-group batches
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["nssa", "ssa"])
def test_batched_pass_matches_per_group_loop(world, scheme):
    args, kwargs = _pass_kwargs(world, scheme)
    batched = run_group_pass(*args, **kwargs)
    loop = run_group_pass_loop(*args, **kwargs)
    assert np.array_equal(batched.digests, loop.digests)
    assert batched.metrics() == loop.metrics()


def test_batch_composition_invariance(world):
    """Any slicing of the group set reproduces the full batch exactly."""
    args, kwargs = _pass_kwargs(world, "ssa")
    csr, latency, coords, roots, member_rows, indptr = args
    full = run_group_pass(*args, **kwargs)
    cut = GROUPS // 3
    parts = []
    for lo, hi in ((0, cut), (cut, GROUPS)):
        parts.append(run_group_pass(
            csr, latency, coords, roots[lo:hi],
            member_rows[indptr[lo]:indptr[hi]],
            indptr[lo:hi + 1] - indptr[lo],
            group_offset=lo, **kwargs))
    merged = merge_results(parts)
    assert np.array_equal(full.digests, merged.digests)
    assert full.metrics() == merged.metrics()


# ----------------------------------------------------------------------
# SSA sampling: pinned draw sequence, spec preferences, input checks
# ----------------------------------------------------------------------
def test_ssa_pass_digest_is_pinned(world):
    args, kwargs = _pass_kwargs(world, "ssa")
    assert run_group_pass(*args, **kwargs).merged_digest() == \
        SSA_PASS_DIGEST


def test_ssa_link_preferences_match_spec(groupcast_deployment):
    """Every row's slice of the hoisted per-edge preference is the
    procedural Eq. 1-5 vector over that row's neighbors."""
    view = SoAOverlayNetwork.from_overlay(groupcast_deployment.overlay)
    snapshot = view.csr()
    n = snapshot.node_count
    # Strip one mid-table row of its links: segmented reductions must
    # step over an empty segment without shifting its neighbors'.
    lone = n // 2
    src, dst = snapshot.edge_sources(), snapshot.indices
    keep = (src < dst) & (src != lone) & (dst != lone)
    csr = CSRGraph.from_edges(n, src[keep], dst[keep])
    degree = csr.degrees()
    assert degree[lone] == 0 and degree.max() > 0
    capacities = np.asarray(view.store.peers.capacity[:n], dtype=float)
    latency = edge_latencies_from_coords(csr, view.store.peers.coords[:n])
    config, utility = AnnouncementConfig(), UtilityConfig()
    preference, fanout = _ssa_link_preferences(
        csr, latency, capacities, degree, config, utility)
    assert preference.shape == latency.shape
    for row in range(n):
        lo, hi = csr.indptr[row], csr.indptr[row + 1]
        k = int(hi - lo)
        expected_fanout = 0
        if k:
            neighbor_caps = capacities[csr.neighbors(row)]
            expected = selection_preference(
                neighbor_caps, latency[lo:hi],
                estimate_resource_level(capacities[row], neighbor_caps,
                                        utility), utility)
            # atol: near r = max_resource_level, 1 - gamma cancels to
            # ~1e-6 and carries math.log/np.log's last-ulp difference.
            np.testing.assert_allclose(preference[lo:hi], expected,
                                       rtol=1e-12, atol=1e-15)
            assert preference[lo:hi].sum() == pytest.approx(1.0, abs=1e-12)
            expected_fanout = min(max(
                config.ssa_min_fanout,
                int(round(config.ssa_fanout_fraction * k))), k)
        assert fanout[row] == expected_fanout


def test_ssa_ttl_zero_reaches_only_roots_without_draws(world):
    csr, coords, latency, capacities, roots, _, _ = world
    rngs = [spawn_rng(SEED, "ttl0", g) for g in range(3)]
    before = [rng.bit_generator.state for rng in rngs]
    flood = flood_advertisements_batch(
        csr, latency, roots[:3], 0, "ssa", capacities=capacities,
        rngs=rngs)
    assert np.array_equal(flood.receipt_counts(), [1, 1, 1])
    assert np.array_equal(np.nonzero(flood.reached)[1], roots[:3])
    assert [rng.bit_generator.state for rng in rngs] == before


@pytest.mark.parametrize("strategy", SSA_STRATEGIES)
def test_ssa_kernel_refuses_strategies_it_does_not_implement(
        world, strategy):
    csr, coords, latency, capacities, roots, _, _ = world

    def flood():
        return flood_advertisements_batch(
            csr, latency, roots[:2], TTL, "ssa", capacities=capacities,
            rngs=[spawn_rng(SEED, "strategy", g) for g in range(2)],
            config=AnnouncementConfig(ssa_strategy=strategy))

    if strategy == "utility":
        assert (flood().receipt_counts() > 1).all()
    else:
        with pytest.raises(GroupError, match=strategy):
            flood()


@pytest.mark.parametrize("rows", [N - 1, N + 1], ids=["short", "long"])
def test_ssa_kernel_rejects_misshapen_capacities(world, rows):
    csr, coords, latency, capacities, roots, _, _ = world
    with pytest.raises(GroupError, match="capacity"):
        flood_advertisements_batch(
            csr, latency, roots[:2], TTL, "ssa",
            capacities=np.resize(capacities, rows),
            rngs=[spawn_rng(SEED, "shape", g) for g in range(2)])


# ----------------------------------------------------------------------
# Sharded executor: identical output for every shards/jobs combination
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["nssa", "ssa"])
def test_sharded_output_independent_of_jobs(world, scheme):
    args, kwargs = _pass_kwargs(world, scheme)
    reference = run_group_pass_loop(*args, **kwargs)
    for shards in (1, 3, 4):
        for jobs in (1, 2, 4):
            result = run_sharded(*args, shards=shards, jobs=jobs,
                                 **kwargs)
            assert np.array_equal(result.digests, reference.digests), (
                f"shards={shards} jobs={jobs}")
            assert result.metrics() == reference.metrics()


@pytest.mark.parametrize("scheme", ["nssa", "ssa"])
def test_sharded_telemetry_independent_of_jobs(world, scheme):
    """With telemetry on, shards run under per-point registries that
    fold back in shard order, inline and across the pool alike."""
    args, kwargs = _pass_kwargs(world, scheme)
    digests, states = [], []
    for jobs in (1, 2):
        registry = enable_telemetry()
        try:
            result = run_sharded(*args, shards=3, jobs=jobs, **kwargs)
            states.append(registry.dump_state())
        finally:
            set_default_registry(NULL_REGISTRY)
        digests.append(result.merged_digest())
    assert digests[0] == digests[1] == \
        run_group_pass_loop(*args, **kwargs).merged_digest()
    assert states[0] == states[1]


def test_shard_bounds_cover_and_balance():
    bounds = shard_bounds(10, 4)
    assert bounds[0][0] == 0 and bounds[-1][1] == 10
    assert all(lo < hi for lo, hi in bounds)
    assert all(bounds[i][1] == bounds[i + 1][0]
               for i in range(len(bounds) - 1))
    sizes = [hi - lo for lo, hi in bounds]
    assert max(sizes) - min(sizes) <= 1
    # More shards than groups collapses to one group per shard.
    assert len(shard_bounds(3, 16)) == 3
    with pytest.raises(GroupError):
        shard_bounds(0, 4)


def test_pack_members_ragged():
    rows, indptr = pack_members(
        [np.array([3, 1]), np.array([], dtype=np.int64), np.array([7])])
    assert np.array_equal(rows, [3, 1, 7])
    assert np.array_equal(indptr, [0, 2, 2, 3])


@pytest.mark.parametrize("rows, indptr", [
    ([5, -1, 7], [0, 1, 3]),       # -1 in group 1 is group 0's last row
    ([5, N, 7], [0, 1, 3]),
    ([5, 6, 7], [0, 1, 2]),        # indptr stops short of the rows
], ids=["negative", "too-large", "short-indptr"])
def test_climb_rejects_bad_member_rows(world, rows, indptr):
    csr, coords, latency, capacities, roots, member_rows, _ = world
    flood = flood_advertisements_batch(csr, latency, roots[:2], TTL)
    with pytest.raises(GroupError):
        climb_subscriptions_batch(flood, np.array(rows), np.array(indptr))


# ----------------------------------------------------------------------
# Climb kernel vs the procedural subscribe_members walk
# ----------------------------------------------------------------------
@pytest.mark.parametrize("scheme", ["nssa", "ssa"])
def test_subscription_kernel_matches_procedural(groupcast_deployment,
                                                scheme):
    deployment = groupcast_deployment
    view = SoAOverlayNetwork.from_overlay(deployment.overlay)
    ids = view.peer_ids()
    row_of = {peer: view.store.row_of(peer) for peer in ids}
    n = view.store.row_count
    # Two groups in one batch; every member holds the advertisement.
    trees, members = [], []
    arrival = np.full((2, n), np.inf)
    upstream = np.full((2, n), -1, dtype=np.int64)
    for g, rendezvous in enumerate((ids[3], ids[40])):
        advertisement = propagate_advertisement(
            view, rendezvous, 42 + g, scheme, deployment.peer_distance_ms,
            spawn_rng(SEED, "sub-ad", g),
            AnnouncementConfig(advertisement_ttl=6),
            deployment.config.utility)
        for peer, receipt in advertisement.receipts.items():
            arrival[g, row_of[peer]] = receipt.elapsed_ms
            if receipt.upstream is not None:
                upstream[g, row_of[peer]] = row_of[receipt.upstream]
        holders = [p for p in ids if p in advertisement.receipts][:30]
        tree, outcome = subscribe_members(
            view, advertisement, holders, deployment.peer_distance_ms,
            stats=MessageStats(), registry=Registry())
        assert not outcome.failed
        trees.append(tree.to_arrays(row_of, rows=n))
        members.append([row_of[p] for p in holders])
    flood = BatchFloodResult(
        roots=np.array([tree.root for tree in trees]), arrival=arrival,
        upstream=upstream, hops=np.zeros((2, n), dtype=np.int64))
    on_tree, is_member = climb_subscriptions_batch(
        flood, *pack_members(members))
    for g, tree in enumerate(trees):
        assert np.array_equal(on_tree[g], tree.on_tree)
        assert np.array_equal(np.where(on_tree[g], upstream[g], -1),
                              tree.parent)
        # SpanningTree always counts its root as a member.
        assert np.array_equal(is_member[g] | (np.arange(n) == tree.root),
                              tree.is_member)


# ----------------------------------------------------------------------
# Package surface
# ----------------------------------------------------------------------
def test_core_exports_resolve():
    for name in repro.core.__all__:
        assert hasattr(repro.core, name), name


@pytest.mark.parametrize("module", ["repro.core.protocol",
                                    "repro.core.multigroup"])
def test_kernel_modules_import_first(module):
    """Either kernel module imports in a fresh interpreter (no cycle)."""
    subprocess.run([sys.executable, "-c", f"import {module}"], check=True,
                   env={**os.environ, "PYTHONPATH": str(SRC)})


def test_core_imports_no_experiments():
    """``repro.core`` sits below ``repro.experiments``: importing it in a
    fresh interpreter loads no experiments module."""
    probe = ("import sys, repro.core; print(sorted(m for m in sys.modules "
             "if m.startswith('repro.experiments')))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(SRC)})
    assert out.stdout.strip() == "[]"


# ----------------------------------------------------------------------
# Bulk edge-latency gather vs the per-edge loop
# ----------------------------------------------------------------------
def test_edge_latencies_bulk_matches_scalar(groupcast_deployment):
    deployment = groupcast_deployment
    view = SoAOverlayNetwork.from_overlay(deployment.overlay)
    csr = view.csr()
    ids = np.fromiter((view.store.id_of(row)
                       for row in range(view.store.row_count)),
                      dtype=np.int64, count=view.store.row_count)
    simulator = Simulator()
    bulk = MessageNetwork(simulator, deployment.peer_distance_ms,
                          spawn_rng(SEED, "net"))
    assert bulk.bulk_latency_fn is not None  # auto-derived from the owner
    scalar = MessageNetwork(
        simulator, lambda a, b: deployment.peer_distance_ms(a, b),
        spawn_rng(SEED, "net"))
    assert scalar.bulk_latency_fn is None
    assert np.array_equal(bulk.edge_latencies(csr, ids),
                          scalar.edge_latencies(csr, ids))


# ----------------------------------------------------------------------
# Dimensional telemetry columns (depth + per-group delay sketch rows)
# ----------------------------------------------------------------------
def _dims_layout():
    from repro.obs import DEFAULT_SKETCH_LAYOUT
    return DEFAULT_SKETCH_LAYOUT


@pytest.mark.parametrize("scheme", ["nssa", "ssa"])
def test_dims_columns_batch_match_loop(world, scheme):
    args, kwargs = _pass_kwargs(world, scheme)
    layout = _dims_layout()
    batched = run_group_pass(*args, dims_layout=layout, **kwargs)
    loop = run_group_pass_loop(*args, dims_layout=layout, **kwargs)
    assert np.array_equal(batched.delay_cells, loop.delay_cells)
    assert np.array_equal(batched.depth, loop.depth)
    assert batched.delay_cells.shape == (GROUPS, layout.cells)


def test_dims_columns_sharded_bit_identical(world):
    args, kwargs = _pass_kwargs(world, "nssa")
    layout = _dims_layout()
    reference = run_group_pass(*args, dims_layout=layout, **kwargs)
    for shards, jobs in ((1, 1), (3, 1), (3, 2), (4, 4)):
        result = run_sharded(*args, shards=shards, jobs=jobs,
                             dims_layout=layout, **kwargs)
        assert result.delay_cells.tobytes() == \
            reference.delay_cells.tobytes(), f"{shards=} {jobs=}"
        assert np.array_equal(result.depth, reference.depth)


def test_dims_columns_are_digest_transparent(world):
    args, kwargs = _pass_kwargs(world, "nssa")
    with_dims = run_group_pass(*args, dims_layout=_dims_layout(),
                               **kwargs)
    without = run_group_pass(*args, **kwargs)
    assert with_dims.merged_digest() == without.merged_digest()
    # Dims off: a (n_groups, 0) placeholder, not a missing column.
    assert without.delay_cells.shape == (GROUPS, 0)
    # Depth is always on (one segmented max), dims or not.
    assert np.array_equal(with_dims.depth, without.depth)


def test_delay_cells_conserve_on_tree_members(world):
    args, kwargs = _pass_kwargs(world, "nssa")
    result = run_group_pass(*args, dims_layout=_dims_layout(), **kwargs)
    assert np.array_equal(result.delay_cells.sum(axis=1),
                          result.members_on_tree)
    assert result.metrics()["depth_max"] == int(result.depth.max())
