"""Struct-of-arrays simulator core for 10^5-10^6 peer scale.

The object layer (:class:`~repro.overlay.graph.OverlayNetwork`,
:class:`~repro.groupcast.spanning_tree.SpanningTree`, per-peer protocol
agents) tops out at a few thousand peers: every peer is a Python object
and every protocol step walks Python dicts.  This package holds the hot
state in dense numpy arrays instead, keyed by *stable peer indices*:

* :mod:`.arrays` — the raw stores: :class:`PeerArrays` (capacity,
  coordinates, liveness), :class:`DynamicAdjacency` (pooled, insertion-
  ordered neighbor lists) and the frozen :class:`CSRGraph` snapshot;
* :mod:`.store` — :class:`SoAStore` combining peers + adjacency with
  per-group :class:`TreeArrays` (parent/member/on-tree columns);
* :mod:`.overlay_view` — :class:`SoAOverlayNetwork`, a drop-in
  :class:`~repro.overlay.graph.OverlayNetwork` replacement backed by a
  store, so the existing protocol, fault and observability layers run
  unchanged (and bit-identically) over array state;
* :mod:`.multigroup` — the protocol kernels (advertisement flood,
  subscription climb, tree delays) over group-major ``(n_groups,
  n_rows)`` state, relaxing every group against one shared
  :class:`CSRGraph` per epoch pass;
* :mod:`.protocol` — the same kernels called with one group and 1-D
  results, plus the ripple-search stand-in and the synthetic overlay;
* :mod:`.parallel` — the one process pool (:func:`run_points`) and the
  sharded executor mapped through it: deterministic group shards,
  merged in shard order so results are bit-identical for any worker
  count.

Index lifecycle contract: a peer keeps its array row for the lifetime of
the store — join always allocates a *fresh* row and leave/crash only
clears the ``alive`` flag, so indices never alias across peers (pinned
by the Hypothesis suite in ``tests/test_soa_properties.py``).
"""

from .arrays import CSRGraph, DynamicAdjacency, PeerArrays
from .multigroup import (
    BatchFloodResult,
    climb_subscriptions_batch,
    flood_advertisements_batch,
    group_delay_cells_batch,
    group_depths_batch,
    pack_members,
    tree_delays_batch,
)
from .overlay_view import SoAOverlayNetwork
from .parallel import (
    GroupPassResult,
    merge_results,
    run_group_pass,
    run_group_pass_loop,
    run_sharded,
    shard_bounds,
)
from .protocol import (
    FloodResult,
    attach_searchers,
    climb_subscriptions,
    edge_latencies_from_coords,
    flood_advertisement,
    synthetic_power_law_csr,
    tree_delays,
)
from .store import SoAStore, TreeArrays

__all__ = [
    "CSRGraph",
    "DynamicAdjacency",
    "PeerArrays",
    "SoAStore",
    "TreeArrays",
    "SoAOverlayNetwork",
    "FloodResult",
    "flood_advertisement",
    "climb_subscriptions",
    "attach_searchers",
    "tree_delays",
    "edge_latencies_from_coords",
    "synthetic_power_law_csr",
    "BatchFloodResult",
    "pack_members",
    "flood_advertisements_batch",
    "climb_subscriptions_batch",
    "tree_delays_batch",
    "group_depths_batch",
    "group_delay_cells_batch",
    "GroupPassResult",
    "merge_results",
    "shard_bounds",
    "run_group_pass",
    "run_group_pass_loop",
    "run_sharded",
]
