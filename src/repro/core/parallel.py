"""The one process pool, and the sharded multi-group pass that uses it.

:func:`run_points` maps a module-level function over argument tuples
and returns the results in submission order, so the paper's sweeps over
independent *(size, topology)* points (Figures 11-17) and the group
shards of :func:`run_sharded` give byte-identical results for any
``jobs`` value.  With the default :class:`~repro.obs.registry.Registry`
enabled, every point runs under a fresh registry whose state is folded
back in point order, so telemetry totals do not depend on ``jobs``.

:func:`run_sharded` cuts a multi-group pass into contiguous group
shards (:func:`shard_bounds`).  Each shard's point carries the read-only
world (CSR adjacency, edge latencies, coordinates) and its slice of the
packed rosters, and returns only small per-group metric columns.
Per-group results are bit-identical for any batch composition, SSA
streams are keyed by the *global* group index, and shards merge in
order, so every ``shards``/``jobs`` combination gives the same digest.
"""

from __future__ import annotations

import hashlib
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from ..errors import GroupError
from ..obs.registry import (
    NULL_REGISTRY,
    enable_telemetry,
    get_default_registry,
    set_default_registry,
)
from ..sim.random import spawn_rng
from .arrays import CSRGraph
from .multigroup import (
    climb_subscriptions_batch,
    flood_advertisements_batch,
    group_delay_cells_batch,
    group_depths_batch,
    tree_delays_batch,
)


# ----------------------------------------------------------------------
# The process pool
# ----------------------------------------------------------------------
def _run_in_worker(payload: tuple) -> tuple[Any, dict | None]:
    """Execute one point, optionally under a fresh registry."""
    func, args, telemetry = payload
    if not telemetry:
        return func(*args), None
    registry = enable_telemetry()
    try:
        value = func(*args)
        state = registry.dump_state()
    finally:
        set_default_registry(NULL_REGISTRY)
    return value, state


def pool_context():
    """The multiprocessing context used for pool workers.

    ``fork`` (where available) shares the already-imported scientific
    stack with workers instead of re-importing it per process; other
    platforms fall back to their default start method.
    """
    methods = multiprocessing.get_all_start_methods()
    if "fork" in methods:
        return multiprocessing.get_context("fork")
    return multiprocessing.get_context()


def run_points(func: Callable, arg_tuples: Sequence[tuple],
               jobs: int = 1) -> list:
    """Map ``func`` over ``arg_tuples``, optionally across processes.

    ``func`` must be a module-level (picklable) callable; results come
    back in the order of ``arg_tuples`` regardless of which worker
    finished first.  ``jobs <= 1`` (or a single point) runs inline.
    """
    jobs = max(1, int(jobs))
    arg_tuples = [tuple(args) for args in arg_tuples]
    registry = get_default_registry()
    telemetry = registry.enabled
    if jobs == 1 or len(arg_tuples) <= 1:
        if not telemetry:
            return [func(*args) for args in arg_tuples]
        # Run each point under its own registry and fold the states in
        # point order — the same float-summation grouping as the pool
        # path, so histogram sums are bit-identical for any jobs value.
        values = []
        for args in arg_tuples:
            point_registry = enable_telemetry()
            try:
                value = func(*args)
                state = point_registry.dump_state()
            finally:
                set_default_registry(registry)
            registry.merge_state(state)
            values.append(value)
        return values
    payloads = [(func, args, telemetry) for args in arg_tuples]
    workers = min(jobs, len(payloads))
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=pool_context()) as pool:
        outcomes = list(pool.map(_run_in_worker, payloads))
    values = []
    for value, state in outcomes:
        if state:
            registry.merge_state(state)
        values.append(value)
    return values


# ----------------------------------------------------------------------
# Multi-group epoch passes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class GroupPassResult:
    """Per-group outcome columns of one multi-group epoch pass.

    ``digests`` holds one 32-byte SHA-256 per group over that group's
    dense result rows (arrival / upstream / tree parent / delays), so
    any two executions that agree per group agree on
    :meth:`merged_digest` regardless of how the groups were sharded.

    The dimensional-telemetry columns ride along: ``depth`` is the
    per-group tree depth (always computed — one segmented max), and
    ``delay_cells`` holds one log-scale sketch row per group
    (``(n_groups, layout.cells)`` int64) when the pass ran with a
    ``dims_layout``, else a ``(n_groups, 0)`` placeholder.  Both merge
    by concatenation in shard order like every other column, and the
    sketch rows merge across epochs/workers by integer addition, so
    per-tenant percentiles are bit-identical for any shard or worker
    count.
    """

    receipts: np.ndarray
    tree_nodes: np.ndarray
    member_counts: np.ndarray
    members_on_tree: np.ndarray
    delay_sum_ms: np.ndarray
    delay_max_ms: np.ndarray
    digests: np.ndarray
    depth: np.ndarray
    delay_cells: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of groups covered."""
        return self.receipts.shape[0]

    def merged_digest(self) -> str:
        """SHA-256 over the per-group digests in group order."""
        return hashlib.sha256(self.digests.tobytes()).hexdigest()

    def metrics(self) -> dict:
        """Aggregate summary used by benchmarks and CI gates."""
        finite = np.isfinite(self.delay_max_ms)
        return {
            "groups": int(self.n_groups),
            "receipts_total": int(self.receipts.sum()),
            "tree_nodes_total": int(self.tree_nodes.sum()),
            "members_total": int(self.member_counts.sum()),
            "members_on_tree_total": int(self.members_on_tree.sum()),
            "delay_sum_ms": float(self.delay_sum_ms[finite].sum()),
            "delay_max_ms": float(
                self.delay_max_ms[finite].max()) if finite.any() else 0.0,
            "depth_max": int(self.depth.max()) if self.depth.size else 0,
            "digest": self.merged_digest(),
        }


def merge_results(parts: list[GroupPassResult]) -> GroupPassResult:
    """Concatenate shard results in shard order."""
    if not parts:
        raise GroupError("nothing to merge")
    return GroupPassResult(*(
        np.concatenate([getattr(part, field) for part in parts])
        for field in GroupPassResult.__dataclass_fields__))


def shard_bounds(n_groups: int, shards: int) -> list[tuple[int, int]]:
    """Deterministic contiguous group slices, balanced to within one."""
    if n_groups < 1:
        raise GroupError("need at least one group")
    shards = max(1, min(int(shards), n_groups))
    edges = np.linspace(0, n_groups, shards + 1).astype(np.int64)
    return [(int(edges[i]), int(edges[i + 1])) for i in range(shards)]


def _group_digests(arrival: np.ndarray, upstream: np.ndarray,
                   parent: np.ndarray, delays: np.ndarray) -> np.ndarray:
    """One 32-byte SHA-256 per group over its dense result rows."""
    out = np.empty((arrival.shape[0], 32), dtype=np.uint8)
    for g in range(arrival.shape[0]):
        h = hashlib.sha256()
        h.update(arrival[g].tobytes())
        h.update(upstream[g].tobytes())
        h.update(parent[g].tobytes())
        h.update(delays[g].tobytes())
        out[g] = np.frombuffer(h.digest(), dtype=np.uint8)
    return out


def _pass_metrics(arrival, upstream, parent, on_tree, is_member, delays,
                  member_indptr, hops, dims_layout) -> GroupPassResult:
    member_mask = is_member & on_tree
    finite = member_mask & np.isfinite(delays)
    delay_sum = np.where(finite, delays, 0.0).sum(axis=1)
    delay_max = np.where(
        finite.any(axis=1),
        np.where(finite, delays, -np.inf).max(axis=1),
        np.inf)
    if dims_layout is not None:
        delay_cells = group_delay_cells_batch(delays, member_mask,
                                              dims_layout)
    else:
        delay_cells = np.zeros((arrival.shape[0], 0), dtype=np.int64)
    return GroupPassResult(
        receipts=np.count_nonzero(np.isfinite(arrival), axis=1),
        tree_nodes=on_tree.sum(axis=1).astype(np.int64),
        member_counts=np.diff(member_indptr).astype(np.int64),
        members_on_tree=member_mask.sum(axis=1).astype(np.int64),
        delay_sum_ms=delay_sum,
        delay_max_ms=delay_max,
        digests=_group_digests(arrival, upstream, parent, delays),
        depth=group_depths_batch(hops, on_tree),
        delay_cells=delay_cells)


def run_group_pass(csr: CSRGraph, latency: np.ndarray,
                   coords: np.ndarray, roots: np.ndarray,
                   member_rows: np.ndarray, member_indptr: np.ndarray,
                   *, ttl: int, scheme: str = "nssa",
                   capacities: np.ndarray | None = None,
                   ssa_seed: int | None = None,
                   group_offset: int = 0,
                   dims_layout=None) -> GroupPassResult:
    """One batched flood + climb + delay pass over a slice of groups.

    ``group_offset`` is the slice's position in the *global* group
    order; SSA generators are spawned per global group index so results
    do not depend on how the group set was sharded.  ``dims_layout``
    (a :class:`repro.obs.dims.SketchLayout`, duck-typed) switches on
    the per-group delay sketch columns; it never touches the dense
    result rows, so per-group digests are bit-identical with dims on
    or off.
    """
    rngs = None
    if scheme == "ssa":
        if ssa_seed is None:
            raise GroupError("ssa passes need ssa_seed")
        rngs = [spawn_rng(ssa_seed, "multigroup", group_offset + g)
                for g in range(roots.shape[0])]
    flood = flood_advertisements_batch(
        csr, latency, roots, ttl, scheme, capacities=capacities,
        rngs=rngs)
    on_tree, is_member = climb_subscriptions_batch(
        flood, member_rows, member_indptr)
    parent = np.where(on_tree, flood.upstream, -1)
    delays = tree_delays_batch(parent, on_tree, coords=coords,
                               roots=roots)
    return _pass_metrics(flood.arrival, flood.upstream, parent, on_tree,
                         is_member, delays, member_indptr, flood.hops,
                         dims_layout)


def _slice_points(csr, latency, coords, roots, member_rows,
                  member_indptr, bounds, group_offset: int,
                  kwargs: dict) -> list[tuple]:
    """One :func:`_run_point` argument tuple per group slice ``[lo, hi)``
    of a packed group set, its roster rebased to start at zero."""
    return [(csr, latency, coords, roots[lo:hi],
             member_rows[member_indptr[lo]:member_indptr[hi]],
             member_indptr[lo:hi + 1] - member_indptr[lo],
             group_offset + lo, kwargs)
            for lo, hi in bounds]


def _run_point(csr, latency, coords, roots, member_rows, member_indptr,
               group_offset: int, kwargs: dict) -> GroupPassResult:
    """:func:`run_group_pass` over one sliced point (the pool body)."""
    return run_group_pass(csr, latency, coords, roots, member_rows,
                          member_indptr, group_offset=group_offset,
                          **kwargs)


def run_group_pass_loop(csr: CSRGraph, latency: np.ndarray,
                        coords: np.ndarray, roots: np.ndarray,
                        member_rows: np.ndarray,
                        member_indptr: np.ndarray, *, ttl: int,
                        scheme: str = "nssa",
                        capacities: np.ndarray | None = None,
                        ssa_seed: int | None = None,
                        group_offset: int = 0,
                        dims_layout=None) -> GroupPassResult:
    """Differential reference: the same pass, one group per batch.

    Pins batch-composition invariance, which the sharded executor
    relies on; the benchmark measures what batching amortizes.
    """
    kwargs = {"ttl": ttl, "scheme": scheme, "capacities": capacities,
              "ssa_seed": ssa_seed, "dims_layout": dims_layout}
    bounds = [(g, g + 1) for g in range(roots.shape[0])]
    return merge_results([
        _run_point(*point) for point in _slice_points(
            csr, latency, coords, roots, member_rows, member_indptr,
            bounds, group_offset, kwargs)])


def run_sharded(csr: CSRGraph, latency: np.ndarray, coords: np.ndarray,
                roots: np.ndarray, member_rows: np.ndarray,
                member_indptr: np.ndarray, *, ttl: int,
                scheme: str = "nssa",
                capacities: np.ndarray | None = None,
                ssa_seed: int | None = None, shards: int = 4,
                jobs: int = 1, dims_layout=None) -> GroupPassResult:
    """Run a multi-group pass over deterministic group shards.

    Each shard is one :func:`run_points` point, so ``jobs <= 1`` runs
    the shards inline and larger values fan them out over the process
    pool.  Results merge in shard order, so the output is bit-identical
    for every ``shards``/``jobs`` combination.
    """
    if scheme == "ssa" and capacities is None:
        raise GroupError("ssa passes need capacities")
    roots = np.asarray(roots, dtype=np.int64)
    member_rows = np.asarray(member_rows, dtype=np.int64)
    member_indptr = np.asarray(member_indptr, dtype=np.int64)
    kwargs = {"ttl": int(ttl), "scheme": scheme, "capacities": capacities,
              "ssa_seed": ssa_seed, "dims_layout": dims_layout}
    points = _slice_points(csr, latency, coords, roots, member_rows,
                           member_indptr,
                           shard_bounds(roots.shape[0], shards), 0, kwargs)
    return merge_results(run_points(_run_point, points, jobs))
