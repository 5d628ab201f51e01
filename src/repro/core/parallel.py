"""Sharded multi-group epoch execution over shared-memory world state.

One overlay snapshot serves every group, so the only thing a worker
needs besides its shard's group slice is the read-only world: CSR
adjacency, per-edge latencies, peer coordinates/capacities and the
packed group rosters.  :class:`SharedWorld` publishes those arrays once
through :mod:`multiprocessing.shared_memory`; workers attach zero-copy,
read-only views, run the batched kernels of
:mod:`repro.core.multigroup` over their shard, and ship back only the
small per-group metric columns.

Determinism contract: shards are deterministic contiguous slices of the
group order, per-group results are bit-identical for any batch
composition (see :mod:`repro.core.multigroup`), and the parent merges
shard results **in shard order** — so metrics and the merged digest are
identical for any ``shards``/``jobs`` combination, including the inline
``jobs=1`` path (the same submission-order convention as
:func:`repro.experiments.parallel.run_points`, whose fork context the
pool reuses).
"""

from __future__ import annotations

import hashlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory

import numpy as np

from ..errors import GroupError
from ..sim.random import spawn_rng
from ..experiments.parallel import pool_context
from .arrays import CSRGraph
from .multigroup import (
    climb_subscriptions_batch,
    flood_advertisements_batch,
    group_delay_cells_batch,
    group_depths_batch,
    tree_delays_batch,
)

#: Arrays a :class:`SharedWorld` publishes, in a fixed order so the
#: picklable handle stays a plain tuple of (name, shape, dtype) specs.
_WORLD_FIELDS = ("indptr", "indices", "latency", "coords", "capacities",
                 "roots", "member_rows", "member_indptr")


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


def _run_slice(csr, latency, coords, roots, member_rows, member_indptr,
               lo: int, hi: int, group_offset: int = 0,
               **kwargs) -> GroupPassResult:
    """:func:`run_group_pass` over groups ``[lo, hi)`` of a packed set."""
    return run_group_pass(
        csr, latency, coords, roots[lo:hi],
        member_rows[member_indptr[lo]:member_indptr[hi]],
        member_indptr[lo:hi + 1] - member_indptr[lo],
        group_offset=group_offset + lo, **kwargs)


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
    return merge_results([
        _run_slice(csr, latency, coords, roots, member_rows,
                   member_indptr, g, g + 1, group_offset, ttl=ttl,
                   scheme=scheme, capacities=capacities,
                   ssa_seed=ssa_seed, dims_layout=dims_layout)
        for g in range(roots.shape[0])])


# ----------------------------------------------------------------------
# Shared-memory world publication
# ----------------------------------------------------------------------
class SharedWorld:
    """Read-only world arrays published once for every worker.

    Lifecycle: the parent calls :meth:`publish` (copies each array into
    its own shared-memory segment and returns a picklable handle),
    workers call :meth:`attach` (zero-copy, read-only views; each
    worker unregisters the segments from its own resource tracker so
    only the parent unlinks), and the parent calls :meth:`close` after
    the pool has drained.
    """

    def __init__(self) -> None:
        self._segments: list[shared_memory.SharedMemory] = []
        self.handle: tuple | None = None

    def publish(self, **arrays: np.ndarray) -> tuple:
        """Copy arrays into shared memory; returns the attach handle."""
        if self.handle is not None:
            raise GroupError("world already published")
        specs = []
        for field in _WORLD_FIELDS:
            array = np.ascontiguousarray(arrays[field])
            segment = shared_memory.SharedMemory(
                create=True, size=max(array.nbytes, 1))
            view = np.ndarray(array.shape, dtype=array.dtype,
                              buffer=segment.buf)
            view[...] = array
            self._segments.append(segment)
            specs.append((segment.name, array.shape, array.dtype.str))
        self.handle = tuple(specs)
        return self.handle

    @staticmethod
    def attach(handle: tuple, unregister: bool = False
               ) -> tuple[dict, list]:
        """Zero-copy read-only views of a published world.

        Returns ``(arrays, segments)``; the caller must keep the
        segments referenced while the views are in use and close them
        afterwards (:func:`_detach`).  ``unregister`` must be True in
        workers started via *spawn*: there, attaching registers the
        borrowed segment with the worker's own resource tracker, which
        would unlink it (and warn) at worker exit.  Fork workers share
        the parent's tracker, where re-registration is idempotent and
        unregistering would strip the parent's own claim.
        """
        arrays: dict[str, np.ndarray] = {}
        segments = []
        for field, (name, shape, dtype) in zip(_WORLD_FIELDS, handle):
            segment = shared_memory.SharedMemory(name=name)
            if unregister:
                try:
                    resource_tracker.unregister(segment._name,
                                                "shared_memory")
                except Exception:
                    pass
            view = np.ndarray(shape, dtype=np.dtype(dtype),
                              buffer=segment.buf)
            view.flags.writeable = False
            arrays[field] = view
            segments.append(segment)
        return arrays, segments

    def close(self) -> None:
        """Release and unlink every published segment (parent only)."""
        for segment in self._segments:
            segment.close()
            try:
                segment.unlink()
            except FileNotFoundError:
                pass
        self._segments = []
        self.handle = None


def _detach(segments: list) -> None:
    for segment in segments:
        segment.close()


def _run_shard(payload: tuple) -> GroupPassResult:
    """Worker body: attach the world, run one shard's group slice."""
    handle, lo, hi, params = payload
    arrays, segments = SharedWorld.attach(
        handle, unregister=params["unregister"])
    try:
        csr = CSRGraph(arrays["indptr"], arrays["indices"])
        indptr = arrays["member_indptr"]
        rows = arrays["member_rows"][indptr[lo]:indptr[hi]]
        capacities = arrays["capacities"]
        return run_group_pass(
            csr, arrays["latency"], arrays["coords"],
            arrays["roots"][lo:hi], np.ascontiguousarray(rows),
            np.ascontiguousarray(indptr[lo:hi + 1] - indptr[lo]),
            ttl=params["ttl"], scheme=params["scheme"],
            capacities=capacities if params["scheme"] == "ssa" else None,
            ssa_seed=params["ssa_seed"], group_offset=lo,
            dims_layout=params["dims_layout"])
    finally:
        _detach(segments)


def run_sharded(csr: CSRGraph, latency: np.ndarray, coords: np.ndarray,
                roots: np.ndarray, member_rows: np.ndarray,
                member_indptr: np.ndarray, *, ttl: int,
                scheme: str = "nssa",
                capacities: np.ndarray | None = None,
                ssa_seed: int | None = None, shards: int = 4,
                jobs: int = 1, dims_layout=None) -> GroupPassResult:
    """Run a multi-group pass over deterministic group shards.

    ``jobs <= 1`` runs the shards inline (no pool, no shared memory);
    otherwise the world is published once and the shards fan out over a
    ``ProcessPoolExecutor``.  Results merge in shard order, so the
    output is bit-identical for every ``shards``/``jobs`` combination.
    """
    roots = np.asarray(roots, dtype=np.int64)
    member_rows = np.asarray(member_rows, dtype=np.int64)
    member_indptr = np.asarray(member_indptr, dtype=np.int64)
    bounds = shard_bounds(roots.shape[0], shards)
    params = {"ttl": int(ttl), "scheme": scheme, "ssa_seed": ssa_seed,
              "dims_layout": dims_layout,
              "unregister": pool_context().get_start_method() != "fork"}
    if scheme == "ssa" and capacities is None:
        raise GroupError("ssa passes need capacities")
    jobs = max(1, int(jobs))
    if jobs == 1 or len(bounds) == 1:
        return merge_results([
            _run_slice(csr, latency, coords, roots, member_rows,
                       member_indptr, lo, hi, ttl=int(ttl), scheme=scheme,
                       capacities=capacities, ssa_seed=ssa_seed,
                       dims_layout=dims_layout)
            for lo, hi in bounds])
    world = SharedWorld()
    try:
        handle = world.publish(
            indptr=csr.indptr, indices=csr.indices, latency=latency,
            coords=coords,
            capacities=(capacities if capacities is not None
                        else np.ones(csr.node_count)),
            roots=roots, member_rows=member_rows,
            member_indptr=member_indptr)
        payloads = [(handle, lo, hi, params) for lo, hi in bounds]
        with ProcessPoolExecutor(
                max_workers=min(jobs, len(payloads)),
                mp_context=pool_context()) as pool:
            parts = list(pool.map(_run_shard, payloads))
    finally:
        world.close()
    return merge_results(parts)
