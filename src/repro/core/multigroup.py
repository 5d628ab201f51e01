"""The protocol kernels: flood, climb and delay over group-major state.

One implementation of each protocol step serves every array-path
caller.  Per-group state is stacked into ``(n_groups, n_rows)`` arrays
over a shared row space (one frozen :class:`CSRGraph` snapshot) and all
groups advance together; the single-group entry points in
:mod:`repro.core.protocol` are these kernels at ``n_groups=1``.

* **Flood** (:func:`flood_advertisements_batch`).  The heap simulation's
  first receipt of a peer is the earliest arrival over hop-bounded
  forwarding paths, so the flood is a time-respecting relaxation: peers
  settle in virtual-time epochs, cells of one global grid (multiples of
  the epoch width from zero), and each pass relaxes the frontier edges
  of every group at once.  A sorted worklist of pending ``g * n + row``
  keys (near list plus far chunks) keeps a pass proportional to the
  frontier, not to the state.  At the default width, the minimum edge
  latency, every expansion is final and the NSSA result equals the
  procedural heap simulation bit for bit
  (``tests/test_soa_equivalence.py``).
* **Climb** (:func:`climb_subscriptions_batch`).  Informed members walk
  their ``upstream`` chains toward the root, one tree level per gather
  over the same flat keys.
* **Delay** (:func:`tree_delays_batch`).  An edge worklist settles one
  tree level per wave.

Determinism contract (``tests/test_multigroup.py``): all mutable state
is indexed ``(group, row)`` and an update writes only its own group's
row; a group whose earliest pending cell is later sits a pass out
without changing its own sequence of cell expansions; duplicate targets
resolve on the flat key with a stable sort, so the within-group
candidate order, and hence the tie-break, does not depend on the other
groups.  Results are therefore independent of batch composition: any
sharding of the group set, merged in group order, gives the same rows
(what :mod:`repro.core.parallel` builds on).

For SSA a peer forwards to a utility-sampled subset of its links.  The
weights belong to the link, not the group: the Eq. 1-5 preference of
every directed edge and the fanout of every row are computed once per
flood, in one segmented pass over the CSR.  The draw is per group: each
epoch cell takes the ``(group, row)`` senders forwarding for the first
time, draws one Efraimidis-Spirakis key per out-link from the group's
own generator (callers pass ``rngs``; one call per group in group
order, rows ascending, links in CSR order) and keeps each sender's
top-``fanout`` links in one flat ``bool(n_groups * E)`` mask.  These
are the procedural path's keys in frontier-batched order: runs are
deterministic per seed and statistically equivalent to, though not
bit-identical with, the heap simulation, which samples in pop order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..config import AnnouncementConfig, UtilityConfig
from ..errors import GroupError
from ..sim.random import RandomSource
from .arrays import CSRGraph, _concat_ranges

_DEFAULT_ANNOUNCEMENT = AnnouncementConfig()

#: Width of the flood's near-horizon window, in epochs: pending
#: coordinates due inside the window stay on the per-pass near list,
#: later ones wait in far chunks until the clock approaches.  Bigger
#: windows mean fewer far rescans but a wider near list per pass.
_FAR_EPOCHS = 8.0


def _merge_pending(work: np.ndarray, work_arrival: np.ndarray,
                   keys: np.ndarray, values: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Merge sorted unique (keys, values) into the sorted worklist.

    ``side="right"`` lands each incoming key just after its stale twin
    (if present), so keeping the last entry of every equal-key run both
    dedups and refreshes the cached arrival in one pass.
    """
    slot = (np.searchsorted(work, keys, side="right")
            + np.arange(keys.shape[0]))
    total = work.shape[0] + keys.shape[0]
    incoming = np.zeros(total, dtype=bool)
    incoming[slot] = True
    merged_keys = np.empty(total, dtype=np.int64)
    merged_keys[slot] = keys
    merged_keys[~incoming] = work
    merged_values = np.empty(total)
    merged_values[slot] = values
    merged_values[~incoming] = work_arrival
    last = np.empty(total, dtype=bool)
    last[-1] = True
    np.not_equal(merged_keys[1:], merged_keys[:-1], out=last[:-1])
    return merged_keys[last], merged_values[last]


def pack_members(members_per_group: Sequence[np.ndarray]
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Pack ragged per-group member row lists into CSR-style arrays.

    Returns ``(member_rows, member_indptr)`` where group ``g``'s members
    are ``member_rows[member_indptr[g]:member_indptr[g + 1]]``.
    """
    counts = np.fromiter((len(m) for m in members_per_group),
                         dtype=np.int64, count=len(members_per_group))
    indptr = np.zeros(counts.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    if counts.sum() == 0:
        return np.empty(0, dtype=np.int64), indptr
    rows = np.concatenate(
        [np.asarray(m, dtype=np.int64) for m in members_per_group])
    return rows, indptr


@dataclass(frozen=True)
class BatchFloodResult:
    """Dense outcome of one batch of advertisement floods.

    Row ``g`` of each array is group ``g``'s flood: ``arrival`` is
    ``inf`` for unreached rows, ``upstream``/``hops`` are ``-1``, the
    rendezvous row has arrival 0 and hops 0.
    """

    roots: np.ndarray
    arrival: np.ndarray
    upstream: np.ndarray
    hops: np.ndarray

    @property
    def n_groups(self) -> int:
        """Number of stacked groups."""
        return self.arrival.shape[0]

    @property
    def reached(self) -> np.ndarray:
        """Boolean ``(group, row)`` mask of delivered advertisements."""
        return np.isfinite(self.arrival)

    def receipt_counts(self) -> np.ndarray:
        """Number of reached rows per group."""
        return np.count_nonzero(self.reached, axis=1)


def flood_advertisements_batch(
    csr: CSRGraph,
    latency: np.ndarray,
    roots: np.ndarray,
    ttl: int,
    scheme: str = "nssa",
    *,
    capacities: np.ndarray | None = None,
    rngs: Sequence[RandomSource] | None = None,
    config: AnnouncementConfig | None = None,
    utility_config: UtilityConfig | None = None,
    epoch_ms: float | None = None,
) -> BatchFloodResult:
    """Flood one advertisement per group in shared epoch passes.

    ``latency`` holds one positive transit latency per directed CSR
    edge, aligned with ``csr.indices``; ``roots`` holds one rendezvous
    row per group.  Retired rows have no links in a ``snapshot_csr()``,
    so the flood needs no liveness mask.

    ``epoch_ms`` is the virtual-time bucket width.  The default, the
    minimum edge latency, makes every expansion final (no candidate
    generated in a bucket can land inside it), so the result matches
    the heap simulation exactly.  Wider buckets run fewer passes and
    stay exact while the TTL gate is slack (``ttl`` at or above the
    reached hop radius); under a tight gate a within-bucket arrival
    improvement may change a peer's hop count, and hence its forwarding
    eligibility, after it forwarded, which the fixpoint cannot retract.
    Only ``benchmarks/bench_scale.py`` widens it.

    For ``scheme="ssa"`` each peer forwards to a utility-sampled subset
    of its neighbors, drawn once, when the peer first joins a frontier;
    pass one capacity per row plus one independent ``rngs[g]`` per
    group (the array path ranks by full utility only).  The forwarding
    mask is one flat ``bool(n_groups * E)`` over the ``E`` directed
    edges, allocated up front (every root forwards in the first cell):
    ``n_groups * E`` bytes on top of the ``O(n_groups * n_rows)`` state
    both schemes hold, so memory bounds the batch width.
    """
    if scheme not in ("nssa", "ssa"):
        raise GroupError(f"unknown announcement scheme {scheme!r}")
    n = csr.node_count
    roots = np.asarray(roots, dtype=np.int64)
    n_groups = roots.shape[0]
    if n_groups == 0:
        raise GroupError("need at least one group")
    if ((roots < 0) | (roots >= n)).any():
        raise GroupError("root row out of range")
    latency = np.asarray(latency, dtype=np.float64)
    if latency.shape != csr.indices.shape:
        raise GroupError("need one latency per directed CSR edge")
    if latency.size and latency.min() <= 0.0:
        raise GroupError("edge latencies must be positive")
    config = config or _DEFAULT_ANNOUNCEMENT
    if scheme == "ssa":
        if capacities is None or rngs is None:
            raise GroupError("ssa flooding needs capacities and rngs")
        if len(rngs) != n_groups:
            raise GroupError("need one rng per group")
        if config.ssa_strategy != "utility":
            raise GroupError("the array path has no ssa_strategy "
                             f"{config.ssa_strategy!r}, only 'utility'")
        capacities = np.asarray(capacities, dtype=np.float64)
        if capacities.shape != (n,):
            raise GroupError("need one capacity per CSR row")

    if epoch_ms is None:
        epoch_ms = float(latency.min()) if latency.size else 1.0
    if epoch_ms <= 0.0:
        raise GroupError("epoch_ms must be positive")

    arrival = np.full((n_groups, n), np.inf)
    upstream = np.full((n_groups, n), -1, dtype=np.int64)
    hops = np.full((n_groups, n), -1, dtype=np.int64)
    g_index = np.arange(n_groups)
    arrival[g_index, roots] = 0.0
    hops[g_index, roots] = 0
    expanded_at = np.full((n_groups, n), np.inf)
    degree = csr.degrees()
    #: SSA state on flat keys: "has sampled" per (group, row) and "may
    #: forward" per (group, edge); NSSA forwards everywhere.
    sampled = allowed = None
    if scheme == "ssa":
        preference, fanout = _ssa_link_preferences(
            csr, latency, capacities, degree, config,
            utility_config or UtilityConfig())
        sampled = np.zeros(n_groups * n, dtype=bool)
        allowed = np.zeros(n_groups * latency.shape[0], dtype=bool)

    # Worklist of (group, row) coordinates flat-encoded as
    # ``g * n + row``, kept sorted, unique and *pending-only*
    # (``arrival < expanded_at``).  Invariant: every pending coordinate
    # is on the list — relaxation appends every coordinate it improves,
    # expansion ends pendingness — so each pass touches O(pending)
    # state instead of scanning the full (n_groups, n) masks for the
    # few groups still flooding.  Sorted flat keys are group-major with
    # ascending rows per group, so a group's sender order is the same
    # in any batch.  All worklist indexing runs on the raveled state
    # views: one 1-D gather per array per pass.
    arrival_f = arrival.ravel()
    expanded_f = expanded_at.ravel()
    hops_f = hops.ravel()
    upstream_f = upstream.ravel()
    n64 = np.int64(n)
    work = g_index * n64 + roots
    work_arrival = arrival_f[work]
    # Calendar split of the pending set.  The grid cells are global —
    # multiples of epoch_ms from zero, the same grid for any batch
    # composition — so each outer iteration expands the earliest
    # nonempty cell across all groups with one *scalar* boundary.  A
    # group whose earliest pending cell is later simply sits the pass
    # out; its own sequence of cell expansions (and hence its rows) is
    # untouched by the interleaving.  Coordinates due within the
    # horizon live on the sorted near list; later ones wait in far
    # chunks (appended O(1) per pass) and only get scanned when the
    # clock approaches, so per-pass work tracks the imminent frontier
    # rather than everything ever discovered.
    far_chunks: list[tuple[np.ndarray, np.ndarray]] = []
    horizon = _FAR_EPOCHS * epoch_ms
    while work.size or far_chunks:
        t_end = np.inf
        if work.size:
            t_end = ((np.floor(float(work_arrival.min()) / epoch_ms)
                      + 1.0) * epoch_ms)
        # Keep the horizon ahead of the clock: every pending coordinate
        # below the horizon is on the near list, so a cell's frontier
        # can never hide in the far store.
        while t_end > horizon:
            if far_chunks:
                far_keys = np.concatenate([c[0] for c in far_chunks])
                far_arrival = np.concatenate(
                    [c[1] for c in far_chunks])
                far_chunks.clear()
                # Only the latest copy of a coordinate matches the
                # state array; stale and already-expanded copies drop.
                live = ((far_arrival == arrival_f[far_keys])
                        & (far_arrival < expanded_f[far_keys]))
                far_keys = far_keys[live]
                far_arrival = far_arrival[live]
                if far_keys.size:
                    base = float(far_arrival.min())
                    if work.size:
                        base = min(base, float(work_arrival.min()))
                    horizon = base + _FAR_EPOCHS * epoch_ms
                    due = far_arrival < horizon
                    keys, values = far_keys[due], far_arrival[due]
                    order = np.argsort(keys)
                    work, work_arrival = _merge_pending(
                        work, work_arrival, keys[order], values[order])
                    if not due.all():
                        far_chunks.append(
                            (far_keys[~due], far_arrival[~due]))
                    t_end = ((np.floor(float(work_arrival.min())
                                       / epoch_ms) + 1.0) * epoch_ms)
            elif work.size:
                horizon = (float(work_arrival.min())
                           + _FAR_EPOCHS * epoch_ms)
            else:
                break
        if work.size == 0:
            continue
        while True:
            in_bucket = work_arrival < t_end
            frontier = work[in_bucket]
            if frontier.size == 0:
                break
            frontier_arrival = work_arrival[in_bucket]
            expanded_f[frontier] = frontier_arrival
            frontier_hops = hops_f[frontier]
            forwards = frontier_hops < ttl
            senders = frontier[forwards]
            touched = None
            if senders.size:
                if allowed is not None:
                    _sample_ssa_edges(
                        csr, degree, senders, n64, preference, fanout,
                        sampled, allowed, rngs)
                touched = _relax_batch(
                    csr, latency, degree, senders,
                    frontier_arrival[forwards], frontier_hops[forwards],
                    n64, arrival_f, upstream_f, hops_f, allowed)
            # Pendingness updates incrementally: the expanded frontier
            # drops out, the coordinates relaxation just improved join
            # the near list (or the far store, if due past the
            # horizon).  Everything else keeps both its membership and
            # its cached arrival, so no pass over the full state
            # arrays is needed.
            rest = ~in_bucket
            work, work_arrival = work[rest], work_arrival[rest]
            if touched is not None:
                won, won_arrival = touched
                near = won_arrival < horizon
                if not near.all():
                    far_chunks.append((won[~near], won_arrival[~near]))
                    won, won_arrival = won[near], won_arrival[near]
                if won.size:
                    work, work_arrival = _merge_pending(
                        work, work_arrival, won, won_arrival)
            if work.size == 0:
                break

    return BatchFloodResult(roots=roots, arrival=arrival,
                            upstream=upstream, hops=hops)


def _relax_batch(csr: CSRGraph, latency: np.ndarray, degree: np.ndarray,
                 senders: np.ndarray, sender_arrival: np.ndarray,
                 sender_hops: np.ndarray, n: np.int64,
                 arrival_f: np.ndarray, upstream_f: np.ndarray,
                 hops_f: np.ndarray, allowed: np.ndarray | None
                 ) -> tuple[np.ndarray, np.ndarray] | None:
    """One batched relaxation of every out-edge of the flat senders.

    ``senders`` holds sorted ``g * n + row`` flat keys from the
    worklist, so entries are group-major with ascending rows per group
    and each group's edges expand in CSR order.
    ``sender_arrival``/``sender_hops`` carry the values the caller
    already gathered, so relaxation runs entirely on 1-D flat views
    with no 2-D fancy indexing.  Returns ``(keys, arrivals)`` — the
    sorted flat keys of the (group, target) coordinates whose arrival
    improved plus their new arrivals (the caller's new worklist
    entries) — or None.  ``allowed`` is the SSA forwarding mask on flat
    ``g * E + edge`` keys (None: every edge forwards).
    """
    sv = senders % n
    counts = degree[sv]
    positions = _concat_ranges(csr.indptr[sv], counts)
    if positions.size == 0:
        return None
    # np.repeat over the full counts (zeros included) stays aligned
    # with _concat_ranges, which drops empty ranges.
    pair = np.repeat(np.arange(sv.shape[0], dtype=np.int64), counts)
    if allowed is not None:
        edge_base = senders // n * latency.shape[0]
        keep = allowed[edge_base[pair] + positions]
        positions = positions[keep]
        pair = pair[keep]
        if positions.size == 0:
            return None
    targets = csr.indices[positions]
    # Flat key of each (group, target): the sender's group base
    # (senders - sv == g * n) plus the target row.
    tflat = (senders - sv)[pair] + targets
    candidates = sender_arrival[pair] + latency[positions]
    better = candidates < arrival_f[tflat]
    if not better.any():
        return None
    pair, tflat = pair[better], tflat[better]
    candidates = candidates[better]
    # Duplicate (group, target) pairs resolve to the earliest
    # candidate, exact-time ties to the first in edge order — the heap
    # simulation's send-sequence tie-break for same-time copies.  The
    # stable integer sort keeps edge order within equal keys; the
    # (rare) duplicate runs then pick their minimum candidate with a
    # segmented reduce — far cheaper than lexsorting on the float
    # candidates.
    order = np.argsort(tflat, kind="stable")
    flat_sorted = tflat[order]
    first = np.ones(order.shape[0], dtype=bool)
    first[1:] = flat_sorted[1:] != flat_sorted[:-1]
    if first.all():
        chosen = order
        won = flat_sorted
    else:
        sorted_cand = candidates[order]
        starts = np.nonzero(first)[0]
        run_id = np.cumsum(first) - 1
        run_min = np.minimum.reduceat(sorted_cand, starts)
        minima = np.nonzero(sorted_cand == run_min[run_id])[0]
        lead = np.ones(minima.shape[0], dtype=bool)
        lead[1:] = run_id[minima[1:]] != run_id[minima[:-1]]
        chosen = order[minima[lead]]
        won = flat_sorted[minima[lead]]
    winner = pair[chosen]
    won_arrival = candidates[chosen]
    arrival_f[won] = won_arrival
    upstream_f[won] = sv[winner]
    hops_f[won] = sender_hops[winner] + 1
    return won, won_arrival


def _ssa_link_preferences(
        csr: CSRGraph, latency: np.ndarray, capacities: np.ndarray,
        degree: np.ndarray, config: AnnouncementConfig,
        utility_config: UtilityConfig) -> tuple[np.ndarray, np.ndarray]:
    """Forwarding preference per directed edge and fanout per row.

    One segmented pass over the whole CSR, a row's out-links being one
    segment: the row's resource level against its neighbors, the
    derived alpha/beta/gamma and the Eq. 1-5 preference, normalized per
    row.  None of it depends on a group or a generator, so a flood
    computes it once.
    """
    # reduceat wants non-empty segments: skip the linkless rows.
    rows = np.flatnonzero(degree)
    starts = csr.indptr[rows]
    counts = degree[rows]
    seg = np.repeat(np.arange(rows.shape[0]), counts)

    neighbor_caps = capacities[csr.indices]
    # Resource level r = fraction of sampled (here: neighbor) capacities
    # strictly below the sender's own, clamped like the scalar helper.
    below = (neighbor_caps < capacities[rows][seg]).astype(np.float64)
    r = np.add.reduceat(below, starts) / counts
    r = np.clip(r, utility_config.min_resource_level,
                utility_config.max_resource_level)
    alpha, beta = 1.0 - r, r
    gamma = r ** (-np.log(r))

    # Distance preference (Eq. 1-2) on the edge latencies.
    d = np.maximum(latency, utility_config.min_distance_ms)
    dn = d / np.maximum.reduceat(d, starts)[seg]
    dp = 1.0 / dn - alpha[seg]
    dp = dp / np.add.reduceat(dp, starts)[seg]
    # Capacity preference (Eq. 3).
    cp = np.maximum(neighbor_caps - beta[seg], 1e-12)
    cp = cp / np.add.reduceat(cp, starts)[seg]
    preference = gamma[seg] * cp + (1.0 - gamma[seg]) * dp
    preference = preference / np.add.reduceat(preference, starts)[seg]

    fanout = np.maximum(
        config.ssa_min_fanout,
        np.rint(config.ssa_fanout_fraction * degree).astype(np.int64))
    return preference, np.minimum(fanout, degree)


def _sample_ssa_edges(csr: CSRGraph, degree: np.ndarray,
                      senders: np.ndarray, n: np.int64,
                      preference: np.ndarray, fanout: np.ndarray,
                      sampled: np.ndarray, allowed: np.ndarray,
                      rngs: Sequence[RandomSource]) -> None:
    """Sample the forwarding subsets of one cell's first-time senders.

    ``senders`` holds sorted ``g * n + row`` flat keys, so the fresh
    ones are group-major with ascending rows and each group's out-links
    are one contiguous run.  A group draws its run's Efraimidis-Spirakis
    keys from its own generator in one call, so its draw sequence — and
    hence its forwarding mask — does not depend on which other groups
    share the batch; the per-sender top-``fanout`` selection then runs
    once over all groups.
    """
    fresh = senders[~sampled[senders]]
    sampled[fresh] = True
    rows = fresh % n
    counts = degree[rows]
    positions = _concat_ranges(csr.indptr[rows], counts)
    if positions.size == 0:
        return
    groups = fresh // n
    ends = np.cumsum(counts)
    draws = np.empty(positions.shape[0])
    # Index of each present group's last fresh sender.
    last = np.append(np.flatnonzero(groups[1:] != groups[:-1]),
                     groups.shape[0] - 1)
    lo = 0
    for g, hi in zip(groups[last].tolist(), ends[last].tolist()):
        draws[lo:hi] = rngs[g].random(hi - lo)
        lo = hi
    seg = np.repeat(np.arange(fresh.shape[0]), counts)
    keys = np.log(draws) / preference[positions]
    order = np.lexsort((-keys, seg))
    rank = np.arange(order.shape[0]) - (ends - counts)[seg]
    picked = order[rank < fanout[rows][seg]]
    edge_base = groups * preference.shape[0]
    allowed[edge_base[seg[picked]] + positions[picked]] = True


# ----------------------------------------------------------------------
# Subscription and tree kernels
# ----------------------------------------------------------------------
def climb_subscriptions_batch(
        flood: BatchFloodResult, member_rows: np.ndarray,
        member_indptr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Graft every group's informed members' reverse paths at once.

    Reverse-path subscription: every member that received the
    advertisement walks its ``upstream`` chain toward the root, one
    tree level per gather.  ``member_rows``/``member_indptr`` pack the
    ragged per-group member sets (see :func:`pack_members`).  Returns
    group-major ``(on_tree, is_member)`` masks; group ``g``'s parent
    array is ``flood.upstream[g]`` restricted to ``on_tree[g]``.
    Members that never received the advertisement are left off the
    tree (see :func:`repro.core.protocol.attach_searchers`).
    """
    n_groups, n = flood.arrival.shape
    member_rows = np.asarray(member_rows, dtype=np.int64)
    member_indptr = np.asarray(member_indptr, dtype=np.int64)
    if (member_indptr.shape != (n_groups + 1,) or member_indptr[0] != 0
            or member_indptr[-1] != member_rows.shape[0]):
        raise GroupError("member indptr does not match the batch")
    # A negative row would wrap into the previous group's flat keys.
    if ((member_rows < 0) | (member_rows >= n)).any():
        raise GroupError("member row out of range")
    on_tree = np.zeros((n_groups, n), dtype=bool)
    is_member = np.zeros((n_groups, n), dtype=bool)
    n64 = np.int64(n)
    mg = np.repeat(np.arange(n_groups, dtype=np.int64),
                   np.diff(member_indptr))
    is_member[mg, member_rows] = True
    on_tree[np.arange(n_groups), flood.roots] = True
    # The climb walks flat g * n + row keys over raveled views; each
    # level dedups with a radix sort + neighbor mask (set semantics —
    # np.unique's hashing costs far more at these widths).
    on_tree_f = on_tree.ravel()
    upstream_f = flood.upstream.ravel()
    cursor = mg * n64 + member_rows
    cursor = cursor[np.isfinite(flood.arrival.ravel()[cursor])]
    for _ in range(n):
        cursor = cursor[~on_tree_f[cursor]]
        if cursor.size == 0:
            break
        on_tree_f[cursor] = True
        parents = upstream_f[cursor]
        valid = parents >= 0
        cursor = cursor[valid] - cursor[valid] % n64 + parents[valid]
        cursor.sort(kind="stable")
        if cursor.size:
            fresh = np.empty(cursor.shape[0], dtype=bool)
            fresh[0] = True
            np.not_equal(cursor[1:], cursor[:-1], out=fresh[1:])
            cursor = cursor[fresh]
    return on_tree, is_member


def tree_delays_batch(parent: np.ndarray, on_tree: np.ndarray,
                      coords: np.ndarray,
                      roots: np.ndarray | None = None) -> np.ndarray:
    """Per-row delivery delay from each group's root (group-major, ms).

    Edge cost is the shared coordinate distance between child and
    parent rows; off-tree rows (and every row of a rootless group) get
    ``inf``.
    """
    n_groups, n = parent.shape
    delays = np.full((n_groups, n), np.inf)
    if roots is None:
        root_mask = on_tree & (parent < 0)
        has_root = root_mask.any(axis=1)
        roots = np.where(has_root, root_mask.argmax(axis=1), -1)
    else:
        roots = np.asarray(roots, dtype=np.int64)
        has_root = roots >= 0
    g = np.nonzero(has_root)[0]
    delays[g, roots[g]] = 0.0
    # One dense scan builds the edge worklist (child, parent, cost);
    # each settle wave then touches only the still-unsettled edges
    # instead of rescanning the full (n_groups, n) masks per level.
    hg, hv = np.nonzero(on_tree & (parent >= 0))
    hp = parent[hg, hv]
    delta = coords[hv] - coords[hp]
    edge_cost = np.sqrt((delta * delta).sum(axis=1))
    delays_f = delays.ravel()
    n64 = np.int64(n)
    child = hg * n64 + hv
    par = hg * n64 + hp
    for _ in range(n):
        if child.size == 0:
            break
        from_root = delays_f[par]
        ready = np.isfinite(from_root)
        if not ready.any():
            break
        delays_f[child[ready]] = from_root[ready] + edge_cost[ready]
        wait = ~ready
        child, par = child[wait], par[wait]
        edge_cost = edge_cost[wait]
    return delays


# ----------------------------------------------------------------------
# Segmented per-group aggregation (dimensional telemetry columns)
# ----------------------------------------------------------------------
def group_depths_batch(hops: np.ndarray,
                       on_tree: np.ndarray) -> np.ndarray:
    """Per-group tree depth as one masked segmented max (int64).

    A dissemination tree is assembled from the flood's upstream
    pointers, so an on-tree row's depth below the root *is* its flood
    hop count; the group's tree depth is the deepest on-tree row.
    Groups with no tree (or a bare root) report 0.  Pure numpy over the
    ``(n_groups, n_rows)`` batch — no per-peer-group Python loop.
    """
    masked = np.where(on_tree, hops, -1)
    return np.maximum(masked.max(axis=1), 0).astype(np.int64)


def group_delay_cells_batch(delays: np.ndarray, member_mask: np.ndarray,
                            layout) -> np.ndarray:
    """Per-group delay-distribution rows via one flat ``bincount``.

    ``layout`` is any object with a ``cells`` attribute and a
    vectorized ``bin_indices(values) -> int64`` method mapping finite
    member delays (ms) to cell indices — in practice a
    :class:`repro.obs.dims.SketchLayout`, duck-typed so this kernel
    stays decoupled from the telemetry layer.  The segmented reduction
    flattens the key to ``group * cells + cell`` so the whole
    ``(n_groups, cells)`` int64 matrix costs one vectorized pass over
    the delivered members.
    """
    cells = layout.cells
    n_groups = delays.shape[0]
    sample_mask = member_mask & np.isfinite(delays)
    g, v = np.nonzero(sample_mask)
    if g.size == 0:
        return np.zeros((n_groups, cells), dtype=np.int64)
    flat = g.astype(np.int64) * cells + layout.bin_indices(delays[g, v])
    return np.bincount(
        flat, minlength=n_groups * cells).astype(np.int64).reshape(
            n_groups, cells)
