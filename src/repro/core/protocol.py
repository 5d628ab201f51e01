"""Single-group protocol entry points and the scale path's tree helpers.

:func:`flood_advertisement`, :func:`climb_subscriptions` and
:func:`tree_delays` run one group through the group-major kernels of
:mod:`repro.core.multigroup` (a batch of one) and hand back 1-D rows,
so callers that hold a single group never see the batch layout.  The
module also owns what has no batched counterpart: coordinate edge
latencies, the ripple-search stand-in (:func:`attach_searchers`) and
the synthetic overlay the scale benchmark floods.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import AnnouncementConfig, UtilityConfig
from ..errors import GroupError
from ..sim.random import RandomSource
from .arrays import CSRGraph, _concat_ranges
from .multigroup import (
    BatchFloodResult,
    climb_subscriptions_batch,
    flood_advertisements_batch,
    tree_delays_batch,
)


@dataclass(frozen=True)
class FloodResult:
    """Dense outcome of one advertisement flood.

    ``arrival`` is ``inf`` for unreached rows, ``upstream``/``hops``
    are ``-1``; the rendezvous row has arrival 0 and hops 0.
    """

    root: int
    arrival: np.ndarray
    upstream: np.ndarray
    hops: np.ndarray

    @property
    def reached(self) -> np.ndarray:
        """Boolean row mask of peers that received the advertisement."""
        return np.isfinite(self.arrival)

    def receipt_count(self) -> int:
        """Number of rows that received the advertisement."""
        return int(np.count_nonzero(self.reached))


def edge_latencies_from_coords(csr: CSRGraph, coords: np.ndarray,
                               min_latency_ms: float = 0.01) -> np.ndarray:
    """Euclidean coordinate distance per directed CSR edge (ms).

    The scale path prices every overlay hop with the coordinate-space
    estimate (what a real deployment would know); the object-equivalence
    tests instead pass exact per-edge latencies gathered from the
    underlay so both paths price hops identically.
    """
    sources = csr.edge_sources()
    delta = coords[sources] - coords[csr.indices]
    return np.maximum(np.sqrt((delta * delta).sum(axis=1)),
                      min_latency_ms)


def flood_advertisement(
    csr: CSRGraph,
    latency: np.ndarray,
    root: int,
    ttl: int,
    scheme: str = "nssa",
    *,
    capacities: np.ndarray | None = None,
    rng: RandomSource | None = None,
    config: AnnouncementConfig | None = None,
    utility_config: UtilityConfig | None = None,
    epoch_ms: float | None = None,
) -> FloodResult:
    """Flood one advertisement; returns per-row receipt arrays.

    :func:`~repro.core.multigroup.flood_advertisements_batch` with one
    group; ``rng`` is that group's SSA generator.
    """
    batch = flood_advertisements_batch(
        csr, latency, np.array([root]), ttl, scheme,
        capacities=capacities, rngs=None if rng is None else [rng],
        config=config, utility_config=utility_config, epoch_ms=epoch_ms)
    return FloodResult(root=root, arrival=batch.arrival[0],
                       upstream=batch.upstream[0], hops=batch.hops[0])


def climb_subscriptions(flood: FloodResult, members: np.ndarray
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Graft informed members' reverse paths onto the tree.

    :func:`~repro.core.multigroup.climb_subscriptions_batch` with one
    group.  Returns ``(on_tree, is_member)`` row masks; the tree's
    parent array is ``flood.upstream`` restricted to ``on_tree``.
    """
    members = np.asarray(members, dtype=np.int64)
    batch = BatchFloodResult(
        roots=np.array([flood.root]), arrival=flood.arrival[None],
        upstream=flood.upstream[None], hops=flood.hops[None])
    on_tree, is_member = climb_subscriptions_batch(
        batch, members, np.array([0, members.shape[0]]))
    return on_tree[0], is_member[0]


def attach_searchers(csr: CSRGraph, flood: FloodResult,
                     members: np.ndarray, on_tree: np.ndarray,
                     search_ttl: int
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Ripple-search stand-in for members without the advertisement.

    A multi-source BFS from the informed set gives every uninformed
    member its closest informed peer within ``search_ttl`` overlay
    hops; the member's BFS chain is grafted onto the tree and the
    informed anchor's reverse path is climbed.  Returns
    ``(parent, on_tree, failed_members)`` where ``parent`` merges the
    search grafts over ``flood.upstream``.

    This is the scale-path approximation of the object ripple search:
    the anchor is the hop-closest informed peer rather than the
    latency-earliest responder, and search traffic is not simulated
    message by message.
    """
    n = csr.node_count
    members = np.asarray(members, dtype=np.int64)
    parent = np.where(on_tree, flood.upstream, -1)
    searchers = members[~flood.reached[members]]
    if searchers.size == 0:
        return parent, on_tree, searchers
    informed = np.nonzero(flood.reached)[0]
    hops_to_informed, toward = _bfs_with_parents(csr, informed)
    reachable = searchers[
        (hops_to_informed[searchers] >= 0)
        & (hops_to_informed[searchers] <= search_ttl)]
    failed = searchers[~np.isin(searchers, reachable)]
    # Walk each reachable searcher's BFS chain toward its anchor,
    # grafting hop by hop; then climb the anchor's reverse path.
    active = reachable
    for _ in range(search_ttl + 1):
        if active.size == 0:
            break
        at_anchor = hops_to_informed[active] == 0
        anchors = active[at_anchor]
        if anchors.size:
            chain = anchors
            for _ in range(n):
                chain = chain[~on_tree[chain]]
                if chain.size == 0:
                    break
                on_tree[chain] = True
                parent[chain] = flood.upstream[chain]
                nxt = flood.upstream[chain]
                chain = np.unique(nxt[nxt >= 0])
        walkers = active[~at_anchor]
        fresh = walkers[~on_tree[walkers]]
        on_tree[fresh] = True
        parent[fresh] = toward[fresh]
        active = np.unique(toward[walkers][toward[walkers] >= 0])
    return parent, on_tree, failed


def _bfs_with_parents(csr: CSRGraph, roots: np.ndarray
                      ) -> tuple[np.ndarray, np.ndarray]:
    """Multi-source BFS returning ``(hops, toward)``.

    ``toward[v]`` is the BFS predecessor of ``v`` — one deterministic
    step from ``v`` toward the nearest root (lowest-row tie-break).
    """
    n = csr.node_count
    hops = np.full(n, -1, dtype=np.int64)
    toward = np.full(n, -1, dtype=np.int64)
    roots = np.asarray(roots, dtype=np.int64)
    hops[roots] = 0
    frontier = roots
    level = 0
    while frontier.size:
        level += 1
        counts = np.diff(csr.indptr)[frontier]
        positions = _concat_ranges(csr.indptr[frontier], counts)
        sources = csr.edge_sources()[positions]
        targets = csr.indices[positions].astype(np.int64)
        mask = hops[targets] < 0
        sources, targets = sources[mask], targets[mask]
        if targets.size == 0:
            break
        order = np.lexsort((sources, targets))
        targets_sorted = targets[order]
        first = np.ones(order.shape[0], dtype=bool)
        first[1:] = targets_sorted[1:] != targets_sorted[:-1]
        chosen = order[first]
        fresh = targets[chosen]
        hops[fresh] = level
        toward[fresh] = sources[chosen]
        frontier = fresh
    return hops, toward


def tree_delays(parent: np.ndarray, on_tree: np.ndarray,
                coords: np.ndarray, root: int | None = None) -> np.ndarray:
    """Per-row delivery delay through the tree from the root (ms).

    :func:`~repro.core.multigroup.tree_delays_batch` with one group:
    edge cost is the coordinate distance between child and parent,
    off-tree rows get ``inf``.
    """
    return tree_delays_batch(
        parent[None], on_tree[None], coords,
        roots=None if root is None else np.array([root]))[0]


def synthetic_power_law_csr(
    n: int, rng: RandomSource, exponent: float = 2.2,
    min_degree: int = 2, max_degree: int = 64,
) -> CSRGraph:
    """A connected power-law-ish overlay built entirely in arrays.

    Configuration-model edges over a Zipf-like degree target plus a
    random-spine guarantee of connectivity — the scale benchmark's
    stand-in for the bootstrap protocol, built in O(edges) numpy work
    with no per-peer Python objects.
    """
    if n < 2:
        raise GroupError("need at least two peers")
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (exponent - 1.0))
    rng.shuffle(weights)
    degrees = np.clip(
        np.rint(weights / weights.mean() * 2.0 * min_degree),
        min_degree, max_degree).astype(np.int64)
    # Spine: peer i links to a random earlier peer (connectivity).
    spine_targets = (rng.random(n - 1)
                     * np.arange(1, n, dtype=np.float64)).astype(np.int64)
    spine_u = np.arange(1, n, dtype=np.int64)
    # Configuration-model extras: endpoints drawn by degree weight.
    extra = max(int(degrees.sum() // 2) - (n - 1), 0)
    p = degrees / degrees.sum()
    u = rng.choice(n, size=extra, p=p)
    v = rng.choice(n, size=extra, p=p)
    keep = u != v
    heads = np.concatenate([spine_u, u[keep]])
    tails = np.concatenate([spine_targets, v[keep]])
    # De-duplicate undirected pairs.
    low = np.minimum(heads, tails)
    high = np.maximum(heads, tails)
    pairs = np.unique(low * np.int64(n) + high)
    return CSRGraph.from_edges(n, pairs // n, pairs % n)
