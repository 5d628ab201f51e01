"""Equivalence suite for the vectorized routing core.

Every bulk method of :class:`~repro.network.underlay.UnderlayNetwork`
must agree **bit-for-bit** with the scalar reference semantics
(:meth:`peer_distance_ms`, :meth:`peer_path_links`, ...) on seeded
topologies — not approximately, exactly: the vectorized gathers were
written to preserve the scalar operand order, and these tests pin that
contract down with ``np.testing.assert_array_equal``.
"""

from __future__ import annotations

from collections import Counter, deque

import numpy as np
import pytest
from scipy.sparse.csgraph import dijkstra

from repro.config import TransitStubConfig
from repro.errors import ConfigurationError, TopologyError
from repro.groupcast.dissemination import disseminate
from repro.groupcast.spanning_tree import SpanningTree
from repro.network.multicast import (
    _build_ip_multicast_tree_scalar,
    build_ip_multicast_tree,
)
from repro.network.routing import EMPTY_F64, EMPTY_I64
from repro.network.topology import (
    Router,
    RouterLevel,
    generate_transit_stub,
)
from repro.network.underlay import UnderlayNetwork
from repro.sim.random import spawn_rng

PEERS = 40


@pytest.fixture(scope="module")
def attached() -> UnderlayNetwork:
    config = TransitStubConfig(
        transit_domains=2,
        transit_routers_per_domain=3,
        stub_domains_per_transit=2,
        routers_per_stub=3,
    )
    underlay = generate_transit_stub(config, spawn_rng(11, "routing-core"))
    rng = spawn_rng(12, "routing-core-attach")
    for peer in range(PEERS):
        underlay.attach_peer(peer, rng)
    return underlay


@pytest.fixture()
def peers() -> list[int]:
    return list(range(PEERS))


class TestDistanceEquivalence:
    def test_matrix_matches_scalar_bit_for_bit(self, attached, peers):
        matrix = attached.peer_distance_matrix(peers)
        scalar = np.array([[attached.peer_distance_ms(a, b)
                            for b in peers] for a in peers])
        np.testing.assert_array_equal(matrix, scalar)

    def test_rectangular_matrix_matches_scalar(self, attached, peers):
        rows, cols = peers[:7], peers[5:20]
        matrix = attached.peer_distance_matrix(rows, cols)
        scalar = np.array([[attached.peer_distance_ms(a, b)
                            for b in cols] for a in rows])
        np.testing.assert_array_equal(matrix, scalar)

    def test_pair_distances_match_scalar(self, attached):
        rng = spawn_rng(21, "pairs")
        a_ids = [int(rng.choice(PEERS)) for _ in range(200)]
        b_ids = [int(rng.choice(PEERS)) for _ in range(200)]
        flat = attached.peer_pair_distances(a_ids, b_ids)
        scalar = np.array([attached.peer_distance_ms(a, b)
                           for a, b in zip(a_ids, b_ids)])
        np.testing.assert_array_equal(flat, scalar)

    def test_pair_distances_rejects_length_mismatch(self, attached):
        with pytest.raises(TopologyError):
            attached.peer_pair_distances([0, 1], [2])

    def test_matrix_diagonal_is_exactly_zero(self, attached, peers):
        matrix = attached.peer_distance_matrix(peers)
        np.testing.assert_array_equal(np.diag(matrix),
                                      np.zeros(len(peers)))


class TestPathEquivalence:
    def test_path_links_many_match_scalar(self, attached, peers):
        for source in (0, 7, PEERS - 1):
            many = attached.peer_path_links_many(source, peers)
            for other, links in zip(peers, many):
                assert links == attached.peer_path_links(source, other)

    def test_hop_counts_match_scalar(self, attached, peers):
        for source in (0, 13):
            vec = attached.peer_hop_counts(source, peers)
            scalar = np.array([attached.peer_hop_count(source, other)
                               for other in peers])
            np.testing.assert_array_equal(vec, scalar)

    def test_hop_count_equals_path_link_count(self, attached, peers):
        for other in peers[1:15]:
            assert (attached.peer_hop_count(0, other)
                    == len(attached.peer_path_links(0, other)))

    def test_multicast_links_match_union_of_paths(self, attached, peers):
        receivers = peers[1:25]
        union: set[tuple[int, int]] = set()
        for other in receivers:
            union.update(attached.peer_path_links(0, other))
        assert attached.multicast_links(0, receivers) == union

    def test_multicast_links_reject_source_in_receivers(self, attached):
        with pytest.raises(TopologyError):
            attached.multicast_links(0, [0, 1])


class TestTreeEquivalence:
    def test_ip_multicast_tree_matches_scalar_oracle(self, attached, peers):
        fast = build_ip_multicast_tree(attached, 3, peers)
        slow = _build_ip_multicast_tree_scalar(attached, 3, peers)
        assert fast.source == slow.source
        assert fast.subscribers == slow.subscribers
        assert fast.links == slow.links
        assert set(fast.delays_ms) == set(slow.delays_ms)
        for peer, delay in slow.delays_ms.items():
            assert fast.delays_ms[peer] == delay  # exact, not approx

    def test_disseminate_matches_scalar_flood(self, attached):
        tree = SpanningTree(root=0)
        rng = spawn_rng(31, "tree-shape")
        for peer in range(1, 20):
            parent = int(rng.choice(peer))
            tree.graft_chain([peer, parent])
            tree.mark_member(peer)
        report = disseminate(tree, 0, attached)

        # Inline scalar reference: same BFS over sorted adjacency, but
        # per-pair scalar queries.
        adjacency = tree.tree_adjacency()
        delays = {0: 0.0}
        ip_messages = 0
        stress: Counter[tuple[int, int]] = Counter()
        queue = deque([0])
        while queue:
            node = queue.popleft()
            for neighbor in sorted(adjacency[node]):
                if neighbor in delays:
                    continue
                delays[neighbor] = (delays[node]
                                    + attached.peer_distance_ms(
                                        node, neighbor))
                links = attached.peer_path_links(node, neighbor)
                ip_messages += len(links)
                stress.update(links)
                queue.append(neighbor)

        assert report.ip_messages == ip_messages
        assert report.physical_link_stress == dict(stress)
        for member, delay in report.member_delays_ms.items():
            assert delay == delays[member]  # exact


class TestEmptyQueries:
    def test_empty_others_returns_shared_vector(self, attached):
        out = attached.peer_distances_ms(0, [])
        assert out is EMPTY_F64
        assert out.dtype == np.float64
        assert not out.flags.writeable

    def test_empty_hop_counts_returns_shared_vector(self, attached):
        out = attached.peer_hop_counts(0, [])
        assert out is EMPTY_I64
        assert out.dtype == np.int64

    def test_empty_path_links_many(self, attached):
        assert attached.peer_path_links_many(0, []) == []

    def test_empty_pair_distances(self, attached):
        assert attached.peer_pair_distances([], []) is EMPTY_F64


def _reference_depth_row(pred: np.ndarray, router: int) -> np.ndarray:
    """Hop depths from ``router`` as first written: a Python walk up the
    predecessor row, one stack per unvisited router."""
    n = pred.shape[0]
    depth = np.full(n, -1, dtype=np.int64)
    depth[router] = 0
    stack: list[int] = []
    for start in range(n):
        if depth[start] >= 0:
            continue
        node = start
        while depth[node] < 0:
            stack.append(node)
            parent = int(pred[node])
            if parent < 0:
                break
            node = parent
        base = depth[node] if depth[node] >= 0 else 0
        while stack:
            base += 1
            depth[stack.pop()] = base
    return depth


def _default_underlay(seed: int) -> UnderlayNetwork:
    return generate_transit_stub(TransitStubConfig(),
                                 spawn_rng(seed, "dense-matrix"))


class TestDenseMatrix:
    def test_rows_match_single_source_solves(self):
        for seed in range(10):
            underlay = _default_underlay(seed)
            core = underlay.routing
            for source in range(underlay.router_count):
                dist, pred = dijkstra(underlay._graph, directed=False,
                                      indices=[source],
                                      return_predecessors=True)
                assert np.array_equal(core.dist[source], dist[0])
                assert np.array_equal(core.pred[source], pred[0])

    def test_hops_match_predecessor_walk(self):
        for seed in range(3):
            core = _default_underlay(seed).routing
            for source in range(core.dist.shape[0]):
                np.testing.assert_array_equal(
                    core.hops[source],
                    _reference_depth_row(core.pred[source], source))

    def test_matrices_are_read_only(self, attached):
        before = attached.router_distance_ms(0, 5)
        row = attached.router_distances_from(0)
        with pytest.raises(ValueError):
            row[5] += 100.0
        for matrix in (attached.routing.dist, attached.routing.pred,
                       attached.routing.hops):
            with pytest.raises(ValueError):
                matrix[0, 5] = 0
        assert attached.router_distance_ms(0, 5) == before

    def test_oversized_router_graph_rejected(self):
        n = 1700
        routers = [Router(i, RouterLevel.STUB, 0) for i in range(n)]
        ring = [(i, (i + 1) % n, 1.0) for i in range(n)]
        with pytest.raises(ConfigurationError):
            UnderlayNetwork(routers, ring, np.arange(n), (0.5, 3.0))

    def test_cache_stats_counts_lookups_as_hits(self, attached):
        before = attached.routing.cache_stats()
        assert set(before) == {"hits", "misses"}
        attached.peer_distance_ms(0, 1)
        attached.peer_distances_ms(0, [1, 2, 3])
        after = attached.routing.cache_stats()
        assert after == {"hits": before["hits"] + 2, "misses": 0}
