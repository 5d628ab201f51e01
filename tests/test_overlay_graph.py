"""Unit + property tests for the overlay graph container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import OverlayError, PeerNotFoundError
from repro.overlay.graph import OverlayNetwork
from repro.peers.peer import PeerInfo


def make_info(peer_id, capacity=10.0):
    return PeerInfo(peer_id=peer_id, capacity=capacity,
                    coordinate=np.array([float(peer_id), 0.0]))


@pytest.fixture()
def triangle():
    overlay = OverlayNetwork()
    for i in range(3):
        overlay.add_peer(make_info(i))
    overlay.add_link(0, 1)
    overlay.add_link(1, 2)
    overlay.add_link(0, 2)
    return overlay


class TestVertices:
    def test_add_and_lookup(self):
        overlay = OverlayNetwork()
        overlay.add_peer(make_info(5, capacity=100.0))
        assert 5 in overlay
        assert overlay.peer(5).capacity == 100.0
        assert overlay.peer_count == 1

    def test_duplicate_peer_rejected(self):
        overlay = OverlayNetwork()
        overlay.add_peer(make_info(1))
        with pytest.raises(OverlayError):
            overlay.add_peer(make_info(1))

    def test_remove_peer_clears_links(self, triangle):
        triangle.remove_peer(1)
        assert 1 not in triangle
        assert triangle.edge_count == 1
        assert triangle.neighbors(0) == [2]

    def test_unknown_peer_raises(self):
        overlay = OverlayNetwork()
        with pytest.raises(PeerNotFoundError):
            overlay.peer(9)
        with pytest.raises(PeerNotFoundError):
            overlay.neighbors(9)


class TestEdges:
    def test_links_are_undirected(self, triangle):
        assert triangle.has_link(0, 1)
        assert triangle.has_link(1, 0)
        assert 0 in triangle.neighbors(1)
        assert 1 in triangle.neighbors(0)

    def test_add_link_idempotent(self, triangle):
        assert triangle.add_link(0, 1) is False
        assert triangle.edge_count == 3

    def test_self_link_rejected(self, triangle):
        with pytest.raises(OverlayError):
            triangle.add_link(0, 0)

    def test_remove_link(self, triangle):
        assert triangle.remove_link(0, 1) is True
        assert triangle.remove_link(0, 1) is False
        assert triangle.edge_count == 2

    def test_edges_iteration_normalised(self, triangle):
        assert sorted(triangle.edges()) == [(0, 1), (0, 2), (1, 2)]

    def test_degree(self, triangle):
        assert triangle.degree(0) == 2
        triangle.remove_link(0, 1)
        assert triangle.degree(0) == 1


class TestStatistics:
    def test_degree_distribution(self, triangle):
        values, counts = triangle.degree_distribution()
        assert list(values) == [2]
        assert list(counts) == [3]

    def test_clustering_of_triangle_is_one(self, triangle):
        assert triangle.clustering_coefficient() == pytest.approx(1.0)

    def test_clustering_of_path_is_zero(self):
        overlay = OverlayNetwork()
        for i in range(3):
            overlay.add_peer(make_info(i))
        overlay.add_link(0, 1)
        overlay.add_link(1, 2)
        assert overlay.clustering_coefficient() == 0.0

    def test_connectivity(self, triangle):
        assert triangle.is_connected()
        triangle.add_peer(make_info(7))
        assert not triangle.is_connected()
        assert triangle.connected_component_sizes() == [3, 1]

    def test_hop_distances(self, triangle):
        triangle.remove_link(0, 2)
        dist = triangle.hop_distances_from(0)
        assert dist == {0: 0, 1: 1, 2: 2}

    def test_estimated_diameter(self, rng):
        overlay = OverlayNetwork()
        for i in range(6):
            overlay.add_peer(make_info(i))
        for i in range(5):
            overlay.add_link(i, i + 1)
        assert overlay.estimated_diameter(rng, samples=6) == 5

    def test_empty_graph_statistics(self):
        overlay = OverlayNetwork()
        assert overlay.is_connected()
        assert overlay.clustering_coefficient() == 0.0
        values, counts = overlay.degree_distribution()
        assert values.size == 0 and counts.size == 0


@given(
    st.lists(
        st.tuples(st.integers(0, 14), st.integers(0, 14)).filter(
            lambda edge: edge[0] != edge[1]),
        max_size=60,
    )
)
@settings(max_examples=60, deadline=None)
def test_property_edge_count_matches_adjacency(edge_list):
    """edge_count stays consistent under arbitrary add/remove sequences."""
    overlay = OverlayNetwork()
    for i in range(15):
        overlay.add_peer(make_info(i))
    reference: set[tuple[int, int]] = set()
    for a, b in edge_list:
        key = (min(a, b), max(a, b))
        if key in reference:
            overlay.remove_link(a, b)
            reference.discard(key)
        else:
            overlay.add_link(a, b)
            reference.add(key)
    assert overlay.edge_count == len(reference)
    assert set(overlay.edges()) == reference
    degrees = overlay.degrees()
    assert degrees.sum() == 2 * len(reference)
