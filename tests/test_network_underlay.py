"""Unit tests for the underlay network: routing and peer attachments."""

import numpy as np
import pytest

from repro.config import TransitStubConfig
from repro.errors import RoutingError, TopologyError
from repro.network.topology import generate_transit_stub
from repro.network.underlay import UnderlayNetwork
from repro.sim.random import spawn_rng


@pytest.fixture()
def underlay(rng):
    config = TransitStubConfig(
        transit_domains=2,
        transit_routers_per_domain=2,
        stub_domains_per_transit=2,
        routers_per_stub=3,
    )
    return generate_transit_stub(config, rng)


@pytest.fixture()
def attached(underlay):
    rng = spawn_rng(9, "attach")
    for peer in range(10):
        underlay.attach_peer(peer, rng)
    return underlay


class TestRouting:
    def test_distance_symmetry(self, underlay):
        n = underlay.router_count
        pairs = [(0, n - 1), (1, n // 2), (2, 3)]
        for a, b in pairs:
            assert underlay.router_distance_ms(a, b) == pytest.approx(
                underlay.router_distance_ms(b, a))

    def test_distance_to_self_is_zero(self, underlay):
        assert underlay.router_distance_ms(4, 4) == 0.0

    def test_triangle_inequality(self, underlay):
        n = underlay.router_count
        for a, b, c in [(0, n // 2, n - 1), (1, 2, 3)]:
            ab = underlay.router_distance_ms(a, b)
            bc = underlay.router_distance_ms(b, c)
            ac = underlay.router_distance_ms(a, c)
            assert ac <= ab + bc + 1e-9

    def test_path_endpoints_and_continuity(self, underlay):
        path = underlay.router_path(0, underlay.router_count - 1)
        assert path[0] == 0
        assert path[-1] == underlay.router_count - 1
        for u, v in zip(path, path[1:]):
            assert underlay.link_latency_ms(u, v) > 0.0

    def test_path_latency_matches_distance(self, underlay):
        a, b = 0, underlay.router_count - 1
        path = underlay.router_path(a, b)
        total = sum(underlay.link_latency_ms(u, v)
                    for u, v in zip(path, path[1:]))
        assert total == pytest.approx(underlay.router_distance_ms(a, b))

    def test_link_latency_is_the_routed_weight(self):
        # Seed 1 draws the same transit pair (0, 2) for both halves of
        # the two-domain inter-domain ring, with different latencies;
        # routing keeps the first copy, and so must link_latency_ms.
        config = TransitStubConfig(
            transit_domains=2,
            transit_routers_per_domain=2,
            stub_domains_per_transit=2,
            routers_per_stub=3,
        )
        underlay = generate_transit_stub(
            config, spawn_rng(1, "duplicate-ring"))
        assert underlay.router_path(0, 2) == [0, 2]
        assert (underlay.link_latency_ms(0, 2)
                == underlay.router_distance_ms(0, 2))

    def test_unknown_router_rejected(self, underlay):
        with pytest.raises(RoutingError):
            underlay.router_distances_from(10_000)

    def test_link_latency_rejects_out_of_range_routers(self, underlay):
        for a, b in ((-1, 0), (0, -1), (0, underlay.router_count)):
            with pytest.raises(RoutingError):
                underlay.link_latency_ms(a, b)

    def test_missing_link_rejected(self, underlay):
        # Routers 0 and the last stub router are almost surely not adjacent.
        found_nonadjacent = None
        for candidate in range(underlay.router_count - 1, 0, -1):
            try:
                underlay.link_latency_ms(0, candidate)
            except RoutingError:
                found_nonadjacent = candidate
                break
        assert found_nonadjacent is not None


class TestAttachments:
    def test_attach_and_lookup(self, attached):
        att = attached.attachment(3)
        assert att.peer_id == 3
        assert 0 <= att.router_id < attached.router_count
        assert att.access_latency_ms > 0.0

    def test_double_attach_rejected(self, attached, rng):
        with pytest.raises(TopologyError):
            attached.attach_peer(3, rng)

    def test_unattached_lookup_rejected(self, attached):
        with pytest.raises(TopologyError):
            attached.attachment(999)

    def test_peers_attach_to_stub_routers_only(self, attached):
        from repro.network.topology import RouterLevel

        for peer in range(10):
            att = attached.attachment(peer)
            assert attached.routers[att.router_id].level is RouterLevel.STUB

    def test_peer_distance_symmetry_and_self(self, attached):
        assert attached.peer_distance_ms(0, 0) == 0.0
        assert attached.peer_distance_ms(0, 1) == pytest.approx(
            attached.peer_distance_ms(1, 0))

    def test_peer_distance_includes_access_latency(self, attached):
        a = attached.attachment(0)
        b = attached.attachment(1)
        expected = (a.access_latency_ms
                    + attached.router_distance_ms(a.router_id, b.router_id)
                    + b.access_latency_ms)
        assert attached.peer_distance_ms(0, 1) == pytest.approx(expected)

    def test_vectorized_distances_match_scalar(self, attached):
        others = [1, 2, 3, 0]
        vec = attached.peer_distances_ms(0, others)
        for value, other in zip(vec, others):
            assert value == pytest.approx(attached.peer_distance_ms(0, other))

    def test_vectorized_distances_match_scalar_exhaustively(self, attached):
        """The numpy gather must agree with the scalar path bit-for-bit
        over every attached pair, self-distances included."""
        peers = sorted(att.peer_id for att in
                       (attached.attachment(p) for p in range(10)))
        for source in peers:
            vec = attached.peer_distances_ms(source, peers)
            scalar = [attached.peer_distance_ms(source, other)
                      for other in peers]
            np.testing.assert_array_equal(vec, np.array(scalar))

    def test_vectorized_distances_accept_numpy_ids(self, attached):
        others = np.array([1, 2, 3])
        vec = attached.peer_distances_ms(0, others)
        assert vec.shape == (3,)
        assert (vec > 0.0).all()

    def test_vectorized_distances_empty_list(self, attached):
        assert attached.peer_distances_ms(0, []).shape == (0,)

    def test_vectorized_distances_unattached_peer_rejected(self, attached):
        with pytest.raises(TopologyError):
            attached.peer_distances_ms(0, [1, 999])

    def test_path_links_include_access_links(self, attached):
        links = attached.peer_path_links(0, 1)
        access = [link for link in links if link[0] < 0]
        assert (-0 - 1, attached.attachment(0).router_id) in links
        assert (-1 - 1, attached.attachment(1).router_id) in links
        assert len(access) == 2

    def test_path_links_empty_for_self(self, attached):
        assert attached.peer_path_links(5, 5) == []

    def test_hop_count_positive_between_distinct_peers(self, attached):
        assert attached.peer_hop_count(0, 1) >= 2  # two access links minimum


class TestValidation:
    def test_rejects_disconnected_graph(self):
        from repro.network.topology import Router, RouterLevel

        routers = [Router(i, RouterLevel.STUB, 0) for i in range(4)]
        edges = [(0, 1, 1.0), (2, 3, 1.0)]
        with pytest.raises(TopologyError):
            UnderlayNetwork(routers, edges, np.array([0, 1, 2, 3]),
                            (0.5, 1.0))

    def test_rejects_self_loop(self):
        from repro.network.topology import Router, RouterLevel

        routers = [Router(i, RouterLevel.STUB, 0) for i in range(2)]
        with pytest.raises(TopologyError):
            UnderlayNetwork(routers, [(0, 0, 1.0)], np.array([0, 1]),
                            (0.5, 1.0))

    def test_rejects_non_positive_latency(self):
        from repro.network.topology import Router, RouterLevel

        routers = [Router(i, RouterLevel.STUB, 0) for i in range(2)]
        with pytest.raises(TopologyError):
            UnderlayNetwork(routers, [(0, 1, 0.0)], np.array([0, 1]),
                            (0.5, 1.0))

    def test_rejects_empty_edge_list(self):
        from repro.network.topology import Router, RouterLevel

        routers = [Router(0, RouterLevel.STUB, 0)]
        with pytest.raises(TopologyError):
            UnderlayNetwork(routers, [], np.array([0]), (0.5, 1.0))
