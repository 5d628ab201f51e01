"""Unit tests for coordinate spaces, GNP, and Vivaldi embeddings."""

import numpy as np
import pytest

from repro.config import TransitStubConfig
from repro.coords.base import CoordinateSpace
from repro.coords.gnp import GNPConfig, GNPSystem
from repro.coords.vivaldi import VivaldiConfig, VivaldiSystem
from repro.errors import ConfigurationError, PeerNotFoundError
from repro.network.topology import generate_transit_stub
from repro.sim.random import spawn_rng


@pytest.fixture()
def underlay():
    config = TransitStubConfig(
        transit_domains=3,
        transit_routers_per_domain=3,
        stub_domains_per_transit=2,
        routers_per_stub=3,
    )
    u = generate_transit_stub(config, spawn_rng(2, "topo"))
    rng = spawn_rng(2, "attach")
    for peer in range(40):
        u.attach_peer(peer, rng)
    return u


class TestCoordinateSpace:
    def test_set_get_roundtrip(self):
        space = CoordinateSpace(3)
        space.set(1, [1.0, 2.0, 3.0])
        assert np.array_equal(space.get(1), [1.0, 2.0, 3.0])

    def test_wrong_dimension_rejected(self):
        space = CoordinateSpace(3)
        with pytest.raises(ValueError):
            space.set(1, [1.0, 2.0])

    def test_missing_peer_raises(self):
        with pytest.raises(PeerNotFoundError):
            CoordinateSpace(2).get(9)

    def test_distance_is_euclidean(self):
        space = CoordinateSpace(2)
        space.set(1, [0.0, 0.0])
        space.set(2, [3.0, 4.0])
        assert space.distance(1, 2) == pytest.approx(5.0)

    def test_distances_from_matches_scalar(self):
        space = CoordinateSpace(2)
        for i in range(5):
            space.set(i, [float(i), 0.0])
        vec = space.distances_from(0, [1, 2, 3, 4])
        assert np.allclose(vec, [1.0, 2.0, 3.0, 4.0])

    def test_distances_from_empty(self):
        space = CoordinateSpace(2)
        space.set(0, [0.0, 0.0])
        assert space.distances_from(0, []).size == 0

    def test_remove_is_idempotent(self):
        space = CoordinateSpace(2)
        space.set(0, [0.0, 0.0])
        space.remove(0)
        space.remove(0)
        assert 0 not in space

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            CoordinateSpace(0)


def _reference_embed(gnp, underlay, peer_ids, rng):
    """``GNPSystem.embed_peers`` as first written: one fresh array per
    numpy call, ``np.linalg.norm`` for the embedded distances."""
    cfg = gnp.config
    landmarks = gnp._landmark_coords
    routers = gnp._landmark_routers
    measured = np.empty((len(peer_ids), len(routers)), dtype=float)
    for j, router in enumerate(routers):
        dist = underlay.router_distances_from(int(router))
        for i, peer in enumerate(peer_ids):
            att = underlay.attachment(peer)
            measured[i, j] = att.access_latency_ms + dist[att.router_id]
    nearest = np.argsort(measured, axis=1)[:, :2]
    positions = landmarks[nearest].mean(axis=1)
    positions = positions + rng.normal(scale=1.0, size=positions.shape)
    for _ in range(cfg.peer_iterations):
        diff = positions[:, None, :] - landmarks[None, :, :]
        embedded = np.linalg.norm(diff, axis=2)
        safe = np.maximum(embedded, 1e-9)
        scale = (embedded - measured) / safe
        grad = 2.0 * np.einsum("nl,nld->nd", scale, diff) / len(routers)
        positions -= cfg.learning_rate * grad
    return positions


class TestGNP:
    def test_requires_fit_before_embedding(self, underlay):
        gnp = GNPSystem()
        space = gnp.make_space()
        with pytest.raises(ConfigurationError):
            gnp.embed_peer(0, space, spawn_rng(0, "x"))

    def test_landmark_fit_error_is_small(self, underlay):
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(3, "lm"))
        assert gnp.landmark_fit_error() < 0.35

    def test_embedding_preserves_distances_approximately(self, underlay):
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(3, "lm"))
        space = gnp.make_space()
        peers = list(range(40))
        gnp.embed_peers(peers, space, spawn_rng(3, "embed"))
        rng = spawn_rng(3, "check")
        errors = []
        for _ in range(200):
            a, b = rng.choice(40, size=2, replace=False)
            true = underlay.peer_distance_ms(int(a), int(b))
            est = space.distance(int(a), int(b))
            errors.append(abs(est - true) / max(true, 1e-9))
        assert float(np.median(errors)) < 0.5

    def test_embed_single_peer_matches_batch_scale(self, underlay):
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(3, "lm"))
        space = gnp.make_space()
        coord = gnp.embed_peer(7, space, spawn_rng(3, "one"))
        assert coord.shape == (gnp.config.dimensions,)
        assert 7 in space

    def test_embed_peers_empty_list(self, underlay):
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(3, "lm"))
        out = gnp.embed_peers([], gnp.make_space(), spawn_rng(3, "none"))
        assert out.shape == (0, gnp.config.dimensions)

    def test_embed_is_bit_identical_to_the_allocating_reference(
            self, underlay):
        """The buffer-reusing descent must reproduce the plain numpy
        loop it replaced bit for bit (coordinates feed every overlay
        digest), at n = 1 (what a churn join calls) and in batches."""
        gnp = GNPSystem()
        gnp.fit_landmarks(underlay, spawn_rng(3, "lm"))
        picker = spawn_rng(11, "embed-problems")
        problems = [[int(picker.integers(40))] for _ in range(180)]
        problems += [[int(p) for p in picker.choice(40, size=3,
                                                    replace=False)]
                     for _ in range(30)]
        problems.append(list(range(40)))
        for index, peers in enumerate(problems):
            got = gnp.embed_peers(peers, gnp.make_space(),
                                  spawn_rng(index, "embed"))
            want = _reference_embed(gnp, underlay, peers,
                                    spawn_rng(index, "embed"))
            assert np.array_equal(got, want), (index, peers)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GNPConfig(dimensions=0)
        with pytest.raises(ConfigurationError):
            GNPConfig(dimensions=5, landmark_count=5)
        with pytest.raises(ConfigurationError):
            GNPConfig(learning_rate=0.0)


class TestVivaldi:
    def test_fit_produces_coordinates_for_all_peers(self, underlay):
        vivaldi = VivaldiSystem(VivaldiConfig(rounds=10))
        peers = list(range(20))
        space = vivaldi.fit(underlay, peers, spawn_rng(5, "viv"))
        for peer in peers:
            assert peer in space

    def test_relative_error_reasonable(self, underlay):
        vivaldi = VivaldiSystem(VivaldiConfig(rounds=25))
        peers = list(range(40))
        space = vivaldi.fit(underlay, peers, spawn_rng(5, "viv"))
        err = vivaldi.relative_error(
            underlay, space, peers, spawn_rng(5, "check"))
        assert err < 0.6

    def test_single_peer_gets_origin(self, underlay):
        vivaldi = VivaldiSystem()
        space = vivaldi.fit(underlay, [0], spawn_rng(5, "viv"))
        assert np.allclose(space.get(0), 0.0)

    def test_empty_peer_list(self, underlay):
        vivaldi = VivaldiSystem()
        space = vivaldi.fit(underlay, [], spawn_rng(5, "viv"))
        assert len(space) == 0

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            VivaldiConfig(rounds=0)
        with pytest.raises(ConfigurationError):
            VivaldiConfig(cc=0.0)
