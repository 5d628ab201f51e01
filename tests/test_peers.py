"""Unit tests for peer identity and capacity distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.peers.capacity import (
    PAPER_CAPACITY_DISTRIBUTION,
    CapacityDistribution,
    zipf_capacities,
)
from repro.peers.peer import PeerInfo, coordinate_distances
from repro.sim.random import spawn_rng


class TestCapacityDistribution:
    def test_paper_table1_levels(self):
        dist = PAPER_CAPACITY_DISTRIBUTION
        assert dist.levels == (1.0, 10.0, 100.0, 1000.0, 10000.0)
        assert dist.weights == (0.20, 0.45, 0.30, 0.049, 0.001)

    def test_sample_matches_table1_proportions(self):
        rng = spawn_rng(0, "cap")
        draws = PAPER_CAPACITY_DISTRIBUTION.sample(rng, 100_000)
        for level, weight in zip((1.0, 10.0, 100.0), (0.20, 0.45, 0.30)):
            observed = (draws == level).mean()
            assert abs(observed - weight) < 0.01

    def test_sample_one(self):
        rng = spawn_rng(0, "cap")
        value = PAPER_CAPACITY_DISTRIBUTION.sample_one(rng)
        assert value in PAPER_CAPACITY_DISTRIBUTION.levels

    def test_mean(self):
        dist = CapacityDistribution(levels=(1.0, 3.0), weights=(0.5, 0.5))
        assert dist.mean() == pytest.approx(2.0)

    def test_resource_level_of(self):
        dist = PAPER_CAPACITY_DISTRIBUTION
        assert dist.resource_level_of(1.0) == 0.0
        assert dist.resource_level_of(10.0) == pytest.approx(0.20)
        assert dist.resource_level_of(10000.0) == pytest.approx(0.999)
        assert dist.resource_level_of(20000.0) == pytest.approx(1.0)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            CapacityDistribution(levels=(1.0, 2.0), weights=(0.5, 0.6))

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            CapacityDistribution(levels=(1.0, 2.0), weights=(-0.1, 1.1))

    def test_non_positive_level_rejected(self):
        with pytest.raises(ConfigurationError):
            CapacityDistribution(levels=(0.0, 2.0), weights=(0.5, 0.5))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            CapacityDistribution(levels=(), weights=())

    def test_negative_count_rejected(self):
        rng = spawn_rng(0, "cap")
        with pytest.raises(ConfigurationError):
            PAPER_CAPACITY_DISTRIBUTION.sample(rng, -1)


class TestZipfCapacities:
    def test_range_and_truncation(self):
        rng = spawn_rng(1, "zipf")
        draws = zipf_capacities(rng, 10_000, exponent=2.0, max_capacity=1000)
        assert draws.min() >= 1.0
        assert draws.max() <= 1000.0

    def test_heavy_tail_shape(self):
        rng = spawn_rng(1, "zipf")
        draws = zipf_capacities(rng, 50_000, exponent=2.0)
        ones = (draws == 1.0).mean()
        assert 0.5 < ones < 0.75  # zeta(2) gives P(1) ~ 0.61

    def test_exponent_validation(self):
        rng = spawn_rng(1, "zipf")
        with pytest.raises(ConfigurationError):
            zipf_capacities(rng, 10, exponent=1.0)

    def test_count_validation(self):
        rng = spawn_rng(1, "zipf")
        with pytest.raises(ConfigurationError):
            zipf_capacities(rng, -5)


class TestPeerInfo:
    def _info(self, peer_id=3, capacity=10.0):
        return PeerInfo(peer_id=peer_id, capacity=capacity,
                        coordinate=np.array([1.0, 2.0]))

    def test_quadruplet_contents(self):
        info = self._info()
        ip, port, coordinate, capacity = info.quadruplet()
        assert ip.startswith("10.")
        assert 6346 <= port < 7346
        assert coordinate == (1.0, 2.0)
        assert capacity == 10.0

    def test_ip_address_unique_per_peer(self):
        a = self._info(peer_id=1)
        b = self._info(peer_id=2)
        assert a.ip_address != b.ip_address

    def test_coordinate_distance(self):
        a = PeerInfo(1, 1.0, np.array([0.0, 0.0]))
        b = PeerInfo(2, 1.0, np.array([3.0, 4.0]))
        assert a.coordinate_distance(b) == pytest.approx(5.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PeerInfo(-1, 1.0, np.zeros(2))
        with pytest.raises(ValueError):
            PeerInfo(1, 0.0, np.zeros(2))

    def test_equality_and_hash(self):
        a = self._info()
        b = self._info()
        assert a == b
        assert hash(a) == hash(b)
        assert a != self._info(peer_id=4)


class TestDistanceKernel:
    """``coordinate_distances`` is the one definition of coordinate
    distance; bootstrap ranking, ``PB`` and SSA forwarding all draw on
    it, so it has to equal the 1-D ``np.linalg.norm`` to the last bit
    on whatever numpy the CI matrix installs."""

    @given(d=st.integers(1, 8), k=st.integers(0, 64),
           seed=st.integers(0, 2**32 - 1),
           scale=st.sampled_from([1e-3, 1.0, 250.0, 1e6]))
    @settings(max_examples=200, deadline=None)
    def test_rows_equal_scalar_norm_bit_for_bit(self, d, k, seed, scale):
        rng = np.random.default_rng(seed)
        coords = rng.normal(scale=scale, size=(k, d))
        origin = rng.normal(scale=scale, size=d)
        origins = rng.normal(scale=scale, size=(k, d))
        shared = coordinate_distances(coords, origin)
        per_row = coordinate_distances(coords, origins)
        assert shared.shape == per_row.shape == (k,)
        for row in range(k):
            assert shared[row] == float(
                np.linalg.norm(coords[row] - origin))
            assert per_row[row] == float(
                np.linalg.norm(coords[row] - origins[row]))

    def test_peer_info_distance_is_the_kernel_row(self):
        rng = np.random.default_rng(5)
        a = PeerInfo(1, 1.0, rng.normal(scale=100.0, size=5))
        b = PeerInfo(2, 1.0, rng.normal(scale=100.0, size=5))
        expected = float(np.linalg.norm(a.coordinate - b.coordinate))
        assert a.coordinate_distance(b) == expected
        assert b.coordinate_distance(a) == expected
        assert isinstance(a.coordinate_distance(b), float)
