"""Unit + property tests for the utility function (Equations 1-6)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import UtilityConfig
from repro.errors import ConfigurationError
from repro.utility.backlink import (
    back_link_acceptance_probabilities,
    back_link_acceptance_probability,
)
from repro.utility.preference import (
    capacity_preference,
    derive_parameters,
    distance_preference,
    normalized_distances,
    selection_preference,
)
from repro.utility.resource_level import estimate_resource_level

CONFIG = UtilityConfig()


class TestDeriveParameters:
    def test_paper_formulae(self):
        alpha, beta, gamma = derive_parameters(0.5)
        assert alpha == pytest.approx(0.5)
        assert beta == pytest.approx(0.5)
        assert gamma == pytest.approx(0.5 ** (-math.log(0.5)))

    def test_weak_peer_is_distance_dominated(self):
        _, _, gamma = derive_parameters(0.05)
        assert gamma < 0.01

    def test_powerful_peer_is_capacity_dominated(self):
        _, _, gamma = derive_parameters(0.95)
        assert gamma > 0.99

    def test_extreme_inputs_clamped(self):
        for r in (0.0, 1.0, -3.0, 7.0):
            alpha, beta, gamma = derive_parameters(r)
            assert alpha < 1.0
            assert beta < 1.0
            assert 0.0 < gamma <= 1.0


class TestNormalizedDistances:
    def test_eq2_normalisation(self):
        d = normalized_distances(np.array([100.0, 200.0, 400.0]))
        assert np.allclose(d, [0.25, 0.5, 1.0])

    def test_floor_prevents_zero(self):
        d = normalized_distances(np.array([0.0, 10.0]))
        assert d[0] > 0.0

    def test_all_in_unit_interval(self):
        d = normalized_distances(np.array([3.0, 9.0, 1.0, 400.0]))
        assert ((d > 0.0) & (d <= 1.0)).all()

    def test_empty(self):
        assert normalized_distances(np.array([])).size == 0


class TestDistancePreference:
    def test_is_probability_vector(self):
        p = distance_preference(np.array([10.0, 50.0, 300.0]), alpha=0.5)
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0.0).all()

    def test_closer_is_preferred(self):
        p = distance_preference(np.array([10.0, 100.0]), alpha=0.5)
        assert p[0] > p[1]

    def test_high_alpha_sharpens_preference(self):
        distances = np.array([10.0, 100.0])
        mild = distance_preference(distances, alpha=0.0)
        sharp = distance_preference(distances, alpha=0.95)
        assert sharp[0] > mild[0]

    def test_alpha_at_least_one_rejected(self):
        with pytest.raises(ConfigurationError):
            distance_preference(np.array([1.0, 2.0]), alpha=1.0)


class TestCapacityPreference:
    def test_is_probability_vector(self):
        p = capacity_preference(np.array([1.0, 10.0, 100.0]), beta=0.5)
        assert p.sum() == pytest.approx(1.0)
        assert (p > 0.0).all()

    def test_powerful_is_preferred(self):
        p = capacity_preference(np.array([1.0, 1000.0]), beta=0.5)
        assert p[1] > p[0]

    def test_proportionality(self):
        p = capacity_preference(np.array([10.0, 20.0]), beta=0.0)
        assert p[1] / p[0] == pytest.approx(2.0)

    def test_non_positive_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            capacity_preference(np.array([0.0, 2.0]), beta=0.5)

    def test_beta_at_least_one_rejected(self):
        with pytest.raises(ConfigurationError):
            capacity_preference(np.array([1.0]), beta=1.5)


class TestSelectionPreference:
    def test_weak_peer_ranks_by_distance(self):
        capacities = np.array([10000.0, 1.0])
        distances = np.array([300.0, 5.0])  # powerful peer is far away
        p = selection_preference(capacities, distances, resource_level=0.05)
        assert p[1] > p[0]

    def test_powerful_peer_ranks_by_capacity(self):
        capacities = np.array([10000.0, 1.0])
        distances = np.array([300.0, 5.0])
        p = selection_preference(capacities, distances, resource_level=0.95)
        assert p[0] > p[1]

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigurationError):
            selection_preference(np.array([1.0]), np.array([1.0, 2.0]), 0.5)

    def test_empty_candidate_list(self):
        p = selection_preference(np.array([]), np.array([]), 0.5)
        assert p.size == 0

    def test_single_candidate_gets_probability_one(self):
        p = selection_preference(np.array([5.0]), np.array([10.0]), 0.5)
        assert p[0] == pytest.approx(1.0)

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1,
                 max_size=40),
        st.floats(min_value=0.001, max_value=0.999),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_probability_vector(self, capacities, resource_level,
                                         seed):
        rng = np.random.default_rng(seed)
        capacities = np.asarray(capacities)
        distances = rng.uniform(0.1, 400.0, size=capacities.size)
        p = selection_preference(capacities, distances, resource_level)
        assert p.shape == capacities.shape
        assert np.isfinite(p).all()
        assert (p >= 0.0).all()
        assert p.sum() == pytest.approx(1.0)

    @given(st.floats(min_value=0.001, max_value=0.999))
    @settings(max_examples=40, deadline=None)
    def test_property_dominant_candidate_wins(self, resource_level):
        """A candidate both closer and more capable is never dispreferred."""
        capacities = np.array([100.0, 10.0])
        distances = np.array([10.0, 200.0])
        p = selection_preference(capacities, distances, resource_level)
        assert p[0] >= p[1]


class TestResourceLevel:
    def test_fraction_below(self):
        r = estimate_resource_level(100.0, [1.0, 10.0, 1000.0, 50.0])
        assert r == pytest.approx(0.75)

    def test_no_samples_defaults_to_median(self):
        assert estimate_resource_level(10.0, []) == pytest.approx(0.5)

    def test_clamping_at_extremes(self):
        top = estimate_resource_level(1e6, [1.0] * 50)
        bottom = estimate_resource_level(0.5, [10.0] * 50)
        assert top <= CONFIG.max_resource_level
        assert bottom >= CONFIG.min_resource_level

    def test_equal_capacity_not_counted_below(self):
        r = estimate_resource_level(10.0, [10.0, 10.0])
        assert r == CONFIG.min_resource_level

    def test_invalid_capacity_rejected(self):
        with pytest.raises(ValueError):
            estimate_resource_level(0.0, [1.0])


class TestBackLink:
    def test_empty_neighborhood_always_accepts(self):
        p = back_link_acceptance_probability(10.0, 1.0, 50.0, [], [])
        assert p == 1.0

    def test_probability_in_unit_interval(self):
        p = back_link_acceptance_probability(
            10.0, 100.0, 50.0, [1.0, 10.0, 100.0], [10.0, 20.0, 30.0])
        assert 0.0 <= p <= 1.0

    def test_powerful_acceptor_prefers_powerful_requester(self):
        neighbors_c = [1.0, 5.0, 10.0]
        neighbors_d = [50.0, 50.0, 50.0]
        strong_req = back_link_acceptance_probability(
            1000.0, 500.0, 200.0, neighbors_c, neighbors_d)
        weak_req = back_link_acceptance_probability(
            1000.0, 0.5, 200.0, neighbors_c, neighbors_d)
        assert strong_req > weak_req

    def test_weak_acceptor_prefers_close_requester(self):
        neighbors_c = [100.0, 500.0, 1000.0]
        neighbors_d = [50.0, 60.0, 70.0]
        close_req = back_link_acceptance_probability(
            1.0, 1.0, 5.0, neighbors_c, neighbors_d)
        far_req = back_link_acceptance_probability(
            1.0, 1.0, 500.0, neighbors_c, neighbors_d)
        assert close_req > far_req

    def test_paper_formula_exact(self):
        # rc_own = 2/3, rc_req = 1/3, rd_req = 2/3
        p = back_link_acceptance_probability(
            own_capacity=10.0,
            requester_capacity=2.0,
            requester_distance_ms=20.0,
            neighbor_capacities=[1.0, 10.0, 100.0],
            neighbor_distances_ms=[10.0, 20.0, 30.0],
        )
        rc_own = 2.0 / 3.0
        expected = rc_own**2 * (1.0 / 3.0) + (1 - rc_own**2) * (2.0 / 3.0)
        assert p == pytest.approx(expected)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            back_link_acceptance_probability(1.0, 1.0, 1.0, [1.0], [])

    @given(
        st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1,
                 max_size=20),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=1.0, max_value=1e4),
        st.floats(min_value=0.1, max_value=500.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_valid_probability(self, capacities, own, req, dist,
                                        seed):
        rng = np.random.default_rng(seed)
        distances = rng.uniform(0.1, 500.0, size=len(capacities)).tolist()
        p = back_link_acceptance_probability(
            own, req, dist, capacities, distances)
        assert 0.0 <= p <= 1.0

    # Table-1 style levels and a coarse distance grid, so ties (the
    # ``<=`` / ``>=`` edges of the rankings) are common.
    _capacity = st.sampled_from([1.0, 10.0, 100.0, 1000.0, 10000.0])
    _distance = st.integers(0, 40).map(lambda step: step * 12.5)

    @given(
        asked=st.lists(
            st.tuples(_capacity, _distance,
                      st.lists(st.tuples(_capacity, _distance),
                               max_size=12)),
            max_size=10),
        requester_capacity=_capacity,
    )
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_the_formula_per_asked_peer(self, asked,
                                                     requester_capacity):
        """Ragged neighbor sets (empty ones included) in one call give,
        per asked peer, exactly ``rc_k^2 rc_i + (1 - rc_k^2) rd_i`` with
        the three rankings counted in plain Python."""
        expected = []
        for own, away, neighbors in asked:
            n = len(neighbors)
            if n == 0:
                expected.append(1.0)
                continue
            rc_own = sum(c <= own for c, _ in neighbors) / n
            rc_req = sum(c <= requester_capacity for c, _ in neighbors) / n
            rd_req = sum(d >= away for _, d in neighbors) / n
            weight = rc_own * rc_own
            expected.append(weight * rc_req + (1.0 - weight) * rd_req)
        flat = [pair for _, _, neighbors in asked for pair in neighbors]
        batch = back_link_acceptance_probabilities(
            own_capacities=[own for own, _, _ in asked],
            requester_capacity=requester_capacity,
            requester_distances_ms=[away for _, away, _ in asked],
            neighbor_counts=[len(neighbors) for _, _, neighbors in asked],
            neighbor_capacities=[c for c, _ in flat],
            neighbor_distances_ms=[d for _, d in flat],
        )
        assert batch.tolist() == expected

    def test_counts_must_cover_the_neighbor_entries(self):
        with pytest.raises(ValueError):
            back_link_acceptance_probabilities(
                [1.0], 1.0, [1.0], [2], [1.0], [1.0])
