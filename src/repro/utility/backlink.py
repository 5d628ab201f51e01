"""Back-link acceptance rule of the overlay protocol (Section 3.3).

After a joining peer ``p_i`` opens its outgoing connections, it asks each
chosen neighbor ``p_k`` for a *backward connection*.  ``p_k`` accepts with

``PB_k(Nbr(k), i) = rc_k^2 * rc_i + (1 - rc_k^2) * rd_i``

where, over ``p_k``'s current neighbor set:

* ``rc_k`` — capacity ranking of ``p_k`` itself (fraction of neighbors
  with capacity <= its own),
* ``rc_i`` — capacity ranking of the requester,
* ``rd_i`` — distance ranking of the requester (fraction of neighbors at
  least as far away as the requester).

A powerful ``p_k`` (high ``rc_k``) therefore weighs the requester's
capacity, while a weak ``p_k`` weighs proximity.  If the draw fails, the
back link is still accepted with a fallback probability ``p_b`` (0.5 in
the paper) that balances in- and out-degree.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np


def back_link_acceptance_probabilities(
    own_capacities: np.ndarray,
    requester_capacity: float,
    requester_distances_ms: np.ndarray,
    neighbor_counts: np.ndarray,
    neighbor_capacities: np.ndarray,
    neighbor_distances_ms: np.ndarray,
) -> np.ndarray:
    """``PB`` of one requester at each of ``m`` asked peers, in one pass.

    ``own_capacities[m]`` / ``requester_distances_ms[m]`` describe the
    asked peers.  Their ragged neighbor sets arrive concatenated: peer
    ``k`` owns the next ``neighbor_counts[k]`` entries of
    ``neighbor_capacities`` / ``neighbor_distances_ms`` (measured from
    peer ``k``).  A peer with no neighbors always accepts — a lonely
    peer has nothing to protect.
    """
    capacities = np.asarray(neighbor_capacities, dtype=float)
    distances = np.asarray(neighbor_distances_ms, dtype=float)
    counts = np.asarray(neighbor_counts, dtype=np.int64)
    if capacities.shape != distances.shape:
        raise ValueError(
            "neighbor capacities and distances must have the same length")
    if counts.sum() != capacities.size:
        raise ValueError("neighbor counts must add up to the neighbor total")
    probabilities = np.ones(counts.size)
    crowded = counts > 0
    size = counts[crowded]
    starts = np.cumsum(size) - size
    own = np.repeat(np.asarray(own_capacities, dtype=float)[crowded], size)
    away = np.repeat(
        np.asarray(requester_distances_ms, dtype=float)[crowded], size)
    # Each ranking is an integer count over the neighbor set size.
    rc_own, rc_req, rd_req = np.add.reduceat(
        [capacities <= own, capacities <= requester_capacity,
         distances >= away],
        starts, axis=1, dtype=np.int64) / size
    weight = rc_own * rc_own
    probabilities[crowded] = weight * rc_req + (1.0 - weight) * rd_req
    return probabilities


def back_link_acceptance_probability(
    own_capacity: float,
    requester_capacity: float,
    requester_distance_ms: float,
    neighbor_capacities: Sequence[float],
    neighbor_distances_ms: Sequence[float],
) -> float:
    """``PB`` at one accepting peer, given its current neighbors'
    capacities and their distances from it."""
    return float(back_link_acceptance_probabilities(
        [own_capacity], requester_capacity, [requester_distance_ms],
        [len(neighbor_capacities)], neighbor_capacities,
        neighbor_distances_ms)[0])
