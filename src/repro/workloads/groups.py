"""Group arrival and membership dynamics.

Groups arrive as a Poisson process; each group draws a log-normal or
truncated-Zipf size (most groups are small chats, a few are large
events — the shape seen in conferencing and gaming measurements) and
samples its members either uniformly or with a locality bias (members
near a random epicentre in coordinate space, modelling regional
communities).  Within a group, :class:`MembershipChurn` generates timed
join/leave events around the initial roster.

The Zipf sampler and :func:`sample_group_rows` feed the group-major
kernels (:mod:`repro.core.multigroup`): thousands of heavy-tailed
group rosters over one shared row space, reproducible bit-for-bit from
one seed on every supported numpy version.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..coords.base import CoordinateSpace
from ..errors import ConfigurationError
from ..sim.random import RandomSource


def zipf_group_sizes(rng: RandomSource, count: int,
                     exponent: float = 2.0, min_size: int = 2,
                     max_size: int = 1024) -> np.ndarray:
    """Seed-deterministic truncated-Zipf group sizes.

    Samples ``P(size = k) ∝ k^-exponent`` over ``[min_size, max_size]``
    by explicit inverse-CDF lookup against ``rng.random`` draws rather
    than ``Generator.zipf``: the uniform double stream of a seeded
    generator is stable across numpy versions, while ``zipf``'s
    rejection sampler may consume a version-dependent number of draws
    (and is unbounded, which would need clipping anyway) — this keeps
    every multi-group bench reproducible from its seed alone, with one
    draw consumed per group.
    """
    if count < 0:
        raise ConfigurationError("count must be non-negative")
    if exponent <= 0.0:
        raise ConfigurationError("exponent must be positive")
    if not 1 <= min_size <= max_size:
        raise ConfigurationError("need 1 <= min_size <= max_size")
    support = np.arange(min_size, max_size + 1, dtype=np.float64)
    cdf = np.cumsum(support ** -exponent)
    cdf /= cdf[-1]
    picks = np.searchsorted(cdf, rng.random(count), side="right")
    picks = np.minimum(picks, support.shape[0] - 1)
    return (picks + min_size).astype(np.int64)


def sample_group_rows(rng: RandomSource, n_groups: int, n_rows: int,
                      exponent: float = 2.0, min_size: int = 2,
                      max_size: int | None = None
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zipf-sized group rosters over a shared row space.

    Draws ``n_groups`` truncated-Zipf sizes, then a distinct member-row
    set per group; the first member is the group's rendezvous.  Returns
    ``(roots, member_rows, member_indptr)`` in the packed layout the
    multi-group kernels consume (:func:`repro.core.multigroup.pack_members`).
    Sequential draws from one generator keep the whole workload a pure
    function of the seed.
    """
    if n_groups < 1:
        raise ConfigurationError("need at least one group")
    if n_rows < 2:
        raise ConfigurationError("need at least two rows")
    max_size = min(max_size or n_rows, n_rows)
    sizes = zipf_group_sizes(rng, n_groups, exponent=exponent,
                             min_size=min_size, max_size=max_size)
    indptr = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    member_rows = np.empty(int(indptr[-1]), dtype=np.int64)
    roots = np.empty(n_groups, dtype=np.int64)
    for g in range(n_groups):
        picks = rng.choice(n_rows, size=int(sizes[g]), replace=False)
        member_rows[indptr[g]:indptr[g + 1]] = picks
        roots[g] = picks[0]
    return roots, member_rows, indptr


def assign_tenants(rng: RandomSource, n_groups: int, n_tenants: int,
                   exponent: float = 1.2) -> np.ndarray:
    """Seed-deterministic Zipf-weighted tenant id per group.

    Production multi-tenant traffic is heavy-tailed: a few tenants own
    many groups.  Tenants draw by explicit inverse-CDF lookup
    (``P(tenant = t) ∝ (t + 1)^-exponent``) against ``rng.random`` for
    the same numpy-version stability as :func:`zipf_group_sizes` — one
    uniform draw per group, every tenant id in ``[0, n_tenants)``.
    """
    if n_groups < 0:
        raise ConfigurationError("n_groups must be non-negative")
    if n_tenants < 1:
        raise ConfigurationError("need at least one tenant")
    if exponent <= 0.0:
        raise ConfigurationError("exponent must be positive")
    weights = np.arange(1, n_tenants + 1, dtype=np.float64) ** -exponent
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    picks = np.searchsorted(cdf, rng.random(n_groups), side="right")
    return np.minimum(picks, n_tenants - 1).astype(np.int64)


@dataclass(frozen=True)
class GroupSpec:
    """One generated group: creation time and initial roster."""

    group_index: int
    created_at_ms: float
    members: tuple[int, ...]


class GroupArrivals:
    """Poisson group creations over a fixed peer population."""

    def __init__(
        self,
        peer_ids: list[int],
        mean_interarrival_ms: float = 30_000.0,
        median_size: float = 8.0,
        size_sigma: float = 1.0,
        max_size: int | None = None,
        locality_bias: float = 0.0,
        space: CoordinateSpace | None = None,
        size_distribution: str = "lognormal",
        zipf_exponent: float = 2.0,
    ) -> None:
        if len(peer_ids) < 2:
            raise ConfigurationError("need at least two peers")
        if mean_interarrival_ms <= 0.0:
            raise ConfigurationError(
                "mean_interarrival_ms must be positive")
        if median_size < 2.0:
            raise ConfigurationError("median_size must be >= 2")
        if size_sigma < 0.0:
            raise ConfigurationError("size_sigma must be non-negative")
        if not 0.0 <= locality_bias <= 1.0:
            raise ConfigurationError("locality_bias must be in [0, 1]")
        if locality_bias > 0.0 and space is None:
            raise ConfigurationError(
                "locality bias needs a coordinate space")
        if size_distribution not in ("lognormal", "zipf"):
            raise ConfigurationError(
                f"unknown size distribution {size_distribution!r}")
        if zipf_exponent <= 0.0:
            raise ConfigurationError("zipf_exponent must be positive")
        self.size_distribution = size_distribution
        self.zipf_exponent = zipf_exponent
        self.peer_ids = list(peer_ids)
        self.mean_interarrival_ms = mean_interarrival_ms
        self.median_size = median_size
        self.size_sigma = size_sigma
        self.max_size = max_size or len(peer_ids)
        self.locality_bias = locality_bias
        self.space = space

    def generate(self, rng: RandomSource, count: int) -> list[GroupSpec]:
        """Generate ``count`` group creations."""
        if count < 0:
            raise ConfigurationError("count must be non-negative")
        specs = []
        now = 0.0
        for index in range(count):
            now += float(rng.exponential(self.mean_interarrival_ms))
            members = self._sample_members(rng, self._draw_size(rng))
            specs.append(GroupSpec(index, now, tuple(members)))
        return specs

    def _draw_size(self, rng: RandomSource) -> int:
        ceiling = min(self.max_size, len(self.peer_ids))
        if self.size_distribution == "zipf":
            return int(zipf_group_sizes(
                rng, 1, exponent=self.zipf_exponent, min_size=2,
                max_size=ceiling)[0])
        return int(np.clip(
            round(rng.lognormal(np.log(self.median_size),
                                self.size_sigma)),
            2, ceiling))

    def _sample_members(self, rng: RandomSource, size: int) -> list[int]:
        if self.locality_bias <= 0.0:
            picks = rng.choice(len(self.peer_ids), size=size,
                               replace=False)
            return [self.peer_ids[int(i)] for i in picks]
        # Locality: pick an epicentre peer, then weight candidates by
        # inverse coordinate distance, blended with uniform weights.
        assert self.space is not None
        epicentre = self.peer_ids[int(rng.integers(len(self.peer_ids)))]
        distances = self.space.distances_from(epicentre, self.peer_ids)
        proximity = 1.0 / np.maximum(distances, 1.0)
        proximity = proximity / proximity.sum()
        uniform = np.full(len(self.peer_ids), 1.0 / len(self.peer_ids))
        weights = (self.locality_bias * proximity
                   + (1.0 - self.locality_bias) * uniform)
        picks = rng.choice(len(self.peer_ids), size=size, replace=False,
                           p=weights / weights.sum())
        return [self.peer_ids[int(i)] for i in picks]


@dataclass(frozen=True)
class MembershipEvent:
    """A timed join or leave within one group."""

    at_ms: float
    peer_id: int
    join: bool


class MembershipChurn:
    """Join/leave dynamics within an established group."""

    def __init__(self, mean_membership_ms: float = 300_000.0,
                 join_rate_per_s: float = 0.02) -> None:
        if mean_membership_ms <= 0.0:
            raise ConfigurationError(
                "mean_membership_ms must be positive")
        if join_rate_per_s < 0.0:
            raise ConfigurationError("join_rate_per_s must be >= 0")
        self.mean_membership_ms = mean_membership_ms
        self.join_rate_per_s = join_rate_per_s

    def generate(
        self,
        spec: GroupSpec,
        candidate_pool: list[int],
        rng: RandomSource,
        horizon_ms: float,
    ) -> list[MembershipEvent]:
        """Timed membership events for one group up to ``horizon_ms``.

        Initial members leave after exponential dwell times; fresh
        members from ``candidate_pool`` arrive at ``join_rate_per_s``
        and dwell likewise.  Events are returned time-sorted.
        """
        if horizon_ms <= spec.created_at_ms:
            raise ConfigurationError("horizon precedes group creation")
        events: list[MembershipEvent] = []
        for member in spec.members:
            leave_at = spec.created_at_ms + float(
                rng.exponential(self.mean_membership_ms))
            if leave_at < horizon_ms:
                events.append(MembershipEvent(leave_at, member, False))
        outsiders = [p for p in candidate_pool if p not in spec.members]
        now = spec.created_at_ms
        while outsiders and self.join_rate_per_s > 0.0:
            now += float(rng.exponential(1000.0 / self.join_rate_per_s))
            if now >= horizon_ms:
                break
            joiner = outsiders.pop(int(rng.integers(len(outsiders))))
            events.append(MembershipEvent(now, joiner, True))
            leave_at = now + float(
                rng.exponential(self.mean_membership_ms))
            if leave_at < horizon_ms:
                events.append(MembershipEvent(leave_at, joiner, False))
        events.sort(key=lambda event: event.at_ms)
        return events
