"""Unit tests for the host cache server."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BootstrapError
from repro.overlay.hostcache import HostCacheServer
from repro.peers.peer import PeerInfo
from repro.sim.random import spawn_rng


def make_info(peer_id, x=0.0, y=0.0, capacity=10.0):
    return PeerInfo(peer_id=peer_id, capacity=capacity,
                    coordinate=np.array([x, y]))


@pytest.fixture()
def cache():
    return HostCacheServer(max_entries=16, dimensions=2,
                           rng=spawn_rng(0, "hc"))


def test_register_and_len(cache):
    cache.register(make_info(1))
    cache.register(make_info(2))
    assert len(cache) == 2
    assert 1 in cache and 3 not in cache


def test_register_is_idempotent(cache):
    cache.register(make_info(1, x=1.0))
    cache.register(make_info(1, x=9.0))
    assert len(cache) == 1
    entry = cache.entries()[0]
    assert entry.coordinate[0] == 9.0  # refreshed metadata


def test_unregister_idempotent(cache):
    cache.register(make_info(1))
    cache.unregister(1)
    cache.unregister(1)
    assert len(cache) == 0


def test_empty_cache_returns_no_candidates(cache, rng):
    assert cache.bootstrap_candidates(make_info(99), rng) == []


def test_joiner_never_returned(cache, rng):
    cache.register(make_info(7))
    result = cache.bootstrap_candidates(make_info(7), rng)
    assert result == []


def test_closest_half_is_by_coordinate_distance(cache, rng):
    # Peers at increasing distance from the origin-based joiner.
    for i in range(10):
        cache.register(make_info(i, x=float(i * 10)))
    joiner = make_info(99, x=0.0)
    result = cache.bootstrap_candidates(joiner, rng, list_size=8)
    closest_ids = {info.peer_id for info in result[:4]}
    assert closest_ids == {0, 1, 2, 3}


def test_random_half_excludes_closest(cache, rng):
    for i in range(12):
        cache.register(make_info(i, x=float(i * 10)))
    joiner = make_info(99, x=0.0)
    result = cache.bootstrap_candidates(joiner, rng, list_size=8)
    assert len(result) == 8
    random_ids = {info.peer_id for info in result[4:]}
    assert random_ids.isdisjoint({0, 1, 2, 3})


def test_small_cache_returns_everything(cache, rng):
    for i in range(3):
        cache.register(make_info(i, x=float(i)))
    result = cache.bootstrap_candidates(make_info(99), rng, list_size=8)
    assert {info.peer_id for info in result} == {0, 1, 2}


def test_eviction_keeps_bound(rng):
    cache = HostCacheServer(max_entries=8, dimensions=2,
                            rng=spawn_rng(1, "hc"))
    for i in range(50):
        cache.register(make_info(i))
    assert len(cache) == 8
    # All slots hold distinct live peers.
    ids = [info.peer_id for info in cache.entries()]
    assert len(set(ids)) == 8


def test_reregister_after_eviction(rng):
    cache = HostCacheServer(max_entries=4, dimensions=2,
                            rng=spawn_rng(1, "hc"))
    for i in range(20):
        cache.register(make_info(i))
    survivor = cache.entries()[0].peer_id
    cache.register(make_info(survivor, x=5.0))
    assert len(cache) == 4


def test_unregister_frees_slot_for_reuse():
    cache = HostCacheServer(max_entries=2, dimensions=2,
                            rng=spawn_rng(2, "hc"))
    cache.register(make_info(1))
    cache.register(make_info(2))
    cache.unregister(1)
    cache.register(make_info(3))
    assert len(cache) == 2
    assert 3 in cache and 1 not in cache


def test_validation():
    with pytest.raises(BootstrapError):
        HostCacheServer(max_entries=1)
    with pytest.raises(BootstrapError):
        HostCacheServer(dimensions=0)
    cache = HostCacheServer(max_entries=4, dimensions=2)
    with pytest.raises(BootstrapError):
        cache.bootstrap_candidates(make_info(1), spawn_rng(0, "x"),
                                   list_size=1)


@pytest.mark.parametrize("cached", [1, 3, 5, 9, 16])
@pytest.mark.parametrize("list_size", [2, 3, 4, 5, 6, 7, 8])
def test_bootstrap_list_is_full_for_every_size(list_size, cached):
    """``BD`` takes the extra entry of an odd size (5 and 7 sit inside
    the paper's 5-8 range), so the list is as long as asked whenever
    the cache can fill it — with or without the joiner's own entry."""
    cache = HostCacheServer(max_entries=16, dimensions=2,
                            rng=spawn_rng(0, "hc"))
    for i in range(cached):
        cache.register(make_info(i, x=float(i * 10)))
    for joiner, others in ((make_info(99), cached),
                           (make_info(0), cached - 1)):
        result = cache.bootstrap_candidates(
            joiner, spawn_rng(1, "q"), list_size=list_size)
        ids = [info.peer_id for info in result]
        assert len(ids) == len(set(ids)) == min(list_size, others)
        assert joiner.peer_id not in ids
        closest = sorted(i for i in range(cached) if i != joiner.peer_id)
        assert ids[:(list_size + 1) // 2] == closest[:(list_size + 1) // 2]


def _dict_scan_candidates(cache, joining, rng, list_size):
    """The bootstrap list as the pre-slot-array server computed it: a
    scan of ``_slot_of`` in dict order on every query."""
    slots = np.asarray(
        [slot for peer, slot in cache._slot_of.items()
         if peer != joining.peer_id], dtype=np.int64)
    if slots.size == 0:
        return []
    distances = np.linalg.norm(
        cache._coords[slots] - joining.coordinate, axis=1)
    order = np.argsort(distances, kind="stable")
    half = list_size // 2
    picked = list(slots[order[:half]])
    rest = slots[order[half:]]
    if rest.size > 0:
        picked += list(rng.choice(rest, size=min(half, int(rest.size)),
                                  replace=False))
    return [cache._slot_info[int(slot)] for slot in picked]


@settings(max_examples=100, deadline=None)
@given(
    script=st.lists(
        st.tuples(st.sampled_from(["register", "register", "unregister"]),
                  st.integers(0, 19)),
        max_size=80),
    seed=st.integers(0, 2**16),
    list_size=st.sampled_from([2, 4, 8]),
)
def test_slot_order_tracks_registration_order(script, seed, list_size):
    """Through evictions (8 slots, 20 ids), re-registrations and
    unregistrations the slot array stays in ``_slot_of`` order, and a
    query returns the dict scan's peers from the same rng state —
    including distance ties, which the order breaks."""
    cache = HostCacheServer(max_entries=8, dimensions=2,
                            rng=spawn_rng(seed, "hc"))
    for op, peer_id in script:
        if op == "register":
            # A 3-point grid: most cached peers tie on distance.
            cache.register(make_info(peer_id, x=float(peer_id % 3)))
        else:
            cache.unregister(peer_id)
        assert cache._order[:len(cache)].tolist() == \
            list(cache._slot_of.values())
    # An outsider, and a cached peer (whose own slot must be masked).
    for joiner in [make_info(99, x=1.0)] + cache.entries()[:1]:
        reference_rng, rng = spawn_rng(seed, "q"), spawn_rng(seed, "q")
        expected = _dict_scan_candidates(
            cache, joiner, reference_rng, list_size)
        assert cache.bootstrap_candidates(joiner, rng, list_size) == expected
        assert rng.random() == reference_rng.random()
