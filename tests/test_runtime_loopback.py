"""Live asyncio loopback integration, checked against the sim twin.

A 10-peer cluster runs the full protocol life-cycle over real UDP
loopback sockets — advertise → subscribe → publish → crash → repair →
publish — using the *identical* node code the simulator runs.  The same
episode is replayed on a :class:`~repro.groupcast.session.GroupSession`
(the deterministic twin) and the two are compared through the
canonicalizing conformance oracle: same tree shape, same member
reachability, same logical message-kind counts, same delivery sets,
all modulo wire-level reordering.

Determinism strategy: the topology is hand-crafted so every peer's
best advertisement path beats its runner-up by >= 14 ms of path-latency
sum, and the live transport *paces* deliveries with the same latency
table the sim uses — loopback jitter (~1-2 ms) cannot flip any
first-arrival decision, so the live NSSA tree converges to the
simulated one on every run.

All waits are deadline-based (transport quiescence / predicate polls),
budgeted by ``REPRO_RUNTIME_BUDGET_S`` (default 30 s for the module).
Marked ``runtime``: excluded from tier-1, run by the CI runtime job.
"""

import asyncio
import os
import socket

import numpy as np
import pytest

from repro.config import AnnouncementConfig
from repro.faults.plan import FaultPlan, FaultWindow
from repro.groupcast.session import GroupSession, Payload
from repro.overlay.messages import MessageKind
from repro.overlay.graph import OverlayNetwork
from repro.peers.peer import PeerInfo
from repro.runtime import (
    AsyncioTransport,
    RuntimeCluster,
    assert_equivalent,
    transcript_from_cluster,
    transcript_from_session,
)
from repro.runtime.faulty import FaultyTransport
from repro.runtime.framing import DATA, Frame, encode_frame
from repro.runtime.reliability import RetryPolicy
from repro.sim.random import spawn_rng

pytestmark = pytest.mark.runtime

#: Wall-clock budget for the whole module's waits (seconds).
BUDGET_S = float(os.environ.get("REPRO_RUNTIME_BUDGET_S", "30"))
#: Per-phase settle deadline; six settles per episode fit the budget.
SETTLE_S = max(1.0, BUDGET_S / 10.0)

GROUP = 1
RENDEZVOUS = 0
MEMBERS = [3, 7, 8, 9]
SEED = 7
ANNOUNCEMENT = AnnouncementConfig(advertisement_ttl=7,
                                  subscription_search_ttl=3)

#: Hand-crafted 10-peer topology.  Path sums from the rendezvous are
#: unique with >= 14 ms separation between any peer's best and
#: second-best advertisement arrival (peer 4: 15 vs 29; peer 9: 32 vs
#: 49), far above loopback jitter.
EDGES = {
    (0, 1): 4.0,
    (0, 2): 9.0,
    (1, 3): 4.0,
    (1, 4): 25.0,
    (2, 4): 6.0,
    (2, 5): 23.0,
    (3, 6): 4.0,
    (4, 7): 6.0,
    (5, 8): 5.0,
    (6, 9): 37.0,
    (7, 9): 11.0,
}
_LATENCY = {frozenset(edge): ms for edge, ms in EDGES.items()}


def latency_ms(a: int, b: int) -> float:
    return _LATENCY[frozenset((a, b))]


def build_overlay() -> OverlayNetwork:
    overlay = OverlayNetwork()
    for peer_id in range(10):
        overlay.add_peer(PeerInfo(
            peer_id=peer_id, capacity=10.0,
            coordinate=np.array([float(peer_id), 0.0])))
    for a, b in EDGES:
        overlay.add_link(a, b)
    return overlay


# ----------------------------------------------------------------------
# The two substrates running the same episode
# ----------------------------------------------------------------------
def run_sim_episode():
    """The deterministic twin; returns (pre_crash, post_repair)."""
    session = GroupSession(
        overlay=build_overlay(),
        latency_fn=latency_ms,
        rng=spawn_rng(SEED, "loopback-sim"),
        announcement=ANNOUNCEMENT,
    )
    session.establish(GROUP, RENDEZVOUS, MEMBERS, scheme="nssa")
    session.publish(GROUP, 9)
    pre_crash = transcript_from_session(session, GROUP)
    session.crash_peer(7)
    session.rejoin(GROUP, 9)
    session.publish(GROUP, 3)
    post_repair = transcript_from_session(session, GROUP)
    return pre_crash, post_repair


async def run_live_episode():
    """The same episode over UDP loopback; returns the transcripts."""
    cluster = RuntimeCluster(
        overlay=build_overlay(),
        seed=SEED,
        announcement=ANNOUNCEMENT,
        latency_fn=latency_ms,
    )
    async with cluster:
        cluster.advertise(GROUP, RENDEZVOUS, scheme="nssa")
        assert await cluster.settle(SETTLE_S), "advertisement stalled"
        cluster.subscribe(GROUP, MEMBERS)
        assert await cluster.settle(SETTLE_S), "subscriptions stalled"
        cluster.publish(GROUP, 9)
        assert await cluster.settle(SETTLE_S), "publish stalled"
        pre_crash = transcript_from_cluster(cluster, GROUP)

        await cluster.crash(7)
        cluster.rejoin(GROUP, 9)
        reattached = await cluster.wait_until(
            lambda: 9 in cluster.members_on_tree(GROUP), SETTLE_S)
        assert reattached, "orphan 9 never reattached after the crash"
        assert await cluster.settle(SETTLE_S), "repair traffic stalled"
        cluster.publish(GROUP, 3)
        assert await cluster.settle(SETTLE_S), "post-repair publish stalled"
        post_repair = transcript_from_cluster(cluster, GROUP)
    return pre_crash, post_repair


# ----------------------------------------------------------------------
# Tests
# ----------------------------------------------------------------------
def test_loopback_episode_matches_simulated_twin():
    sim_pre, sim_post = run_sim_episode()
    live_pre, live_post = asyncio.run(run_live_episode())
    assert_equivalent(sim_pre, live_pre)
    assert_equivalent(sim_post, live_post)


def test_crash_and_repair_reattach_via_search():
    """After its upstream crashes, the orphan ripple-searches and
    reattaches through the surviving branch (9 -> 6 -> 3)."""

    async def episode():
        cluster = RuntimeCluster(
            overlay=build_overlay(), seed=SEED,
            announcement=ANNOUNCEMENT, latency_fn=latency_ms)
        async with cluster:
            cluster.advertise(GROUP, RENDEZVOUS, scheme="nssa")
            assert await cluster.settle(SETTLE_S)
            cluster.subscribe(GROUP, MEMBERS)
            assert await cluster.settle(SETTLE_S)
            edges = cluster.tree_edges(GROUP)
            assert (9, 7) in edges  # pre-crash: 9 rides through 7

            await cluster.crash(7)
            cluster.rejoin(GROUP, 9)
            assert await cluster.wait_until(
                lambda: 9 in cluster.members_on_tree(GROUP), SETTLE_S)
            assert await cluster.settle(SETTLE_S)
            edges = cluster.tree_edges(GROUP)
            assert (9, 6) in edges  # repaired through the survivor
            assert 7 not in cluster.members_on_tree(GROUP)

            payload_id = cluster.publish(GROUP, 3)
            assert await cluster.settle(SETTLE_S)
            delivered = set(cluster.deliveries(GROUP, payload_id))
            for member in (3, 8, 9):
                assert member in delivered

    asyncio.run(episode())


def test_restarted_peer_comes_back_blank():
    """A restarted peer holds no protocol state until it resubscribes."""

    async def episode():
        cluster = RuntimeCluster(
            overlay=build_overlay(), seed=SEED,
            announcement=ANNOUNCEMENT, latency_fn=latency_ms)
        async with cluster:
            cluster.advertise(GROUP, RENDEZVOUS, scheme="nssa")
            assert await cluster.settle(SETTLE_S)
            cluster.subscribe(GROUP, MEMBERS)
            assert await cluster.settle(SETTLE_S)

            await cluster.crash(7)
            await cluster.restart(7)
            assert not cluster.peers[7].node.groups  # amnesia
            cluster.rejoin(GROUP, 7)
            assert await cluster.wait_until(
                lambda: 7 in cluster.members_on_tree(GROUP), SETTLE_S)

    asyncio.run(episode())


# ----------------------------------------------------------------------
# The retransmit pump: one lazily re-armed timer per endpoint
# ----------------------------------------------------------------------
class CountingTimers:
    """Proxy around the transport's ``AsyncioTimers``: counts the arms
    with a positive delay — on an unpaced transport those are the
    retransmit pump's, deliveries arm at zero — and tracks which are
    still live (neither fired nor cancelled)."""

    def __init__(self, inner):
        self.inner = inner
        self.pump_arms = 0
        self._armed = []

    def now(self):
        return self.inner.now()

    def arm_timer(self, delay_ms, action):
        if delay_ms <= 0.0:
            return self.inner.arm_timer(delay_ms, action)
        self.pump_arms += 1
        state = {"fired": False}

        def fire():
            state["fired"] = True
            action()

        handle = self.inner.arm_timer(delay_ms, fire)
        self._armed.append((handle, state))
        return handle

    def live(self):
        return sum(1 for handle, state in self._armed
                   if not state["fired"] and not handle.cancelled())


def _scan_quiescent(transport):
    """The O(endpoints) definition the O(1) count replaced."""
    return all(endpoint.reliable.unacked() == 0
               for endpoint in transport._endpoints.values())


def test_pump_timer_is_armed_per_timeout_not_per_datagram():
    """1,000 payloads each way, every one acked: the pump is armed about
    once per retransmit timeout per endpoint (it used to be cancelled
    and re-armed twice per datagram), and none survives ``stop_peer``."""
    payloads = 1_000

    async def episode():
        transport = AsyncioTransport()
        await transport.start()
        timers = transport._timers = CountingTimers(transport._timers)
        got = {1: [], 2: []}

        def echo(envelope):
            got[2].append(envelope.payload.payload_id)
            transport.send(2, 1, envelope.payload, MessageKind.PAYLOAD)

        await transport.start_peer(1, lambda e: got[1].append(
            e.payload.payload_id))
        await transport.start_peer(2, echo)
        start_ms = transport.now()
        for batch in range(0, payloads, 100):
            for payload_id in range(batch, batch + 100):
                transport.send(1, 2, Payload(GROUP, payload_id, 1),
                               MessageKind.PAYLOAD)
            assert await transport.wait_quiescent(SETTLE_S)
            assert _scan_quiescent(transport)
        elapsed_ms = transport.now() - start_ms
        assert got[1] == got[2] == list(range(payloads))
        counter = transport.registry.counter
        assert counter("runtime.retransmits").value == 0
        assert counter("runtime.acks_sent").value == 2 * payloads
        timeouts = elapsed_ms // transport.policy.delay_ms(0) + 2
        assert timers.pump_arms <= 2 * timeouts, (
            timers.pump_arms, elapsed_ms)
        await transport.stop_peer(1)
        await transport.stop_peer(2)
        assert timers.live() == 0
        assert transport.quiescent()

    asyncio.run(episode())


class RecordingFaults(FaultyTransport):
    """A lossy channel that also logs when each DATA frame hit the wire."""

    __slots__ = ("sent_at",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.sent_at = {}

    def transmit(self, frame, now_ms):
        if frame.frame_type == DATA:
            self.sent_at.setdefault(
                (frame.sender, frame.recipient, frame.seq), []
            ).append(now_ms)
        return super().transmit(frame, now_ms)


def test_lossy_wire_retransmits_on_time_and_delivers_exactly_once():
    """20% of wire transmissions (DATA and ACK) dropped: every payload
    still arrives exactly once, and the n-th retransmission of a frame
    happens at ``policy.delay_ms(n)`` after the previous one — the lazy
    timer may fire early (and re-arm), never late by more than a loop
    tick."""
    payloads = 300
    policy = RetryPolicy(timeout_ms=100.0, backoff=2.0,
                         max_timeout_ms=800.0, max_retries=30)
    #: A timer that was not pulled in would be late by a whole backoff
    #: step (>= 100 ms); a busy loop tick is far below this.
    late_ms = 60.0

    async def episode():
        faults = RecordingFaults(
            FaultPlan(windows=(FaultWindow("drop", 0.0, 1e9, 0.2),)),
            spawn_rng(SEED, "lossy-wire"), base_latency_ms=0.0)
        transport = AsyncioTransport(policy=policy)
        transport.inject_faults(faults)
        await transport.start()
        received = []
        await transport.start_peer(1, lambda envelope: None)
        await transport.start_peer(
            2, lambda e: received.append(e.payload.payload_id))
        for payload_id in range(payloads):
            transport.send(1, 2, Payload(GROUP, payload_id, 1),
                           MessageKind.PAYLOAD)
            if payload_id % 50 == 49:
                await asyncio.sleep(0.03)  # sends land mid-backoff
        assert await transport.wait_quiescent(max(SETTLE_S, 20.0))
        assert _scan_quiescent(transport)
        await transport.close()
        return faults, received, transport.registry

    faults, received, registry = asyncio.run(episode())
    assert sorted(received) == list(range(payloads))
    assert registry.counter("runtime.expired").value == 0
    retransmits = 0
    for times in faults.sent_at.values():
        for attempt, (earlier, later) in enumerate(zip(times, times[1:])):
            gap = later - earlier
            assert gap >= policy.delay_ms(attempt) - 1.0, (attempt, gap)
            assert gap <= policy.delay_ms(attempt) + late_ms, (attempt, gap)
            retransmits += 1
    assert retransmits == registry.counter("runtime.retransmits").value
    assert retransmits > payloads // 10  # the drops really happened


def test_new_frame_pulls_a_long_backoff_timer_in():
    """Arming order: with the pump armed for a frame deep in backoff
    (due in 3 s), a fresh frame re-arms it for its own 200 ms deadline
    instead of waiting behind the long one."""
    policy = RetryPolicy(timeout_ms=200.0, backoff=15.0,
                         max_timeout_ms=3_000.0, max_retries=8)

    async def episode():
        transport = AsyncioTransport(policy=policy)
        await transport.start()
        await transport.start_peer(1, lambda envelope: None)
        # Peer 2 has no route: frames to it stay in flight and back off.
        transport.send(1, 2, Payload(GROUP, 0, 1), MessageKind.PAYLOAD)
        retransmits = transport.registry.counter("runtime.retransmits")
        endpoint = transport._endpoints[1]
        deadline = transport.now() + 1_000.0
        while retransmits.value < 1 and transport.now() < deadline:
            await asyncio.sleep(0.01)
        assert retransmits.value == 1
        long_due = endpoint.pump_due_ms
        assert long_due - transport.now() > 2_500.0  # 200 * 15 -> 3 s cap
        transport.send(1, 2, Payload(GROUP, 1, 1), MessageKind.PAYLOAD)
        assert endpoint.pump_due_ms < long_due - 2_000.0
        assert endpoint.pump_due_ms <= transport.now() + 200.0
        sent_ms = transport.now()
        while retransmits.value < 2 and transport.now() < sent_ms + 1_000.0:
            await asyncio.sleep(0.01)
        assert retransmits.value == 2
        assert transport.now() - sent_ms < 400.0  # ~200 ms, not ~3 s
        # The timer then falls back to the long deadline still pending.
        assert endpoint.pump_handle is not None
        assert endpoint.pump_due_ms == long_due
        await transport.close()
        assert transport.quiescent()

    asyncio.run(episode())


def test_future_stamped_frame_is_held_at_most_the_transit_latency():
    """A frame whose send stamp lies an hour ahead is delivered after the
    pair's 5 ms pacing latency instead of being parked until the stamp
    comes due, which would keep the transport from ever quiescing."""

    async def episode():
        transport = AsyncioTransport(latency_fn=lambda a, b: 5.0)
        await transport.start()
        received = []
        await transport.start_peer(1, lambda envelope: None)
        address = await transport.start_peer(
            2, lambda e: received.append(e.payload.payload_id))
        forged = Frame(DATA, 1, 2, 0, MessageKind.PAYLOAD.value,
                       transport.now() + 3_600_000.0, Payload(GROUP, 0, 1))
        with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
            sock.sendto(encode_frame(forged), address)
        deadline = transport.now() + 1_000.0
        while not received and transport.now() < deadline:
            await asyncio.sleep(0.01)
        quiet = await transport.wait_quiescent(SETTLE_S)
        await transport.close()
        return received, quiet

    received, quiet = asyncio.run(episode())
    assert quiet
    assert received == [0]
