"""Tests for the event-driven protocol session (messaging + agents)."""

from dataclasses import fields

import numpy as np
import pytest

from repro.config import AnnouncementConfig
from repro.deployment import build_deployment
from repro.errors import GroupError, SimulationError
from repro.groupcast import session as session_module
from repro.groupcast.session import GroupSession
from repro.overlay.graph import OverlayNetwork
from repro.overlay.messages import MessageKind
from repro.peers.peer import PeerInfo
from repro.sim.engine import Simulator
from repro.sim.messaging import MessageNetwork
from repro.sim.random import spawn_rng

from .conftest import SMALL_CONFIG


def make_overlay(edges):
    peers = sorted({p for edge in edges for p in edge})
    overlay = OverlayNetwork()
    for peer in peers:
        overlay.add_peer(PeerInfo(peer, 10.0, np.array([float(peer), 0.0])))
    for a, b in edges:
        overlay.add_link(a, b)
    return overlay


def unit_latency(a, b):
    return 1.0


class TestMessageNetwork:
    def test_delivery_after_latency(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, lambda a, b: 7.5,
                                 spawn_rng(0, "net"))
        received = []
        network.register(2, lambda env: received.append(env))
        network.send(1, 2, "hello")
        simulator.run()
        assert len(received) == 1
        assert received[0].payload == "hello"
        assert received[0].transit_ms == pytest.approx(7.5)
        assert network.delivered == 1

    def test_self_send_rejected(self):
        network = MessageNetwork(Simulator(), unit_latency,
                                 spawn_rng(0, "net"))
        with pytest.raises(SimulationError):
            network.send(1, 1, "x")

    def test_unregistered_recipient_dead_letters(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, unit_latency,
                                 spawn_rng(0, "net"))
        network.send(1, 2, "x")
        simulator.run()
        assert network.dead_lettered == 1
        assert network.delivered == 0

    def test_unregister_mid_flight(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, unit_latency,
                                 spawn_rng(0, "net"))
        received = []
        network.register(2, lambda env: received.append(env))
        network.send(1, 2, "x")
        network.unregister(2)
        simulator.run()
        assert not received
        assert network.dead_lettered == 1

    def test_loss_rate_drops_messages(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, unit_latency,
                                 spawn_rng(0, "net"), loss_rate=0.5)
        received = []
        network.register(2, lambda env: received.append(env))
        for _ in range(400):
            network.send(1, 2, "x")
        simulator.run()
        assert 120 < len(received) < 280
        assert network.lost + network.delivered == 400

    def test_invalid_loss_rate_rejected(self):
        with pytest.raises(SimulationError):
            MessageNetwork(Simulator(), unit_latency,
                           spawn_rng(0, "net"), loss_rate=1.0)

    def test_stats_recorded_by_kind(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, unit_latency,
                                 spawn_rng(0, "net"))
        network.register(2, lambda env: None)
        network.send(1, 2, "x", MessageKind.PAYLOAD)
        assert network.stats.count(MessageKind.PAYLOAD) == 1

    def test_broadcast_sends_unicast_copies(self):
        simulator = Simulator()
        network = MessageNetwork(simulator, unit_latency,
                                 spawn_rng(0, "net"))
        counts = {2: 0, 3: 0}
        network.register(2, lambda env: counts.__setitem__(2, counts[2] + 1))
        network.register(3, lambda env: counts.__setitem__(3, counts[3] + 1))
        network.broadcast(1, [2, 3], "x")
        simulator.run()
        assert counts == {2: 1, 3: 1}


class TestGroupSession:
    def make_session(self, edges, **kwargs):
        overlay = make_overlay(edges)
        return GroupSession(overlay, unit_latency,
                            spawn_rng(0, "session"), **kwargs)

    def test_establish_and_publish_on_line(self):
        session = self.make_session([(0, 1), (1, 2), (2, 3), (3, 4)])
        session.establish(1, rendezvous=0, members=[2, 4])
        assert {0, 2, 4} <= session.members_on_tree(1)
        delays = session.publish(1, source=0)
        assert set(delays) == {2, 4}
        assert delays[2] == pytest.approx(2.0)   # two unit hops
        assert delays[4] == pytest.approx(4.0)

    def test_any_member_may_publish(self):
        session = self.make_session([(0, 1), (1, 2), (2, 3)])
        session.establish(1, rendezvous=0, members=[3])
        delays = session.publish(1, source=3)
        assert 0 in delays  # rendezvous is a member and receives

    def test_duplicate_advertisements_suppressed(self):
        session = self.make_session([(0, 1), (1, 2), (2, 0)])
        session.establish(1, rendezvous=0, members=[1, 2])
        # Triangle: each node hears the ad from two sides.
        assert session.duplicates >= 1

    def test_search_fallback_when_ad_missed(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 9)]
        overlay = make_overlay(edges)
        session = GroupSession(
            overlay, unit_latency, spawn_rng(0, "session"),
            announcement=AnnouncementConfig(advertisement_ttl=2,
                                            subscription_search_ttl=2))
        session.establish(1, rendezvous=0, members=[9])
        assert 9 in session.members_on_tree(1)
        delays = session.publish(1, source=0)
        assert 9 in delays

    def test_failed_subscription_recorded(self):
        edges = [(0, 1), (1, 2), (2, 3), (3, 9)]
        overlay = make_overlay(edges)
        session = GroupSession(
            overlay, unit_latency, spawn_rng(0, "session"),
            announcement=AnnouncementConfig(advertisement_ttl=1,
                                            subscription_search_ttl=1))
        session.establish(1, rendezvous=0, members=[9])
        assert 9 not in session.members_on_tree(1)

    def test_unknown_member_fails_gracefully(self):
        session = self.make_session([(0, 1)])
        session.establish(1, rendezvous=0, members=[99])
        assert 99 in session.failures[1]

    def test_non_member_publish_rejected(self):
        session = self.make_session([(0, 1), (1, 2)])
        session.establish(1, rendezvous=0, members=[2])
        with pytest.raises(GroupError):
            session.publish(1, source=1)

    def test_unknown_rendezvous_rejected(self):
        session = self.make_session([(0, 1)])
        with pytest.raises(GroupError):
            session.establish(1, rendezvous=42, members=[0])


class TestCrossValidation:
    """The event-driven runtime must agree with the procedural path."""

    def test_session_matches_procedural_on_deployment(
            self, groupcast_deployment):
        from repro.groupcast.advertisement import propagate_advertisement
        from repro.groupcast.subscription import subscribe_members

        deployment = groupcast_deployment
        members = deployment.peer_ids()[1:40]
        rendezvous = deployment.peer_ids()[0]
        nssa = AnnouncementConfig(advertisement_ttl=6,
                                  subscription_search_ttl=2)

        # Procedural path (NSSA is deterministic: no sampling involved).
        advertisement = propagate_advertisement(
            deployment.overlay, rendezvous, 1, "nssa",
            deployment.peer_distance_ms, spawn_rng(1, "x"), nssa,
            deployment.config.utility)
        tree, _ = subscribe_members(
            deployment.overlay, advertisement, members,
            deployment.peer_distance_ms, nssa)

        # Event-driven path.
        session = GroupSession(
            deployment.overlay, deployment.peer_distance_ms,
            spawn_rng(2, "y"), announcement=nssa,
            utility=deployment.config.utility)
        session.establish(1, rendezvous=rendezvous, members=list(members),
                          scheme="nssa")

        # Same receipt set (first-arrival parentage may differ in ties).
        assert set(session.receipts[1]) | {rendezvous} == \
            set(advertisement.receipts)
        # Same subscribed membership.
        assert session.members_on_tree(1) >= tree.members - {rendezvous}

        # Delivery delays from the rendezvous match the tree flood.
        from repro.groupcast.dissemination import disseminate

        report = disseminate(tree, rendezvous, deployment.underlay)
        session_delays = session.publish(1, source=rendezvous)
        shared = set(report.member_delays_ms) & set(session_delays)
        assert shared
        for member in shared:
            assert session_delays[member] == pytest.approx(
                report.member_delays_ms[member], rel=0.15, abs=10.0)


class TestMidSessionChurn:
    def make_session(self, edges, **kwargs):
        overlay = make_overlay(edges)
        return GroupSession(overlay, unit_latency,
                            spawn_rng(0, "session"), **kwargs)

    def test_departed_relay_breaks_delivery(self):
        session = self.make_session([(0, 1), (1, 2), (2, 3)])
        session.establish(1, rendezvous=0, members=[3])
        assert 3 in session.publish(1, source=0)
        session.remove_peer(2)
        delays = session.publish(1, source=0)
        assert 3 not in delays  # branch through 2 is dead

    def test_rejoin_restores_delivery(self):
        # Ring: 3 can reach the live tree around the dead relay.
        session = self.make_session(
            [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        session.establish(1, rendezvous=0, members=[2, 3, 4])
        session.remove_peer(2)
        session.rejoin(1, 3)
        delays = session.publish(1, source=0)
        assert 3 in delays

    def test_removed_peer_messages_dead_letter(self):
        session = self.make_session([(0, 1), (1, 2)])
        session.establish(1, rendezvous=0, members=[2])
        session.remove_peer(2)
        before = session.network.dead_lettered
        session.publish(1, source=0)
        assert session.network.dead_lettered > before

    def test_rejoin_unknown_peer_rejected(self):
        session = self.make_session([(0, 1)])
        session.establish(1, rendezvous=0, members=[1])
        session.remove_peer(1)
        with pytest.raises(GroupError):
            session.rejoin(1, 1)


class TestLossyTransport:
    def test_establish_tolerates_moderate_loss(self, groupcast_deployment):
        """With 5 % message loss, NSSA's redundancy still builds a group
        that delivers to the large majority of members."""
        deployment = groupcast_deployment
        session = GroupSession(
            deployment.overlay, deployment.peer_distance_ms,
            spawn_rng(5, "lossy"),
            announcement=deployment.config.announcement,
            utility=deployment.config.utility,
            loss_rate=0.05)
        members = deployment.peer_ids()[1:60]
        session.establish(1, rendezvous=deployment.peer_ids()[0],
                          members=list(members), scheme="nssa")
        on_tree = session.members_on_tree(1)
        assert len(on_tree) >= 0.8 * len(members)
        delays = session.publish(1, source=deployment.peer_ids()[0])
        # Payload loss prunes some branches; most members still receive.
        assert len(delays) >= 0.7 * len(on_tree)


class TestStateDiet:
    """Per-group node state holds only what the peer's role needs."""

    @pytest.fixture(scope="class")
    def session(self):
        deployment = build_deployment(300, kind="groupcast",
                                      config=SMALL_CONFIG)
        session = GroupSession(
            deployment.overlay, deployment.peer_distance_ms,
            spawn_rng(3, "diet"),
            announcement=deployment.config.announcement,
            utility=deployment.config.utility)
        ids = deployment.peer_ids()
        session.establish(1, rendezvous=ids[0], members=ids[1:30],
                          scheme="nssa")
        return session

    def test_advertisement_only_peers_hold_no_sets(self, session):
        assert session.duplicates > 0
        bystanders = [
            node.groups[1] for node in session.nodes.values()
            if 1 in node.groups and node.groups[1].has_advertisement
            and not node.groups[1].on_tree]
        assert bystanders
        for state in bystanders:
            assert not any(isinstance(getattr(state, f.name), set)
                           for f in fields(state))

    def test_state_of_a_known_group_allocates_nothing(self, session,
                                                      monkeypatch):
        built = []
        real = session_module._GroupState
        monkeypatch.setattr(session_module, "_GroupState",
                            lambda: built.append(1) or real())
        touched = [node for node in session.nodes.values()
                   if 1 in node.groups]
        for node in touched:
            state = node.groups[1]
            assert node.state(1) is state
        assert built == []
        touched[0].state(2)  # first touch of a new group still builds one
        assert len(built) == 1
