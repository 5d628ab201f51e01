"""Workload 4: the message-driven ``GroupSession`` on the event engine."""

from __future__ import annotations

import time
from typing import NamedTuple

from repro.groupcast.session import GroupSession
from repro.obs.tracer import Tracer
from repro.sim.random import spawn_rng

from harness import (
    BenchmarkFailure,
    LatencyProbe,
    Outcome,
    Spans,
    Workload,
    build_world,
    cache_hit_ratio,
    digest_of,
    median,
    run_timeboxed,
)

PAYLOADS = 10
#: Groups (two per scheme) that make up the digest; every run does at
#: least this many.
DIGEST_GROUPS = 4
SCHEMES = ("ssa", "nssa")


class GroupRun(NamedTuple):
    """One group established and published to on one session."""

    establish_s: float
    publish_ms: list[float]  # one entry per payload
    establish_msgs: int
    record: list  # what a same-seed rerun must reproduce
    failed: int
    attempted: int

    @property
    def wall_s(self) -> float:
        """Host seconds of the protocol work."""
        return self.establish_s + sum(self.publish_ms) / 1e3


class SessionSim(Workload):
    work_unit = "simulated messages (net.sent)"
    op_unit = "one publish (payload flooded through the group tree)"
    setup_reps = 2

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.peers = 300 if quick else 2000
        self.group_size = 30 if quick else 100
        self.walls: list[float] = []
        self.publish_ms: list[float] = []
        self.establish_ms = {scheme: [] for scheme in SCHEMES}
        self.establish_msgs = {scheme: [] for scheme in SCHEMES}
        self.messages = 0
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self.tracer_s = 0.0

    def _session(self, latency_fn, tracer=None) -> GroupSession:
        return GroupSession(
            self.deployment.overlay, latency_fn,
            spawn_rng(self.seed, "bench-session"), tracer=tracer)

    def setup(self) -> None:
        self.deployment = build_world(self.peers, self.seed)
        self.session = self._session(self.deployment.peer_distance_ms)
        self.member_rng = spawn_rng(self.seed, "bench-session-members")
        self.peer_ids = self.deployment.peer_ids()

    def warm_up(self) -> None:
        # A throwaway session fills the routing caches; the measured
        # session's random stream stays untouched.
        scratch = self._session(self.deployment.peer_distance_ms)
        rng = spawn_rng(self.seed, "bench-session-warm-up")
        for i, scheme in enumerate(SCHEMES):
            picks = rng.choice(len(self.peer_ids), size=self.group_size,
                               replace=False)
            self._group(scratch, i + 1, scheme,
                        [self.peer_ids[int(p)] for p in picks])
        self.cache_before = self.deployment.underlay.routing.cache_stats()

    @staticmethod
    def _group(session: GroupSession, group_id: int, scheme: str,
               members: list[int]) -> GroupRun:
        """Establish one group and publish to it."""
        sent = session.registry.counter("net.sent")
        before = sent.value
        start = time.perf_counter()
        session.establish(group_id, members[0], members, scheme=scheme)
        establish_s = time.perf_counter() - start
        establish_msgs = sent.value - before
        # Members the protocol could not place are a protocol outcome
        # (they show in the record); a placed member missing a payload
        # is a failure.
        on_tree = session.members_on_tree(group_id)
        sources = [m for m in members if m in on_tree][:PAYLOADS]
        delays, publish_ms = [], []
        for source in sources:
            start = time.perf_counter()
            delays.append(session.publish(group_id, source))
            publish_ms.append((time.perf_counter() - start) * 1e3)
        expected = len(on_tree) - 1
        return GroupRun(
            establish_s, publish_ms, establish_msgs,
            record=[sorted(on_tree), [sorted(d.items()) for d in delays],
                    sent.value - before],
            failed=sum(expected - len(d) for d in delays),
            attempted=expected * len(delays))

    def _twins(self, spans: Spans, group_id: int, scheme: str,
               members: list[int]):
        """The same group on the probed and the obs-traced twin."""
        with spans.span(f"groupcast.session.group_{scheme}"):
            probed = self._group(self.probed, group_id, scheme, members)
        return probed, self._group(self.traced, group_id, scheme, members)

    def _unit(self, i: int, spans: Spans | None) -> None:
        scheme = SCHEMES[i % 2]
        picks = self.member_rng.choice(
            len(self.peer_ids), size=self.group_size, replace=False)
        members = [self.peer_ids[int(p)] for p in picks]
        twins = None
        # Every other pair (one group per scheme) the twins go first, so
        # the plain session does not always find the routing rows cold.
        if spans is not None and (i // 2) % 2:
            twins = self._twins(spans, i + 1, scheme, members)
        group = self._group(self.session, i + 1, scheme, members)
        if spans is not None and twins is None:
            twins = self._twins(spans, i + 1, scheme, members)
        self.walls.append(group.wall_s)
        self.establish_ms[scheme].append(group.establish_s * 1e3)
        self.establish_msgs[scheme].append(group.establish_msgs)
        self.publish_ms.extend(group.publish_ms)
        self.messages += group.record[-1]
        self.failed += group.failed
        self.attempted += group.attempted
        if i < DIGEST_GROUPS:
            self.records.append(group.record)
        if twins is not None:
            probed, traced = twins
            if probed.record != group.record \
                    or traced.record != group.record:
                raise BenchmarkFailure(
                    "probed or obs-traced session diverged from the "
                    "plain one")
            self.plain_s += group.wall_s
            self.traced_s += probed.wall_s
            self.tracer_s += traced.wall_s

    def run(self, seconds: float, spans: Spans | None) -> None:
        if spans is not None:
            # Twins on identically seeded streams: one behind a latency
            # probe, one with the repository's own Tracer attached.
            self.probe = LatencyProbe(self.deployment.peer_distance_ms)
            self.probed = self._session(self.probe)
            self.traced = self._session(
                self.deployment.peer_distance_ms, tracer=Tracer())
        run_timeboxed(lambda i: self._unit(i, spans), seconds,
                      min_units=DIGEST_GROUPS)

    def outcome(self, spans: Spans | None) -> Outcome:
        layers = {}
        if spans is not None:
            groups = len(self.walls)
            sim_events = self.probed.simulator.events_processed
            layers = {
                "groupcast.session.establish_ssa_ms_p50":
                    median(self.establish_ms["ssa"]),
                "groupcast.session.establish_nssa_ms_p50":
                    median(self.establish_ms["nssa"]),
                "groupcast.session.msgs_per_group_ssa":
                    median(self.establish_msgs["ssa"]),
                "groupcast.session.msgs_per_group_nssa":
                    median(self.establish_msgs["nssa"]),
                "groupcast.session.duplicates":
                    self.session.duplicates / groups,
                "obs.tracer_overhead_ratio": self.tracer_s / self.plain_s,
                "sim.events_processed": sim_events / groups,
                "sim.host_us_per_event":
                    self.traced_s / sim_events * 1e6,
                "network.latency_calls": self.probe.calls / groups,
                "network.latency_us_per_call":
                    self.probe.seconds / self.probe.calls * 1e6,
                "network.routing_cache_hit_ratio": cache_hit_ratio(
                    self.cache_before,
                    self.deployment.underlay.routing.cache_stats()),
            }
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=self.messages / sum(self.walls),
            op_ms=self.publish_ms, tail_q=0.9,
            digest=digest_of(self.records),
            counts={"digest_groups": len(self.records),
                    "messages": sum(r[-1] for r in self.records)},
            layers=layers,
            notes={"peers": self.peers, "group_size": self.group_size,
                   "groups": len(self.walls)})
