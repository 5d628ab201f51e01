"""Workload 3: the application-facing ``GroupCastMiddleware`` path."""

from __future__ import annotations

import time

from repro.groupcast.advertisement import propagate_advertisement
from repro.groupcast.dissemination import disseminate
from repro.groupcast.middleware import GroupCastMiddleware
from repro.groupcast.rendezvous import select_rendezvous
from repro.groupcast.subscription import subscribe_members
from repro.metrics import link_stress, relative_delay_penalty
from repro.network.multicast import build_ip_multicast_tree
from repro.overlay.messages import MessageStats
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

PAYLOADS = 5
#: Groups whose trees and delays make up the digest; every run does at
#: least this many, however short.
DIGEST_GROUPS = 5


def group_record(rendezvous, tree, reports, penalty, stress) -> list:
    """What a same-seed rerun of one group must reproduce."""
    return [rendezvous, sorted(tree.edges()),
            [sorted(r.member_delays_ms.items()) for r in reports],
            penalty, stress]


class FacadeGroups(Workload):
    work_unit = "payloads published and evaluated"
    op_unit = "one create_group (SSA advertise + subscribe)"
    setup_reps = 2

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.peers = 300 if quick else 2000
        self.group_size = 30 if quick else 100
        self.setup_ms: list[float] = []
        self.publish_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records: list = []
        self.messages = 0
        self.unplaced = 0

    def setup(self) -> None:
        self.deployment = build_world(self.peers, self.seed)
        self.middleware = GroupCastMiddleware(self.deployment)
        # The staged twin draws from an identically seeded stream, so
        # both variants establish the same groups.
        self.staged_rng = spawn_rng(self.seed, "middleware")
        self.staged_stats = MessageStats()
        self.probe = LatencyProbe(self.deployment.peer_distance_ms)
        self.staged_groups = 0

    def warm_up(self) -> None:
        # A throwaway facade over the same deployment fills the routing
        # caches without advancing the measured facade's random stream.
        scratch = GroupCastMiddleware(self.deployment)
        for _ in range(3):
            self._group(scratch)
        self.cache_before = self.deployment.underlay.routing.cache_stats()

    def _group(self, middleware):
        """One group life-cycle through the facade; returns
        ``(setup_s, publish_s, record, failed, attempted)``."""
        members = middleware.sample_members(self.group_size)
        start = time.perf_counter()
        group = middleware.create_group(members, scheme="ssa")
        setup_s = time.perf_counter() - start
        sources = sorted(group.members)[:PAYLOADS]
        start = time.perf_counter()
        reports = [middleware.publish(group.group_id, source)
                   for source in sources]
        ip_tree = middleware.ip_multicast_reference(
            group.group_id, sources[0])
        penalty = relative_delay_penalty(reports[0], ip_tree)
        stress = link_stress(reports[0], ip_tree)
        publish_s = time.perf_counter() - start
        middleware.close_group(group.group_id)
        # A member the protocol could not place (SSA reach plus ripple
        # search, Figure 12) is a protocol outcome, reported in the
        # notes; a placed member that misses a payload is a failure.
        self.unplaced += len(group.subscription.failed)
        expected = len(group.members) - 1
        failed = sum(expected - len(r.member_delays_ms) for r in reports)
        attempted = expected * len(reports)
        record = group_record(group.rendezvous, group.tree, reports,
                              penalty, stress)
        return setup_s, publish_s, record, failed, attempted

    def _staged_group(self, spans: Spans):
        """The same life-cycle as direct calls into each layer, with
        the arguments the facade passes, each under a span."""
        deployment, config = self.deployment, self.deployment.config
        overlay, rng, stats = (deployment.overlay, self.staged_rng,
                               self.staged_stats)
        pool = deployment.peer_ids()
        picks = rng.choice(len(pool), size=self.group_size, replace=False)
        members = [pool[int(i)] for i in picks]
        self.staged_groups += 1
        start = time.perf_counter()
        with spans.span("groupcast.create_group"):
            with spans.span("groupcast.rendezvous"):
                rendezvous = select_rendezvous(
                    overlay, members[0], rng, config.rendezvous, stats)
            with spans.span("groupcast.advertise"):
                advertisement = propagate_advertisement(
                    overlay=overlay, rendezvous=rendezvous,
                    group_id=self.staged_groups, scheme="ssa",
                    latency_fn=self.probe, rng=rng,
                    config=config.announcement,
                    utility_config=config.utility, stats=stats)
            with spans.span("groupcast.subscribe"):
                tree, _ = subscribe_members(
                    overlay=overlay, advertisement=advertisement,
                    members=members, latency_fn=self.probe,
                    config=config.announcement, stats=stats)
        sources = sorted(tree.members)[:PAYLOADS]
        with spans.span("groupcast.publish_path"):
            reports = []
            for source in sources:
                with spans.span("groupcast.disseminate"):
                    reports.append(disseminate(
                        tree, source, deployment.underlay, stats))
            with spans.span("network.ip_multicast"):
                ip_tree = build_ip_multicast_tree(
                    deployment.underlay, sources[0],
                    [m for m in tree.members if m != sources[0]])
            with spans.span("metrics.tree_metrics"):
                penalty = relative_delay_penalty(reports[0], ip_tree)
                stress = link_stress(reports[0], ip_tree)
        staged_s = time.perf_counter() - start
        return staged_s, group_record(rendezvous, tree, reports,
                                      penalty, stress)

    def _unit(self, i: int, spans: Spans | None) -> None:
        staged = None
        if spans is not None and i % 2:
            staged = self._staged_group(spans)
        setup_s, publish_s, record, failed, attempted = self._group(
            self.middleware)
        if spans is not None and staged is None:
            staged = self._staged_group(spans)
        self.setup_ms.append(setup_s * 1e3)
        self.publish_s.append(publish_s)
        self.failed += failed
        self.attempted += attempted
        if staged is not None:
            staged_s, staged_record = staged
            if staged_record != record:
                raise BenchmarkFailure(
                    "staged group diverged from the facade's")
            self.plain_s += setup_s + publish_s
            self.traced_s += staged_s
        if i < DIGEST_GROUPS:
            self.records.append(record)
            self.messages = self.middleware.stats.total()

    def run(self, seconds: float, spans: Spans | None) -> None:
        run_timeboxed(lambda i: self._unit(i, spans), seconds,
                      min_units=DIGEST_GROUPS)

    def outcome(self, spans: Spans | None) -> Outcome:
        layers = {}
        if spans is not None:
            def span_ms(name: str) -> float:
                return median(spans.durations(name)) * 1e3

            layers = {
                "groupcast.rendezvous_ms": span_ms("groupcast.rendezvous"),
                "groupcast.advertise_ms": span_ms("groupcast.advertise"),
                "groupcast.subscribe_ms": span_ms("groupcast.subscribe"),
                "groupcast.disseminate_ms":
                    span_ms("groupcast.disseminate"),
                "network.ip_multicast_ms": span_ms("network.ip_multicast"),
                "metrics.tree_metrics_ms": span_ms("metrics.tree_metrics"),
                "network.latency_calls":
                    self.probe.calls / self.staged_groups,
                "network.latency_us_per_call":
                    self.probe.seconds / self.probe.calls * 1e6,
                "network.routing_cache_hit_ratio": cache_hit_ratio(
                    self.cache_before,
                    self.deployment.underlay.routing.cache_stats()),
            }
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=PAYLOADS / median(self.publish_s),
            op_ms=self.setup_ms, tail_q=0.9,
            digest=digest_of(self.records),
            counts={"digest_groups": len(self.records),
                    "messages": self.messages},
            layers=layers,
            notes={"peers": self.peers, "group_size": self.group_size,
                   "groups": len(self.setup_ms),
                   "members_not_placed": self.unplaced})
