"""Workload 7: the live asyncio runtime over real UDP sockets on the
host's loopback interface (127.0.0.1) — no link is crossed, so the
numbers measure framing, ARQ, the socket path and the event loop, never
wire latency."""

from __future__ import annotations

import asyncio
import time

from repro.groupcast.session import Payload
from repro.overlay.messages import MessageKind
from repro.runtime.framing import decode_frame, encode_frame
from repro.runtime.reliability import ReliableEndpoint
from repro.sim.random import spawn_rng

from harness import (
    WORLD_SEED,
    BenchmarkFailure,
    Outcome,
    Spans,
    Workload,
    build_world,
    median,
    percentile,
)

GROUP = 1
BURST = 20
#: Open-loop offered rates (payloads/s): about 30% and 60% of what the
#: closed loop sustains today, so latency stays meaningful after a
#: speed-up.
RATES = (40, 80)
#: Latency limit on the reported percentile, in ms; a delivery beyond it
#: (or missing) counts as over the limit.
LIMIT_MS = 25.0
#: Share of the run given to the closed loop; the open loop gets the
#: rest.  The lower rate feeds layer metrics only, so only the traced
#: run spends time (this share of the open loop) on it.
CLOSED_SHARE = 0.3
LOW_RATE_SHARE = 0.35
ARQ_COUNTERS = ("runtime.retransmits", "runtime.duplicates_suppressed",
                "net.dead_lettered", "runtime.expired")


class LiveLoopback(Workload):
    work_unit = "datagrams (DATA + ACK), closed loop of 20-payload bursts"
    op_unit = "one member delivery, from due send time, open loop 80/s"

    def __init__(self, seed: int, quick: bool) -> None:
        super().__init__(seed, quick)
        self.peers = 60 if quick else 200
        self.group_size = 15 if quick else 50
        self.loop = asyncio.new_event_loop()
        self.cluster = None
        self.attempted = 0
        self.failed = 0
        self.burst_rates: list[float] = []
        self.spanned_burst_rates: list[float] = []
        self.latencies: dict[int, list[float]] = {}
        self.late_ms: list[float] = []
        self.over_limit = 0
        self.phase_retransmits: dict[str, int] = {}
        self.published = 0

    # ------------------------------------------------------------------
    def setup(self) -> None:
        self.loop.run_until_complete(self._setup())

    async def _quiesce(self) -> None:
        if not await self.cluster.transport.wait_quiescent(
                30, interval_s=0.001):
            raise BenchmarkFailure("transport never went quiescent")

    async def _setup(self) -> None:
        # One group cannot average over tree shapes, and the shape alone
        # moves median delivery time by +-20%: the group and the peers'
        # protocol draws are pinned with the world, and the seed picks
        # the order in which members publish.
        deployment = build_world(self.peers, WORLD_SEED)
        self.cluster = deployment.serve(pace_latencies=False)
        ids = deployment.peer_ids()
        picks = spawn_rng(WORLD_SEED, "bench-live").choice(
            len(ids), size=self.group_size, replace=False)
        members = [ids[int(i)] for i in picks]
        start = time.perf_counter()
        await self.cluster.start()
        self.cluster_start_s = time.perf_counter() - start
        start = time.perf_counter()
        self.cluster.advertise(GROUP, members[0], scheme="ssa")
        await self._quiesce()
        self.advertise_s = time.perf_counter() - start
        start = time.perf_counter()
        self.cluster.subscribe(GROUP, members)
        await self._quiesce()
        self.subscribe_s = time.perf_counter() - start
        self.on_tree = self.cluster.members_on_tree(GROUP) & set(members)
        self.sources = [int(p) for p in spawn_rng(
            self.seed, "bench-live-sources").permutation(
                sorted(self.on_tree))]

    def warm_up(self) -> None:
        self.loop.run_until_complete(self._burst(BURST))

    def close(self) -> None:
        if self.cluster is not None:
            self.loop.run_until_complete(self.cluster.stop())
        self.loop.close()

    # ------------------------------------------------------------------
    def _counter(self, name: str) -> int:
        return self.cluster.registry.counter(name).value

    def _datagrams(self) -> int:
        return self._counter("net.sent") + self._counter(
            "runtime.acks_sent")

    def _publish(self) -> tuple[int, int]:
        source = self.sources[self.published % len(self.sources)]
        self.published += 1
        return self.cluster.publish(GROUP, source), source

    def _receipts(self, payload_id: int, source: int) -> dict[int, float]:
        """Delivery times (transport ms) at the members other than the
        source; members that never got the payload count as failed."""
        delivered = self.cluster.deliveries(GROUP, payload_id)
        expected = self.on_tree - {source}
        got = {p: at for p, at in delivered.items() if p in expected}
        self.attempted += len(expected)
        self.failed += len(expected) - len(got)
        return got

    async def _burst(self, payloads: int) -> float:
        """Closed loop: publish a burst, wait until every frame is
        acked; returns datagrams per wall second."""
        before = self._datagrams()
        start = time.perf_counter()
        sent = [self._publish() for _ in range(payloads)]
        await self._quiesce()
        wall = time.perf_counter() - start
        rate = (self._datagrams() - before) / wall
        for payload_id, source in sent:
            self._receipts(payload_id, source)
        return rate

    async def _open_loop(self, rate: int, seconds: float) -> None:
        """Open loop: payloads are due every 1/rate s on the loop clock
        whatever the system does; each delivery is timed from the due
        time, so a stall charges the payloads queued behind it."""
        loop, transport = self.loop, self.cluster.transport
        # transport.now() is the same loop clock in ms from its start.
        offset_ms = transport.now() - loop.time() * 1e3
        first_due = loop.time() + 0.01
        sent = []
        for k in range(max(1, int(rate * seconds))):
            due = first_due + k / rate
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            self.late_ms.append((loop.time() - due) * 1e3)
            sent.append((*self._publish(), due * 1e3 + offset_ms))
        await self._quiesce()
        latencies = self.latencies.setdefault(rate, [])
        for payload_id, source, due_ms in sent:
            receipts = self._receipts(payload_id, source)
            latencies.extend(at - due_ms for at in receipts.values())
            if rate == RATES[-1]:
                self.over_limit += len(self.on_tree) - 1 - sum(
                    1 for at in receipts.values()
                    if at - due_ms <= LIMIT_MS)

    async def _phases(self, seconds: float, spans: Spans | None) -> None:
        closed_s = seconds * CLOSED_SHARE
        open_s = seconds - closed_s
        phases = [(RATES[-1], open_s)] if spans is None else [
            (RATES[0], open_s * LOW_RATE_SHARE),
            (RATES[-1], open_s * (1.0 - LOW_RATE_SHARE))]
        retransmits = self._counter("runtime.retransmits")
        start = time.perf_counter()
        bursts = 0
        while bursts < 3 or time.perf_counter() - start < closed_s:
            if spans is not None and bursts % 2:
                with spans.span("runtime.burst"):
                    self.spanned_burst_rates.append(
                        await self._burst(BURST))
            else:
                self.burst_rates.append(await self._burst(BURST))
            bursts += 1
        for rate, phase_s in phases:
            await self._open_loop(rate, max(phase_s, 0.5))
            now = self._counter("runtime.retransmits")
            self.phase_retransmits[f"open_{rate}"] = now - retransmits
            retransmits = now

    def run(self, seconds: float, spans: Spans | None) -> None:
        self.arq_before = {name: self._counter(name)
                           for name in ARQ_COUNTERS}
        self.loop.run_until_complete(self._phases(seconds, spans))

    # ------------------------------------------------------------------
    def _codec_costs(self) -> dict[str, float]:
        """Per-frame cost of the codec and the sans-IO ARQ state machine
        alone, on packaged ``Payload`` frames."""
        iterations = 2_000 if self.quick else 20_000
        sender, receiver = ReliableEndpoint(1), ReliableEndpoint(2)
        frames = [sender.package(2, Payload(GROUP, i, 1),
                                 MessageKind.PAYLOAD, float(i))
                  for i in range(iterations)]
        start = time.perf_counter()
        datagrams = [encode_frame(frame) for frame in frames]
        encode_s = time.perf_counter() - start
        start = time.perf_counter()
        for datagram in datagrams:
            decode_frame(datagram)
        decode_s = time.perf_counter() - start
        sender, receiver = ReliableEndpoint(1), ReliableEndpoint(2)
        payload = Payload(GROUP, 1, 1)
        start = time.perf_counter()
        for i in range(iterations):
            frame = sender.package(2, payload, MessageKind.PAYLOAD,
                                   float(i))
            sender.on_frame(receiver.on_frame(frame, float(i)).ack,
                            float(i))
        arq_s = time.perf_counter() - start
        if sender.unacked():
            raise BenchmarkFailure("sans-IO ARQ pair left frames unacked")
        return {
            "runtime.framing.encode_ns": encode_s / iterations * 1e9,
            "runtime.framing.decode_ns": decode_s / iterations * 1e9,
            "runtime.framing.frame_bytes_mean":
                sum(map(len, datagrams)) / iterations,
            "runtime.reliability.arq_ns_per_frame":
                arq_s / iterations * 1e9,
        }

    def overhead_ratio(self) -> float:
        # Spans sit at burst boundaries only: alternate bursts ran with
        # and without one.
        if not self.spanned_burst_rates:
            return 0.0
        return median(self.burst_rates) / median(self.spanned_burst_rates)

    def outcome(self, spans: Spans | None) -> Outcome:
        datagrams_per_s = median(self.burst_rates)
        latencies = self.latencies[RATES[-1]]
        layers = {}
        if spans is not None:
            layers = self._codec_costs()
            ns_per_datagram = 1e9 / datagrams_per_s
            delta = {name: self._counter(name) - self.arq_before[name]
                     for name in ARQ_COUNTERS}
            layers.update({
                "runtime.cluster_start_s": self.cluster_start_s,
                "runtime.advertise_s": self.advertise_s,
                "runtime.subscribe_s": self.subscribe_s,
                "runtime.transport.ns_per_datagram": ns_per_datagram,
                "runtime.transport.other_share": 1.0 - (
                    layers["runtime.framing.encode_ns"]
                    + layers["runtime.framing.decode_ns"]
                    + layers["runtime.reliability.arq_ns_per_frame"]
                ) / ns_per_datagram,
                "runtime.retransmits": delta["runtime.retransmits"],
                "runtime.duplicates_suppressed":
                    delta["runtime.duplicates_suppressed"],
                "runtime.dead_lettered": delta["net.dead_lettered"],
                "runtime.expired": delta["runtime.expired"],
                "runtime.delivery_ms_p99_r40":
                    percentile(self.latencies[RATES[0]], 0.99),
                "runtime.over_limit_ratio":
                    self.over_limit / max(1, len(latencies)),
                "runtime.generator_late_ms_max": max(self.late_ms),
            })
        return Outcome(
            attempted=self.attempted, failed=self.failed,
            work_per_s=datagrams_per_s, op_ms=latencies, tail_q=0.9,
            layers=layers,
            notes={"interface": "loopback 127.0.0.1",
                   "peers": self.peers, "members_on_tree":
                       len(self.on_tree),
                   "bursts": len(self.burst_rates)
                       + len(self.spanned_burst_rates),
                   "generator_late_ms_max": max(self.late_ms),
                   "retransmits_by_phase": self.phase_retransmits,
                   **{f"delivery_ms_p50_r{rate}": median(values)
                      for rate, values in self.latencies.items()},
                   **{f"delivery_ms_p{q}_r{rate}": percentile(values, q / 100)
                      for rate, values in self.latencies.items()
                      for q in (90, 99)}})
