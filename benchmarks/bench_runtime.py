"""Live loopback runtime throughput benchmark (informational).

Hosts one :class:`~repro.runtime.cluster.RuntimeCluster` over real UDP
loopback sockets — the same protocol code the simulator runs, carried
by the asyncio transport with framing and retransmit-until-ack — and
times the full group life-cycle: advertise, subscribe, publish a batch
of payloads.  Reported metrics are wall-clock per phase, datagram
throughput (DATA + ACK frames per second), and the ARQ overhead
observed on a healthy loopback (retransmits, suppressed duplicates).

The absolute timings are **informational**: they measure socket and
event-loop behaviour of the host machine, which varies too much across
CI runners to gate on.  What *is* gated is the **live-telemetry
overhead ratio**: the same episode runs twice, bare and with a
:class:`~repro.obs.live.LiveTelemetry` pump attached (streaming tracer,
registry sampling, online watchdogs), and
``metrics.runtime.telemetry_overhead_ratio`` = telemetry / bare wall
time must stay under the 15% budget — a host-relative ratio that is
stable across machines the way the BENCH_obs overhead gate is.  The
budget is currently **not met**: since ``settle()`` stopped polling on
a 20 ms grid (which rounded both episodes to the same number of ticks
and read 1.01) the ratio reads 1.19-1.24, committed 1.20; closing it is
``repro.obs`` work (ROADMAP item 5).  ``--check`` fails above
``slack`` x the committed ratio, capped at :data:`CEILING_CAP` so that
re-baselining cannot loosen the gate.

Usage::

    PYTHONPATH=src python benchmarks/bench_runtime.py \
        --write BENCH_runtime.json            # refresh the committed file
    PYTHONPATH=src python benchmarks/bench_runtime.py \
        --repeat 2 --check BENCH_runtime.json # CI regression gate
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.deployment import build_deployment  # noqa: E402
from repro.obs import default_watchdogs  # noqa: E402
from repro.obs.live import LiveTelemetry  # noqa: E402

SEED = 7
GROUP = 1

#: Live-telemetry overhead budget (telemetry / bare wall time).
BUDGET = 1.15
#: ``--check`` never passes a ratio above this, whatever is committed
#: (the gate CI applied when the committed ratio read 1.01 was 1.52).
CEILING_CAP = 1.5


async def _run_episode(peers: int, members_count: int, publishes: int,
                       settle_s: float, telemetry: bool = False) -> dict:
    """One full live life-cycle; returns the phase timings + counters."""
    deployment = build_deployment(peers, kind="groupcast", seed=SEED)
    # Raw substrate speed: no latency pacing (pacing measures the
    # latency table, not the transport).
    cluster = deployment.serve(pace_latencies=False)
    live = None
    if telemetry:
        # The full ops plane: streaming tracer with spans, registry
        # sampling and the standard watchdog pack — no output files,
        # so the ratio isolates the in-process cost.
        live = LiveTelemetry(cluster, rules=default_watchdogs())
    ids = deployment.peer_ids()
    members = ids[:members_count]
    phases: dict[str, float] = {}
    async with cluster:
        if live is not None:
            live.start()
        start = time.perf_counter()
        cluster.advertise(GROUP, members[0], scheme="nssa")
        if not await cluster.settle(settle_s):
            raise RuntimeError("advertisement never went quiescent")
        phases["advertise_s"] = time.perf_counter() - start

        start = time.perf_counter()
        cluster.subscribe(GROUP, members)
        if not await cluster.settle(settle_s):
            raise RuntimeError("subscriptions never went quiescent")
        phases["subscribe_s"] = time.perf_counter() - start
        on_tree = cluster.members_on_tree(GROUP)
        if not set(members) <= on_tree:
            raise RuntimeError(
                f"members missing from tree: {set(members) - on_tree}")

        start = time.perf_counter()
        payload_ids = [
            cluster.publish(GROUP, members[i % len(members)])
            for i in range(publishes)]
        if not await cluster.settle(settle_s):
            raise RuntimeError("publishes never went quiescent")
        phases["publish_s"] = time.perf_counter() - start
        delivered = sum(
            len(cluster.deliveries(GROUP, pid)) for pid in payload_ids)

        counters = {
            name: cluster.registry.counter(name).value
            for name in ("net.sent", "net.delivered", "net.dead_lettered",
                         "runtime.acks_sent", "runtime.retransmits",
                         "runtime.duplicates_suppressed",
                         "runtime.expired")}
        if live is not None:
            await live.close()
    total_s = sum(phases.values())
    datagrams = counters["net.sent"] + counters["runtime.acks_sent"]
    return {
        "phases": {k: round(v, 6) for k, v in phases.items()},
        "total_s": round(total_s, 6),
        "datagrams_per_s": round(datagrams / total_s, 1),
        "deliveries": delivered,
        "members_on_tree": len(on_tree),
        "counters": counters,
    }


def run_benchmark(peers: int, members_count: int, publishes: int,
                  repeat: int, settle_s: float) -> dict:
    """Best-of-``repeat``, bare and with the live-telemetry pump."""
    best = None
    best_telemetry = None
    for _ in range(repeat):
        result = asyncio.run(
            _run_episode(peers, members_count, publishes, settle_s))
        if best is None or result["total_s"] < best["total_s"]:
            best = result
        observed = asyncio.run(
            _run_episode(peers, members_count, publishes, settle_s,
                         telemetry=True))
        if best_telemetry is None \
                or observed["total_s"] < best_telemetry["total_s"]:
            best_telemetry = observed
    ratio = (best_telemetry["total_s"] / best["total_s"]
             if best["total_s"] > 0 else float("inf"))
    best["telemetry"] = {
        "total_s": best_telemetry["total_s"],
        "datagrams_per_s": best_telemetry["datagrams_per_s"],
    }
    best["telemetry_overhead_ratio"] = round(ratio, 4)
    report = {
        "peers": peers,
        "members": members_count,
        "publishes": publishes,
        "repeat": repeat,
        "metrics": {"runtime": best},
    }
    print(f"runtime loopback  {peers} peers  "
          f"total {best['total_s']:8.4f}s  "
          f"{best['datagrams_per_s']:10.1f} datagrams/s  "
          f"retransmits {best['counters']['runtime.retransmits']}  "
          f"telemetry overhead {ratio:6.3f}x")
    return report


def check_against(report: dict, baseline_path: Path,
                  slack: float) -> int:
    """Gate: measured telemetry overhead within ``slack``x of the
    committed ratio (floored at the 1.15 budget, so tightening the
    baseline never makes the gate impossible on slower machines, and
    capped at :data:`CEILING_CAP`, so loosening it never widens the
    gate)."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    committed = baseline["metrics"]["runtime"]["telemetry_overhead_ratio"]
    measured = report["metrics"]["runtime"]["telemetry_overhead_ratio"]
    ceiling = min(max(BUDGET, committed * slack), CEILING_CAP)
    status = "ok" if measured <= ceiling else "FAIL"
    print(f"{status:4s} live telemetry overhead: measured {measured}x, "
          f"committed {committed}x (ceiling {ceiling:.3f}x)")
    return 0 if measured <= ceiling else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Live loopback runtime benchmark (informational).")
    parser.add_argument("--peers", type=int, default=40)
    parser.add_argument("--members", type=int, default=12)
    parser.add_argument("--publishes", type=int, default=20)
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--settle", type=float, default=15.0,
                        help="per-phase quiescence deadline (seconds)")
    parser.add_argument(
        "--write", type=Path, default=None, metavar="PATH",
        help="write the report as JSON (the committed baseline)")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the report to this path")
    parser.add_argument(
        "--check", type=Path, default=None, metavar="PATH",
        help="gate the telemetry overhead against a committed baseline")
    parser.add_argument(
        "--slack", type=float, default=2.0,
        help="allowed measured/committed overhead factor under --check")
    args = parser.parse_args(argv)

    report = run_benchmark(args.peers, args.members, args.publishes,
                           args.repeat, args.settle)
    for target in (args.write, args.json):
        if target is not None:
            target.write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
            print(f"wrote {target}")
    if args.check is not None:
        return check_against(report, args.check, args.slack)
    return 0


if __name__ == "__main__":
    sys.exit(main())
