"""Routing-core regression micro-benchmark.

Times the scalar reference implementations against the vectorized
routing core on one seeded deployment and reports per-metric speedups:

* ``multicast_tree`` — the Figure 15/16 link/node-stress path: merging
  unicast routes into an IP multicast tree over a large receiver set
  (scalar per-pair queries vs one gather + memoized predecessor walk);
* ``distance_matrix`` — the all-pairs latency matrix behind NICE
  cluster centers and Narada mesh construction;
* ``hop_counts`` — per-receiver physical hop counts (client/server
  baseline accounting).

Usage::

    PYTHONPATH=src python benchmarks/bench_routing.py --peers 2000 \
        --write BENCH_routing.json           # refresh the committed file
    PYTHONPATH=src python benchmarks/bench_routing.py --peers 500 \
        --repeat 3 --check BENCH_routing.json   # CI regression gate

``--check`` compares *speedup ratios*, not absolute seconds, so the gate
is machine-independent: it fails (exit 1) if any measured speedup drops
below half the committed one.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.deployment import build_deployment  # noqa: E402
from repro.network.multicast import (  # noqa: E402
    _build_ip_multicast_tree_scalar,
    build_ip_multicast_tree,
)

SEED = 7


def _time(func, repeat: int) -> float:
    """Best-of-``repeat`` wall time of ``func()`` in seconds."""
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmarks(peers: int, repeat: int) -> dict:
    """Measure scalar vs vectorized times; returns the report dict."""
    deployment = build_deployment(peers, kind="groupcast", seed=SEED)
    underlay = deployment.underlay
    ids = deployment.peer_ids()
    source = ids[0]
    receivers = ids[1:]
    matrix_peers = ids[:min(peers, 400)]

    def scalar_matrix():
        return [[underlay.peer_distance_ms(a, b) for b in matrix_peers]
                for a in matrix_peers]

    # The hop-count workload is microseconds per pass; loop it so both
    # sides are measured well above timer granularity.
    hop_loops = 200

    def scalar_hops():
        total = 0
        for _ in range(hop_loops):
            total += sum(underlay.peer_hop_count(source, b)
                         for b in receivers)
        return total

    def fast_hops():
        total = 0
        for _ in range(hop_loops):
            total += int(underlay.peer_hop_counts(source, receivers).sum())
        return total

    tree_loops = 10

    def scalar_tree():
        for _ in range(tree_loops):
            tree = _build_ip_multicast_tree_scalar(
                underlay, source, receivers)
        return tree

    def fast_tree():
        for _ in range(tree_loops):
            tree = build_ip_multicast_tree(underlay, source, receivers)
        return tree

    metrics = {
        "multicast_tree": (scalar_tree, fast_tree),
        "distance_matrix": (
            scalar_matrix,
            lambda: underlay.peer_distance_matrix(matrix_peers),
        ),
        "hop_counts": (scalar_hops, fast_hops),
    }

    report = {"peers": peers, "repeat": repeat, "metrics": {}}
    for name, (scalar, fast) in metrics.items():
        scalar_s = _time(scalar, repeat)
        fast_s = _time(fast, repeat)
        speedup = scalar_s / fast_s if fast_s > 0 else float("inf")
        report["metrics"][name] = {
            "scalar_s": round(scalar_s, 6),
            "fast_s": round(fast_s, 6),
            "speedup": round(speedup, 2),
        }
        print(f"{name:16s} scalar {scalar_s:9.4f}s   "
              f"fast {fast_s:9.4f}s   speedup {speedup:7.1f}x")
    return report


def check_against(report: dict, baseline_path: Path) -> int:
    """Regression gate: measured speedup must be >= committed / 2."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failed = False
    for name, committed in baseline["metrics"].items():
        measured = report["metrics"].get(name)
        if measured is None:
            print(f"FAIL {name}: missing from this run")
            failed = True
            continue
        floor = committed["speedup"] / 2.0
        status = "ok" if measured["speedup"] >= floor else "FAIL"
        print(f"{status:4s} {name}: measured {measured['speedup']}x, "
              f"committed {committed['speedup']}x (floor {floor:.1f}x)")
        if measured["speedup"] < floor:
            failed = True
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Routing-core scalar-vs-vectorized micro-benchmark.")
    parser.add_argument("--peers", type=int, default=2000)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument(
        "--write", type=Path, default=None, metavar="PATH",
        help="write the report as JSON (the committed baseline)")
    parser.add_argument(
        "--json", type=Path, default=None, metavar="PATH",
        help="also write the report to this path")
    parser.add_argument(
        "--check", type=Path, default=None, metavar="PATH",
        help="compare speedups against a committed baseline; exit 1 if "
             "any falls below half the committed ratio")
    args = parser.parse_args(argv)

    report = run_benchmarks(args.peers, args.repeat)
    for target in (args.write, args.json):
        if target is not None:
            target.write_text(json.dumps(report, indent=2) + "\n",
                              encoding="utf-8")
            print(f"wrote {target}")
    if args.check is not None:
        return check_against(report, args.check)
    return 0


if __name__ == "__main__":
    sys.exit(main())
