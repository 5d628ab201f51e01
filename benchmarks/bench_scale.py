"""Scale benchmark: array-core session throughput at 10^4-10^6 peers.

Times one full protocol pass — advertisement flood, subscription climb,
ripple-search attach, tree-delay sweep — over the struct-of-arrays core
(:mod:`repro.core`) at increasing peer counts, and compares against the
object-layer protocol (:func:`propagate_advertisement` +
:func:`subscribe_members`) running the *same pass over the same
topology* at a size the object layer can still handle.  Reported per
size:

* ``peers_per_sec`` — session-pass throughput (higher is better);
* ``bytes_per_peer`` — dense state held per peer (adjacency +
  coordinates + per-edge latencies + tree columns), gated against the
  documented budget (machine-independent);
* ``speedup_vs_object`` — array throughput over the object-core
  throughput measured at ``--object-peers`` (machine-independent).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py \
        --write BENCH_scale.json             # refresh the committed file
    PYTHONPATH=src python benchmarks/bench_scale.py \
        --sizes 10000 --repeat 2 --check BENCH_scale.json   # CI gate
    PYTHONPATH=src python benchmarks/bench_scale.py --full  # adds 10^6

``--check`` gates the machine-independent numbers only: each size's
``speedup_vs_object`` must stay above half the committed value and
``bytes_per_peer`` must not grow past 1.2x the committed value
(``benchmarks/compare.py`` applies the same bounds generically).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.config import AnnouncementConfig  # noqa: E402
from repro.core import (  # noqa: E402
    attach_searchers,
    climb_subscriptions,
    edge_latencies_from_coords,
    flood_advertisement,
    synthetic_power_law_csr,
    tree_delays,
)
from repro.core.store import TreeArrays  # noqa: E402
from repro.groupcast.advertisement import propagate_advertisement  # noqa: E402
from repro.groupcast.subscription import subscribe_members  # noqa: E402
from repro.overlay.graph import OverlayNetwork  # noqa: E402
from repro.peers.peer import PeerInfo  # noqa: E402
from repro.sim.random import spawn_rng  # noqa: E402

SEED = 7
TTL = 12
SEARCH_TTL = 3
MEMBER_FRACTION = 0.05
#: Documented memory budget for the dense state (see EXPERIMENTS.md).
BYTES_PER_PEER_BUDGET = 1024
#: Virtual-time epoch width for the flood, as a multiple of the mean
#: edge latency.  The scale path batches relaxations per epoch: wide
#: buckets cut the Python-level loop count by orders of magnitude at
#: the cost of slight TTL-frontier divergence from the procedural
#: event order (~0.2% of rows at ttl=12; the differential suite runs
#: with the exact single-latency epoch instead).  See
#: ``repro.core.multigroup.flood_advertisements_batch``.
EPOCH_LATENCY_MULTIPLE = 4.0


def _build_world(n: int):
    rng = spawn_rng(SEED, "bench-scale", str(n))
    csr = synthetic_power_law_csr(n, rng)
    coords = rng.uniform(0.0, 100.0, size=(n, 2))
    latency = edge_latencies_from_coords(csr, coords)
    members = np.sort(rng.choice(n, size=max(2, int(n * MEMBER_FRACTION)),
                                 replace=False))
    return csr, coords, latency, members


def _session_pass(csr, coords, latency, members):
    epoch_ms = float(latency.mean()) * EPOCH_LATENCY_MULTIPLE
    flood = flood_advertisement(csr, latency, root=0, ttl=TTL,
                                epoch_ms=epoch_ms)
    on_tree, is_member = climb_subscriptions(flood, members)
    parent, on_tree, _failed = attach_searchers(
        csr, flood, members, on_tree, search_ttl=SEARCH_TTL)
    return tree_delays(parent, on_tree, coords=coords, root=0)


def _time(func, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def _measure_array_core(n: int, repeat: int) -> dict:
    csr, coords, latency, members = _build_world(n)
    elapsed = _time(lambda: _session_pass(csr, coords, latency, members),
                    repeat)
    tree = TreeArrays(n, root=0)
    state_bytes = (csr.nbytes() + coords.nbytes + latency.nbytes
                   + tree.nbytes())
    return {
        "peers": n,
        "pass_s": round(elapsed, 4),
        "peers_per_sec": round(n / elapsed, 1),
        "bytes_per_peer": round(state_bytes / n, 1),
    }


def _measure_object_core(n: int, repeat: int) -> dict:
    """The same session pass through the per-peer object layer.

    The topology is the identical synthetic CSR, materialized as an
    :class:`OverlayNetwork` of PeerInfo objects, so the comparison
    isolates the data-layout change rather than topology differences.
    """
    csr, coords, latency, members = _build_world(n)
    overlay = OverlayNetwork()
    for row in range(n):
        overlay.add_peer(PeerInfo(row, 1.0, coords[row]))
    for row in range(n):
        for neighbor in csr.neighbors(row):
            if row < int(neighbor):
                overlay.add_link(row, int(neighbor))
    min_latency = 0.01

    def latency_fn(a: int, b: int) -> float:
        delta = coords[a] - coords[b]
        return max(float(np.sqrt((delta * delta).sum())), min_latency)

    config = AnnouncementConfig(advertisement_ttl=TTL,
                                subscription_search_ttl=SEARCH_TTL)
    member_ids = [int(m) for m in members]

    def session_pass():
        advertisement = propagate_advertisement(
            overlay, 0, 1, "nssa", latency_fn,
            spawn_rng(SEED, "bench-object"), config)
        subscribe_members(overlay, advertisement, member_ids, latency_fn,
                          config)

    elapsed = _time(session_pass, repeat)
    return {
        "peers": n,
        "pass_s": round(elapsed, 4),
        "peers_per_sec": round(n / elapsed, 1),
    }


def run_benchmarks(sizes: list[int], object_peers: int,
                   repeat: int) -> dict:
    object_core = _measure_object_core(object_peers, repeat)
    print(f"object core      {object_core['peers']:>9,d} peers   "
          f"pass {object_core['pass_s']:8.3f}s   "
          f"{object_core['peers_per_sec']:>12,.0f} peers/s")
    report = {
        "repeat": repeat,
        "ttl": TTL,
        "member_fraction": MEMBER_FRACTION,
        "bytes_per_peer_budget": BYTES_PER_PEER_BUDGET,
        "object_core": object_core,
        "metrics": {},
    }
    for n in sizes:
        row = _measure_array_core(n, repeat)
        row["speedup_vs_object"] = round(
            row["peers_per_sec"] / object_core["peers_per_sec"], 2)
        if row["bytes_per_peer"] > BYTES_PER_PEER_BUDGET:
            raise SystemExit(
                f"bytes/peer {row['bytes_per_peer']} exceeds the "
                f"documented budget {BYTES_PER_PEER_BUDGET}")
        report["metrics"][f"scale_{n}"] = row
        print(f"array core       {n:>9,d} peers   "
              f"pass {row['pass_s']:8.3f}s   "
              f"{row['peers_per_sec']:>12,.0f} peers/s   "
              f"{row['bytes_per_peer']:6.0f} B/peer   "
              f"speedup {row['speedup_vs_object']:6.1f}x")
    return report


def check_against(report: dict, baseline_path: Path) -> int:
    """Machine-independent gate; mirrors ``compare.py`` bounds."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failed = False
    for name, committed in baseline["metrics"].items():
        measured = report["metrics"].get(name)
        if measured is None:
            print(f"skip {name}: not measured in this run")
            continue
        floor = committed["speedup_vs_object"] / 2.0
        ceiling = committed["bytes_per_peer"] * 1.2
        ok_speed = measured["speedup_vs_object"] >= floor
        ok_bytes = measured["bytes_per_peer"] <= ceiling
        print(f"{'ok  ' if ok_speed else 'FAIL'} {name}: speedup "
              f"{measured['speedup_vs_object']}x (floor {floor:.1f}x)")
        print(f"{'ok  ' if ok_bytes else 'FAIL'} {name}: "
              f"{measured['bytes_per_peer']} B/peer "
              f"(ceiling {ceiling:.0f})")
        failed = failed or not (ok_speed and ok_bytes)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Array-core session throughput at 10^4-10^6 peers.")
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[10_000, 100_000],
                        help="array-core peer counts to measure")
    parser.add_argument("--full", action="store_true",
                        help="append the 10^6-peer tier")
    parser.add_argument("--object-peers", type=int, default=2000,
                        help="object-core reference size")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--write", type=Path, default=None, metavar="PATH",
                        help="write the report (the committed baseline)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the report to this path")
    parser.add_argument("--check", type=Path, default=None, metavar="PATH",
                        help="gate speedup/bytes-per-peer against a "
                             "committed baseline; exit 1 on regression")
    args = parser.parse_args(argv)

    sizes = list(args.sizes)
    if args.full and 1_000_000 not in sizes:
        sizes.append(1_000_000)
    report = run_benchmarks(sizes, args.object_peers, args.repeat)
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
