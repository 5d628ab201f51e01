"""Multi-group benchmark: batched kernels vs the per-group loop.

Times one full multi-group pass — advertisement flood, subscription
climb, tree-delay sweep for every group — three ways over the same
overlay snapshot and the same Zipf rosters:

* ``loop`` — the same kernels called once per group, a batch of one
  each (:func:`repro.core.parallel.run_group_pass_loop`), the
  differential reference.  At large tiers it is measured on a capped
  group prefix (``loop_groups_measured``) and extrapolated — the loop
  is embarrassingly per-group, so throughput is flat in the group count;
* ``batched`` — the group-major kernels relaxing every group against
  one shared CSR per epoch (:func:`repro.core.parallel.run_group_pass`);
* ``sharded`` — the batched kernels over deterministic group shards in
  a process pool (:func:`repro.core.parallel.run_sharded`).

Reported per tier: ``groups_per_sec`` and ``peer_groups_per_sec``
(throughput × overlay size) for each mode, ``speedup_vs_loop`` (what
batching amortizes over one-group calls), ``shard_speedup`` (sharded over batched —
meaningful only with real cores; ``cpu_count`` is recorded alongside)
and ``bytes_per_group`` (dense per-group state of one pass).  The three
modes are bit-identical per group (pinned by ``tests/test_multigroup.py``),
so every timed run also cross-checks the merged digests.

Usage::

    PYTHONPATH=src python benchmarks/bench_multigroup.py \
        --write BENCH_multigroup.json        # refresh the committed file
    PYTHONPATH=src python benchmarks/bench_multigroup.py \
        --groups 1000 --repeat 2 --check BENCH_multigroup.json  # CI gate

``--check`` gates the machine-independent numbers only: each tier's
``speedup_vs_loop`` must stay above half the committed value and
``bytes_per_group`` must not grow past 1.2x the committed value
(``benchmarks/compare.py`` applies the same bounds in CI).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core import (  # noqa: E402
    edge_latencies_from_coords,
    run_group_pass,
    run_group_pass_loop,
    run_sharded,
    synthetic_power_law_csr,
)
from repro.sim.random import spawn_rng  # noqa: E402
from repro.workloads.groups import sample_group_rows  # noqa: E402

SEED = 7
TTL = 8
PEERS = 1024
MAX_GROUP_SIZE = 64
#: Group-count cap for the per-group reference loop; its throughput is
#: flat in the group count, so measuring a prefix and extrapolating
#: keeps the large tiers affordable without changing the comparison.
LOOP_CAP = 1_000
#: Dense per-group pass state, bytes per overlay row: parent/upstream/
#: hops int64 + arrival/expanded/delays float64 + on_tree/is_member/
#: has_ad bool.
STATE_BYTES_PER_ROW = 3 * 8 + 3 * 8 + 3


def _build_world(peers: int, n_groups: int):
    rng = spawn_rng(SEED, "bench-multigroup", str(peers), str(n_groups))
    csr = synthetic_power_law_csr(peers, rng)
    coords = rng.uniform(0.0, 100.0, size=(peers, 2))
    latency = edge_latencies_from_coords(csr, coords)
    roots, member_rows, indptr = sample_group_rows(
        rng, n_groups, peers, max_size=MAX_GROUP_SIZE)
    return csr, coords, latency, roots, member_rows, indptr


def _time(func, repeat: int):
    best, result = float("inf"), None
    for _ in range(repeat):
        start = time.perf_counter()
        result = func()
        best = min(best, time.perf_counter() - start)
    return best, result


def _measure_tier(n_groups: int, repeat: int, shards: int,
                  jobs: int) -> dict:
    csr, coords, latency, roots, member_rows, indptr = _build_world(
        PEERS, n_groups)

    loop_groups = min(n_groups, LOOP_CAP)
    loop_s, loop_result = _time(
        lambda: run_group_pass_loop(
            csr, latency, coords, roots[:loop_groups],
            member_rows[:indptr[loop_groups]], indptr[:loop_groups + 1],
            ttl=TTL),
        repeat)
    loop_gps = loop_groups / loop_s

    batched_s, batched = _time(
        lambda: run_group_pass(csr, latency, coords, roots, member_rows,
                               indptr, ttl=TTL),
        repeat)
    batched_gps = n_groups / batched_s

    sharded_s, sharded = _time(
        lambda: run_sharded(csr, latency, coords, roots, member_rows,
                            indptr, ttl=TTL, shards=shards, jobs=jobs),
        repeat)
    sharded_gps = n_groups / sharded_s

    # The three modes must agree bit for bit, tier by tier.
    if not np.array_equal(batched.digests[:loop_groups],
                          loop_result.digests):
        raise SystemExit(f"digest mismatch batched vs loop at "
                         f"{n_groups} groups")
    if batched.merged_digest() != sharded.merged_digest():
        raise SystemExit(f"digest mismatch batched vs sharded at "
                         f"{n_groups} groups")

    return {
        "groups": n_groups,
        "peers": PEERS,
        "loop_groups_measured": loop_groups,
        "loop_pass_s": round(loop_s, 4),
        "loop_groups_per_sec": round(loop_gps, 1),
        "batched_pass_s": round(batched_s, 4),
        "batched_groups_per_sec": round(batched_gps, 1),
        "sharded_pass_s": round(sharded_s, 4),
        "sharded_groups_per_sec": round(sharded_gps, 1),
        "peer_groups_per_sec": round(batched_gps * PEERS, 1),
        "speedup_vs_loop": round(batched_gps / loop_gps, 2),
        "shard_speedup": round(sharded_gps / batched_gps, 2),
        "bytes_per_group": PEERS * STATE_BYTES_PER_ROW,
    }


def run_benchmarks(group_counts: list[int], repeat: int, shards: int,
                   jobs: int) -> dict:
    report = {
        "repeat": repeat,
        "ttl": TTL,
        "peers": PEERS,
        "max_group_size": MAX_GROUP_SIZE,
        "shards": shards,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "metrics": {},
    }
    for n_groups in group_counts:
        row = _measure_tier(n_groups, repeat, shards, jobs)
        report["metrics"][f"groups_{n_groups}"] = row
        print(f"{n_groups:>7,d} groups   "
              f"loop {row['loop_groups_per_sec']:>9,.0f} g/s   "
              f"batched {row['batched_groups_per_sec']:>9,.0f} g/s   "
              f"sharded {row['sharded_groups_per_sec']:>9,.0f} g/s   "
              f"speedup {row['speedup_vs_loop']:5.1f}x   "
              f"shards(x{jobs}) {row['shard_speedup']:4.2f}x")
    return report


def check_against(report: dict, baseline_path: Path) -> int:
    """Machine-independent gate; mirrors the ``compare.py`` CI bounds."""
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    failed = False
    for name, committed in baseline["metrics"].items():
        measured = report["metrics"].get(name)
        if measured is None:
            print(f"skip {name}: not measured in this run")
            continue
        floor = committed["speedup_vs_loop"] / 2.0
        ceiling = committed["bytes_per_group"] * 1.2
        ok_speed = measured["speedup_vs_loop"] >= floor
        ok_bytes = measured["bytes_per_group"] <= ceiling
        print(f"{'ok  ' if ok_speed else 'FAIL'} {name}: speedup "
              f"{measured['speedup_vs_loop']}x (floor {floor:.1f}x)")
        print(f"{'ok  ' if ok_bytes else 'FAIL'} {name}: "
              f"{measured['bytes_per_group']} B/group "
              f"(ceiling {ceiling:.0f})")
        failed = failed or not (ok_speed and ok_bytes)
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Batched multi-group kernels vs the per-group loop.")
    parser.add_argument("--groups", type=int, nargs="+",
                        default=[1_000, 5_000, 10_000],
                        help="group counts to measure")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the sharded mode")
    parser.add_argument("--write", type=Path, default=None, metavar="PATH",
                        help="write the report (the committed baseline)")
    parser.add_argument("--json", type=Path, default=None, metavar="PATH",
                        help="also write the report to this path")
    parser.add_argument("--check", type=Path, default=None, metavar="PATH",
                        help="gate speedup/bytes-per-group against a "
                             "committed baseline; exit 1 on regression")
    args = parser.parse_args(argv)

    report = run_benchmarks(list(args.groups), args.repeat, args.shards,
                            args.jobs)
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
