"""Runs one workload once, inside the pinned process ``run.py`` starts.

Prints every metric by name with its unit, then — as the last line of
standard output — one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The fuller record (sample
counts, digest, set-up breakdown) goes to ``--detail``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--detail", type=Path, default=None)
    parser.add_argument("--trace-out", type=Path, default=None)
    return parser.parse_args(argv)


def baseline_verdict(scale: str, seed: int, workload: str,
                     digest: str | None) -> str:
    """``match`` / ``MISMATCH`` / ``unrecorded`` against baseline.json."""
    if digest is None:
        return "none (live workload is not deterministic)"
    baseline = json.loads(
        (HERE / "baseline.json").read_text(encoding="utf-8"))
    recorded = baseline["sim_digests"].get(scale, {}) \
        .get(str(seed), {}).get(workload)
    if recorded is None:
        return "unrecorded for this seed and scale"
    return "match" if recorded["sim_digest"] == digest else "MISMATCH"


def main(argv=None) -> int:
    args = parse_args(argv)
    sys.path.insert(0, str(HERE.parents[1] / "src"))

    # Importing the workload pulls in numpy and the repro packages it
    # drives; a user pays that on every start, so it is part of set-up.
    start = time.perf_counter()
    import harness
    from workloads import WORKLOADS
    module_name, class_name = WORKLOADS[args.workload]
    cls = getattr(importlib.import_module(module_name), class_name)
    import_s = time.perf_counter() - start

    spans = harness.Spans() if args.trace else None
    world_s: list[float] = []
    workload = None
    try:
        for _ in range(cls.setup_reps):
            if workload is not None:
                workload.close()
            workload = cls(args.seed, args.quick)
            world_s.append(harness.timed(workload.setup)[0])
        warm_up_s = harness.timed(workload.warm_up)[0]
        gc.collect()
        run_s = harness.timed(workload.run, args.seconds, spans)[0]
        out = workload.outcome(spans)
        overhead = workload.overhead_ratio()
    except harness.BenchmarkFailure as exc:
        print(f"benchmark check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        if workload is not None:
            workload.close()

    setup_s = import_s + harness.median(world_s) + warm_up_s
    tail_label = "max" if out.tail_q == 1.0 else f"p{out.tail_q * 100:g}"
    if args.trace:
        unknown = set(out.layers) - set(harness.PER_LAYER)
        if unknown:
            raise SystemExit(f"undeclared layer metrics: {sorted(unknown)}")
        values = {name: float(out.layers.get(name, 0.0))
                  for name in harness.PER_LAYER}
        values["bench.trace_overhead_ratio"] = overhead
        declared = harness.PER_LAYER
    else:
        values = {
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "work_per_s": out.work_per_s,
            "op_ms_p50": harness.median(out.op_ms),
            "op_ms_tail": harness.percentile(out.op_ms, out.tail_q),
        }
        declared = harness.END_TO_END
    metrics = {name: {"value": value, "unit": declared[name]["unit"]}
               for name, value in values.items()}

    scale = "quick" if args.quick else "full"
    verdict = baseline_verdict(scale, args.seed, args.workload, out.digest)
    correct = out.failed == 0
    print(f"workload {args.workload}  seed {args.seed}  scale {scale}  "
          f"trace {args.trace}  measured {run_s:.2f} s")
    print(f"  work_per_s counts {cls.work_unit}; one op is {cls.op_unit} "
          f"({len(out.op_ms)} samples, tail = {tail_label})")
    for name, entry in metrics.items():
        if args.trace and entry["value"] == 0.0 \
                and name not in out.layers:
            continue  # layer not exercised by this workload
        print(f"  {name:<44} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  set-up: import {import_s:.3f} s + world "
          f"{harness.median(world_s):.3f} s (median of {len(world_s)}) + "
          f"warm-up {warm_up_s:.3f} s")
    print(f"  sim_digest {out.digest}  baseline: {verdict}")
    print(f"  counts {json.dumps(out.counts, sort_keys=True)}")
    print(f"  failed {out.failed} of {out.attempted} attempted")

    if spans is not None and args.trace_out is not None:
        spans.dump(args.trace_out,
                   f"{args.workload}-seed{args.seed}-{scale}", values)
    if args.detail is not None:
        args.detail.parent.mkdir(parents=True, exist_ok=True)
        args.detail.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "scale": scale,
            "seconds": args.seconds, "trace": args.trace,
            "correct": correct, "attempted": out.attempted,
            "failed": out.failed, "metrics": metrics,
            "sim_digest": out.digest, "digest_verdict": verdict,
            "counts": out.counts, "op_samples": len(out.op_ms),
            "tail": tail_label, "notes": out.notes,
            "setup": {"import_s": import_s, "world_s": world_s,
                      "warm_up_s": warm_up_s},
            "measured_s": run_s,
        }) + "\n", encoding="utf-8")
    print(json.dumps({"correct": correct, "attempted": out.attempted,
                      "failed": out.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
