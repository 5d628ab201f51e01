"""End-to-end benchmark of the GroupCast reproduction.

One workload, one run (what ``BENCHMARK.json``'s command drives)::

    python3 benchmarks/e2e/run.py --workload build_groupcast --seed 7 \
        --seconds 8 --trace 0

A set — every workload, ``--runs`` seeds each, untraced then traced —
written to a results file, and two sets compared::

    python3 benchmarks/e2e/run.py --seed 7 --runs 10 --out A.json
    python3 benchmarks/e2e/run.py compare A.json B.json

Each run happens in its own fresh worker process (``worker.py``), one at
a time, with BLAS threads pinned to 1 and a fixed hash seed, so the
numbers measure the program and not the scheduler.  The last line a run
prints is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
#: Where traces and per-run details land; named in .gitignore.
OUT_DIR = REPO_ROOT / ".bench_e2e"
PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}
#: A worker that has not finished by then is killed and the run fails.
WORKER_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads(
        (REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def run_worker(workload: str, seed: int, seconds: float, trace: int,
               quick: bool) -> tuple[int, dict | None]:
    """One worker process to completion; returns its exit code and
    detail record (None when it died before writing one)."""
    stem = f"{workload}-seed{seed}-trace{trace}"
    detail = OUT_DIR / f"{stem}.json"
    detail.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / "worker.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--detail", str(detail),
               "--trace-out", str(OUT_DIR / f"{stem}.spans.json")]
    if quick:
        command.append("--quick")
    try:
        code = subprocess.run(
            command, env={**os.environ, **PINNED_ENV}, cwd=REPO_ROOT,
            timeout=WORKER_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        # subprocess.run has killed and reaped the worker by now.
        print(f"{stem}: killed after {WORKER_TIMEOUT_S} s",
              file=sys.stderr)
        return 1, None
    if not detail.exists():
        return code or 1, None
    return code, json.loads(detail.read_text(encoding="utf-8"))


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, timeout=10,
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown (not a git checkout)"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "cpu_count": os.cpu_count(), "platform": platform.platform(),
            "seed": seed, "pinned_env": PINNED_ENV}


def run_command(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        print(f"unknown workload {args.workload!r}; one of {names}",
              file=sys.stderr)
        return 2
    if not (REPO_ROOT / "src" / "repro").is_dir():
        print("the program under test (src/repro) is not in this "
              "checkout", file=sys.stderr)
        return 2
    workloads = names if args.workload is None else [args.workload]
    traces = (0, 1) if args.trace is None else (args.trace,)
    seconds = args.seconds if args.seconds is not None else (
        0.5 if args.quick else float(spec["run_seconds"]))

    records, status = [], 0
    for trace in traces:
        for workload in workloads:
            for seed in range(args.seed, args.seed + args.runs):
                sys.stdout.flush()
                code, record = run_worker(
                    workload, seed, seconds, trace, args.quick)
                status = status or code
                if record is not None:
                    records.append(record)
    if args.out is not None:
        args.out.write_text(json.dumps({
            "provenance": provenance(args.seed),
            "run_seconds": seconds, "quick": args.quick,
            "runs": records,
        }, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {args.out}")
    return status


# ----------------------------------------------------------------------
# Comparing two sets
# ----------------------------------------------------------------------
def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(a: list[float], b: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """How set B reads against set A on one metric of one workload.

    ``worse``: B's median is worse than A's by more than the bound.
    ``unresolved``: either set's quartile spread is wider than the bound
    (unless every B run beats every A run).  ``better``: B's median is
    better by more than A's own quartile spread.  Otherwise ``same``.
    Returns the verdict and B's median over A's.
    """
    qa, qb = quartiles(a), quartiles(b)
    ratio = qb[1] / qa[1] if qa[1] else float("inf")
    sign = 1.0 if better == "lower" else -1.0
    worsening = sign * (qb[1] - qa[1]) / abs(qa[1])
    spread = max((q[2] - q[0]) / abs(q[1]) for q in (qa, qb))
    all_better = (max(b) < min(a)) if better == "lower" \
        else (min(b) > max(a))
    if worsening > bound:
        return "worse", ratio
    if spread > bound and not all_better:
        return "unresolved", ratio
    if -worsening > (qa[2] - qa[0]) / abs(qa[1]) and (
            all_better or -worsening > bound):
        return "better", ratio
    return "same", ratio


def compare_command(args: argparse.Namespace) -> int:
    spec = load_spec()
    sets = [json.loads(path.read_text(encoding="utf-8"))
            for path in (args.a, args.b)]

    def untraced(data: dict, workload: str) -> list[dict]:
        return [r for r in data["runs"]
                if r["workload"] == workload and not r["trace"]]

    status = 0
    print(f"A = {args.a}  ({sets[0]['provenance']['git_sha'][:12]})")
    print(f"B = {args.b}  ({sets[1]['provenance']['git_sha'][:12]})")
    print(f"{'workload':<16} {'metric':<12} {'A q1/median/q3':>32} "
          f"{'B q1/median/q3':>32} {'B/A':>7} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a, runs_b = (untraced(data, workload) for data in sets)
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = ([r["metrics"][name]["value"] for r in runs]
                    for runs in (runs_a, runs_b))
            word, ratio = verdict(a, b, metric["better"], metric["bound"])
            status = status or (word == "worse")
            print(f"{workload:<16} {name:<12} "
                  + " ".join(
                      f"{'/'.join(f'{q:.5g}' for q in quartiles(v)):>32}"
                      for v in (a, b))
                  + f" {ratio:>7.4f} {metric['bound']:>6.2f}  {word}")
        failed_a, failed_b = (
            sum(r["failed"] for r in runs) / sum(
                r["attempted"] for r in runs)
            for runs in (runs_a, runs_b))
        word = "worse" if failed_b > failed_a else "same"
        status = status or (word == "worse")
        print(f"{workload:<16} {'failed_ratio':<12} {failed_a:>32.6g} "
              f"{failed_b:>32.6g} {'':>7} {'0 abs':>6}  {word}")
        digests_a, digests_b = (
            {r["seed"]: r["sim_digest"] for r in runs}
            for runs in (runs_a, runs_b))
        shared = digests_a.keys() & digests_b.keys()
        moved = sorted(seed for seed in shared
                       if digests_a[seed] != digests_b[seed])
        print(f"{workload:<16} {'sim_digest':<12} "
              + (f"identical on {len(shared)} shared seeds" if not moved
                 else f"DIFFERS on seeds {moved} (informational)"))
    return int(status)


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(
            prog="run.py compare",
            description="Compare two result sets metric by metric; "
                        "non-zero exit on worse or a higher failed "
                        "ratio.")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        return compare_command(parser.parse_args(argv[1:]))
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=None,
                        help="0 end-to-end metrics, 1 per-layer metrics "
                             "(default: both, one run each)")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, on seeds seed, seed+1, ..")
    parser.add_argument("--quick", action="store_true",
                        help="smoke-test scale (300 peers)")
    parser.add_argument("--out", type=Path, default=None,
                        help="write every run's record to this file")
    return run_command(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
