"""Measurement plumbing shared by the end-to-end workloads.

Everything here runs inside the pinned worker process (see ``run.py``):
the in-memory span recorder of the traced run, the time-boxed unit
loop, sample statistics, the simulated-statistics digest and the
:class:`Outcome` record every workload hands back.

Metric names, units and directions live in ``BENCHMARK.json`` at the
repository root and nowhere else; this module reads them from there so
a traced run can report every declared layer metric (0 where the
workload does not exercise that layer).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}


#: Seed of the world (underlay, coordinates, overlay) the group
#: workloads run on.  ``--seed`` drives what happens *on* that world —
#: which members, sources and rosters, every protocol draw — but not its
#: construction: overlay-to-overlay structure (how far an SSA flood
#: reaches) moves group set-up time by +-10%, which would drown the
#: regressions the bounds are there to catch.  ``build_groupcast`` and
#: ``churn_repair`` build a fresh world from every seed.
WORLD_SEED = 7


class BenchmarkFailure(Exception):
    """A correctness check of the benchmark itself did not hold."""


# ----------------------------------------------------------------------
# Spans (traced run only)
# ----------------------------------------------------------------------
class Spans:
    """In-memory span recorder: name, start, end, parent.

    The benchmark opens a span around each call into a layer's public
    functions; nesting follows the call stack, so a span's parent is the
    span that caused it.  Nothing is written until :meth:`dump`.
    """

    def __init__(self) -> None:
        self.rows: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        row = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.rows))
        self.rows.append(row)
        try:
            yield
        finally:
            row[2] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str) -> list[float]:
        """Seconds of every closed span called ``name``, in order."""
        return [row[2] - row[1] for row in self.rows if row[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds, and self seconds
        (duration minus the part covered by direct child spans)."""
        child_s = [0.0] * len(self.rows)
        for name, start, end, parent in self.rows:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), covered in zip(self.rows, child_s):
            entry = out.setdefault(
                name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += (end - start) - covered
        return out

    def dump(self, path: Path, run_id: str, layers: dict) -> None:
        """Write every span (with its parent), per-name self times and
        the layer metrics and counts taken at the same boundaries."""
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({
            "run": run_id,
            "columns": ["name", "start_s", "end_s", "parent"],
            "spans": self.rows,
            "by_name": self.self_times(),
            "layers": layers,
        }) + "\n", encoding="utf-8")


class LatencyProbe:
    """Counting, timing proxy for an injected ``latency_fn``."""

    def __init__(self, latency_fn: Callable[[int, int], float]) -> None:
        self._latency_fn = latency_fn
        self.calls = 0
        self.seconds = 0.0

    def __call__(self, a: int, b: int) -> float:
        start = time.perf_counter()
        value = self._latency_fn(a, b)
        self.seconds += time.perf_counter() - start
        self.calls += 1
        return value


# ----------------------------------------------------------------------
# Timing and statistics
# ----------------------------------------------------------------------
def timed(func: Callable, *args, **kwargs):
    """``(seconds, result)`` of one call."""
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return time.perf_counter() - start, result


def run_timeboxed(unit: Callable[[int], None], seconds: float,
                  min_units: int) -> int:
    """Call ``unit(i)`` for i = 0, 1, ... until ``seconds`` have passed
    and at least ``min_units`` ran; returns the number of units."""
    start = time.perf_counter()
    done = 0
    while done < min_units or time.perf_counter() - start < seconds:
        unit(done)
        done += 1
    return done


def median(values: Iterable[float]) -> float:
    return float(np.median(np.fromiter(values, dtype=float)))


def percentile(values: Iterable[float], q: float) -> float:
    """The ``q`` quantile (0..1), linearly interpolated."""
    return float(np.quantile(np.fromiter(values, dtype=float), q))


def digest_of(*parts) -> str:
    """sha256 over the canonical JSON of ``parts``."""
    blob = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def build_world(peers: int, seed: int):
    """The pinned ``kind="groupcast"`` deployment of ``peers`` peers;
    ``seed`` only reaches the streams derived from ``config.seed``
    (the facade's and the live peers' protocol draws)."""
    from repro.config import GroupCastConfig
    from repro.deployment import build_deployment

    return build_deployment(
        peers, kind="groupcast", config=GroupCastConfig(seed=seed),
        seed=WORLD_SEED)


def cache_hit_ratio(before: dict, after: dict) -> float:
    """Routing-core row-cache hit ratio between two ``cache_stats``."""
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return hits / (hits + misses) if hits + misses else 0.0


def overlay_edges(overlay) -> list[list[int]]:
    """The overlay's undirected edge set in canonical order."""
    return sorted([min(a, b), max(a, b)] for a, b in overlay.edges())


def stray_peers(overlay, peers: Iterable[int]) -> int:
    """How many of ``peers`` sit outside the largest component of the
    subgraph they induce (isolated peers included)."""
    peers = set(peers)
    seen: set[int] = set()
    largest = 0
    for start in peers:
        if start in seen:
            continue
        seen.add(start)
        stack, size = [start], 0
        while stack:
            node = stack.pop()
            size += 1
            for neighbor in overlay.neighbors(node):
                if neighbor in peers and neighbor not in seen:
                    seen.add(neighbor)
                    stack.append(neighbor)
        largest = max(largest, size)
    return len(peers) - largest


# ----------------------------------------------------------------------
# Workload contract
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    """What one workload run measured.

    ``op_ms`` holds one sample per user-visible operation; the harness
    reports its median as ``op_ms_p50`` and its ``tail_q`` quantile as
    ``op_ms_tail`` (1.0, the maximum, for workloads with too few samples
    for a percentile).
    """

    attempted: int
    failed: int
    work_per_s: float
    op_ms: list[float]
    tail_q: float = 1.0
    digest: str | None = None
    counts: dict = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    notes: dict = field(default_factory=dict)


class Workload:
    """Base class: one named workload at one seed and scale.

    ``setup`` builds the inputs (timed, possibly several times on fresh
    instances), ``warm_up`` lets caches fill once, ``run`` measures for
    about ``seconds`` — untraced when ``spans`` is None, otherwise each
    unit runs both plain and through the staged, span-wrapped calls —
    and ``outcome`` reports.  ``close`` releases what ``setup`` opened.
    """

    #: What ``work_per_s`` counts and what one ``op_ms`` sample times.
    work_unit = ""
    op_unit = ""
    #: Fresh set-ups per run; ``setup_s`` reports their median.
    setup_reps = 3

    def __init__(self, seed: int, quick: bool) -> None:
        self.seed = seed
        self.quick = quick
        #: Wall seconds of the same work done plain and traced.
        self.plain_s = 0.0
        self.traced_s = 0.0

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        pass

    def run(self, seconds: float, spans: Spans | None) -> None:
        raise NotImplementedError

    def outcome(self, spans: Spans | None) -> Outcome:
        raise NotImplementedError

    def close(self) -> None:
        pass

    def overhead_ratio(self) -> float:
        """traced / untraced wall over the units both variants ran."""
        return self.traced_s / self.plain_s if self.plain_s > 0 else 0.0
