"""Determinism of the process-parallel experiment fan-out.

The tables produced with ``--jobs N`` must be *identical* — same rows,
same floats, same order — to a sequential run, and worker telemetry must
fold back into the parent registry independent of worker count.
"""

from __future__ import annotations

import pytest

from repro.experiments import app_performance, service_lookup
from repro.core.parallel import run_points
from repro.experiments.runner import main as runner_main
from repro.obs.registry import (
    NULL_REGISTRY,
    enable_telemetry,
    set_default_registry,
)

SIZES = [120, 150]


def _square(x: int) -> int:
    return x * x


def _record_and_square(x: int) -> int:
    from repro.obs.registry import get_default_registry

    registry = get_default_registry()
    registry.counter("test.points").inc()
    registry.histogram("test.values", (1.0, 10.0)).observe(float(x))
    return x * x


class TestRunPoints:
    def test_inline_matches_pool(self):
        args = [(x,) for x in range(6)]
        assert (run_points(_square, args, jobs=1)
                == run_points(_square, args, jobs=3)
                == [x * x for x in range(6)])

    def test_jobs_clamped_to_one_point(self):
        assert run_points(_square, [(5,)], jobs=8) == [25]

    def test_telemetry_merges_across_workers(self):
        args = [(x,) for x in range(5)]
        registry = enable_telemetry()
        try:
            run_points(_record_and_square, args, jobs=2)
            assert registry.get("test.points").value == 5
            hist = registry.get("test.values")
            assert hist.count == 5
            assert hist.sum == sum(range(5))
        finally:
            set_default_registry(NULL_REGISTRY)

    def test_telemetry_identical_for_any_jobs(self):
        args = [(x,) for x in range(4)]
        snapshots = []
        for jobs in (1, 2):
            registry = enable_telemetry()
            try:
                run_points(_record_and_square, args, jobs=jobs)
                snapshots.append(registry.snapshot())
            finally:
                set_default_registry(NULL_REGISTRY)
        assert snapshots[0] == snapshots[1]


@pytest.mark.slow
class TestSweepDeterminism:
    def test_service_lookup_rows_identical(self):
        sequential = service_lookup.run(
            sizes=SIZES, seed=3, rendezvous_points=2, topologies=2,
            jobs=1)
        parallel = service_lookup.run(
            sizes=SIZES, seed=3, rendezvous_points=2, topologies=2,
            jobs=4)
        for fig in sequential:
            assert sequential[fig].rows == parallel[fig].rows

    def test_app_performance_rows_identical(self):
        sequential = app_performance.run(
            sizes=SIZES, seed=3, groups_per_overlay=2, topologies=2,
            jobs=1)
        parallel = app_performance.run(
            sizes=SIZES, seed=3, groups_per_overlay=2, topologies=2,
            jobs=4)
        for fig in sequential:
            assert sequential[fig].rows == parallel[fig].rows


class TestRunnerCli:
    def test_jobs_flag_parses_and_runs(self, capsys):
        code = runner_main(["fig11", "--sizes", "120", "--jobs", "2",
                            "--seed", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 11" in out

    def test_jobs_output_matches_sequential(self, capsys):
        runner_main(["fig14", "--sizes", "120", "--jobs", "1",
                     "--seed", "3", "--topologies", "2"])
        sequential = capsys.readouterr().out
        runner_main(["fig14", "--sizes", "120", "--jobs", "3",
                     "--seed", "3", "--topologies", "2"])
        parallel = capsys.readouterr().out
        assert sequential == parallel
