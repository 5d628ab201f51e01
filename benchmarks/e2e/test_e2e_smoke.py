"""Smoke test of the end-to-end benchmark at ``--quick`` scale.

Run as ``PYTHONPATH=src python -m pytest benchmarks/e2e -q`` (the
tier-1 ``testpaths`` do not collect it).  One quick set — every
workload, untraced and traced, ~25 s — must emit every workload and
metric ``BENCHMARK.json`` names, finite and with its unit, fail
nothing, and give the same ``sim_digest`` on both same-seed runs.
"""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads(
    (HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def quick_set(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e") / "quick.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text(encoding="utf-8"))


def runs_of(quick_set, trace: int) -> dict[str, dict]:
    return {r["workload"]: r for r in quick_set["runs"]
            if r["trace"] == trace}


def test_declared_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"]] \
        + [m["name"] for m in SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)


@pytest.mark.parametrize("trace,section",
                         [(0, "end_to_end"), (1, "per_layer")])
def test_every_workload_emits_every_declared_metric(
        quick_set, trace, section):
    runs = runs_of(quick_set, trace)
    assert sorted(runs) == sorted(WORKLOADS)
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    for workload, run in runs.items():
        assert run["correct"] and run["failed"] == 0, workload
        assert run["attempted"] >= 1
        assert set(run["metrics"]) == set(declared), workload
        for name, entry in run["metrics"].items():
            assert entry["unit"] == declared[name]
            assert math.isfinite(entry["value"]), (workload, name)
            if trace == 0:
                assert entry["value"] > 0, (workload, name)


def test_layer_metrics_land_on_the_workloads_that_exercise_them(quick_set):
    runs = runs_of(quick_set, 1)
    exercised = {name for run in runs.values()
                 for name, entry in run["metrics"].items()
                 if entry["value"] != 0}
    # Counters that read 0 on a healthy loopback and a repaired overlay.
    may_be_zero = {
        "runtime.retransmits", "runtime.duplicates_suppressed",
        "runtime.dead_lettered", "runtime.expired",
        "runtime.over_limit_ratio", "overlay.isolated_alive"}
    missing = {m["name"] for m in SPEC["per_layer"]} \
        - exercised - may_be_zero
    assert not missing


def test_same_seed_runs_give_identical_digests(quick_set):
    untraced, traced = runs_of(quick_set, 0), runs_of(quick_set, 1)
    for workload in WORKLOADS:
        digest = untraced[workload]["sim_digest"]
        assert digest == traced[workload]["sim_digest"], workload
        assert untraced[workload]["counts"] == traced[workload]["counts"]
        if workload != "live_loopback":  # real time is not reproducible
            assert digest and untraced[workload]["digest_verdict"] in (
                "match", "unrecorded for this seed and scale")


def test_provenance_is_recorded(quick_set):
    provenance = quick_set["provenance"]
    assert {"git_sha", "python", "numpy", "scipy", "cpu_count",
            "platform", "seed", "pinned_env"} <= set(provenance)
    assert provenance["pinned_env"]["OMP_NUM_THREADS"] == "1"
