"""The named workloads, in the order ``BENCHMARK.json`` lists them.

Each module is imported only when its workload runs, so a worker's
import time (part of ``setup_s``) covers what that workload uses.
"""

WORKLOADS = {
    "build_groupcast": ("workloads.build_groupcast", "BuildGroupcast"),
    "churn_repair": ("workloads.churn_repair", "ChurnRepair"),
    "facade_groups": ("workloads.facade_groups", "FacadeGroups"),
    "session_sim": ("workloads.session_sim", "SessionSim"),
    "batch_nssa": ("workloads.batch", "BatchNssa"),
    "batch_ssa": ("workloads.batch", "BatchSsa"),
    "live_loopback": ("workloads.live_loopback", "LiveLoopback"),
}
