"""Workloads and end-to-end metrics of the benchmark; BENCHMARK.json at the
repository root names the same ones."""

# name -> unit, in report order
END_TO_END = {
    "setup_s": "s",
    "epoch_s": "s",
    "eval_scenario_ms": "ms",
    "run_s": "s",
    "qp_pair_ms": "ms",
    "solve_ok_frac": "ratio",
    "peak_rss_mb": "MB",
}

# zones, DFL epochs, and how often set-up runs in one invocation
DFL_WORKLOADS = {"dfl-z5": (5, 3, 2), "dfl-z15": (15, 2, 1)}
WORKLOADS = (*DFL_WORKLOADS, "qp-small")
# the workloads BENCHMARK.json lists.  dfl-z15 runs by hand only: whether
# training drifts into slow near-miss solves depends on the seed, which
# spreads its epoch_s across seeds by more than any bound a regression gate
# can use (see README.md)
BENCHMARKED = ("dfl-z5", "qp-small")
