"""The benchmark harness: workloads, tracing, statistics and checks."""


class CheckFailed(Exception):
    """An output check failed; the run must not report metrics."""
