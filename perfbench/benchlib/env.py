"""Thread pinning and the environment record stored with every result."""
from __future__ import annotations

import os
import platform
import resource

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# the CLI reads these; the benchmark passes everything through the config
PROGRAM_ENV = ("DFLSCHED_SEED", "DFLSCHED_ZONES", "DFLSCHED_EPOCHS", "DFLSCHED_OUT")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; must run before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in PROGRAM_ENV:
        os.environ.pop(var, None)


def load_average() -> list[float]:
    return [round(x, 2) for x in os.getloadavg()]


def describe() -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # noqa: BLE001 - older numpy has no dict mode
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
    }


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
