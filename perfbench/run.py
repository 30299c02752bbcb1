#!/usr/bin/env python3
"""Benchmark of the dflsched pipeline; see perfbench/README.md.

    python3 perfbench/run.py --workload dfl-z5 --seed 7 --seconds 30 --trace 0

Runs one workload in this process with one BLAS thread, prints every metric
with its unit and, as the last line, one JSON object.  ``--trace 0`` reports
the end-to-end metrics, ``--trace 1`` the per-layer metrics of a traced run.
Exits 1 when an output check fails and 2 when the program's sources are not
next to the benchmark.  Results, digests and spans go to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchlib import env  # noqa: E402  (neither imports numpy)
from benchlib.spec import DFL_WORKLOADS, END_TO_END, WORKLOADS  # noqa: E402


def run_workload(name: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    from benchlib import dfl, qpsmall

    if name == "qp-small":
        return qpsmall.run(seed, seconds, trace)
    zones, epochs, setups = DFL_WORKLOADS[name]
    return dfl.run(zones, epochs, setups, seed, seconds, trace, work)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "dflsched" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from benchlib import CheckFailed
    from benchlib.layers import layer_metric_names

    out = HERE / "out"
    out.mkdir(parents=True, exist_ok=True)
    work = out / f"work-{args.workload}-{args.seed}-{args.trace}"
    load_start = env.load_average()
    try:
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), work)
    except CheckFailed as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result["metrics"]["peak_rss_mb"] = env.peak_rss_mb()
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        units = dict(layer_metric_names())
        values = {name: result["layer"].get(name, 0.0) for name in units}
        result["tracer"].write(out / f"{stem}.spans.jsonl")
        untraced = out / f"{stem}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["metrics"]["epoch_s"]["value"]
            result["detail"]["trace_overhead_epoch_s"] = values["trace.epoch_s"] - base
    else:
        units = END_TO_END
        values = {name: result["metrics"][name] for name in units}
    metrics = {name: {"value": float(values[name]), "unit": unit}
               for name, unit in units.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "attempted": result["attempted"],
        "failed": result["failed"], "metrics": metrics,
        "end_to_end": {k: result["metrics"][k] for k in END_TO_END},
        "detail": result["detail"],
        "env": {**env.describe(), "load_start": load_start,
                "load_end": env.load_average()},
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }
    (out / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True))

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:14.6g} {m['unit']}")
    pair = result["detail"]["qp_pair_ms"]
    if "tail" in pair:
        print(f"qp_pair_ms p{pair['tail_pct']:g} {pair['tail']:.4g} ms over {pair['n']} samples")
    if "trace_overhead_epoch_s" in result["detail"]:
        print(f"trace overhead (traced - untraced epoch_s): "
              f"{result['detail']['trace_overhead_epoch_s']:.4g} s")
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    env.pin_threads()
    sys.exit(main())
