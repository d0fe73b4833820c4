#!/usr/bin/env python3
"""matrange benchmark: one workload, one seed, one client in a closed loop,
no threads.

    python3 perfbench/run.py --workload decide-mixed --seed 1 --seconds 15 --trace 0

Workloads: decide-mixed, witness-qi, describe-range, cli-cold (BENCHMARK.json
says why each was chosen). Inputs come in rounds of a fixed mix. The run
starts worker processes one after another (worker.py), each setting up
afresh and running a block of `worker_rounds` rounds, until the timed op
time reaches --seconds and at least `tail_rounds` rounds are done. Every
answer is checked, untimed.

--trace 0 prints every end-to-end metric (metrics.END_TO_END); setup_s is
the median set-up time of the workers. --trace 1 runs one worker that times
`trace_rounds` rounds untraced, then as many fresh rounds with the tracer
installed, and prints every per-layer metric (metrics.PER_LAYER); its spans
go to .bench_out/ in the checkout.

The last line of stdout is the result object; before it come a readable
table and a `detail` object: environment stamp, machine-speed probe, the
tail's percentile and sample count, per-worker set-up times and the first
failures.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import metrics
import workloads
from worker import cli_medians

WORKER = Path(__file__).resolve().parent / "worker.py"


class WorkerError(Exception):
    pass


def speed_probe():
    """A fixed pure-Python Fraction loop that uses no matrange: the machine's
    speed at that moment, so a drifting run can be recognised."""
    start = time.perf_counter()
    acc = Fraction(0)
    for k in range(1, 15000):
        acc += Fraction(k % 7 + 1, k % 11 + 1) * Fraction(3, k % 5 + 2)
    return time.perf_counter() - start


def run_worker(name, seed, first_round, rounds, trace):
    """Start one worker and wait for it. Returns (seconds from process start
    to ready, the worker's output object)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), name, str(seed), str(first_round), str(rounds), str(trace)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=workloads.ROOT,
    )
    with proc:
        ready = proc.stdout.readline().strip()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
    if proc.returncode != 0 or ready != "ready":
        raise WorkerError(f"worker exited {proc.returncode} before finishing")
    return setup_s, json.loads(rest.strip().splitlines()[-1])


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: the
    (N-10)th smallest of N. Returns (value, percentile, N)."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(workload, seed, seconds, run_block):
    """Workers until `seconds` of timed ops and `tail_rounds` rounds are done."""
    records, setups, rss_kb = [], [], 0
    first = 0
    while first < workload.tail_rounds or sum(r["s"] for r in records) < seconds:
        setup_s, out = run_block(workload.name, seed, first, workload.worker_rounds, 0)
        setups.append(setup_s)
        records += out["records"]
        rss_kb = max(rss_kb, out["rss_kb"])
        first += workload.worker_rounds
    latencies = [r["s"] for r in records]
    # the tail over the first rounds only, so its sample count, and so its
    # percentile, does not change with the program's speed
    tail_s, tail_pct, tail_n = tail([r["s"] for r in records if r["round"] < workload.tail_rounds])
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
        "throughput_per_s": sum(r["work"] for r in records) / sum(latencies),
        "p50_ms": 1000 * statistics.median(latencies),
        "tail_ms": 1000 * tail_s,
    }
    detail = {
        "ops": len(records),
        "workers": len(setups),
        "tail_percentile": round(tail_pct, 2),
        "tail_samples": tail_n,
        "setup_samples_s": [round(s, 4) for s in setups],
    }
    if workload.name == "cli-cold":
        detail.update(cli_medians(records))
    return values, records, detail


def per_layer(workload, seed, run_block):
    setup_s, out = run_block(workload.name, seed, 0, workload.trace_rounds, 1)
    detail = {"setup_samples_s": [round(setup_s, 4)]}
    detail.update({k: out[k] for k in ("spans", "missing") if k in out})
    return out["layers"], out["records"], detail


def environment(seed):
    return {
        "python": platform.python_version(),
        "sympy": importlib.metadata.version("sympy"),
        "ground_types": _ground_types(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _ground_types():
    from sympy.external.gmpy import GROUND_TYPES

    return GROUND_TYPES


def _commit():
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=workloads.ROOT, capture_output=True, text=True, timeout=10
        )
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted(workloads.SRC.rglob("*.py")):
        h.update(str(path.relative_to(workloads.SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def report(workload, seed, seconds, trace, run_block=run_worker):
    """Run the workload, each block of rounds by `run_block` (a worker
    process by default); returns (result object, detail object)."""
    probe_before = speed_probe()
    if trace:
        values, records, detail = per_layer(workload, seed, run_block)
        units = {k: v[0] for k, v in metrics.PER_LAYER.items()}
    else:
        values, records, detail = end_to_end(workload, seed, seconds, run_block)
        units = metrics.END_TO_END
    probe_after = speed_probe()

    failed = [r for r in records if r["problems"]]
    detail["failed_ratio"] = len(failed) / len(records)
    detail["failures"] = [{"op": r["label"], "problems": r["problems"][:3]} for r in failed[:5]]
    detail["outside_qi_ops"] = sum(r["outside_qi"] for r in records)
    detail["speed_probe_s"] = [round(probe_before, 4), round(probe_after, 4)]
    detail["env"] = environment(seed)
    result = {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {key: {"value": float(values[key]), "unit": units[key]} for key in units},
    }
    return result, detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (workloads.SRC / "matrange" / "cli.py").is_file():
        print(f"error: no matrange sources under {workloads.SRC}", file=sys.stderr)
        return 2
    try:
        result, detail = report(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    except WorkerError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2

    aliases = {} if args.trace else metrics.ALIASES[args.workload]
    for key, m in result["metrics"].items():
        label = f"{key} ({aliases[key]})" if key in aliases else key
        print(f"{label:<44} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_ratio':<44} {detail['failed_ratio']:>16.6g} ratio")
    print("detail " + json.dumps(detail, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
