#!/usr/bin/env python3
"""One worker process of a benchmark run: set up, say "ready", run a block
of rounds (or the traced run), print the records as one JSON line, exit.

    python3 perfbench/worker.py <workload> <seed> <first round> <rounds> <trace 0|1>

run.py starts workers one after another, never two at once, and times each
from process start to its "ready" line: that is one set-up sample. Spreading
a run over several fresh processes averages out the speed a single process
happens to get on a shared machine.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time

import metrics
import workloads
from tracing import Tracer

CLI_FIELD = {"decide": "decide", "witness": "witness", "classify": "classify", "describe-range": "describe"}


def measure(workload, first_round, rounds, cases=None):
    """Run rounds first_round .. first_round + rounds - 1 in a closed loop.
    `cases`, when given, is the first round, already generated. Returns one
    record per op; checks are untimed."""
    records = []
    for r in range(first_round, first_round + rounds):
        for case in cases if cases is not None and r == first_round else workload.round(r):
            start = time.perf_counter()
            try:
                answer = workload.run(case)
                error = None
            except Exception as e:  # any exception is a failed op
                error = f"{type(e).__name__}: {e}"
            elapsed = time.perf_counter() - start
            records.append(
                {
                    "round": r,
                    "s": elapsed,
                    "work": workload.work(case),
                    "problems": [error] if error else checked(workload.check, case, answer),
                    "label": f"{case.get('command', case.get('kind'))} n={case.get('n')}",
                    "command": case.get("command"),
                    "outside_qi": bool(case.get("expect", {}).get("outside_qi_degree")),
                }
            )
    return records


def checked(check, case, answer):
    """The check's problems; an answer the check cannot read is wrong."""
    try:
        return check(case, answer)
    except Exception as e:
        return [f"unreadable answer: {type(e).__name__}: {e}"]


def cli_medians(records):
    by_command = {}
    for r in records:
        by_command.setdefault(r["command"], []).append(r["s"])
    return {f"cli.{CLI_FIELD[c]}_ms": 1000 * statistics.median(v) for c, v in by_command.items()}


def import_times(stderr):
    """(all top-level imports, sympy) in seconds, from -X importtime output."""
    total = sympy_s = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or line.count("|") != 2:
            continue
        _, cumulative, name = line.split("|")
        if not cumulative.strip().isdigit():
            continue  # the header line
        if name.startswith(" ") and not name.startswith("  "):  # top level: no nesting
            total += int(cumulative)
            if name.strip() == "sympy":
                sympy_s += int(cumulative)
    return total / 1e6, sympy_s / 1e6


def traced_layers(workload, cases=None):
    """Per-layer metrics: `trace_rounds` rounds untraced, then as many fresh
    rounds traced, in this one process. Counts repeat exactly for a seed.
    Returns (metrics, records, tracer or None)."""
    rounds = workload.trace_rounds
    untraced = measure(workload, 0, rounds, cases)
    out = {key: 0.0 for key in metrics.PER_LAYER}
    if workload.name == "cli-cold":
        out.update(cli_medians(untraced))
        traced_s = untraced_s = 0.0
        traced = []
        for case in workload.round(rounds):
            start = time.perf_counter()
            proc = workloads.run_cli(case, ("-X", "importtime"))
            elapsed = time.perf_counter() - start
            traced.append({"round": rounds, "s": elapsed, "problems": checked(workloads.check_cli, case, proc),
                           "label": case["command"], "outside_qi": False})
            traced_s += elapsed
            untraced_s += out[f"cli.{CLI_FIELD[case['command']]}_ms"] / 1000
            total, sympy_s = import_times(proc.stderr)
            out["cli.import_s"] += total
            out["cli.import_sympy_s"] += sympy_s
        out["trace.overhead_ratio"] = traced_s / untraced_s
        return out, untraced + traced, None
    tracer = Tracer()
    with tracer:
        traced = measure(workload, rounds, rounds)
    out.update(tracer.layer_metrics())
    out["trace.overhead_ratio"] = sum(r["s"] for r in traced) / sum(r["s"] for r in untraced)
    return out, untraced + traced, tracer


def peak_rss_kb(workload):
    """Peak resident memory of the process that runs the ops: this one, or
    for cli-cold the largest CLI child."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli-cold" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def main(argv):
    name, seed, first_round, rounds, trace = argv[0], int(argv[1]), int(argv[2]), int(argv[3]), argv[4] == "1"
    try:
        workload, cases = workloads.setup(name, seed, 0 if trace else first_round)
    except workloads.SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print("ready", flush=True)
    out = {}
    if trace:
        out["layers"], records, tracer = traced_layers(workload, cases)
        if tracer is not None:
            out_dir = workloads.ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.dump(out_dir / f"trace-{name}-seed{seed}.json")
            out["spans"] = len(tracer.spans)
            out["missing"] = tracer.missing
    else:
        records = measure(workload, first_round, rounds, cases)
    out["records"] = records
    out["rss_kb"] = peak_rss_kb(workload)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
