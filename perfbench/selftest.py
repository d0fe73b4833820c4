#!/usr/bin/env python3
"""Self-test of the benchmark harness at tiny sizes.

    python3 perfbench/selftest.py

Checks that
  * BENCHMARK.json names the metrics metrics.py defines, with the same units;
  * every named metric is emitted with its unit, traced and untraced, by
    the real command and, at tiny sizes, for every workload;
  * an injected wrong answer is counted as a failed op, on every workload;
  * two traced runs give identical _calls/_count values;
  * the independent cover oracle agrees with the recorded digests.
Exits 0 when all pass.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import time

import exact
import metrics
import run
import worker
import workloads
from workloads import ROOT

SEED = 7


def tiny(name, mr):
    if name == "decide-mixed":
        return workloads.DecideMixed(SEED, mr, slots=workloads.corpus.DECIDE_SLOTS[:4])
    if name == "witness-qi":
        return workloads.WitnessQi(SEED, mr, slots=workloads.corpus.WITNESS_SLOTS[:2])
    if name == "describe-range":
        w = workloads.DescribeRange(SEED, mr, configs=(("z^2", (2,), 8), ("sin", (2,), 7)))
        w.digests = {
            workloads.digest_key(m, n): workloads.digest(
                [p for p in exact.partitions_upto(n) if exact.cover(p, m) is None]
            )
            for _, m, n in w.configs
        }
        return w
    return workloads.CliCold(SEED)


def check_benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v[0] for k, v in metrics.PER_LAYER.items()
    }
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def in_process(w):
    """A run_block for run.report that runs blocks of the tiny workload `w`
    in this process instead of in worker processes."""

    def run_block(name, seed, first_round, rounds, trace):
        start = time.perf_counter()
        cases = w.round(0 if trace else first_round)
        w.warm_up()
        setup_s = time.perf_counter() - start
        if trace:
            layers, records, _ = worker.traced_layers(w, cases)
            return setup_s, {"layers": layers, "records": records, "rss_kb": worker.peak_rss_kb(w)}
        records = worker.measure(w, first_round, rounds, cases)
        return setup_s, {"records": records, "rss_kb": worker.peak_rss_kb(w)}

    return run_block


def check_emitted(name, mr):
    for trace in (0, 1):
        w = tiny(name, mr)
        w.worker_rounds = w.tail_rounds = w.trace_rounds = 1
        result, _ = run.report(w, SEED, 0.01, trace, in_process(w))
        check_result(result, trace)


def check_result(result, trace):
    want = {k: v[0] for k, v in metrics.PER_LAYER.items()} if trace else metrics.END_TO_END
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == want, (trace, set(got) ^ set(want))
    assert all(isinstance(v["value"], float) for v in result["metrics"].values()), result
    assert result["failed"] == 0 and result["correct"], result
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values()), result


def check_command():
    """The real command, on its cheapest workload: workers, result line."""
    for trace in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "describe-range",
             "--seed", str(SEED), "--seconds", "1", "--trace", trace],
            capture_output=True, text=True, cwd=ROOT, timeout=170,
        )
        assert proc.returncode == 0, proc.stderr
        check_result(json.loads(proc.stdout.strip().splitlines()[-1]), trace == "1")


def corrupt(name, mr):
    """Make the program under test give wrong answers from outside, return
    a function that undoes it."""
    ranges = mr.ranges if mr else None
    if name == "decide-mixed":
        original = ranges.decide_range

        def flipped(f, a):
            verdict = original(f, a)
            return dataclasses.replace(verdict, solvable=not verdict.solvable)

        ranges.decide_range = flipped
        return lambda: setattr(ranges, "decide_range", original)
    if name == "witness-qi":
        original = ranges.build_witness
        ranges.build_witness = lambda f, a, v=None: original(f, a, v).scale(2)
        return lambda: setattr(ranges, "build_witness", original)
    if name == "describe-range":
        original = ranges.describe_range

        def dropped(f, n):
            d = original(f, n)
            (value, parts), *rest = d.uncoverable
            return dataclasses.replace(d, uncoverable=((value, parts[1:]), *rest))

        ranges.describe_range = dropped
        return lambda: setattr(ranges, "describe_range", original)
    original = workloads.run_cli

    def flipped(case, python_flags=()):
        proc = original(case, python_flags)
        out = json.loads(proc.stdout)
        for key in ("solvable", "in_E"):
            if key in out:
                out[key] = not out[key]
        if "uncoverable_partitions" in out:
            out["uncoverable_partitions"][0]["partitions"].pop()
        return subprocess.CompletedProcess(proc.args, 0, json.dumps(out), proc.stderr)

    workloads.run_cli = flipped
    return lambda: setattr(workloads, "run_cli", original)


def check_injected_failure(name, mr):
    w = tiny(name, mr)
    undo = corrupt(name, mr)
    try:
        records = worker.measure(w, 0, 1)
    finally:
        undo()
    failed = sum(1 for r in records if r["problems"])
    assert failed == len(records) > 0, (name, [r["problems"] for r in records])


def check_counts_repeat(name, mr):
    runs = []
    for _ in range(2):
        w = tiny(name, mr)
        w.trace_rounds = 1
        values, _, _ = worker.traced_layers(w)
        runs.append({k: v for k, v in values.items() if k.endswith(("_calls", "_count"))})
    assert runs[0] == runs[1], (name, runs)
    if name != "cli-cold":
        assert any(runs[0].values()), (name, runs[0])


def check_digests():
    with open(workloads.DIGESTS, encoding="utf-8") as fh:
        recorded = json.load(fh)
    for _, mults, n in workloads.corpus.DESCRIBE_CONFIGS:
        bad = [p for p in exact.partitions_upto(n) if exact.cover(p, mults) is None]
        assert recorded[workloads.digest_key(mults, n)] == workloads.digest(bad), (mults, n)


def main():
    mr = workloads.load_matrange()
    check_benchmark_json()
    check_digests()
    print("ok BENCHMARK.json and digests")
    check_command()
    print("ok run.py end to end")
    for name in workloads.WORKLOADS:
        module = None if name == "cli-cold" else mr
        check_emitted(name, module)
        check_injected_failure(name, module)
        check_counts_repeat(name, module)
        print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
