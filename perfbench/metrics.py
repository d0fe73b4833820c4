"""Names, units and rationale of every metric the benchmark reports.

BENCHMARK.json lists the same names and units; selftest.py checks that the
two agree. `moves` records, before any optimisation is measured, which
end-to-end metric a per-layer metric should move and on which workload.
"""

# name -> unit. Every workload reports each of these with --trace 0. The
# work unit of throughput_per_s is one decision on decide-mixed, one
# witness on witness-qi, one nontrivial partition classified on
# describe-range and one CLI invocation on cli-cold.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
}

# The names the workload definitions use for the same numbers.
ALIASES = {
    "decide-mixed": {"throughput_per_s": "decide_per_s", "p50_ms": "decide_p50_ms", "tail_ms": "decide_tail_ms"},
    "witness-qi": {"throughput_per_s": "witness_per_s", "p50_ms": "witness_p50_ms", "tail_ms": "witness_tail_ms"},
    "describe-range": {"throughput_per_s": "partitions_per_s"},
    "cli-cold": {},
}

_DECIDE = "decide_per_s/decide_tail_ms on decide-mixed"
_WITNESS = "witness_per_s/witness_tail_ms on witness-qi"
_DESCRIBE = "partitions_per_s on describe-range"
_CLI = "cli_decide_ms/cli_witness_ms/cli_describe_ms on cli-cold (cli_classify_ms is the control)"

# name -> (unit, better, moves). Every workload reports each of these with
# --trace 1; a layer a workload never enters reads 0.
PER_LAYER = {
    "scalars.mul_count": ("count", "lower", f"{_DECIDE}; {_WITNESS}; near zero on describe-range"),
    "scalars.addsub_count": ("count", "lower", f"{_DECIDE}; {_WITNESS}; near zero on describe-range"),
    "scalars.div_count": ("count", "lower", f"{_DECIDE}; {_WITNESS}; near zero on describe-range"),
    "polynomials.roots_calls": ("count", "lower", f"{_WITNESS}; decide_tail_ms on decide-mixed"),
    "polynomials.roots_s": ("s", "lower", f"{_WITNESS}; decide_tail_ms on decide-mixed"),
    "polynomials.roots_s.deg1-2": ("s", "lower", _WITNESS),
    "polynomials.roots_s.deg3-8": ("s", "lower", f"{_WITNESS}; decide_tail_ms on decide-mixed"),
    "polynomials.roots_s.deg9plus": ("s", "lower", "decide_tail_ms on decide-mixed"),
    "polynomials.roots_found_ratio": ("ratio", "higher", "fixed by the inputs: Q(i) roots found with multiplicity / input degree"),
    "polynomials.squarefree_s": ("s", "lower", f"{_WITNESS}; {_DECIDE}"),
    "polynomials.critical_value_s": ("s", "lower", "decide_p50_ms on decide-mixed; witness_p50_ms on witness-qi"),
    "functions.profile_calls": ("count", "lower", "decide_p50_ms on decide-mixed; witness_p50_ms on witness-qi"),
    "functions.profile_s": ("s", "lower", "decide_p50_ms on decide-mixed; witness_p50_ms on witness-qi"),
    **{
        f"matrices.{op}_{kind}": ("count" if kind == "calls" else "s", "lower", moves)
        for op, moves in (
            ("char_poly", _DECIDE),
            ("segre_at", _DECIDE),
            ("rank", _DECIDE),
            ("kernel", _WITNESS),
            ("inverse", _WITNESS),
            ("matmul", f"{_WITNESS}; {_DECIDE}"),
            ("jordan", _WITNESS),
            ("apply_poly", _WITNESS),
        )
        for kind in ("calls", "s")
    },
    "ranges.coverable_calls": ("count", "lower", f"{_DESCRIBE}; no change on decide-mixed"),
    "ranges.coverable_s": ("s", "lower", f"{_DESCRIBE}; no change on decide-mixed"),
    "ranges.cover_found_ratio": ("ratio", "higher", "fixed by the inputs: covers found / coverable calls"),
    "ranges.split_pattern_calls": ("count", "lower", _DESCRIBE),
    "ranges.decide_self_s": ("s", "lower", "decide_p50_ms on decide-mixed"),
    "ranges.witness_self_s": ("s", "lower", "witness_p50_ms on witness-qi"),
    "cli.import_s": ("s", "lower", _CLI),
    "cli.import_sympy_s": ("s", "lower", _CLI),
    "cli.decide_ms": ("ms", "lower", "cli_decide_ms on cli-cold: median cold decide invocation"),
    "cli.witness_ms": ("ms", "lower", "cli_witness_ms on cli-cold: median cold witness invocation"),
    "cli.classify_ms": ("ms", "lower", "cli_classify_ms on cli-cold: the control, never imports sympy"),
    "cli.describe_ms": ("ms", "lower", "cli_describe_ms on cli-cold: median cold describe-range invocation"),
    "trace.overhead_ratio": ("ratio", "lower", "traced op time / untraced op time, over the same slots with fresh inputs"),
}
