"""The four workloads: how one input is run (the timed part) and how its
answer is checked (untimed).

In-process workloads call matrange's public functions through their module
attributes (`ranges.decide_range`), so the tracer's replacements are the
ones called. Checks read answer fields in the harness's own arithmetic and
never compare whole output bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import corpus
import exact

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DIGESTS = Path(__file__).resolve().parent / "digests.json"


class SetupError(Exception):
    """The checkout cannot run the benchmark."""


def load_matrange():
    """Import matrange from the checkout's src/, never from elsewhere."""
    if not (SRC / "matrange" / "__init__.py").is_file():
        raise SetupError(f"no matrange sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import matrange
    from matrange import functions, matrices, ranges

    if Path(matrange.__file__).resolve().parent != SRC / "matrange":
        raise SetupError(f"matrange imported from {matrange.__file__}, not {SRC}")
    return SimpleNamespace(functions=functions, matrices=matrices, ranges=ranges)


def digest(partitions):
    canonical = json.dumps(sorted(sorted(p, reverse=True) for p in partitions))
    return hashlib.sha256(canonical.encode()).hexdigest()[:32]


def digest_key(mults, n):
    return f"{','.join(map(str, mults))}|{n}"


# -- answer checks ----------------------------------------------------------------


def check_verdict(out, expect):
    """Problems with a rendered verdict, against the planted structure."""
    problems = []
    if out.get("solvable") != expect["solvable"]:
        problems.append(f"solvable {out.get('solvable')} != {expect['solvable']}")
    if out.get("case") != expect["case"]:
        problems.append(f"case {out.get('case')} != {expect['case']}")
    want = expect["blocking"]
    got = out.get("blocking")
    if want is None:
        if got is not None:
            problems.append(f"unexpected blocking {got}")
        return problems + check_cover_plan(out.get("cover_plan"), expect)
    if not got:
        return problems + ["missing blocking"]
    if exact.parse(got.get("value", "")) != exact.parse(want["value"]):
        problems.append(f"blocking value {got.get('value')} != {want['value']}")
    if got.get("reason") != want["reason"]:
        problems.append(f"blocking reason {got.get('reason')} != {want['reason']}")
    if list(got.get("partition", ())) != want["partition"]:
        problems.append(f"blocking partition {got.get('partition')} != {want['partition']}")
    return problems


def check_cover_plan(plan, expect):
    """Each eigenvalue's (K, m) entries must rebuild its planted partition
    from split patterns of an allowed multiplicity. Eigenvalues outside Q(i)
    are planted but, at the seed, never listed."""
    if plan is None:
        return ["solvable verdict without cover_plan"]
    planted = {exact.parse(v): tuple(p) for v, p in expect["partitions"].items()}
    allowed = {exact.parse(v): m for v, m in expect["trv_mults"].items()}
    rebuilt = {}
    problems = []
    for entry in plan:
        lam = exact.parse(entry["eigenvalue"])
        k, m = entry["K"], entry["m"]
        pattern = exact.split_pattern(k, m)
        if m not in allowed.get(lam, (1,)):
            problems.append(f"multiplicity {m} not available at {entry['eigenvalue']}")
        if tuple(entry["parts"]) != pattern:
            problems.append(f"parts {entry['parts']} != split pattern {pattern} of ({k}, {m})")
        rebuilt.setdefault(lam, []).extend(pattern)
    rebuilt = {lam: tuple(sorted(p, reverse=True)) for lam, p in rebuilt.items()}
    if rebuilt != planted:
        problems.append(
            "cover plan rebuilds "
            + str({exact.render(k): v for k, v in rebuilt.items()})
            + ", planted "
            + str({exact.render(k): v for k, v in planted.items()})
        )
    return problems


def check_witness(rendered_x, case):
    x = [[exact.parse(s) for s in row] for row in rendered_x["rows"]]
    if exact.apply_poly(case["f_coeffs"], x) != case["a_exact"]:
        return ["witness X does not satisfy f(X) = A"]
    return []


# -- in-process workloads -------------------------------------------------------


class Workload:
    """One workload: inputs by index, rounds of `round_size` inputs that keep
    the mix fixed, a timed `run` and an untimed `check`."""

    name = ""
    round_size = 1
    worker_rounds = 1  # rounds per worker process
    tail_rounds = 1  # the first rounds, the tail is taken over; the least a run makes
    trace_rounds = 1  # rounds per pass of a traced run

    def __init__(self, seed, matrange=None):
        self.seed = seed
        self.matrange = matrange

    def round(self, r):
        return [self.make(i) for i in range(r * self.round_size, (r + 1) * self.round_size)]

    def warm_up(self):
        """One untimed op on a small input no round uses, so lazy imports finish."""
        self.run(self.warm_up_case())

    def work(self, case):
        return 1


class DecideMixed(Workload):
    name = "decide-mixed"
    tail_rounds = 5
    trace_rounds = 2

    def __init__(self, seed, matrange, slots=corpus.DECIDE_SLOTS):
        super().__init__(seed, matrange)
        self.slots = slots
        self.round_size = len(slots)

    def make(self, i):
        case = corpus.decide_input(self.seed, i, *self.slots[i % len(self.slots)])
        return _parsed(case, self.matrange)

    def warm_up_case(self):
        return _parsed(corpus.decide_input(self.seed, -1, 3, "poly_trv", False, (2,), 0), self.matrange)

    def run(self, case):
        return self.matrange.ranges.decide_range(case["f_obj"], case["a_obj"])

    def check(self, case, verdict):
        return check_verdict(verdict.render(), case["expect"])


class WitnessQi(Workload):
    name = "witness-qi"
    worker_rounds = 2
    tail_rounds = 6
    trace_rounds = 2

    def __init__(self, seed, matrange, slots=corpus.WITNESS_SLOTS):
        super().__init__(seed, matrange)
        self.slots = slots
        self.round_size = len(slots)

    def make(self, i):
        case = corpus.witness_input(self.seed, i, *self.slots[i % len(self.slots)])
        return _parsed(case, self.matrange)

    def warm_up_case(self):
        return _parsed(corpus.witness_input(self.seed, -1, 2, 2), self.matrange)

    def run(self, case):
        # what the witness command runs
        ranges = self.matrange.ranges
        verdict = ranges.decide_range(case["f_obj"], case["a_obj"])
        return verdict, ranges.build_witness(case["f_obj"], case["a_obj"], verdict)

    def check(self, case, answer):
        verdict, x = answer
        return check_verdict(verdict.render(), case["expect"]) + check_witness(x.render(), case)


class DescribeRange(Workload):
    name = "describe-range"
    worker_rounds = 3
    tail_rounds = 6
    trace_rounds = 4

    def __init__(self, seed, matrange, configs=corpus.DESCRIBE_CONFIGS):
        super().__init__(seed, matrange)
        self.configs = configs
        self.round_size = len(configs)
        with open(DIGESTS, encoding="utf-8") as fh:
            self.digests = json.load(fh)

    def make(self, i, config=None):
        case = corpus.describe_input(self.seed, i, *(config or self.configs[i % len(self.configs)]))
        case["f_obj"] = self.matrange.functions.EntireFunction.parse(case["f"])
        return case

    def warm_up_case(self):
        return self.make(-1, ("z^2", (2,), 8))

    def run(self, case):
        return self.matrange.ranges.describe_range(case["f_obj"], case["n"])

    def work(self, case):
        return case["partitions"]

    def check(self, case, description):
        return check_description(description.render(), case, self.digests)


def check_description(out, case, digests):
    problems = []
    want_case = "IV" if case["kind"] == "sin" else "III"
    if out.get("case") != want_case:
        problems.append(f"case {out.get('case')} != {want_case}")
    entries = out.get("uncoverable_partitions", [])
    values = [exact.parse(e["value"]) for e in entries]
    if sorted(values) != sorted(exact.parse(v) for v in case["trvs"]):
        problems.append(f"TRVs {[e['value'] for e in entries]} != {case['trvs']}")
    want = digests.get(digest_key(case["mults"], case["n"]))
    if want is None:
        problems.append(f"no recorded digest for {digest_key(case['mults'], case['n'])}")
    for e in entries:
        if digest(e["partitions"]) != want:
            problems.append(f"uncoverable partitions at {e['value']} differ from the recorded digest")
    return problems


def _parsed(case, matrange):
    case["f_obj"] = matrange.functions.EntireFunction.parse(case["f"])
    case["a_obj"] = matrange.matrices.MatrixQi.parse(case["a"])
    return case


# -- cli-cold -------------------------------------------------------------------

# what the `matrange` console script runs
CLI_MAIN = "import sys; from matrange.cli import main; sys.exit(main())"


def cli_argv(case, python_flags=()):
    command = case["command"]
    argv = [sys.executable, *python_flags, "-c", CLI_MAIN, command]
    if "f" in case:
        argv += ["--function", json.dumps(case["f"])]
    if command == "describe-range":
        argv += ["--n", str(case["n"])]
    else:
        argv += ["--matrix", json.dumps(case["a"])]
    if command == "classify":
        argv.append(f"--value={case['value']}")  # a value may start with "-"
    return argv


def run_cli(case, python_flags=()):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        cli_argv(case, python_flags), capture_output=True, text=True, env=env, cwd=ROOT, timeout=120
    )


def check_cli(case, proc):
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-300:]}"]
    try:
        out = json.loads(proc.stdout)
    except json.JSONDecodeError:
        return [f"stdout is not JSON: {proc.stdout[:200]!r}"]
    command, expect = case["command"], case["expect"]
    if command == "decide":
        return check_verdict(out, expect)
    if command == "witness":
        problems = check_verdict(out, expect)
        if out.get("witness_status") != "exact":
            return problems + [f"witness_status {out.get('witness_status')} != exact"]
        return problems + check_witness(out["witness"], case)
    if command == "classify":
        got = {k: out.get(k) for k in expect}
        return [] if got == expect else [f"classify {got} != {expect}"]
    entries = out.get("uncoverable_partitions", [])
    got = [(exact.parse(e["value"]), sorted(tuple(p) for p in e["partitions"])) for e in entries]
    want = [(exact.parse(expect["value"]), expect["partitions"])]
    problems = [] if got == want else ["uncoverable partitions differ from the oracle"]
    if out.get("case") != "III":
        problems.append(f"case {out.get('case')} != III")
    return problems


class CliCold(Workload):
    name = "cli-cold"
    round_size = len(corpus.CLI_COMMANDS)
    worker_rounds = 2
    tail_rounds = 6
    trace_rounds = 3

    def make(self, i):
        return corpus.cli_input(self.seed, i)

    def warm_up_case(self):
        return self.make(-4)  # a decide invocation

    def run(self, case):
        return run_cli(case)

    def check(self, case, proc):
        return check_cli(case, proc)


WORKLOADS = {w.name: w for w in (DecideMixed, WitnessQi, DescribeRange, CliCold)}


def setup(name, seed, first_round=0):
    """Everything before the first timed op: import matrange, generate the
    first round of inputs and run one untimed warm-up op."""
    cls = WORKLOADS[name]
    if cls is CliCold:
        if not (SRC / "matrange" / "cli.py").is_file():
            raise SetupError(f"no matrange sources under {SRC}")
        workload = cls(seed)
    else:
        workload = cls(seed, load_matrange())
    first = workload.round(first_round)
    workload.warm_up()
    return workload, first
