import contextlib
import io
import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrange.cli import main
from matrange.functions import EntireFunction, exp_poly_family, polynomial_function, sin_family
from matrange.matrices import MatrixQi
from matrange.polynomials import Poly
from matrange.scalars import parse_scalar, render_scalar
from matrange.selftest import random_matrix, random_poly, random_scalar

SQUARE = '{"type":"polynomial","coeffs":["0","0","1"]}'
NILPOTENT_2 = '{"n":2,"rows":[["0","1"],["0","0"]]}'


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "matrange.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout, proc.stderr


# -- worked examples, byte-stable ----------------------------------------------


def test_decide_worked_example_bytes():
    code, out, _ = run_cli("decide", "--function", SQUARE, "--matrix", NILPOTENT_2)
    assert code == 0
    assert out == (
        '{"solvable": false, "case": "III", "blocking": '
        '{"value": "0", "reason": "uncoverable_partition", "partition": [2]}}\n'
    )


def test_classify_worked_example_bytes():
    code, out, _ = run_cli(
        "classify", "--matrix", '{"n":2,"rows":[["3","1"],["0","3"]]}', "--value", "3"
    )
    assert code == 0
    assert out == '{"in_E": true, "in_S": true, "segre_partition": [2]}\n'


def test_witness_worked_example_bytes():
    # A = T (J_2(4) + [-1]) T^-1: a nontrivial block away from the TRV, both
    # preimages in Q(i)
    matrix = '{"n":3,"rows":[["9/2","1/2","-1/2"],["5/2","3/2","-5/2"],["3","-2","1"]]}'
    code, out, _ = run_cli("witness", "--function", SQUARE, "--matrix", matrix)
    assert code == 0
    assert out == (
        '{"solvable": true, "case": "III", "cover_plan": ['
        '{"eigenvalue": "-1", "preimage": "0-1i", "K": 1, "m": 1, "parts": [1]}, '
        '{"eigenvalue": "4", "preimage": "-2", "K": 2, "m": 1, "parts": [2]}], '
        '"witness": {"n": 3, "rows": [["-17/8", "-1/8", "1/8"], '
        '["-1+1/2i", "-1-1/2i", "1-1/2i"], ["-9/8+1/2i", "7/8-1/2i", "-7/8-1/2i"]]}, '
        '"witness_status": "exact"}\n'
    )


def test_witness_unavailable_cause_bytes(capsys):
    matrix = '{"n":2,"rows":[["0","1"],["2","0"]]}'
    assert main(["witness", "--function", SQUARE, "--matrix", matrix]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["witness_status"] == "unavailable_over_Qi"
    assert out["witness_unavailable"] == {
        "message": "decision stands, but A's spectrum leaves Q(i)",
        "cause": "spectrum not contained in Q(i): "
        "unfactored characteristic polynomial part of degree 2",
    }


def test_evaluate_worked_example_bytes():
    code, out, _ = run_cli("evaluate", "--function", SQUARE, "--matrix", NILPOTENT_2)
    assert code == 0
    assert out == '{"result": {"n": 2, "rows": [["0", "0"], ["0", "0"]]}}\n'


# -- exit codes ----------------------------------------------------------------


def test_parse_error_exit_code():
    code, _, err = run_cli("decide", "--function", SQUARE, "--matrix", '{"n":2,"rows":[["0","1"],["0"]]}')
    assert code == 1
    assert json.loads(err)["error"] == "parse"


def test_zero_denominator_rejected():
    code, _, err = run_cli("classify", "--matrix", NILPOTENT_2, "--value", "2/0")
    assert code == 1
    assert json.loads(err)["error"] == "parse"


def test_precondition_error_exit_code():
    code, _, err = run_cli(
        "decide", "--function", '{"type":"polynomial","coeffs":["5"]}', "--matrix", NILPOTENT_2
    )
    assert code == 2
    assert json.loads(err)["error"] == "precondition"


@pytest.mark.parametrize(
    "function, matrix",
    [
        (SQUARE, "[[1]]"),
        ('{"type":"polynomial","coeffs":[0,0,1]}', NILPOTENT_2),
        (SQUARE, '[["\u0663"]]'),
    ],
)
def test_non_string_and_non_ascii_scalars_are_parse_errors(capsys, function, matrix):
    assert main(["decide", "--function", function, "--matrix", matrix]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "parse"


def test_deeply_nested_json_is_a_parse_error(capsys, tmp_path):
    deep = "[" * 3000 + "]" * 3000
    assert main(["decide", "--function", deep, "--matrix", NILPOTENT_2]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "parse"
    path = tmp_path / "deep.json"
    path.write_text(deep, encoding="utf-8")
    assert main(["decide", "--function", SQUARE, "--matrix", str(path)]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "parse"


def test_unreadable_input_is_a_parse_error(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff[]")  # not UTF-8
    for argv in (
        ["decide", "--function", str(bad), "--matrix", NILPOTENT_2],
        ["decide", "--function", SQUARE, "--matrix", str(bad)],
        ["analyze", "--function", "bad\0.json"],  # a NUL in the path
    ):
        assert main(argv) == 1
        assert json.loads(capsys.readouterr().err)["error"] == "parse"
    proc = subprocess.run(
        [sys.executable, "-m", "matrange.cli", "decide", "--function", SQUARE, "--matrix", "-"],
        input=b"\xff[]",
        capture_output=True,
        env={**os.environ, "PYTHONIOENCODING": "utf-8:strict"},
    )
    assert proc.returncode == 1
    assert json.loads(proc.stderr)["error"] == "parse"


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--matrix", NILPOTENT_2, "--value", "-1/2"],  # "-1/2" read as an option
        ["decide", "--matrix", NILPOTENT_2],  # --function missing
        ["describe-range", "--function", SQUARE, "--n", "x"],
        ["analyze", "--function", SQUARE, "--bogus", "1"],
        ["frobnicate"],
        [],
    ],
)
def test_usage_errors_are_parse_errors(capsys, argv):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err)["error"] == "parse"


def test_help_still_exits_zero(capsys):
    assert main(["decide", "--help"]) == 0
    assert "--function" in capsys.readouterr().out


def test_unknown_function_type_rejected():
    code, _, err = run_cli("analyze", "--function", '{"type":"cosh","coeffs":[]}')
    assert code == 1


def test_stdin_matrix():
    proc = subprocess.run(
        [sys.executable, "-m", "matrange.cli", "decide", "--function", SQUARE, "--matrix", "-"],
        input=NILPOTENT_2,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["solvable"] is False


COLD_PATH = """
import sys
from matrange.cli import main
from matrange.functions import polynomial_function
from matrange.matrices import MatrixQi
from matrange.polynomials import Poly
from matrange.ranges import build_witness, decide_range, describe_range

f = polynomial_function(Poly([0, 0, 1]))
a = MatrixQi.block_diag([MatrixQi.jordan_block(2, 4), MatrixQi.diagonal([-1])])
verdict = decide_range(f, a)
assert verdict.solvable and build_witness(f, a, verdict) is not None
describe_range(f, 3)
main(["classify", "--matrix", '{"n":2,"rows":[["0","1"],["0","0"]]}', "--value", "0"])
print("sympy" in sys.modules)
"""


def test_cold_path_never_imports_sympy():
    proc = subprocess.run([sys.executable, "-c", COLD_PATH], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


# -- in-process command coverage -----------------------------------------------


def test_witness_and_decide_agree(capsys):
    assert main(["witness", "--function", SQUARE, "--matrix", '{"n":1,"rows":[["4"]]}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solvable"] is True
    assert out["witness_status"] == "exact"
    assert out["witness"]["rows"] == [["-2"]]

    assert main(["witness", "--function", SQUARE, "--matrix", '{"n":1,"rows":[["2"]]}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solvable"] is True
    assert out["witness_status"] == "unavailable_over_Qi"
    assert "witness" not in out

    assert main(["witness", "--function", SQUARE, "--matrix", NILPOTENT_2]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["solvable"] is False
    assert out["witness_status"] == "unsolvable"
    assert "witness" not in out


def test_analyze_command(capsys):
    assert main(["analyze", "--function", '{"type":"sin_family","a":"0","b":"1","c":"1","d":"0"}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "IV"
    assert [e["value"] for e in out["trv_entries"]] == ["0", "1"]


def test_describe_range_command(capsys):
    assert main(["describe-range", "--function", SQUARE, "--n", "2"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["case"] == "III"
    assert out["uncoverable_partitions"] == [{"value": "0", "partitions": [[2]]}]


def test_selftest_command(capsys):
    assert main(["selftest", "--seed", "7"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["passed"] is True
    assert out["seed"] == 7
    assert {s["name"] for s in out["suites"]} >= {
        "similarity_equivariance",
        "split_pattern_oracle_grid",
    }


def test_text_output_mode(capsys):
    assert main(["classify", "--matrix", NILPOTENT_2, "--value", "0", "--output", "text"]) == 0
    out = capsys.readouterr().out
    assert "in_E: True" in out and "segre_partition" in out


# -- round-trip fuzzing --------------------------------------------------------


def test_round_trip_fuzz(rng):
    for _ in range(400):
        x = random_scalar(rng, 20, 7)
        assert parse_scalar(render_scalar(x)) == x
    for _ in range(300):
        a = random_matrix(rng, rng.randint(1, 4), 5)
        assert MatrixQi.parse(json.loads(json.dumps(a.render()))) == a
    for _ in range(300):
        choice = rng.randint(0, 2)
        if choice == 0:
            f = polynomial_function(random_poly(rng, 5))
        elif choice == 1:
            a, b = random_scalar(rng), random_scalar(rng)
            if a == b:
                b = a + parse_scalar("1")
            c = random_scalar(rng)
            if c.is_zero():
                c = parse_scalar("1")
            f = sin_family(a, b, c, random_scalar(rng))
        else:
            p = random_poly(rng, 3).monic()
            c = random_scalar(rng)
            if c.is_zero():
                c = parse_scalar("1")
            f = exp_poly_family(random_scalar(rng), p, c, random_scalar(rng))
        assert EntireFunction.parse(json.loads(json.dumps(f.render()))) == f


# -- fuzz: every input ends in a structured answer -----------------------------

FLAGS = {
    "analyze": ("function",),
    "decide": ("function", "matrix"),
    "witness": ("function", "matrix"),
    "classify": ("matrix", "value"),
    "evaluate": ("function", "matrix"),
    "describe-range": ("function", "n"),
}
VALID = st.sampled_from(["0", "1", "-1", "1/2", "-3/2+i", "2i", "0-1i"])
SCALARS = VALID | st.text(max_size=8) | st.integers(-5, 5) | st.floats() | st.none() | st.booleans()
ANY_JSON = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def rows(scalars):
    return st.integers(1, 3).flatmap(
        lambda n: st.lists(st.lists(scalars, min_size=n, max_size=n), min_size=n, max_size=n)
    )


def functions(scalars):
    """Every field any family reads, so well-formed scalars give a function."""
    fields = {key: scalars for key in "abcdv"}
    fields.update(coeffs=st.lists(scalars, min_size=1, max_size=4), p_coeffs=st.lists(scalars, max_size=4))
    return st.fixed_dictionaries({"type": st.sampled_from(["polynomial", "sin_family", "exp_poly"]), **fields})


# well-formed inputs twice as often as the rest
FUNCTIONS = st.one_of(functions(VALID), functions(VALID), functions(SCALARS), ANY_JSON)
MATRICES = st.one_of(
    rows(VALID),
    rows(VALID),
    st.fixed_dictionaries({"n": st.integers(-1, 4) | SCALARS, "rows": rows(SCALARS)}),
    ANY_JSON,
)


def _json_or_file(objects):
    """Inline JSON text (three times in four), or the random bytes of a file,
    half of them led by a byte >= 0x80, which is rarely valid UTF-8."""
    high = st.builds(lambda b, rest: bytes([b]) + rest, st.integers(0x80, 0xFF), st.binary(max_size=23))
    return st.one_of(*[objects.map(json.dumps)] * 3, st.binary(max_size=24) | high)


@settings(max_examples=200, deadline=None)
@given(
    command=st.sampled_from(sorted(FLAGS)),
    function=_json_or_file(FUNCTIONS),
    matrix=_json_or_file(MATRICES),
    value=VALID | st.text(max_size=10),
    n=st.integers(-2, 5),
    joined=st.booleans(),
)
def test_cli_fuzz_ends_in_json_or_structured_error(tmp_path_factory, command, function, matrix, value, n, joined):
    folder = tmp_path_factory.getbasetemp()
    drawn = {"function": function, "matrix": matrix, "value": value, "n": str(n)}
    argv = [command]
    for flag in FLAGS[command]:
        arg = drawn[flag]
        if isinstance(arg, bytes):
            path = folder / f"fuzz-{flag}.json"
            path.write_bytes(arg)
            arg = str(path)
        # "--flag=value" is never read as an option; "--flag value" is when
        # the value starts with "-", a usage error
        argv += [f"--{flag}={arg}"] if joined else [f"--{flag}", arg]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert json.loads(err.getvalue())["error"] in ("parse", "precondition"), argv
