"""Batch command-line surface.

Commands:
  analyze        ramification profile of a function
  decide         solvability of f(X) = A
  witness        decide, then construct an exact witness when possible
  classify       E_a / S_a membership and Segre partition of (A, value)
  evaluate       exact f(A) for polynomial f
  describe-range theorem case + uncoverable partitions for a dimension
  selftest       run the built-in exact property suites

Exit codes: 0 success, 1 usage/parse error, 2 mathematical precondition
failure, 3 internal invariant violation. In json mode errors are structured
JSON on stderr.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import InternalInvariantError, ParseError, PreconditionError, WitnessUnavailable
from .functions import EntireFunction, validate
from .matrices import MatrixQi, apply_poly, segre_at
from .ranges import build_witness, decide_range, describe_range
from .scalars import parse_scalar, render_scalar
from .selftest import run_selftest

__all__ = ["main"]


def _load_json_arg(raw: str, what: str):
    """Accept inline JSON, a file path, or "-" for stdin."""
    try:
        if raw == "-":
            text = sys.stdin.read()
        elif raw.lstrip().startswith(("{", "[")):
            text = raw
        else:
            with open(raw, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, ValueError) as e:  # ValueError: not UTF-8, or a NUL in the path
        source = "from stdin" if raw == "-" else f"file {raw!r}"
        raise ParseError(f"cannot read {what} {source}: {e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"malformed {what} JSON at position {e.pos}: {e.msg}") from e
    except RecursionError as e:
        raise ParseError(f"{what} JSON is nested too deeply") from e


def _load_matrix(raw: str) -> MatrixQi:
    obj = _load_json_arg(raw, "matrix")
    if isinstance(obj, list):  # bare rows shorthand
        obj = {"n": len(obj), "rows": obj}
    return MatrixQi.parse(obj)


def _load_function(raw: str) -> EntireFunction:
    return EntireFunction.parse(_load_json_arg(raw, "function"))


def _profile_json(f: EntireFunction):
    profile = validate(f)
    return {
        "case": profile.theorem_case.value,
        "omitted_values": [render_scalar(v) for v in profile.omitted_values],
        "trv_entries": [
            {
                "value": render_scalar(e.value),
                "multiplicities": list(e.multiplicity_multiset),
                "infinitely_many_preimages": e.has_infinitely_many_preimages,
            }
            for e in profile.trv_entries
        ],
    }


def _cmd_analyze(args):
    return _profile_json(_load_function(args.function))


def _cmd_decide(args):
    return decide_range(_load_function(args.function), _load_matrix(args.matrix)).render()


def _cmd_witness(args):
    f = _load_function(args.function)
    a = _load_matrix(args.matrix)
    verdict = decide_range(f, a)
    out = verdict.render()
    if not verdict.solvable:
        out["witness_status"] = "unsolvable"
        return out
    try:
        out["witness"] = build_witness(f, a, verdict).render()
        out["witness_status"] = "exact"
    except WitnessUnavailable as e:
        out["witness_status"] = "unavailable_over_Qi"
        out["witness_unavailable"] = {"message": str(e), **e.detail}
    except PreconditionError as e:
        out["witness_status"] = "unavailable"
        out["witness_unavailable"] = {"message": str(e)}
    return out


def _cmd_classify(args):
    a = _load_matrix(args.matrix)
    value = parse_scalar(args.value)
    partition = segre_at(a, value)
    return {
        "in_E": not partition.is_empty(),
        "in_S": partition.has_nontrivial_block(),
        "segre_partition": list(partition.parts),
    }


def _cmd_evaluate(args):
    f = _load_function(args.function)
    if f.kind != "polynomial":
        raise PreconditionError("evaluate requires a polynomial function")
    return {"result": apply_poly(f.poly, _load_matrix(args.matrix)).render()}


def _cmd_describe_range(args):
    return describe_range(_load_function(args.function), args.n).render()


def _cmd_selftest(args):
    return run_selftest(seed=args.seed)


def _render_text(obj, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}{k}:")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(obj, list):
        for v in obj:
            if isinstance(v, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_text(v, indent + 1))
            else:
                lines.append(f"{pad}- {v}")
    else:
        lines.append(f"{pad}{obj}")
    return lines


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ParseError (exit 1, structured); subparsers inherit it."""

    def error(self, message):
        raise ParseError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="matrange",
        description="Exact solvability analysis of f(X)=A for entire functions of matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, needs):
        p = sub.add_parser(name)
        if "function" in needs:
            p.add_argument("--function", required=True, help="path or inline function JSON")
        if "matrix" in needs:
            p.add_argument("--matrix", required=True, help='path, inline matrix JSON, or "-" for stdin')
        if "value" in needs:
            p.add_argument("--value", required=True, help="scalar in Q(i) text format")
        if "n" in needs:
            p.add_argument("--n", type=int, required=True, help="matrix dimension")
        if "seed" in needs:
            p.add_argument("--seed", type=int, default=0)
        p.add_argument("--output", choices=("json", "text"), default="json")
        p.set_defaults(handler=fn)
        return p

    add("analyze", _cmd_analyze, ["function"])
    add("decide", _cmd_decide, ["function", "matrix"])
    add("witness", _cmd_witness, ["function", "matrix"])
    add("classify", _cmd_classify, ["matrix", "value"])
    add("evaluate", _cmd_evaluate, ["function", "matrix"])
    add("describe-range", _cmd_describe_range, ["function", "n"])
    add("selftest", _cmd_selftest, ["seed"])
    return parser


def _emit_error(args, code, kind, message):
    payload = {"error": kind, "message": message}
    if getattr(args, "output", "json") == "json":
        print(json.dumps(payload), file=sys.stderr)
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = None
    try:
        args = build_parser().parse_args(argv)
        result = args.handler(args)
    except SystemExit as e:  # --help
        return 1 if e.code not in (0, None) else 0
    except ParseError as e:
        return _emit_error(args, 1, "parse", str(e))
    except PreconditionError as e:
        return _emit_error(args, 2, "precondition", str(e))
    except InternalInvariantError as e:
        return _emit_error(args, 3, "internal", str(e))
    if args.output == "json":
        print(json.dumps(result, sort_keys=False))
    else:
        print("\n".join(_render_text(result)))
    if args.command == "selftest" and not result["passed"]:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
