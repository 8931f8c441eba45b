"""Command-line interface.

    hsforge validate FILE [--json] [--cap-states N]
    hsforge analyze FILE [--json] [--words w1,w2] [--cap-states N]
    hsforge graph FILE --target {sub,hs} [--word W] [--dot-dir DIR]
                  [--cap-states N]
    hsforge zcheck CLASSES [--json]
    hsforge metric FILE1 FILE2 [--json]

Exit codes: 0 the input is consistent, 1 the input is invalid, 2 a fired
condition or another self-check failed its own verification (a soundness
bug worth a report), 3 an enumeration cap was hit so the answer is
unknown.  --cap-states is the one cap: it bounds every search, the product
automata, the block groups and F/N, which gives m and N's table.  The
HSFORGE_CAP environment variable overrides the default cap.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .dot import hs_dot, table_dot
from .files import load_partition
from .hsgraph import build_hs_graph
from .partition import rho, validate
from .perm import CapExceeded
from .schreier import DEFAULT_CAP
from .theorems import analyze
from .words import parse_word
from .zcover import InvalidPartition, erdos_checks, parse_zpartition

__all__ = ["main", "entrypoint", "dumps"]

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_UNSOUND = 2
EXIT_UNKNOWN = 3


class UsageError(Exception):
    """A problem with the invocation itself (bad environment value)."""


def _cap(args) -> int:
    base = None
    env = os.environ.get("HSFORGE_CAP")
    if env:
        try:
            base = int(env)
        except ValueError:
            base = 0
        if base < 1:
            raise UsageError(f"HSFORGE_CAP={env!r} is not a positive integer")
    return args.cap_states or base or DEFAULT_CAP


def dumps(value) -> str:
    """``json.dumps(value, indent=2, sort_keys=True)``, byte for byte, for
    dicts with str keys, lists, tuples, str, int, finite float, bool and
    None.

    The stdlib encodes with indentation only in pure Python, a generator
    per container; this writer appends every chunk to one list and joins it
    once.  A dict key that is not a str raises TypeError."""
    chunks: list[str] = []
    _write(value, "\n", chunks.append)
    return "".join(chunks)


def _write(value, newline: str, put) -> None:
    kind = type(value)
    if kind is str:
        put(encode_basestring_ascii(value))
    elif kind is dict:
        if not value:
            put("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            if type(key) is not str:
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            put(separator + encode_basestring_ascii(key) + ": ")
            _write(value[key], inner, put)
            separator = "," + inner
        put(newline + "}")
    elif kind is list or kind is tuple:
        if not value:
            put("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            put(separator)
            _write(item, inner, put)
            separator = "," + inner
        put(newline + "]")
    elif value is None:
        put("null")
    elif value is True:
        put("true")
    elif value is False:
        put("false")
    elif kind is int:
        put(int.__repr__(value))
    elif kind is float:
        put(float.__repr__(value))
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(payload: dict, as_json: bool, lines: list[str]) -> None:
    if as_json:
        print(dumps(payload))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    p = load_partition(args.file)
    report = validate(p, _cap(args))
    payload = {
        "valid": report.valid,
        "indices": list(p.indices),
        "states": report.state_count,
        "gap_witness": str(report.gap_witness) if report.gap_witness else None,
        "overlap_witness": (
            {"word": str(report.overlap_witness[0]),
             "blocks": [report.overlap_witness[1], report.overlap_witness[2]]}
            if report.overlap_witness else None),
    }
    lines = [f"valid: {report.valid}", f"indices: {list(p.indices)}"]
    if report.gap_witness is not None:
        lines.append(f"gap witness: {report.gap_witness}")
    if report.overlap_witness is not None:
        w, i, j = report.overlap_witness
        lines.append(f"overlap witness: {w} in blocks {i} and {j}")
    _emit(payload, args.json, lines)
    return EXIT_OK if report.valid else EXIT_INVALID


def cmd_analyze(args) -> int:
    p = load_partition(args.file)
    cap = _cap(args)
    words = None
    if args.words:
        words = [parse_word(p.rank, t.strip())
                 for t in args.words.split(",") if t.strip()]
    analysis = analyze(p, words, cap)
    payload = analysis.to_json()
    lines = [
        f"valid: {analysis.valid}",
        f"indices: {analysis.indices}",
        f"multiplicity: {analysis.repeated}",
        f"m: {analysis.m}",
    ]
    for report in analysis.reports:
        suffix = ""
        if report.applies:
            suffix = f" (verified: {report.verified})"
        lines.append(f"{report.name}: {report.status}{suffix}")
    for check in analysis.loop_checks:
        status = "ok" if not check["problems"] else "; ".join(check["problems"])
        lines.append(
            f"loops[{check['word']}]: {check['loop_count']} of length "
            f"{check['order_mod_n']} -> {status}")
    if analysis.soundness_problems:
        lines.append("soundness problems:")
        lines.extend(f"  {q}" for q in analysis.soundness_problems)
    _emit(payload, args.json, lines)
    return analysis.exit_code


def cmd_graph(args) -> int:
    p = load_partition(args.file)
    cap = _cap(args)
    outputs: list[tuple[str, str]] = []
    if args.target == "sub":
        seen = set()
        for i, spec in enumerate(p.specs):
            if spec.table in seen:
                continue
            seen.add(spec.table)
            outputs.append(
                (f"block_{i}.dot", table_dot(spec.table, name=f"block_{i}")))
    else:
        word_text = args.word or "1"
        w = parse_word(p.rank, word_text)
        graph = build_hs_graph(p, w, cap)
        outputs.append((f"hs_{word_text}.dot", hs_dot(graph)))
    if args.dot_dir:
        directory = Path(args.dot_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for name, content in outputs:
            (directory / name).write_text(content, encoding="utf-8")
            print(f"wrote {directory / name}")
    else:
        for _, content in outputs:
            print(content, end="")
    return EXIT_OK


def cmd_zcheck(args) -> int:
    z = parse_zpartition(args.classes)
    try:
        report = erdos_checks(z)
    except InvalidPartition as err:
        _emit({"valid": False, "witness": err.witness}, args.json,
              ["valid: False", f"witness: {err.witness}"])
        return EXIT_INVALID
    payload: dict = {"valid": True, "witness": None, "o_max": report.o_max}
    lines = ["valid: True", f"o_max: {report.o_max} (x{report.o_max_count})"]
    payload["checks"] = {
        "not_pairwise_coprime": report.not_pairwise_coprime,
        "o_max_repeats": report.o_max_repeats,
        "every_modulus_divides_another": report.every_modulus_divides_another,
        "non_divisors_repeat": report.non_divisors_repeat,
    }
    lines.extend(f"{key}: {value}" for key, value in payload["checks"].items())
    _emit(payload, args.json, lines)
    return EXIT_OK


def cmd_metric(args) -> int:
    distance = rho(load_partition(args.file), load_partition(args.file2))
    _emit({"rho": str(distance)}, args.json, [f"rho = {distance}"])
    return EXIT_OK


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


class _Parser(argparse.ArgumentParser):
    """Usage errors exit with the invalid-input code, not argparse's 2.

    Exit code 2 is reserved for a checker that fired but failed its own
    verification, so a mistyped flag must not be able to produce it.
    """

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INVALID)


@cache  # built once per process; parse_args leaves the parser unchanged
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hsforge",
        description="validate and analyze coset partitions of free groups")
    sub = parser.add_subparsers(dest="command", required=True)

    def cap_flags(cmd):
        cmd.add_argument("--cap-states", type=_positive_int, default=None,
                         help="max states of any one search")

    validate_cmd = sub.add_parser("validate", help="check the partition property")
    validate_cmd.add_argument("file")
    validate_cmd.add_argument("--json", action="store_true", help="JSON output")
    cap_flags(validate_cmd)
    validate_cmd.set_defaults(run=cmd_validate)

    analyze_cmd = sub.add_parser("analyze", help="run all condition checkers")
    analyze_cmd.add_argument("file")
    analyze_cmd.add_argument("--words", default=None,
                             help="comma-separated words for loop checks")
    analyze_cmd.add_argument("--json", action="store_true", help="JSON output")
    cap_flags(analyze_cmd)
    analyze_cmd.set_defaults(run=cmd_analyze)

    graph_cmd = sub.add_parser("graph", help="emit DOT drawings")
    graph_cmd.add_argument("file")
    graph_cmd.add_argument("--target", choices=("sub", "hs"), required=True)
    graph_cmd.add_argument("--word", default=None, help="word for the hs target")
    graph_cmd.add_argument("--dot-dir", default=None,
                           help="write files here instead of stdout")
    cap_flags(graph_cmd)
    graph_cmd.set_defaults(run=cmd_graph)

    zcheck_cmd = sub.add_parser("zcheck", help="check residue classes, e.g. 2:0,4:1,4:3")
    zcheck_cmd.add_argument("classes")
    zcheck_cmd.add_argument("--json", action="store_true", help="JSON output")
    zcheck_cmd.set_defaults(run=cmd_zcheck)

    metric_cmd = sub.add_parser("metric", help="distance between two partitions")
    metric_cmd.add_argument("file")
    metric_cmd.add_argument("file2")
    metric_cmd.add_argument("--json", action="store_true", help="JSON output")
    metric_cmd.set_defaults(run=cmd_metric)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; every library error maps to its exit code here:
    a cap hit is unknown (3), a failed self-check is unsound (2), bad input
    or a file error is invalid (1)."""
    args = _parser().parse_args(argv)
    try:
        return args.run(args)
    except CapExceeded as err:
        print(f"unknown: {err}", file=sys.stderr)
        return EXIT_UNKNOWN
    except AssertionError as err:  # the library raises it only in self-checks
        print(f"unsound: {err}", file=sys.stderr)
        return EXIT_UNSOUND
    except (UsageError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
