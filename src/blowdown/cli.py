"""Command-line interface.

Subcommands:
  verify    run scenario files through the verification pipeline
  expand    Hirzebruch-Jung expansion of n/m
  recognize test a chain for Wahl form
  chains    enumerate Wahl chains (atlas-style, delimited output)
  gram      Gram matrix of named curves in a scenario's final configuration

Exit codes: 0 success/pass, 1 verification failure or inconclusive result,
2 malformed input.

The text report width honours the optional BLOWDOWN_WIDTH environment
variable (an integer >= 1, default 72); there is no other environment
configuration.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .configuration import BlowupError, run_program
from .hjcf import hj_expand, wahl_recognize, wahl_texts
from .lattice import det_exact, gram, is_negative_definite
from .report import emit
from .scenario import ScenarioError, parse_scenario
from .verify import _build_surface, verify

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_BAD_INPUT = 2


def _cmd_verify(args) -> int:
    width = 72
    if args.format == "text":
        raw = os.environ.get("BLOWDOWN_WIDTH", "72")
        try:
            width = int(raw)
        except ValueError:
            width = 0  # rejected below with the other widths < 1
        if width < 1:
            print(f"error: BLOWDOWN_WIDTH must be an integer >= 1, got {raw!r}",
                  file=sys.stderr)
            return EXIT_BAD_INPUT
    worst = EXIT_PASS
    for path in args.files:
        try:
            scenario = parse_scenario(Path(path).read_text(encoding="utf-8"))
        except (OSError, ScenarioError) as err:
            print(f"{path}: {err}", file=sys.stderr)
            worst = EXIT_BAD_INPUT
            continue
        report = verify(scenario, strict=args.strict)
        if args.format == "text":
            sys.stdout.write(report.to_text(width=width))
        else:
            sys.stdout.write(emit(report, args.format))
        if report.status != "pass":
            worst = max(worst, EXIT_FAIL)
    return worst


def _cmd_expand(args) -> int:
    try:
        chain = hj_expand(args.n, args.m)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(",".join(str(b) for b in chain))
    return EXIT_PASS


def _parse_entries(text: str) -> list[int]:
    parts = text.replace(" ", "").split(",")
    if "" in parts:
        raise ValueError(f"empty entry in {text!r}")
    return [int(x) for x in parts]


def _cmd_recognize(args) -> int:
    try:
        entries = _parse_entries(args.chain)
        w = wahl_recognize(entries)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if w is None:
        print("not a Wahl chain")
        return EXIT_FAIL
    print(f"{w.p},{w.q}")
    return EXIT_PASS


def _cmd_chains(args) -> int:
    max_p, max_length = args.max_p, args.max_length
    for flag, value, least in (("--max-p", max_p, 2), ("--max-length", max_length, 1)):
        if value < least:
            print(f"error: {flag} must be >= {least}", file=sys.stderr)
            return EXIT_BAD_INPUT
    sys.stdout.write("p\tq\tlength\tchain\tboundary_order\n")
    sys.stdout.writelines(f"{p}\t{q}\t{length}\t{text}\t{p * p}\n"
                          for p, q, length, text in wahl_texts(max_p, max_length))
    return EXIT_PASS


def _cmd_gram(args) -> int:
    ids = [x.strip() for x in args.ids.split(",")]
    if "" in ids:
        print(f"error: empty curve id in {args.ids!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        text = Path(args.file).read_text(encoding="utf-8")
        scenario = parse_scenario(text)
    except (OSError, ScenarioError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        config = run_program(_build_surface(scenario), scenario.blowups)
    except (BlowupError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        g = gram(config, ids)
    except KeyError as err:
        print(f"error: {err.args[0]}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(g)
    print(f"det = {det_exact(g)}")
    print(f"negative_definite = {is_negative_definite(g)}")
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blowdown",
        description="Exact verifier for rational blow-down constructions")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="verify scenario files")
    p.add_argument("files", nargs="+", help="scenario files (.scn)")
    p.add_argument("--format", choices=("json", "text"), default="text")
    p.add_argument("--strict", action="store_true",
                   help="fail scenarios that omit expectation sections")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("expand", help="Hirzebruch-Jung expansion of n/m")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(func=_cmd_expand)

    p = sub.add_parser("recognize", help="recognize a Wahl chain")
    p.add_argument("chain", help="comma-separated entries, e.g. 2,2,9,2,2,2,2,4")
    p.set_defaults(func=_cmd_recognize)

    p = sub.add_parser("chains", help="enumerate Wahl chains")
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--max-p", type=int, default=20)
    p.set_defaults(func=_cmd_chains)

    p = sub.add_parser("gram", help="Gram matrix of curves in a scenario")
    p.add_argument("file", help="scenario file")
    p.add_argument("ids", help="comma-separated curve ids")
    p.set_defaults(func=_cmd_gram)

    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
