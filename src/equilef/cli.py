"""Command-line interface.

Subcommands:
  verify   run the full verification suite on one scenario
  chartab  print the character table and rational irreducibles of its group
  strata   list fixed sets and exact strata per subgroup class
  corpus   run every builtin scenario

Scenarios are given as a path to a JSON file or the name of a builtin.
Exit code 0 means every verdict passed; 1 means a verification failed;
2 means the input was invalid; 3 means an internal invariant broke (d o d = 0,
Euler-Poincare, class coordinates, integrality, the Hopf trace against the
Lefschetz number, the rank of a coboundary over Z against its rank over Q),
which is a bug, not a verdict.  EQUILEF_MAX_GROUP_ORDER caps group sizes.
"""

from __future__ import annotations

import argparse
import os
import sys

from .engine import Scenario, full_verification
from .groups import max_group_order
from .numtheory import is_prime
from .scenario_io import (
    ScenarioError,
    canonical_json,
    chartab_dict,
    chartab_text,
    parse_scenario,
    strata_dict,
    strata_text,
    summary_to_dict,
    summary_to_text,
)
from .scenarios import builtin_names, builtin_scenario


def _load_scenario(target: str, primes) -> Scenario:
    for p in primes or ():
        if not is_prime(p):
            raise ScenarioError(f"{p} is not a prime", "--prime")
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as handle:
            try:
                text = handle.read()
            except UnicodeDecodeError as exc:
                raise ScenarioError(f"not valid UTF-8: {exc}", "$") from None
        scenario = parse_scenario(text)
    else:
        try:
            scenario = builtin_scenario(target)
        except KeyError:
            raise ScenarioError(
                f"{target!r} is neither a file nor a builtin scenario "
                f"(builtins: {', '.join(builtin_names())})",
                "$",
            ) from None
    if primes:
        scenario.primes = tuple(primes)
    return scenario


def _emit(text: str, out_path: str | None):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_verify(args) -> int:
    scenario = _load_scenario(args.scenario, args.prime)
    summary = full_verification(scenario)
    if args.format == "json":
        text = canonical_json(
            summary_to_dict(summary, scenario, include_timings=args.timings)
        )
    else:
        text = summary_to_text(summary, scenario)
    _emit(text, args.out)
    return 0 if summary.passed else 1


def _cmd_chartab(args) -> int:
    scenario = _load_scenario(args.scenario, None)
    if args.format == "json":
        text = canonical_json(chartab_dict(scenario))
    else:
        text = chartab_text(scenario)
    _emit(text, args.out)
    return 0


def _cmd_strata(args) -> int:
    scenario = _load_scenario(args.scenario, None)
    if args.format == "json":
        text = canonical_json(strata_dict(scenario))
    else:
        text = strata_text(scenario)
    _emit(text, args.out)
    return 0


def _cmd_corpus(args) -> int:
    failures = 0
    blocks = []
    for name in builtin_names():
        scenario = _load_scenario(name, args.prime)
        summary = full_verification(scenario)
        if not summary.passed:
            failures += 1
        if args.format == "json":
            blocks.append(
                summary_to_dict(summary, scenario, include_timings=args.timings)
            )
        else:
            blocks.append(
                f"{scenario.name:32s} {'pass' if summary.passed else 'FAIL'}"
            )
    if args.format == "json":
        text = canonical_json({"scenarios": blocks, "passed": failures == 0})
    else:
        tail = f"{len(blocks) - failures}/{len(blocks)} scenarios passed"
        text = "\n".join(blocks) + "\n" + tail + "\n"
    _emit(text, args.out)
    return 0 if failures == 0 else 1


def _add_common(sub, with_primes: bool):
    sub.add_argument("--format", choices=("json", "text"), default="text",
                     help="output format (default: text)")
    sub.add_argument("--out", metavar="PATH", default=None,
                     help="write output to a file instead of stdout")
    if with_primes:
        sub.add_argument("--prime", type=int, action="append", default=None,
                         metavar="P",
                         help="prime for the mod-p comparison (repeatable)")
        sub.add_argument("--timings", action="store_true",
                         help="include timing data in JSON output")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="equilef",
        description="Exact verification of equivariant fixed-point identities "
                    "on finite simplicial complexes.",
        epilog="EQUILEF_MAX_GROUP_ORDER limits the size of constructed groups.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_verify = subs.add_parser(
        "verify", help="verify one scenario (file path or builtin name)")
    p_verify.add_argument("scenario")
    _add_common(p_verify, with_primes=True)
    p_verify.set_defaults(func=_cmd_verify)

    p_chartab = subs.add_parser(
        "chartab", help="character table of a scenario's group")
    p_chartab.add_argument("scenario")
    _add_common(p_chartab, with_primes=False)
    p_chartab.set_defaults(func=_cmd_chartab)

    p_strata = subs.add_parser(
        "strata", help="fixed sets and strata of a scenario")
    p_strata.add_argument("scenario")
    _add_common(p_strata, with_primes=False)
    p_strata.set_defaults(func=_cmd_strata)

    p_corpus = subs.add_parser("corpus", help="verify every builtin scenario")
    _add_common(p_corpus, with_primes=True)
    p_corpus.set_defaults(func=_cmd_corpus)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_group_order()
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # IntegralityError included
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
