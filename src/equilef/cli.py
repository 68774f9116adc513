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
which is a bug, not a verdict; 4 means memory or the recursion limit ran
out, reported on one line.  EQUILEF_MAX_GROUP_ORDER caps group sizes; a
file or builtin over the cap is an input error.

Each subcommand builds one canonical report dict; --format json writes it
as canonical JSON, --format text renders the same dict as text.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache, partial

from .engine import Scenario, full_verification
from .groups import max_group_order
from .scenario_io import (
    ScenarioError,
    canonical_json,
    chartab_dict,
    chartab_text,
    check_primes,
    parse_scenario,
    strata_dict,
    strata_text,
    summary_to_dict,
    summary_to_text,
)
from .scenarios import builtin_names, builtin_scenario


def _load_scenario(target: str, primes) -> Scenario:
    check_primes(primes or [], lambda i: "--prime")
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
        except ValueError as exc:
            raise ScenarioError(f"builtin {target!r}: {exc}", "$") from None
    if primes:
        scenario.primes = tuple(primes)
    return scenario


def _summary_dict(target: str, args) -> tuple[dict, Scenario]:
    scenario = _load_scenario(target, args.prime)
    summary = full_verification(scenario)
    return summary_to_dict(summary, scenario, include_timings=args.timings), scenario


def _corpus_text(data: dict) -> str:
    lines = [
        f"{block['scenario']:32s} {'pass' if block['passed'] else 'FAIL'}"
        for block in data["scenarios"]
    ]
    passed = sum(block["passed"] for block in data["scenarios"])
    lines.append(f"{passed}/{len(data['scenarios'])} scenarios passed")
    return "\n".join(lines) + "\n"


def _run(args) -> int:
    """Build the subcommand's report dict once, then write it as JSON or text."""
    if args.command == "verify":
        data, scenario = _summary_dict(args.scenario, args)
        render = partial(summary_to_text, scenario=scenario)
    elif args.command == "chartab":
        data = chartab_dict(_load_scenario(args.scenario, None))
        render = chartab_text
    elif args.command == "strata":
        data = strata_dict(_load_scenario(args.scenario, None))
        render = strata_text
    else:
        blocks = [_summary_dict(name, args)[0] for name in builtin_names()]
        data = {"scenarios": blocks, "passed": all(b["passed"] for b in blocks)}
        render = _corpus_text
    text = canonical_json(data) if args.format == "json" else render(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0 if data.get("passed", True) else 1


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


@cache
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

    p_chartab = subs.add_parser(
        "chartab", help="character table of a scenario's group")
    p_chartab.add_argument("scenario")
    _add_common(p_chartab, with_primes=False)

    p_strata = subs.add_parser(
        "strata", help="fixed sets and strata of a scenario")
    p_strata.add_argument("scenario")
    _add_common(p_strata, with_primes=False)

    p_corpus = subs.add_parser("corpus", help="verify every builtin scenario")
    _add_common(p_corpus, with_primes=True)

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
        return _run(args)
    except ScenarioError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # IntegralityError included
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:
        print(f"resource error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
