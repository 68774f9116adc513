"""equilef: exact verification of equivariant fixed-point identities.

  verify SCENARIO   run the full verification suite on one scenario
  chartab SCENARIO  print the character table and rational irreducibles of its group
  strata SCENARIO   list fixed sets and exact strata per subgroup class
  corpus            run every builtin scenario

SCENARIO is a JSON file or a builtin's name.  Options come before or after it,
as --opt value, --opt=value or a unique prefix of --opt; -- ends them:
  -h, --help            print this text
  --format {json,text}  write the report as canonical JSON or as text (default)
  --out PATH            write it to PATH, not to standard output
  --prime P             add P to the mod-p primes (repeatable; verify, corpus)
  --timings             add timing data to JSON output (verify, corpus)

Exit codes: 0 every verdict passed; 1 a verification failed; 2 bad input or
command line; 3 a broken internal invariant (d o d = 0, Euler-Poincare, class
coordinates, integrality, the Hopf trace against the cohomology trace, the rank
of a coboundary over Z against over Q), a bug, not a verdict; 4 memory or the
recursion limit ran out.  EQUILEF_MAX_GROUP_ORDER caps group sizes; a scenario
over the cap is bad input.
"""

from __future__ import annotations

import os
import re
import sys
from functools import partial
from types import SimpleNamespace

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


USAGE = "usage: equilef {verify,chartab,strata,corpus} [SCENARIO] [options]\n"


class UsageError(ValueError):
    """A command line outside the grammar: exit 2 under the usage line."""


def _option(token: str, options) -> tuple | None:
    """None for a positional token, else (option or None if unknown, explicit value or None)."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    if token[1] != "-" and name != "-h":  # -h glued to more short flags, or no option
        name, eq, value = token[:2], "=", token[2:]
    matches = [o for o in options if o.startswith(name)]
    if len(matches) > 1:
        raise UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
    if matches:
        return matches[0], value if eq else None
    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (None, None)


def _flag(option: str, explicit) -> bool:
    """True for -h/--help, False for --timings; a flag's value is refused, save -hh."""
    if explicit is not None and (option != "-h" or not explicit or explicit.strip("h")):
        raise UsageError(f"argument {option}: ignored explicit argument {explicit!r}")
    return option != "--timings"


def parse_args(argv: list[str]) -> SimpleNamespace | None:
    """The values of an ``equilef`` command line, or None for -h/--help."""
    top = [None if t == "--" else _option(t, ("-h", "--help")) for t in argv] + [None]
    i = top.index(None)  # the command; before it, only -h/--help is known
    if any(hit[0] and _flag(*hit) for hit in top[:i]):
        return None
    if i == len(argv) or argv[i] not in ("verify", "chartab", "strata", "corpus"):
        raise UsageError(f"invalid command {argv[i]!r}" if argv[i:] else "a command is required")
    command, rest, extras = argv[i], argv[i + 1:], [t for t, h in zip(argv, top[:i]) if not h[0]]
    primes = {"prime": None, "timings": False} if command in ("verify", "corpus") else {}
    values = {"command": command, "format": "text", "out": None, **primes}
    options = ["-h", "--help"] + [f"--{key}" for key in values if key != "command"]
    end = rest.index("--") if "--" in rest else len(rest)
    # "--" at the first --, after which every token is positional, and past the end
    kinds = [_option(t, options) for t in rest[:end]] + ["--"] + [None] * len(rest[end + 1:])
    kinds.append("--")
    pending, skip = command != "corpus", None
    for j, (kind, token) in enumerate(zip(kinds, rest)):
        if j == skip or kind == "--" and pending:
            continue  # a value taken, or a -- before the scenario, which is dropped
        if kind is None and pending:
            values["scenario"], pending = token, False
            skip = j + 1 if kinds[j + 1] == "--" else skip  # and a -- after it
        elif kind in (None, "--") or kind[0] is None:
            extras.append(token)
        elif kind[0] in ("-h", "--help", "--timings"):
            if _flag(*kind):
                return None
            values["timings"] = True
        else:
            (option, value), key = kind, kind[0][2:]
            if value is None:
                if kinds[j + 1] is not None:
                    raise UsageError(f"argument {option}: expected one argument")
                skip, value = j + 1, rest[j + 1]
            try:  # a -- given as the value is dropped, leaving no value: []
                value = [] if value == "--" else int(value) if key == "prime" else value
            except ValueError:
                raise UsageError(f"argument --prime: invalid int value: {value!r}") from None
            if key == "format" and value not in ("json", "text", []):
                raise UsageError(f"argument --format: invalid choice: {value!r}")
            values[key] = (values[key] or []) + [value] if key == "prime" else value
    if pending or extras:
        raise UsageError("the scenario is required" if pending else
                         f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(f"{USAGE}equilef: error: {exc}", file=sys.stderr)
        return 2
    if args is None:
        sys.stdout.write(f"{USAGE}\n{__doc__ or ''}")  # python -OO strips docstrings
        return 0
    try:
        max_group_order()
    except ValueError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    try:
        return _run(args)
    except (ScenarioError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except ArithmeticError as exc:  # IntegralityError included
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except (MemoryError, RecursionError) as exc:  # an allocation failure has no message
        print("resource error:", ": ".join(filter(None, (type(exc).__name__, str(exc)))),
              file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
