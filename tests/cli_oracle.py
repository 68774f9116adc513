"""The argparse parser that ``equilef`` used, kept as an oracle for ``cli.parse_args``.

``dense_oracle.py`` is to the algebra what this is to the command line: the
old, general way, against which the fast path is compared.  ``outcome``
runs either parser on one argv and reports what a caller would see.
"""

import argparse
import contextlib
import io
from functools import cache


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


def outcome(parse, argv):
    """(exit code, parsed values, stdout, stderr) of parse(argv).

    The code is None when argv parsed, 0 after help and 2 after a refusal;
    argparse reports the last two by raising SystemExit.  The values are the
    namespace's attributes, or None.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = parse(list(argv))
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, vars(args), out.getvalue(), err.getvalue()


def oracle_outcome(argv):
    return outcome(build_parser().parse_args, argv)
