"""``cli.parse_args`` against the argparse parser it replaced (``cli_oracle.py``).

On every argv, the two agree on the outcome: the same parsed values, help
(exit 0), or a refusal (exit 2).  ``cli.main`` reports a refusal as a
``usage:`` line and an ``error:`` line on standard error, with nothing on
standard output, and help as the static help text; neither raises
``SystemExit``.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

import equilef.cli as cli
from cli_oracle import oracle_outcome

OPTIONS = ("--format", "--out", "--prime", "--timings", "--help")
VALUES = ("json", "text", "xml", "3", "-3", "x")
ALPHABET = (
    "verify", "chartab", "strata", "corpus", "point-trivial", "dir/scenario.json",
    *OPTIONS,
    *(f"{option}={value}" for option in OPTIONS for value in VALUES),
    "--form", "--o", "--pr", "--ti", "--he", "--form=json", "--pr=3", "--o=x",
    *VALUES,
    "--", "-h", "-x", "--bogus", "",
)
# half the argvs are a command, a scenario and options with their values, so that many parse
PIECES = st.one_of(
    st.sampled_from(ALPHABET).map(lambda token: [token]),
    st.tuples(st.sampled_from(("--format", "--form", "--out", "--o", "--prime", "--pr")),
              st.sampled_from(VALUES)).map(list),
    st.sampled_from((["--timings"], ["--", "x"], ["--format=json"], ["--prime=3"], ["--ti"])),
)
ARGVS = st.one_of(
    st.lists(st.sampled_from(ALPHABET), max_size=6),
    st.tuples(st.sampled_from(ALPHABET[:4]), st.lists(PIECES, max_size=2),
              st.sampled_from(ALPHABET[4:6]), st.lists(PIECES, max_size=2)).map(
        lambda d: [d[0], *sum(d[1], []), d[2], *sum(d[3], [])][:6]),
)


def _parsed(argv):
    """vars of cli.parse_args(argv); 0 after help, 2 after a refusal."""
    try:
        args = cli.parse_args(list(argv))
    except cli.UsageError:
        return 2
    return 0 if args is None else vars(args)


def _main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _agree(argv):
    code, values, _, oracle_err = oracle_outcome(argv)
    assert _parsed(argv) == (values if code is None else code), argv
    if code is None:
        return
    # help and refusals never start a command, so main is cheap here
    main_code, out, err = _main(argv)
    assert main_code == code, argv
    if code == 0:
        assert (out, err) == (f"{cli.USAGE}\n{cli.__doc__}", "")
    else:
        assert oracle_err.startswith("usage: ")
        usage, error = err.splitlines()
        assert out == "" and usage.startswith("usage: equilef ") and error.startswith(
            "equilef: error: "), (argv, err)


@settings(max_examples=400, derandomize=True, deadline=None)
@given(ARGVS)
def test_the_parser_agrees_with_the_argparse_oracle(argv):
    _agree(argv)


@pytest.mark.parametrize("argv, values", [
    # options before or after the positional
    (["verify", "--format", "json", "x"], {"scenario": "x", "format": "json"}),
    (["verify", "x", "--out", "r.json", "--timings"],
     {"scenario": "x", "out": "r.json", "timings": True}),
    # --opt=value and unique prefixes
    (["chartab", "x", "--format=json", "--o=r"], {"scenario": "x", "format": "json", "out": "r"}),
    (["verify", "x", "--form", "json", "--pr", "7", "--ti"],
     {"scenario": "x", "format": "json", "prime": [7], "timings": True}),
    # -- ends the options
    (["strata", "--", "--format"], {"scenario": "--format"}),
    (["verify", "x", "--", "--format", "json"], None),
    # a negative value is a value, which check_primes then refuses
    (["verify", "x", "--prime", "-3"], {"scenario": "x", "prime": [-3]}),
    # --prime appends; for the other options the last one wins
    (["corpus", "--prime", "3", "--format", "json", "--prime=5", "--format", "text"],
     {"prime": [3, 5], "format": "text"}),
    (["verify", "x", "--out", "a", "--out", "b"], {"scenario": "x", "out": "b"}),
    # refused: a prefix of two options, an option of another command, a flag's value
    (["verify", "x", "--=json"], None),
    (["strata", "x", "--prime", "3"], None),
    (["verify", "x", "--timings=yes"], None),
])
def test_the_forms_argparse_accepted_parse_to_its_values(argv, values):
    _agree(argv)
    if values is None:
        assert _parsed(argv) == 2
        return
    defaults = {"command": argv[0], "format": "text", "out": None}
    if argv[0] in ("verify", "corpus"):
        defaults.update(prime=None, timings=False)
    assert _parsed(argv) == dict(defaults, **values)
