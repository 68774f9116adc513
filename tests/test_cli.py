"""The command line front end: exit codes, formats, output files."""

import importlib
import json
import math
import os
import subprocess
import sys
import tempfile

import pytest

import equilef.cli as cli
from equilef.characters import IntegralityError
from equilef.cohomology import CellCochains
from equilef.engine import full_verification
from equilef.scenarios import builtin_names, builtin_scenario

RUN = [sys.executable, "-c", "from equilef.cli import main; raise SystemExit(main())"]

VALID_FILE = {
    "schema_version": 1,
    "name": "segment-swap",
    "group": {"degree": 2, "generators": [[1, 0]]},
    "complex": {
        "vertices": 2,
        "maximal_simplices": [[0, 1]],
        "action": [[1, 0]],
    },
    "lattice": {"rank": 1, "action": {"0": [[1]]}},
}


# the same front end in a process whose address space is capped at 1 GiB, as
# perfbench/ladder.py caps its rungs: an allocation sized by a declared count
# fails fast instead of filling the host's memory
CAPPED_RUN = [sys.executable, "-c", (
    "import resource; cap = 1 << 30; resource.setrlimit(resource.RLIMIT_AS, (cap, cap)); "
    "from equilef.cli import main; raise SystemExit(main())")]


def run_cli(*args, **kwargs):
    return subprocess.run(
        RUN + list(args), capture_output=True, text=True, **kwargs
    )


def test_verify_builtin_text():
    result = run_cli("verify", "square-reflection")
    assert result.returncode == 0, result.stderr
    assert "square-reflection" in result.stdout
    assert "pass" in result.stdout


def test_verify_builtin_json():
    result = run_cli("verify", "point-c2", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["scenario"] == "point-c2"
    assert payload["passed"] is True
    assert payload["characters"]["lhs"] == [
        {"num": "1", "den": "1"},
        {"num": "1", "den": "1"},
    ]


def test_verify_unknown_name_is_an_input_error():
    result = run_cli("verify", "no-such-scenario")
    assert result.returncode == 2
    assert "no-such-scenario" in result.stderr
    # the error names at least one real scenario to point the user somewhere
    assert "square-reflection" in result.stderr


def test_verify_scenario_file(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(VALID_FILE))
    result = run_cli("verify", str(path))
    assert result.returncode == 0, result.stderr
    assert "segment-swap" in result.stdout


def test_malformed_file_is_an_input_error(tmp_path):
    path = tmp_path / "broken.json"
    bad = dict(VALID_FILE, lattice={"rank": 1, "action": {"0": [[2]]}})
    path.write_text(json.dumps(bad))
    result = run_cli("verify", str(path))
    assert result.returncode == 2
    assert "$.lattice.action[0]" in result.stderr


def test_deeply_nested_file_is_an_input_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    result = run_cli("verify", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error: $: JSON is nested too deeply")
    assert "Traceback" not in result.stderr


def test_overlong_integer_is_an_input_error(tmp_path):
    path = tmp_path / "long.json"
    path.write_text(json.dumps(VALID_FILE).replace('"rank": 1', '"rank": ' + "1" * 5000))
    result = run_cli("verify", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error: $: not valid JSON")
    assert "Traceback" not in result.stderr


def test_non_utf8_file_is_an_input_error(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b"\xff\xfe{}")
    result = run_cli("verify", str(path))
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error: $: not valid UTF-8")
    assert "Traceback" not in result.stderr


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "report.json"
    result = run_cli("verify", "point-trivial", "--format", "json", "--out", str(out))
    assert result.returncode == 0, result.stderr
    payload = json.loads(out.read_text())
    assert payload["scenario"] == "point-trivial"


@pytest.mark.parametrize("argv", [
    ["verify", "point-c2", "--format", "json"], ["verify", "octahedron-klein4"],
    ["chartab", "point-c2", "--format", "json"], ["strata", "octahedron-klein4"],
    ["corpus"],
])
def test_a_report_over_a_longer_file_leaves_exactly_its_bytes(tmp_path, argv):
    # --out rewrites in place: the old tail is trimmed and the file stays the same file
    fresh, old = tmp_path / "fresh", tmp_path / "old"
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    old.write_bytes(b"\xff" * (3 * fresh.stat().st_size + 7))
    inode = old.stat().st_ino
    assert cli.main([*argv, "--out", str(old)]) == 0
    assert old.read_bytes() == fresh.read_bytes()
    assert old.stat().st_ino == inode


def test_a_write_that_fails_part_way_leaves_no_old_tail(tmp_path, monkeypatch, capsys):
    # the disk fills after the first 10 bytes: the file holds those and nothing of the old report
    argv = ["verify", "point-c2", "--format", "json", "--out"]
    fresh, out = tmp_path / "fresh", tmp_path / "report.json"
    assert cli.main([*argv, str(fresh)]) == 0
    out.write_bytes(b"\xff" * 100000)
    real_write, calls = os.write, []

    def write(fd, data):
        calls.append(len(data))
        if len(calls) > 1:
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:10])

    monkeypatch.setattr(os, "write", write)
    assert cli.main([*argv, str(out)]) == 2
    monkeypatch.undo()
    assert capsys.readouterr().err.startswith("input error: ")
    assert out.read_bytes() == fresh.read_bytes()[:10]


def test_out_to_dev_null_exits_0(capsys):
    # /dev/null is seekable, but truncating it fails: a device is not trimmed
    assert cli.main(["verify", "point-c2", "--format", "json", "--out", os.devnull]) == 0
    assert capsys.readouterr() == ("", "")


def test_out_to_dev_stdout_on_a_pipe_delivers_the_whole_report():
    piped = run_cli("verify", "octahedron-klein4", "--format", "json", "--out", "/dev/stdout")
    direct = run_cli("verify", "octahedron-klein4", "--format", "json")
    assert piped.returncode == direct.returncode == 0, piped.stderr
    assert piped.stdout == direct.stdout
    assert json.loads(piped.stdout)["scenario"] == "octahedron-klein4"


def test_a_read_only_report_is_an_input_error_and_keeps_its_contents():
    # root writes through permission bits, so as root the command drops to an
    # unprivileged user after its imports; the directory lets that user look up the file
    drop = "import os; os.setgid(65534); os.setuid(65534); " if os.geteuid() == 0 else ""
    with tempfile.TemporaryDirectory() as tmp:
        os.chmod(tmp, 0o755)
        path = os.path.join(tmp, "report.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("the old report\n")
        os.chmod(path, 0o444)
        result = subprocess.run(
            [sys.executable, "-c", f"from equilef.cli import main; {drop}raise SystemExit(main())",
             "verify", "point-c2", "--out", path], capture_output=True, text=True)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("input error: ") and "Permission denied" in result.stderr
        assert result.stdout == ""
        with open(path, encoding="utf-8") as handle:
            assert handle.read() == "the old report\n"


def test_a_rewritten_report_keeps_its_permission_bits(tmp_path):
    out = tmp_path / "report.json"
    out.write_text("x" * 100000)
    out.chmod(0o640)
    assert cli.main(["verify", "point-c2", "--format", "json", "--out", str(out)]) == 0
    assert out.stat().st_mode & 0o7777 == 0o640
    assert json.loads(out.read_text())["scenario"] == "point-c2"


def test_prime_override():
    result = run_cli(
        "verify", "projective-plane", "--format", "json", "--prime", "7",
        "--prime", "11",
    )
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    primes = [row["prime"] for row in payload["verdicts"]["modp"]]
    assert primes == [7, 11]


def test_non_prime_flag_is_an_input_error(capsys):
    # --prime 1 once printed a false failed identity; --prime 4 meaningless rows
    for p in ("1", "4"):
        assert cli.main(["verify", "torus-involution", "--prime", p]) == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: --prime:"), err
        assert f"{p} is not a prime" in err


def test_a_repeated_prime_flag_is_an_input_error(capsys):
    # it was accepted, and its mod-p verdict printed twice; a file's repeat
    # is refused at $.options.primes[i] (tests/test_scenario_io.py)
    assert cli.main(["verify", "point-c2", "--prime", "3", "--prime", "3"]) == 2
    assert capsys.readouterr().err == "input error: --prime: prime 3 is repeated\n"
    assert cli.main(["verify", "point-c2", "--prime", "3", "--prime", "5"]) == 0


def test_a_lone_surrogate_in_a_name_or_description_is_an_input_error(tmp_path):
    # valid JSON, but no text report can write it: --format text died with a
    # UnicodeEncodeError traceback and exit 1, the code of a failed identity,
    # while --format json escaped it and exited 0
    for key in ("name", "description"):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps(dict(VALID_FILE, **{key: "seg\ud800"})))
        assert "\\ud800" in path.read_text()
        for command in ("verify", "strata", "chartab"):
            for fmt in ("json", "text"):
                result = run_cli(command, str(path), "--format", fmt)
                assert result.returncode == 2, (key, command, fmt, result.stderr)
                assert result.stderr == (
                    f"input error: $.{key}: field '{key}' holds a lone surrogate\n")
                assert result.stdout == ""
    # a surrogate pair is one character, and a valid name
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(dict(VALID_FILE, name="seg\U0001F600")))
    result = run_cli("verify", str(path))
    assert result.returncode == 0, result.stderr
    assert "seg\U0001F600" in result.stdout


PSI_12 = "318665857834031151167461"  # 399165290221 * 798330580441


def test_prime_at_the_miller_rabin_bound_is_an_input_error(tmp_path):
    # a strong pseudoprime to the bases 2..37 once passed as a prime modulus
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(dict(VALID_FILE, options={"primes": [7, int(PSI_12)]})))
    for args, location in ((["projective-plane", "--prime", PSI_12], "--prime"),
                           ([str(path)], "$.options.primes[1]")):
        result = run_cli("verify", *args)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith(f"input error: {location}: primality"), result.stderr
        assert "Traceback" not in result.stderr
    result = run_cli("verify", "projective-plane", "--prime", str(2**61 - 1))
    assert result.returncode == 0, result.stderr


def test_bad_max_group_order_is_an_input_error(tmp_path):
    path = tmp_path / "swap.json"
    path.write_text(json.dumps(VALID_FILE))
    env = dict(os.environ, EQUILEF_MAX_GROUP_ORDER="abc")
    for target in ("torus-involution", str(path)):
        result = run_cli("verify", target, env=env)
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("input error: EQUILEF_MAX_GROUP_ORDER")
        assert "$.group" not in result.stderr
        assert "Traceback" not in result.stderr


@pytest.mark.parametrize("args", [["verify", "octahedron-klein4"], ["corpus"]],
                         ids=["verify", "corpus"])
def test_builtin_over_max_group_order_is_an_input_error(args):
    env = dict(os.environ, EQUILEF_MAX_GROUP_ORDER="2")
    result = run_cli(*args, env=env)
    assert result.returncode == 2, result.stderr
    assert result.stderr.startswith("input error: "), result.stderr
    assert "exceeds the order bound 2" in result.stderr
    assert "Traceback" not in result.stderr


def test_timings_flag():
    plain = run_cli("verify", "point-c2", "--format", "json")
    timed = run_cli("verify", "point-c2", "--format", "json", "--timings")
    assert "timings" not in json.loads(plain.stdout)
    assert "timings" in json.loads(timed.stdout)


def test_chartab():
    result = run_cli("chartab", "triangle-s3")
    assert result.returncode == 0, result.stderr
    assert "chi_" in result.stdout
    as_json = run_cli("chartab", "hexagon-rot3", "--format", "json")
    payload = json.loads(as_json.stdout)
    assert payload["group_order"] == 3


def test_strata():
    result = run_cli("strata", "octahedron-klein4", "--format", "json")
    assert result.returncode == 0, result.stderr
    payload = json.loads(result.stdout)
    assert payload["scenario"] == "octahedron-klein4"
    assert len(payload["subgroup_classes"]) == 5


def test_corpus_runs_everything():
    result = run_cli("corpus")
    assert result.returncode == 0, result.stderr
    total = len(builtin_names())
    assert f"{total}/{total} scenarios passed" in result.stdout
    for name in builtin_names():
        assert name in result.stdout


def test_corpus_json():
    result = run_cli("corpus", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["passed"] is True
    assert len(payload["scenarios"]) == len(builtin_names())


def test_verification_failure_exit_code(monkeypatch, capsys):
    # force a failing theorem verdict through the reporting path
    summary = full_verification(builtin_scenario("point-trivial"))
    broken = summary._replace(theorem=summary.theorem._replace(passed=False))
    monkeypatch.setattr(cli, "full_verification", lambda s: broken)
    code = cli.main(["verify", "point-trivial"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL" in out or "MISMATCH" in out


def test_no_arguments_shows_usage():
    result = run_cli()
    assert result.returncode == 2
    assert "usage" in (result.stderr + result.stdout).lower()


@pytest.mark.parametrize("argv, bad", [
    ([], "a command is required"),
    (["bogus"], "'bogus'"),
    (["verify", "x", "--format", "xml"], "'xml'"),
    (["verify", "x", "--prime", "x"], "'x'"),
    (["verify", "x", "--out"], "--out"),
    (["chartab", "x", "--timings"], "--timings"),
    (["verify", "x", "y"], " y"),
    (["verify"], "scenario"),
])
def test_a_refused_command_line_returns_2_with_usage_and_error_lines(capsys, argv, bad):
    # a library caller gets the exit code, not a SystemExit
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    usage, error = err.splitlines()
    assert usage.startswith("usage: equilef ")
    assert error.startswith("equilef: error: ") and bad in error


class _NoRegex:
    def __getattr__(self, name):
        raise AssertionError(f"re.{name} used")


@pytest.mark.parametrize("argv", [
    ["verify", "report.json", "--format", "json", "--out", "out.json"],
    ["verify", "point-c2", "--prime", "7", "--prime=11", "--timings", "--form", "text"],
    ["verify", "--out", "-", "--", "-x.json"],
    ["corpus", "--format", "json", "--out", "corpus.json", "--timings"],
    ["corpus"], ["strata", "point-c2"], ["chartab", "--format=text", "point-c2"],
])
def test_an_ordinary_command_line_uses_no_regex(monkeypatch, argv):
    # the negative-number pattern is tried only on a token like -3 or -.5
    expected = cli.parse_args(argv)
    monkeypatch.setattr(cli, "re", _NoRegex())
    assert cli.parse_args(argv) == expected
    with pytest.raises(AssertionError, match="re.match"):
        cli.parse_args(["verify", "point-c2", "--prime", "-3"])


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["verify", "-h"],
                                  ["corpus", "--format", "json", "--he"],
                                  ["--bogus", "strata", "x", "-hh"]])
def test_help_prints_the_static_help_and_returns_0(capsys, argv):
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == f"{cli.USAGE}\n{cli.__doc__}"
    for option in ("--format", "--out", "--prime", "--timings", "--help"):
        assert option in out


def _verify_file(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return run_cli("verify", str(path), "--format", "json")


def test_float_in_group_generator_is_an_input_error(tmp_path):
    doc = dict(VALID_FILE, group={"degree": 2, "generators": [[1.0, 0]]})
    result = _verify_file(tmp_path, doc)
    assert result.returncode == 2, result.stderr
    assert "$.group.generators[0]" in result.stderr
    assert "Traceback" not in result.stderr


def test_float_in_vertex_action_is_an_input_error(tmp_path):
    five = {
        "schema_version": 1,
        "name": "pentagon-flip",
        "group": {"degree": 5, "generators": [[0, 4, 3, 2, 1]]},
        "complex": {
            "vertices": 5,
            "maximal_simplices": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]],
            "action": [[0, 3, 2, 1.0, 4]],
        },
        "lattice": {"rank": 1, "action": {"0": [[1]]}},
    }
    result = _verify_file(tmp_path, five)
    assert result.returncode == 2, result.stderr
    assert "$.complex.action[0]" in result.stderr
    assert "Traceback" not in result.stderr


def test_bool_permutation_is_an_input_error(tmp_path):
    doc = dict(VALID_FILE, group={"degree": 2, "generators": [[True, False]]})
    result = _verify_file(tmp_path, doc)
    assert result.returncode == 2, result.stderr
    assert "$.group.generators[0]" in result.stderr


def test_bool_simplex_vertex_is_an_input_error(tmp_path):
    comp = dict(VALID_FILE["complex"], maximal_simplices=[[False, True]])
    result = _verify_file(tmp_path, dict(VALID_FILE, complex=comp))
    assert result.returncode == 2, result.stderr
    assert "$.complex.maximal_simplices[0]" in result.stderr


def test_broken_invariant_has_its_own_exit_code(monkeypatch, capsys):
    # a broken internal invariant is a bug, not a failed identity (exit 1)
    def broken(scenario):
        raise ArithmeticError("differential does not square to zero")

    monkeypatch.setattr(cli, "full_verification", broken)
    assert cli.main(["verify", "point-trivial"]) == 3
    assert cli.main(["corpus"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error: differential does not square to zero")


def test_integrality_error_is_an_internal_error(monkeypatch, capsys):
    def broken(scenario):
        raise IntegralityError("Galois orbit sum has a non-integer value")

    monkeypatch.setattr(cli, "full_verification", broken)
    assert cli.main(["verify", "point-trivial", "--format", "json"]) == 3
    assert capsys.readouterr().err.startswith("internal error:")


def test_hopf_trace_mismatch_is_an_internal_error(monkeypatch, capsys):
    # the element corollary confronts every Lefschetz number with the Hopf
    # trace, at rank one on the cells
    fixed = CellCochains.fixed
    monkeypatch.setattr(CellCochains, "fixed",
                        lambda cells, images, k: fixed(cells, images, k) + (k == 0))
    assert cli.main(["verify", "point-trivial"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Hopf trace" in err


@pytest.mark.parametrize("error, line", [
    (MemoryError("out of it"), "MemoryError: out of it"),
    (RecursionError("out of it"), "RecursionError: out of it"),
    # Python raises a failed allocation without a message: no dangling colon
    (MemoryError(), "MemoryError"),
], ids=["memory", "recursion", "memory-without-message"])
@pytest.mark.parametrize("command", ["verify", "corpus"])
def test_an_exhausted_resource_exits_4_on_one_line(monkeypatch, capsys, error, line, command):
    # exit 1 is a failed identity, which an exhausted resource is not
    def exhausted(scenario):
        raise error

    monkeypatch.setattr(cli, "full_verification", exhausted)
    argv = ["verify", "point-trivial"] if command == "verify" else ["corpus"]
    assert cli.main(argv) == 4
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"resource error: {line}\n"


def test_smith_rank_mismatch_is_an_internal_error(monkeypatch, capsys):
    # the rank of each coboundary over Z (its Smith invariants) is checked
    # against its rank over Q
    module = importlib.import_module("equilef.cohomology")
    smith = module.smith_invariants
    monkeypatch.setattr(module, "smith_invariants", lambda columns: smith(columns)[:-1])
    assert cli.main(["verify", "projective-plane"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "over Z" in err


def test_missing_character_degree_is_an_internal_error(monkeypatch, capsys, tmp_path):
    # S3 on a point, read from a file so that its group is built afresh
    path = tmp_path / "s3.json"
    path.write_text(json.dumps({
        "schema_version": 1,
        "name": "s3-point",
        "group": {"degree": 3, "generators": [[1, 2, 0], [1, 0, 2]]},
        "complex": {"vertices": 1, "maximal_simplices": [[0]], "action": [[0], [0]]},
        "lattice": {"rank": 1, "action": {"0": [[1]], "1": [[1]]}},
    }))
    monkeypatch.setattr(math, "isqrt", lambda n: 1)
    assert cli.main(["chartab", str(path)]) == 3
    assert capsys.readouterr().err.startswith("internal error: no degree up to 1")


IDENTITY_GENERATOR = {
    "schema_version": 1,
    "name": "trivial-by-identity",
    "group": {"degree": 2, "generators": [[0, 1]]},
    "complex": {"vertices": 2, "maximal_simplices": [[0, 1]], "action": [[0, 1]]},
    "lattice": {"rank": 1, "action": {"0": [[1]]}},
}


def test_trivial_group_by_identity_generator_verifies(tmp_path):
    result = _verify_file(tmp_path, IDENTITY_GENERATOR)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


def test_identity_generator_acting_by_minus_one_is_an_input_error(tmp_path):
    doc = dict(IDENTITY_GENERATOR, lattice={"rank": 1, "action": {"0": [[-1]]}})
    result = _verify_file(tmp_path, doc)
    assert result.returncode == 2, result.stderr
    assert "$.lattice.action" in result.stderr
    assert "relation" in result.stderr
    assert "Traceback" not in result.stderr


def _verify_capped(tmp_path, doc):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return subprocess.run(CAPPED_RUN + ["verify", str(path), "--format", "json"],
                          capture_output=True, text=True, timeout=120)


def test_huge_degree_with_short_generator_is_an_input_error(tmp_path):
    doc = dict(VALID_FILE, group={"degree": 10**12, "generators": [[1, 0]]})
    result = _verify_capped(tmp_path, doc)
    assert result.returncode == 2, result.stderr
    assert "$.group.generators[0]" in result.stderr
    assert "Traceback" not in result.stderr


def test_huge_degree_without_generators_verifies(tmp_path):
    doc = {
        "schema_version": 1,
        "name": "huge-degree-point",
        "group": {"degree": 10**12, "generators": []},
        "complex": {"vertices": 1, "maximal_simplices": [[0]], "action": []},
        "lattice": {"rank": 1, "action": {}},
    }
    result = _verify_capped(tmp_path, doc)
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


HUGE_VERTICES_WITHOUT_GENERATORS = {
    "schema_version": 1,
    "name": "huge-vertex-count-point",
    "group": {"degree": 1, "generators": []},
    "complex": {"vertices": 10**12, "maximal_simplices": [[0]], "action": []},
    "lattice": {"rank": 1, "action": {}},
}


def test_huge_vertex_count_without_generators_is_an_input_error(tmp_path):
    # no vertex map bounds the count; building the complex listed every vertex
    result = _verify_capped(tmp_path, HUGE_VERTICES_WITHOUT_GENERATORS)
    assert result.returncode == 2, result.stderr
    assert "$.complex.vertices" in result.stderr
    assert "Traceback" not in result.stderr


def test_isolated_points_listed_without_generators_verify(tmp_path):
    comp = {"vertices": 4, "maximal_simplices": [[0, 1], [2], [3]], "action": []}
    result = _verify_capped(tmp_path, dict(HUGE_VERTICES_WITHOUT_GENERATORS, complex=comp))
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["passed"] is True


def test_huge_vertex_count_with_short_action_is_an_input_error(tmp_path):
    comp = {"vertices": 10**12, "maximal_simplices": [[0]], "action": [[0]]}
    result = _verify_capped(tmp_path, dict(VALID_FILE, complex=comp))
    assert result.returncode == 2, result.stderr
    assert "$.complex.action[0]" in result.stderr
    assert "Traceback" not in result.stderr


def test_repeated_calls_in_one_process_give_identical_reports(tmp_path):
    # reports of repeated calls in one process are byte-identical, also when a
    # call with --prime comes in between (no option state leaks between calls)
    runs = [["--format", "json"], ["--format", "json", "--prime", "7"],
            ["--format", "json"], []]
    reports = []
    for i, extra in enumerate(runs + runs):
        path = tmp_path / f"report{i}"
        assert cli.main(["verify", "octahedron-klein4", *extra, "--out", str(path)]) == 0
        reports.append(path.read_bytes())
    assert reports[:4] == reports[4:]
    assert reports[0] == reports[2] != reports[1]
    assert reports[3].startswith(b"scenario octahedron-klein4: pass")


def test_unknown_option_key_is_an_input_error(tmp_path):
    # a misspelt option used to be ignored: "subdivision" ran with 0 subdivisions
    result = _verify_file(tmp_path, dict(VALID_FILE, options={"subdivision": 2}))
    assert result.returncode == 2, result.stderr
    assert "input error: $.options: unknown field 'subdivision'" in result.stderr
    assert "Traceback" not in result.stderr
