"""Tests of the benchmark itself: inputs, output check, untraced path.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import copy
import json
import os
import subprocess
import sys

import pytest

from equilef import builtin_scenarios, full_verification, parse_scenario
from equilef.scenario_io import summary_to_dict

import check
import gen

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GENERATED = ("large-complex", "large-group")


def _report(scenario) -> dict:
    return json.loads(json.dumps(summary_to_dict(full_verification(scenario), scenario)))


@pytest.mark.parametrize("workload", GENERATED)
def test_generator_is_deterministic_per_seed(workload):
    assert gen.workload_docs(workload, 7) == gen.workload_docs(workload, 7)
    assert gen.workload_docs(workload, 7) != gen.workload_docs(workload, 8)


@pytest.mark.parametrize("workload", GENERATED)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_generated_files_parse(workload, seed):
    base = [parse_scenario(json.dumps(d)) for d in gen.workload_docs(workload, 0)]
    for doc, ref in zip(gen.workload_docs(workload, seed), base):
        s = parse_scenario(json.dumps(doc))
        assert s.name == ref.name
        assert s.complex.counts() == ref.complex.counts()
        assert s.group.order == ref.group.order


def test_check_agrees_with_program_on_every_builtin():
    scenarios = builtin_scenarios()
    assert len(scenarios) == 27
    for s in scenarios:
        assert check.report_ok(_report(s), check.expected_from_scenario(s)), s.name


@pytest.mark.parametrize("seed", [0, 5])
def test_check_agrees_with_program_on_generated_files(seed):
    docs = gen.workload_docs("large-group", seed)
    docs = [d for d in docs if not d["name"].startswith("a5")]
    docs += [d for d in gen.workload_docs("large-complex", seed) if d["name"].startswith("disc")]
    for doc in docs:
        report = _report(parse_scenario(json.dumps(doc)))
        assert check.report_ok(report, check.expected_from_doc(doc)), doc["name"]


def test_corrupted_lhs_is_counted_as_failed(tmp_path):
    import worker

    s = next(s for s in builtin_scenarios() if s.name == "square-reflection-sign")
    good = _report(s)
    want = check.expected_from_scenario(s)
    assert check.report_ok(good, want)
    for k in range(len(good["characters"]["lhs"])):
        bad = copy.deepcopy(good)
        bad["characters"]["lhs"][k]["num"] = str(int(bad["characters"]["lhs"][k]["num"]) + 1)
        assert not check.report_ok(bad, want)
    failed = copy.deepcopy(good)
    failed["passed"] = False
    assert not check.report_ok(failed, want)

    out = tmp_path / "report.json"
    out.write_text(json.dumps(bad))
    assert worker.check_outputs("corpus", [s.name], [str(out)], [], [0]) == [False]
    out.write_text(json.dumps(good))
    assert worker.check_outputs("corpus", [s.name], [str(out)], [], [0]) == [True]
    assert worker.check_outputs("corpus", [s.name], [str(out)], [], [1]) == [False]


def test_untraced_path_runs_no_tracing_code(tmp_path):
    probe = (
        "import sys, worker\n"
        "worker.main(sys.argv[1:])\n"
        "print(sorted(m for m in ('layers', 'cProfile', 'profile', 'trace') if m in sys.modules),"
        " sys.gettrace(), sys.getprofile())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, "--workload", "large-group", "--seed", "3",
         "--workdir", str(tmp_path), "--t0", "0"],
        cwd=BENCH, env={**os.environ, "PYTHONPATH": BENCH},
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result_line, probe_line = proc.stdout.strip().splitlines()[-2:]
    result = json.loads(result_line)
    assert "layers" not in result and all(result["ok"])
    assert probe_line == "[] None None"
