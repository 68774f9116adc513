"""One workload pass in a fresh, single-threaded Python process.

    python3 perfbench/worker.py --workload W --seed N --workdir DIR --t0 T
        [--setup-only | --traced]

Set-up imports equilef, writes the workload's generated scenario files into
DIR and ends at the first command; ``setup_s`` is measured from T, the
``time.monotonic()`` reading the parent took just before starting this
process.  The untraced pass then calls ``equilef.cli.main(["verify", ...])``
once per scenario and times each call; ``--traced`` runs the outside-in
layer decomposition of ``layers.py`` instead.  A fixed reference loop is
timed before the first command and after each one, so that the parent can
tell the program's speed from the host's.  Outputs are checked against the
Hopf character of ``check.py`` after the timed region.  The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import equilef  # noqa: E402
from equilef import cli  # noqa: E402

import check  # noqa: E402
import gen  # noqa: E402

REFERENCE_LOOPS = 120_000
REFERENCE_SHARE = 0.05


def write_scenarios(workload: str, seed: int, workdir: str):
    """(targets, outputs, docs): what to pass to ``verify`` and where it writes."""
    docs = gen.workload_docs(workload, seed)
    if workload == "corpus":
        targets = equilef.builtin_names()
    else:
        targets = []
        for i, doc in enumerate(docs):
            path = os.path.join(workdir, f"scenario-{i:02d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            targets.append(path)
    outputs = [os.path.join(workdir, f"report-{i:02d}.json") for i in range(len(targets))]
    return targets, outputs, docs


def reference_seconds() -> float:
    """Duration of a fixed pure-Python integer loop: the host's current speed.

    It calls no library code, so no change to equilef can alter it.
    """
    started = time.perf_counter()
    acc, table = 0, {}
    for i in range(REFERENCE_LOOPS):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = table.get(i & 1023, 0) + acc
    return time.perf_counter() - started


def reference_samples(budget_s: float) -> list[float]:
    """Reference timings adding up to at least budget_s, and at least one."""
    samples = [reference_seconds()]
    while sum(samples) < budget_s:
        samples.append(reference_seconds())
    return samples


def verify(target, out):
    return cli.main(["verify", target, "--format", "json", "--out", out])


def run_pass(targets, outputs, command):
    """Latency and exit code of command(target, out) per scenario, and the
    reference timings taken before the first command and after each one, for
    REFERENCE_SHARE of its latency, so that long commands get more samples."""
    latencies, codes, references = [], [], [reference_seconds()]
    for target, out in zip(targets, outputs):
        started = time.perf_counter()
        try:
            code = command(target, out)
        except Exception as exc:  # a crash is a failed command, not a dead benchmark
            print(f"{target} raised {exc!r}", file=sys.stderr)
            code = None
        latencies.append(time.perf_counter() - started)
        codes.append(code)
        references.extend(reference_samples(REFERENCE_SHARE * latencies[-1]))
    return latencies, codes, references


def expected_characters(workload, targets, docs):
    if workload == "corpus":
        by_name = {s.name: s for s in equilef.builtin_scenarios()}
        return [check.expected_from_scenario(by_name[t]) for t in targets]
    return [check.expected_from_doc(d) for d in docs]


def check_outputs(workload, targets, outputs, docs, codes) -> list[bool]:
    expected = expected_characters(workload, targets, docs)
    ok = []
    for target, out, want, code in zip(targets, outputs, expected, codes):
        good = code == 0
        if good:
            try:
                with open(out, encoding="utf-8") as handle:
                    good = check.report_ok(json.load(handle), want)
            except (OSError, ValueError, KeyError, TypeError):
                good = False
        if not good:
            print(f"output check failed for {target}", file=sys.stderr)
        ok.append(good)
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--t0", type=float, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    targets, outputs, docs = write_scenarios(args.workload, args.seed, args.workdir)
    result = {"setup_s": time.monotonic() - args.t0}
    if args.setup_only:
        result["references"] = reference_samples(0.1)
        print(json.dumps(result))
        return 0

    if args.traced:
        import layers

        recorder = layers.Recorder()
        latencies, codes, references = run_pass(
            targets, outputs, lambda t, o: layers.traced_scenario(t, o, recorder))
        result["layers"] = recorder.as_dict()
    else:
        latencies, codes, references = run_pass(targets, outputs, verify)
    result["latencies"] = latencies
    result["references"] = references
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ok"] = check_outputs(args.workload, targets, outputs, docs, codes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
