"""Benchmark of ``equilef verify``, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/equilef``.  Workloads are
``corpus``, ``large-complex`` and ``large-group`` (see README.md).  Every pass
runs in a fresh single-threaded Python process started by this script, one
process at a time.  Passes repeat until S seconds have been measured; the
timings are medians over the passes, rescaled to a reference host speed
(see REFERENCE_NOMINAL_S).

With ``--trace 0`` the last line of standard output is a JSON object whose
metrics are the end-to-end ones: setup_s, wall_s, scenario_p50_s,
scenario_max_s, peak_rss_mb and verified_frac.  With ``--trace 1`` untraced
and traced passes alternate, the metrics are the per-layer ones of
``layers.py`` plus the tracing overhead, and the scaling ladder is printed
on a line of its own before the result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from statistics import median, median_low

from gen import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# every run must end within 180 s; stop starting work well before that
RUN_LIMIT_S = 165
SETUP_SAMPLES = 9
RUNG_TIMEOUT_S = 10
# The speed of a shared host drifts by tens of percent within minutes, for
# every program alike.  Each time is therefore rescaled to the speed at which
# the worker's reference loop takes REFERENCE_NOMINAL_S: a time t measured in
# a pass becomes t * REFERENCE_NOMINAL_S / r, with r the median of the
# reference timings the pass took around its commands (more of them after a
# long command).  The speed also jitters from one second to the next, so the
# median over the pass estimates the speed the pass ran at better than the
# timings next to one command.
# The times as measured are printed on the line before the result.
REFERENCE_NOMINAL_S = 0.04
LADDER = (("torus-0", "torus-1", "torus-2"), ("s4", "s5", "s6"))

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "scenario_p50_s": "s", "scenario_max_s": "s",
    "peak_rss_mb": "MB", "verified_frac": "ratio",
}


class BenchError(RuntimeError):
    pass


def spawn(argv, timeout_s) -> dict:
    """Run a child to completion; its last stdout line is a JSON object."""
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=max(timeout_s, 1))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{' '.join(argv)} exited with {proc.returncode}")
    return json.loads(lines[-1])


class Runner:
    def __init__(self, workload, seed, workdir, deadline):
        self.base = ["--workload", workload, "--seed", str(seed), "--workdir", workdir]
        self.deadline = deadline

    def worker(self, *mode) -> dict:
        t0 = time.monotonic()
        return spawn([os.path.join(HERE, "worker.py"), *self.base, "--t0", repr(t0), *mode],
                     self.deadline - t0)


def speed_scale(p) -> float:
    return REFERENCE_NOMINAL_S / median(p["references"])


def normalized(p) -> list[float]:
    """A pass's command latencies, rescaled to the reference speed."""
    scale = speed_scale(p)
    return [t * scale for t in p["latencies"]]


def timings(passes, setup_passes, scale) -> dict:
    """Time metrics, with scale(p) the factor applied to pass p's times."""
    setups = [p["setup_s"] * scale(p) for p in passes + setup_passes]
    runs = [[t * scale(p) for t in p["latencies"]] for p in passes]
    per_scenario = [median(s) for s in zip(*runs)]
    return {
        "setup_s": median(setups),
        "wall_s": sum(per_scenario),
        "scenario_p50_s": median(x for r in runs for x in r),
        "scenario_max_s": max(per_scenario),
    }


def end_to_end(runner, seconds):
    runner.worker("--setup-only")  # fills the bytecode caches; not measured
    passes = []
    started = time.monotonic()
    while not passes or time.monotonic() - started < seconds:
        passes.append(runner.worker())
    setup_passes = [runner.worker("--setup-only")
                    for _ in range(SETUP_SAMPLES - len(passes))]
    ok = [x for p in passes for x in p["ok"]]
    metrics = timings(passes, setup_passes, speed_scale)
    metrics["peak_rss_mb"] = median(p["peak_rss_mb"] for p in passes)
    metrics["verified_frac"] = sum(ok) / len(ok)
    raw = timings(passes, setup_passes, lambda p: 1.0)
    print(f"passes {len(passes)}, commands {len(ok)}, "
          f"setup samples {len(passes) + len(setup_passes)}")
    print("as measured " + json.dumps(raw))
    return ok, {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}


def per_layer(runner, seconds):
    runner.worker("--setup-only")
    untraced, traced = [], []
    started = time.monotonic()
    while not traced or time.monotonic() - started < seconds:
        untraced.append(runner.worker())
        traced.append(runner.worker("--traced"))
    ok = [x for p in untraced + traced for x in p["ok"]]
    print(f"pairs of untraced and traced passes: {len(traced)}")
    metrics = {}
    for k in traced[0]["layers"]:
        if k.endswith("_s"):
            value = median(p["layers"][k] * speed_scale(p) for p in traced)
        else:
            value = median_low(p["layers"][k] for p in traced)
        unit = "s" if k.endswith("_s") else "bytes" if k.endswith("_bytes") else "count"
        metrics[k] = {"value": value, "unit": unit}
    traced_wall = median(sum(normalized(p)) for p in traced)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {
        "value": traced_wall - median(sum(normalized(p)) for p in untraced), "unit": "s"}
    accounted = [sum(v for k, v in p["layers"].items() if k.endswith("_s")) / sum(p["latencies"])
                 for p in traced]
    metrics["trace.accounted_frac"] = {"value": median(accounted), "unit": "ratio"}
    return ok, metrics


def ladder(workdir, deadline) -> dict:
    """Seconds per rung; "timeout" past the per-rung limit, and the rungs
    above a timed-out one on the same axis are "skipped"."""
    out = {}
    for axis in LADDER:
        blocked = False
        for rung in axis:
            budget = min(RUNG_TIMEOUT_S, deadline - time.monotonic())
            if blocked or budget < 1:
                out[rung] = "skipped"
                continue
            argv = [os.path.join(HERE, "ladder.py"), "--rung", rung, "--workdir", workdir]
            try:
                out[rung] = spawn(argv, budget)["seconds"]
            except subprocess.TimeoutExpired:
                out[rung] = "timeout"
                blocked = True
            except BenchError:
                out[rung] = "error"
                blocked = True
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "equilef", "__init__.py")):
        print(f"no equilef sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workdir = os.path.join(WORK_ROOT, str(os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        runner = Runner(args.workload, args.seed, workdir, deadline)
        if args.trace:
            ok, metrics = per_layer(runner, args.seconds)
            print("ladder " + json.dumps(ladder(workdir, deadline)))
        else:
            ok, metrics = end_to_end(runner, args.seconds)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    result = {"correct": all(ok), "attempted": len(ok), "failed": ok.count(False),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
