"""One rung of the scaling ladder, in its own process.

    python3 perfbench/ladder.py --rung RUNG --workdir DIR

Rungs: ``torus-K`` is the builtin torus-involution scenario with K
barycentric subdivisions (complex-size axis); ``sN`` is the symmetric group
S_N acting on a point with trivial coefficients (group-size axis).  The rung
writes its scenario file, times one ``equilef verify`` command on it and
prints {"seconds": ..., "passed": ...} as its last line.  The parent
enforces the per-rung timeout.  The address space is capped so that a rung
which outgrows memory fails alone instead of starving the machine.
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

from equilef import builtin_scenario  # noqa: E402
from equilef import cli  # noqa: E402

import gen  # noqa: E402

MEMORY_CAP_BYTES = 1 << 30


def rung_doc(rung: str) -> dict:
    if rung.startswith("torus-"):
        s = builtin_scenario("torus-involution")
        x = s.complex
        reflection = x.vertex_action[s.group.generator_elements[0]]
        return gen.scenario_doc(
            rung, x.n_vertices, s.group.generator_permutations, x.n_vertices,
            x.simplices[-1], [reflection], [[[1]]], subdivisions=int(rung[6:]))
    n = int(rung[1:])
    transposition = (1, 0) + tuple(range(2, n))
    cycle = tuple(range(1, n)) + (0,)
    return gen.scenario_doc(rung, n, [transposition, cycle], 1, [(0,)],
                            [(0,), (0,)], [[[1]], [[1]]])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rung", required=True)
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    path = os.path.join(args.workdir, f"{args.rung}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(rung_doc(args.rung), handle)
    out = os.path.join(args.workdir, f"{args.rung}-report.json")
    started = time.perf_counter()
    code = cli.main(["verify", path, "--format", "json", "--out", out])
    print(json.dumps({"seconds": time.perf_counter() - started, "passed": code == 0}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
