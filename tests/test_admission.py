"""Cost-based admission: an oversized complex is refused before it is built.

The parser estimates what a document makes the run build, from its maximal
simplices, its ``subdivisions`` option and its lattice rank, and refuses at
one site, with exit 2 and a JSON path, any size over ``MAX_CELLS``: the
faces of one simplex, the cells of the closure and after the declared
subdivisions, the cochains (cells times rank) and the r x r matrices.  The
one regularity subdivision that ``build_complex`` may add is counted by the
same cost model and refused at ``$.complex.action`` before it is built, and
the cochains are bounded again on the cells actually built.  Every builtin
at its real rank, generated document and ladder rung stays admitted, builds,
and builds no more cochains than its estimate.
"""

import importlib.util
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import pytest

from equilef.complexes import MAX_CELLS, _subdivided_cells, build_complex
from equilef.groups import group_from_permutations
from equilef.scenario_io import (
    ScenarioError, _estimate, build_scenario, parse_scenario, parse_scenario_file)
from equilef.scenarios import _BUILTINS, builtin_scenario

from test_cli import CAPPED_RUN

PERFBENCH = Path(__file__).parents[1] / "perfbench"


def simplex_doc(n, subdivisions=0):
    """One maximal simplex on n vertices, no generators."""
    return {
        "schema_version": 1,
        "name": f"simplex-{n}",
        "group": {"degree": 1, "generators": []},
        "complex": {"vertices": n, "maximal_simplices": [list(range(n))], "action": []},
        "lattice": {"rank": 1, "action": {}},
        "options": {"subdivisions": subdivisions},
    }


def _load(name):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("n", [20, 23])
def test_a_large_simplex_is_refused_before_construction(tmp_path, n):
    started = time.perf_counter()
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(simplex_doc(n)))
    assert time.perf_counter() - started < 1
    assert info.value.location == "$.complex.maximal_simplices[0]"
    assert str(2 ** n - 1) in info.value.message
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(simplex_doc(n)))
    result = subprocess.run(CAPPED_RUN + ["verify", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "$.complex.maximal_simplices[0]" in result.stderr
    assert "Traceback" not in result.stderr


def grid_torus_doc(m):
    """The m x m grid torus: m^2 vertices, 3 m^2 edges and 2 m^2 triangles."""
    def v(i, j):
        return (i % m) * m + j % m
    triangles = []
    for i in range(m):
        for j in range(m):
            triangles += [[v(i, j), v(i + 1, j), v(i + 1, j + 1)],
                          [v(i, j), v(i, j + 1), v(i + 1, j + 1)]]
    doc = simplex_doc(m * m)
    doc["complex"]["maximal_simplices"] = triangles
    return doc


def test_shared_and_repeated_faces_are_not_counted_per_listing():
    # 21,632 triangles, more than MAX_CELLS / 7, on 64,896 cells
    doc = grid_torus_doc(104)
    assert len(doc["complex"]["maximal_simplices"]) * 7 > MAX_CELLS
    assert parse_scenario_file(json.dumps(doc))
    doc = simplex_doc(17)
    doc["complex"]["maximal_simplices"] *= 3
    assert parse_scenario_file(json.dumps(doc))


def test_the_grid_torus_is_counted_exactly_on_both_sides_of_the_limit():
    # 6 m^2 cells: shared edges count once; m = 158 gives 149,784, m = 159 151,686
    assert 6 * 158 ** 2 <= MAX_CELLS < 6 * 159 ** 2
    started = time.perf_counter()
    assert parse_scenario_file(json.dumps(grid_torus_doc(158)))
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(grid_torus_doc(159)))
    assert time.perf_counter() - started < 10
    assert info.value.location == "$.complex.maximal_simplices"
    assert str(6 * 159 ** 2) in info.value.message


def test_an_oversized_closure_is_refused_at_the_field_that_makes_it():
    doc = simplex_doc(150)
    doc["complex"]["maximal_simplices"] = [list(range(i, i + 15)) for i in range(0, 150, 15)]
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(doc))
    assert info.value.location == "$.complex.maximal_simplices"
    assert str(10 * (2 ** 15 - 1)) in info.value.message
    n = MAX_CELLS + 1
    doc = simplex_doc(n)
    doc["group"] = {"degree": 2, "generators": [[1, 0]]}
    doc["complex"]["maximal_simplices"] = [[0, 1]]
    doc["complex"]["action"] = [[1, 0] + list(range(2, n))]
    doc["lattice"]["action"] = {"0": [[1]]}
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(doc))
    assert info.value.location == "$.complex.vertices"


def test_subdivisions_are_counted_before_construction():
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(simplex_doc(9, subdivisions=1)))
    assert info.value.location == "$.options.subdivisions"
    assert "14174521" in info.value.message
    assert parse_scenario_file(json.dumps(simplex_doc(9)))


def test_the_count_is_exact_on_a_simplex_and_on_the_torus():
    trivial = group_from_permutations(1, [])
    for n in range(1, 5):
        f = [n] + [len(level) for level in build_complex([range(n)], trivial, []).simplices[1:]]
        for times in range(3):
            x = build_complex([range(n)], trivial, [], pre_subdivisions=times)
            assert _subdivided_cells(f, times) == sum(map(len, x.simplices)), (n, times)
    torus = builtin_scenario("torus-involution").complex
    f = [len(level) for level in torus.simplices]
    assert [_subdivided_cells(f, t) for t in range(5)] == [96, 576, 3456, 20736, 124416]


def points_doc(n, rank):
    """n isolated points, no generators, a lattice of the given rank."""
    doc = simplex_doc(n)
    doc["complex"]["maximal_simplices"] = [[v] for v in range(n)]
    doc["lattice"]["rank"] = rank
    return doc


def test_a_huge_rank_on_a_point_is_refused_at_the_rank(tmp_path):
    text = json.dumps(points_doc(1, 10 ** 6))
    started = time.perf_counter()
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(text)
    assert time.perf_counter() - started < 1
    assert info.value.location == "$.lattice.rank"
    assert "1000000 cochains" in info.value.message
    path = tmp_path / "rank.json"
    path.write_text(text)
    result = subprocess.run(CAPPED_RUN + ["verify", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "$.lattice.rank" in result.stderr
    assert "Traceback" not in result.stderr


def test_the_rank_bound_is_the_cell_bound_times_the_rank():
    # 1,000 points: rank 150 makes exactly MAX_CELLS cochains, rank 151 one cell's more
    assert parse_scenario_file(json.dumps(points_doc(1000, MAX_CELLS // 1000)))
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(points_doc(1000, MAX_CELLS // 1000 + 1)))
    assert info.value.location == "$.lattice.rank"
    assert f"{MAX_CELLS + 1000} cochains" in info.value.message
    # the cells are counted after the subdivisions the document asks for
    cells = _subdivided_cells([4, 6, 4, 1], 2)
    doc = simplex_doc(4, subdivisions=2)
    doc["lattice"]["rank"] = MAX_CELLS // cells
    assert parse_scenario_file(json.dumps(doc))
    doc["lattice"]["rank"] += 1
    with pytest.raises(ScenarioError, match=f"{cells} cell"):
        parse_scenario_file(json.dumps(doc))


def test_a_rank_whose_matrices_exceed_the_limit_is_refused_on_a_point():
    root = math.isqrt(MAX_CELLS)
    assert parse_scenario_file(json.dumps(points_doc(1, root)))
    with pytest.raises(ScenarioError) as info:
        parse_scenario_file(json.dumps(points_doc(1, root + 1)))
    assert info.value.location == "$.lattice.rank"
    assert f"{(root + 1) ** 2}-entry matrices" in info.value.message


def test_a_count_too_long_to_write_is_refused_without_a_traceback(tmp_path):
    # 2^15000 - 1 faces, and 2 x 6 x 10^4299 cochains, have more digits than str writes
    huge_rank = points_doc(2, 6 * 10 ** 4299)
    for doc, location, count in [(simplex_doc(15_000), "$.complex.maximal_simplices[0]",
                                  "about 2^15000 faces"),
                                 (huge_rank, "$.lattice.rank", "about 2^14285 cochains")]:
        with pytest.raises(ScenarioError) as info:
            parse_scenario_file(json.dumps(doc))
        assert info.value.location == location
        assert count in info.value.message
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(simplex_doc(15_000)))
    result = subprocess.run(CAPPED_RUN + ["verify", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr


def builtin_doc(name):
    """The builtin scenario as a document at ``subdivisions: 2``, with its real lattice."""
    generators, maximal, _, _, *images = _BUILTINS[name]
    s = builtin_scenario(name)
    matrices = [s.lattice.matrices[e] for e in s.group.generator_elements or ()]
    return {
        "schema_version": 1,
        "name": name,
        "group": {"degree": len(generators[0]) if generators else 1,
                  "generators": [list(g) for g in generators]},
        "complex": {"vertices": max(v for s in maximal for v in s) + 1,
                    "maximal_simplices": [list(s) for s in maximal],
                    "action": [list(a) for a in (images[0] if images else generators)]},
        "lattice": {"rank": s.lattice.rank,
                    "action": {str(i): [list(r) for r in m] for i, m in enumerate(matrices)}},
        "options": {"subdivisions": 2},
    }


def test_every_builtin_generated_document_and_ladder_rung_is_admitted(monkeypatch):
    docs = [builtin_doc(name) for name in _BUILTINS]
    assert {doc["lattice"]["rank"] for doc in docs} == {1, 2, 3, 6}
    gen = _load("gen")
    for workload in ("large-complex", "large-group"):
        for seed in (1, 2, 3):
            docs += gen.workload_docs(workload, seed)
    # ladder.py and run.py import gen by name, and ladder.py puts src on sys.path
    monkeypatch.setitem(sys.modules, "gen", gen)
    monkeypatch.setattr(sys, "path", list(sys.path))
    ladder = _load("ladder")
    docs += [ladder.rung_doc(rung) for axis in _load("run").LADDER for rung in axis]
    assert len(docs) == 27 + 3 * 9 + 6
    for doc in docs:
        sf = parse_scenario_file(json.dumps(doc))
        x = build_scenario(sf).complex
        # the declared subdivisions, and the regularity subdivision only without
        # them (S4 on the tetrahedron's boundary takes it: 14 cells become 74)
        assert x.subdivision_count in {sf.pre_subdivisions, 1}, sf.name
        estimate = _estimate(sf.vertices, sf.maximal_simplices, x.subdivision_count,
                             sf.lattice_rank)
        cochains = next(count for count, what, _ in estimate if "cochains" in what)
        assert cochains >= sum(x.counts()) * sf.lattice_rank, sf.name


def swap_doc(n, rank=1):
    """The n-vertex simplex with C_2 swapping two vertices, on a trivial lattice.

    The swap flips the edge (0, 1), so the action needs its one regularity
    subdivision, which the declared ``subdivisions: 0`` does not count.
    """
    doc = simplex_doc(n)
    doc["group"] = {"degree": 2, "generators": [[1, 0]]}
    doc["complex"]["action"] = [[1, 0] + list(range(2, n))]
    doc["lattice"] = {"rank": rank,
                      "action": {"0": [[int(i == j) for j in range(rank)] for i in range(rank)]}}
    return doc


def test_the_regularity_subdivision_is_built_below_the_limit():
    cells = _subdivided_cells([math.comb(7, k + 1) for k in range(7)], 1)
    assert cells == 94_585 <= MAX_CELLS
    x = parse_scenario(json.dumps(swap_doc(7))).complex
    assert (sum(x.counts()), x.subdivision_count) == (cells, 1)


def test_the_regularity_subdivision_is_refused_before_it_is_built(tmp_path):
    # 255 cells pass the parser; their subdivision would have 1,091,669
    text = json.dumps(swap_doc(8))
    started = time.perf_counter()
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert time.perf_counter() - started < 1
    assert info.value.location == "$.complex.action"
    assert "1091669" in info.value.message
    path = tmp_path / "swap.json"
    path.write_text(text)
    result = subprocess.run(CAPPED_RUN + ["verify", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "$.complex.action" in result.stderr and "1091669" in result.stderr
    assert "Traceback" not in result.stderr


def test_the_rank_bound_holds_on_the_cells_built(tmp_path):
    # 127 x 2 cochains at parse time, 94,585 x 2 once the action is made regular
    text = json.dumps(swap_doc(7, rank=2))
    assert parse_scenario_file(text)
    with pytest.raises(ScenarioError) as info:
        parse_scenario(text)
    assert info.value.location == "$.lattice.rank"
    assert "189170 cochains" in info.value.message
    path = tmp_path / "swap.json"
    path.write_text(text)
    result = subprocess.run(CAPPED_RUN + ["verify", str(path)],
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 2, result.stderr
    assert "$.lattice.rank" in result.stderr
    assert "Traceback" not in result.stderr
