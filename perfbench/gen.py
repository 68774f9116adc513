"""Seeded scenario files for the benchmark workloads.

Every generated scenario is a JSON document in the equilef scenario-file
format.  The seed relabels the vertices, reorders the maximal simplices and
reorders the generators; a generator's group permutation, its vertex map and
its lattice matrix move together, so every seed describes the same G-complex
up to isomorphism.  Every ``lattice.action`` key is written out: the parser
requires one matrix per generator.

This module imports nothing from equilef, so generating inputs cannot hide a
defect of the program.
"""

from __future__ import annotations

import random

WORKLOADS = ("corpus", "large-complex", "large-group")

# octahedron boundary: vertices i and i+3 antipodal
OCTAHEDRON = [
    (0, 1, 2), (0, 1, 5), (0, 4, 2), (0, 4, 5),
    (3, 1, 2), (3, 1, 5), (3, 4, 2), (3, 4, 5),
]
# six-vertex projective plane
PROJECTIVE_PLANE = [
    (0, 1, 2), (0, 1, 3), (0, 2, 4), (0, 3, 5), (0, 4, 5),
    (1, 2, 5), (1, 3, 4), (1, 4, 5), (2, 3, 4), (2, 3, 5),
]
# square boundary coned to the apex 4
DISC = [(0, 1, 4), (1, 2, 4), (2, 3, 4), (0, 3, 4)]
TETRAHEDRON_BOUNDARY = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]

S4_GENERATORS = [(1, 0, 2, 3), (1, 2, 3, 0)]
A5_GENERATORS = [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)]


def permutation_matrix(p) -> list[list[int]]:
    """The matrix sending basis vector i to basis vector p[i]."""
    n = len(p)
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        m[p[i]][i] = 1
    return m


def scenario_doc(name, degree, generators, vertices, maximal, action,
                 matrices, subdivisions=0, rank=1) -> dict:
    """A scenario-file document; ``matrices`` holds one matrix per generator."""
    return {
        "schema_version": 1,
        "name": name,
        "group": {"degree": degree, "generators": [list(g) for g in generators]},
        "complex": {
            "vertices": vertices,
            "maximal_simplices": [list(s) for s in maximal],
            "action": [list(a) for a in action],
        },
        "lattice": {
            "rank": rank,
            "action": {str(i): [list(r) for r in m] for i, m in enumerate(matrices)},
        },
        "options": {"primes": [2, 3, 5], "subdivisions": subdivisions},
    }


def relabel(doc: dict, rng: random.Random) -> dict:
    """The same scenario with vertices relabelled and lists reordered."""
    n = doc["complex"]["vertices"]
    sigma = list(range(n))
    rng.shuffle(sigma)
    maximal = [sorted(sigma[v] for v in s) for s in doc["complex"]["maximal_simplices"]]
    rng.shuffle(maximal)
    # conjugate each vertex map by sigma: new[sigma[v]] = sigma[old[v]]
    actions = []
    for a in doc["complex"]["action"]:
        new = [0] * n
        for v in range(n):
            new[sigma[v]] = sigma[a[v]]
        actions.append(new)
    gens = doc["group"]["generators"]
    mats = [doc["lattice"]["action"][str(i)] for i in range(len(gens))]
    order = list(range(len(gens)))
    rng.shuffle(order)
    out = dict(doc)
    out["group"] = {"degree": doc["group"]["degree"], "generators": [gens[i] for i in order]}
    out["complex"] = {"vertices": n, "maximal_simplices": maximal,
                      "action": [actions[i] for i in order]}
    out["lattice"] = {"rank": doc["lattice"]["rank"],
                      "action": {str(j): mats[i] for j, i in enumerate(order)}}
    return out


def large_complex_docs() -> list[dict]:
    """Groups of order at most 2 on complexes of 81 to 181 cells."""
    anti = (3, 4, 5, 0, 1, 2)
    mirror = (0, 3, 2, 1, 4)
    return [
        scenario_doc("octahedron-antipodal-sub1", 6, [anti], 6, OCTAHEDRON, [anti],
                     [[[1]]], subdivisions=1),
        scenario_doc("projective-plane-sub1", 1, [], 6, PROJECTIVE_PLANE, [], [],
                     subdivisions=1),
        scenario_doc("disc-reflection-sub1", 5, [mirror], 5, DISC, [mirror],
                     [[[1]]], subdivisions=1),
    ]


def _group_on_point(name, gens, lattice) -> dict:
    degree = len(gens[0])
    if lattice == "trivial":
        return scenario_doc(name, degree, gens, 1, [(0,)], [(0,)] * len(gens),
                            [[[1]]] * len(gens))
    return scenario_doc(name, degree, gens, 1, [(0,)], [(0,)] * len(gens),
                        [permutation_matrix(g) for g in gens], rank=degree)


def large_group_docs() -> list[dict]:
    """S4 and A5 with trivial and permutation lattices, and S4 on a sphere."""
    s4, a5 = S4_GENERATORS, A5_GENERATORS
    return [
        _group_on_point("s4-point", s4, "trivial"),
        _group_on_point("s4-point-permutation", s4, "permutation"),
        _group_on_point("a5-point", a5, "trivial"),
        _group_on_point("a5-point-permutation", a5, "permutation"),
        scenario_doc("s4-tetrahedron", 4, s4, 4, TETRAHEDRON_BOUNDARY, s4,
                     [[[1]], [[1]]]),
        # the sign character: the transposition and the 4-cycle are both odd
        scenario_doc("s4-tetrahedron-sign", 4, s4, 4, TETRAHEDRON_BOUNDARY, s4,
                     [[[-1]], [[-1]]]),
    ]


def workload_docs(workload: str, seed: int) -> list[dict]:
    """The generated scenario documents of a workload (none for ``corpus``)."""
    if workload == "corpus":
        return []
    if workload == "large-complex":
        docs = large_complex_docs()
    elif workload == "large-group":
        docs = large_group_docs()
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    return [relabel(d, rng) for d in docs]
