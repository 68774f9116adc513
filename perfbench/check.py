"""Independent output check: the Lefschetz character by the Hopf trace.

At a group element g the left-hand side of the identity is the Lefschetz
number of g on H*(X; E (x) Q).  By the Hopf trace formula it equals the
alternating trace of g on oriented cochains: the sum over simplices that g
maps to themselves of (-1)^dim times the sign of the vertex permutation
g induces on the simplex times tr rho(g).  At the identity this is
rank(E) x chi(X).  The formula holds on any triangulation on which G acts
simplicially, so it is evaluated on the complex as given, before the
program's subdivisions.

Group elements are rebuilt the way ``equilef.group_from_permutations``
documents them: breadth-first over generator words, generators tried in
order, the product of a word (j1, ..., jk) being g_j1 o ... o g_jk.
Element classes are listed by their least member, whose representative is
that member.  Nothing here uses equilef's cohomology or character code; the
check reads only ``passed`` and ``characters.lhs`` of a report.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations


def _compose(a, b):
    """(a o b)[v] = a[b[v]]."""
    return tuple(a[v] for v in b)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(sum(a[i][t] * b[t][j] for t in range(n)) for j in range(n))
        for i in range(n)
    )


def enumerate_group(degree, generators, vertex_images, lattice_matrices):
    """Per element in equilef's order: permutations, vertex maps, lattice
    matrices (None at the identity), and the index of each permutation."""
    gens = [tuple(g) for g in generators]
    images = [tuple(a) for a in vertex_images]
    mats = [tuple(tuple(r) for r in m) for m in lattice_matrices]
    identity = tuple(range(degree))
    index = {identity: 0}
    perms = [identity]
    vmaps = [None]
    lmats = [None]
    frontier = [0]
    while frontier:
        fresh = []
        for ei in frontier:
            for j, g in enumerate(gens):
                prod = _compose(perms[ei], g)
                if prod in index:
                    continue
                index[prod] = len(perms)
                perms.append(prod)
                vmaps.append(images[j] if ei == 0 else _compose(vmaps[ei], images[j]))
                lmats.append(mats[j] if ei == 0 else _mat_mul(lmats[ei], mats[j]))
                fresh.append(index[prod])
        frontier = fresh
    return perms, vmaps, lmats, index


def class_representatives(perms, index) -> list[int]:
    """Least member of each conjugacy class, in increasing order."""
    inverse = {}
    for p in perms:
        inv = [0] * len(p)
        for v, w in enumerate(p):
            inv[w] = v
        inverse[p] = tuple(inv)
    seen = set()
    reps = []
    for a, pa in enumerate(perms):
        if a in seen:
            continue
        reps.append(a)
        for x in perms:
            seen.add(index[_compose(_compose(x, pa), inverse[x])])
    return reps


def face_closure(maximal) -> list[tuple[int, ...]]:
    faces = set()
    for s in maximal:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            faces.update(combinations(s, k))
    return sorted(faces)


def _orientation_sign(vmap, simplex):
    """Sign of the permutation vmap induces on simplex, or 0 if it moves it."""
    image = [vmap[v] for v in simplex]
    if tuple(sorted(image)) != simplex:
        return 0
    sign = 1
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                sign = -sign
    return sign


def hopf_character(degree, generators, simplices, vertex_images,
                   lattice_matrices, rank) -> list[int]:
    """Alternating cochain trace at each class representative, class order."""
    perms, vmaps, lmats, index = enumerate_group(
        degree, generators, vertex_images, lattice_matrices)
    values = []
    for e in class_representatives(perms, index):
        if e == 0:
            values.append(rank * sum((-1) ** (len(s) - 1) for s in simplices))
            continue
        trace = sum(lmats[e][i][i] for i in range(rank))
        total = 0
        for s in simplices:
            total += (-1) ** (len(s) - 1) * _orientation_sign(vmaps[e], s)
        values.append(total * trace)
    return values


def expected_from_doc(doc: dict) -> list[int]:
    """Expected lhs values of a generated scenario document."""
    gens = doc["group"]["generators"]
    lat = doc["lattice"]
    return hopf_character(
        doc["group"]["degree"], gens, face_closure(doc["complex"]["maximal_simplices"]),
        doc["complex"]["action"], [lat["action"][str(i)] for i in range(len(gens))],
        lat["rank"])


def expected_from_scenario(scenario) -> list[int]:
    """Expected lhs values of a constructed equilef Scenario (for builtins)."""
    g = scenario.group
    gens = g.generator_permutations or ()
    elems = g.generator_elements or ()
    x = scenario.complex
    degree = len(gens[0]) if gens else 1
    return hopf_character(
        degree, gens, [s for level in x.simplices for s in level],
        [x.vertex_action[e] for e in elems],
        [scenario.lattice.matrices[e] for e in elems], scenario.lattice.rank)


def report_ok(report: dict, expected: list[int]) -> bool:
    """True when the report passed and its lhs equals the Hopf character."""
    if report.get("passed") is not True:
        return False
    lhs = report.get("characters", {}).get("lhs")
    if not isinstance(lhs, list) or len(lhs) != len(expected):
        return False
    got = [Fraction(int(v["num"]), int(v["den"])) for v in lhs]
    return got == [Fraction(v) for v in expected]
