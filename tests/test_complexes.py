"""Complexes, actions, strata, subdivisions, orbits of free actions."""

import hashlib
import importlib.util
import json
import random
from itertools import combinations
from pathlib import Path

import pytest

from equilef.cohomology import cochain_complex
from equilef.complexes import (
    SimplicialGComplex,
    _face_closure,
    _orbit_representatives,
    barycentric_subdivision,
    build_complex,
    exact_stratum,
    fixed_subcomplex,
    signed_image,
)
from equilef.engine import full_verification
from equilef.groups import (
    conjugacy_classes_of_subgroups,
    extend_from_generators,
    group_from_permutations,
    subgroups,
)
from equilef.scenario_io import (
    canonical_json, parse_scenario, parse_scenario_file, summary_to_dict)
from equilef.scenarios import builtin_names, builtin_scenario
from chartab_oracle import symmetric

GEN = Path(__file__).parents[1] / "perfbench" / "gen.py"
COMPLEXES = importlib.import_module("equilef.complexes")


def test_face_closure():
    g = group_from_permutations(1, [])
    x = build_complex([(0, 1, 2)], g, [])
    assert x.counts() == (3, 3, 1)
    assert x.simplices[1] == ((0, 1), (0, 2), (1, 2))


def test_rejects_broken_input():
    g1 = group_from_permutations(1, [])
    with pytest.raises(ValueError):
        build_complex([], g1, [])
    with pytest.raises(ValueError):
        build_complex([(0, 5)], g1, [], n_vertices=2)
    c3 = group_from_permutations(3, [(1, 2, 0)])
    # the rotation maps the declared edge to one not in the complex
    with pytest.raises(ValueError):
        build_complex([(0, 1)], c3, [(1, 2, 0)], n_vertices=3)
    c2 = group_from_permutations(2, [(1, 0)])
    with pytest.raises(ValueError):
        build_complex([(0, 1)], c2, [(0, 0)])
    # image must respect every relation of the generators
    with pytest.raises(ValueError) as err:
        build_complex([(0, 1, 2)], c2, [(1, 2, 0)], n_vertices=3)
    assert "relation" in str(err.value)


def test_rejects_negative_vertices():
    g1 = group_from_permutations(1, [])
    with pytest.raises(ValueError, match=r"simplex \(-1,\) has out-of-range vertices"):
        build_complex([(-1, 0)], g1, [])


def test_identity_generator_must_act_trivially_on_vertices():
    # C2 presented with an extra identity generator, first in the list
    c2 = group_from_permutations(2, [(0, 1), (1, 0)])
    x = build_complex([(0, 1)], c2, [(0, 1), (1, 0)])
    plain = build_complex([(0, 1)], group_from_permutations(2, [(1, 0)]), [(1, 0)])
    assert x.vertex_action == plain.vertex_action
    assert x.simplices == plain.simplices
    with pytest.raises(ValueError, match="relation"):
        build_complex([(0, 1)], c2, [(1, 0), (1, 0)])
    # the trivial group presented by an identity generator
    trivial = group_from_permutations(2, [(0, 1)])
    assert build_complex([(0, 1)], trivial, [(0, 1)]).vertex_action == ((0, 1),)
    with pytest.raises(ValueError, match="relation"):
        build_complex([(0, 1)], trivial, [(1, 0)])


def test_sign_cocycle(corpus):
    # epsilon(gh, s) = epsilon(g, hs) * epsilon(h, s)
    for s in corpus:
        x = s.complex
        g = s.group
        simplices = [t for dim in x.simplices for t in dim]
        for a in range(g.order):
            for b in range(g.order):
                ab = g.mul[a][b]
                for t in simplices[:25]:
                    bt, sign_b = signed_image(x.vertex_action[b], t)
                    abt, sign_a = signed_image(x.vertex_action[a], bt)
                    image, sign_ab = signed_image(x.vertex_action[ab], t)
                    assert image == abt
                    assert sign_ab == sign_a * sign_b


def test_subdivision_counts_and_euler():
    g = group_from_permutations(1, [])
    filled = build_complex([(0, 1, 2)], g, [])
    sub = barycentric_subdivision(filled)
    assert sub.counts() == (7, 12, 6)
    boundary = build_complex([(0, 1), (1, 2), (0, 2)], g, [])
    assert barycentric_subdivision(boundary).counts() == (6, 6)


def test_subdivision_preserves_euler(corpus):
    seen = set()
    for s in corpus:
        key = id(s.complex)
        if key in seen or sum(s.complex.counts()) > 60:
            continue
        seen.add(key)
        sub = barycentric_subdivision(s.complex)
        assert sub.euler_characteristic() == s.complex.euler_characteristic()
        # one subdivision vertex per original simplex
        assert sub.counts()[0] == sum(s.complex.counts())
        assert sub.subdivision_count == s.complex.subdivision_count + 1


def test_irregular_action_is_subdivided_away():
    # the swap fixes the edge setwise but not pointwise
    c2 = group_from_permutations(2, [(1, 0)])
    x = build_complex([(0, 1)], c2, [(1, 0)])
    assert x.subdivision_count == 1
    assert x.counts() == (3, 2)
    assert x.regularity_violation() is None
    fixed = fixed_subcomplex(x, c2.whole_subgroup())
    assert fixed.sizes() == (1, 0)


def _all_elements_violation(x):
    """The oracle of ``regularity_violation``: every element on every simplex."""
    for level in x.simplices[1:]:
        for s in level:
            stab = x.stabilizer(s)
            for e in range(1, x.group.order):
                if e not in stab and x.act_simplex(e, s) == s:
                    return (e, s)
    return None


def test_the_orbit_wise_regularity_scan_finds_the_oracle_witness(monkeypatch):
    # every scan while building the builtins, the seed-1 and seed-2 generated
    # documents, S4 on the tetrahedron boundary and C2 on the 8-vertex simplex
    scan = SimplicialGComplex.regularity_violation
    witnesses = []

    def checked(x):
        found = scan(x)
        assert found == _all_elements_violation(x)
        witnesses.append(found)
        return found

    monkeypatch.setattr(SimplicialGComplex, "regularity_violation", checked)
    for name in builtin_names():
        builtin_scenario(name)
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    for seed in (1, 2):
        for workload in ("large-group", "large-complex"):
            for doc in gen.workload_docs(workload, seed):
                parse_scenario(json.dumps(doc))
    s4 = symmetric(4)
    build_complex(list(combinations(range(4), 3)), s4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    swap = group_from_permutations(2, [(1, 0)])
    simplex = SimplicialGComplex(swap, 8, _face_closure([tuple(range(8))]),
                                 [tuple(range(8)), (1, 0, 2, 3, 4, 5, 6, 7)])
    assert checked(simplex) == (1, (0, 1))
    # the orbit of the first edge is regular, the third edge is flipped
    assert checked(_raw_complex([(0, 1), (2, 3), (4, 5)], [(2, 3, 0, 1, 5, 4)])) == (1, (4, 5))
    # edges are moved freely by the rotation, the triangle is fixed setwise
    assert checked(_raw_complex([(0, 1, 2)], [(1, 2, 0)])) == (1, (0, 1, 2))
    rng = random.Random(2207)
    for _ in range(60):
        n = rng.randint(3, 7)
        gens = [tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 2))]
        seeds = [tuple(rng.sample(range(n), rng.randint(2, min(n, 4)))) for _ in range(2)]
        checked(_raw_complex(seeds, gens))
    violations = [w for w in witnesses if w is not None]
    assert len(violations) >= 40 and len(witnesses) - len(violations) >= 40
    assert {len(s) for _, s in violations} >= {2, 3}


def _raw_complex(simplices, generators) -> SimplicialGComplex:
    """The orbits of the simplices under the group of the vertex permutations,
    before any subdivision."""
    n = len(generators[0])
    group = group_from_permutations(n, generators)
    action = extend_from_generators(group, generators, tuple(range(n)),
                                    lambda a, b: tuple(a[v] for v in b), "vertex map")
    maximal = {tuple(sorted(row[v] for v in s)) for row in action for s in simplices}
    return SimplicialGComplex(group, n, _face_closure(maximal), action)


def test_corpus_complexes_are_regular(corpus):
    for s in corpus:
        assert s.complex.regularity_violation() is None, s.name


def test_exact_strata_partition(corpus):
    for s in corpus:
        x = s.complex
        total = [0] * len(x.counts())
        for h in subgroups(s.group):
            sizes = exact_stratum(x, h).sizes()
            for k, v in enumerate(sizes):
                total[k] += v
        assert tuple(total) == x.counts(), s.name


def test_exact_strata_are_locally_closed_and_open_in_fixed(corpus):
    for s in corpus:
        x = s.complex
        for cls in conjugacy_classes_of_subgroups(s.group):
            h = cls.representative
            stratum = exact_stratum(x, h)
            assert stratum.is_locally_closed(), (s.name, h.member_set)
            fixed = fixed_subcomplex(x, h)
            # fixed sets are closed subcomplexes
            assert fixed.closure_set() == fixed.simplex_set()
            assert stratum.simplex_set() <= fixed.simplex_set()
            # the stratum is invariant under its own subgroup
            own = stratum.simplex_set()
            for e in h.member_set:
                assert all(x.act_simplex(e, t) in own for t in own)


def test_stabilizers_agree_with_vertex_action(corpus):
    for s in corpus:
        x = s.complex
        for v in range(min(x.n_vertices, 8)):
            expected = frozenset(
                e for e in range(s.group.order) if x.vertex_action[e][v] == v
            )
            assert x.vertex_stabilizers()[v] == expected
            assert x.stabilizer((v,)) == expected


ORBIT_COUNTS = {
    # name -> (orbits of cells per dimension, the Euler characteristic of X/G)
    "octahedron-antipodal": ((3, 6, 4), 1),
    "hexagon-rot2": ((3, 3), 0),
    "hexagon-rot3": ((2, 2), 0),
    "hexagon-rot6": ((1, 1), 0),
    "pair-of-triangles": ((3, 3, 1), 1),
}


def test_the_orbits_of_a_regular_complex_are_walked_once(monkeypatch):
    # C6 rotating a hexagon: the regularity scan at build time walks the
    # orbit of edges; the vertices are walked once, when first asked for
    c6 = group_from_permutations(6, [(1, 2, 3, 4, 5, 0)])
    x = build_complex([(i, (i + 1) % 6) for i in range(6)], c6, [(1, 2, 3, 4, 5, 0)])
    assert x.subdivision_count == 0
    act, walked = SimplicialGComplex.act_simplex, []

    def counted(self, e, s):
        walked.append(s)
        return act(self, e, s)

    monkeypatch.setattr(SimplicialGComplex, "act_simplex", counted)
    for _ in range(2):
        assert _orbit_representatives(x) == [((0,),), ((0, 1),)]
    assert walked == [(0,)] * 5


def test_the_regularity_scan_stops_at_the_first_violating_level(monkeypatch):
    # S4 on the tetrahedron's boundary: the scan walks the one orbit of edges
    # (23 images of (0, 1)) and finds the transposition of its ends at once,
    # element 1; no vertex or triangle is walked.  The subdivision then maps
    # each of the 14 cells by each of the 24 elements.
    act, dims = SimplicialGComplex.act_simplex, []

    def counted(self, e, s):
        dims.append(len(s) - 1)
        return act(self, e, s)

    monkeypatch.setattr(SimplicialGComplex, "act_simplex", counted)
    s4 = symmetric(4)
    x = build_complex(list(combinations(range(4), 3)), s4, s4.generator_permutations)
    assert x.subdivision_count == 1
    assert dims[:24] == [1] * 24
    assert len(dims) == 24 + 14 * 24


def test_orbit_counts_of_free_actions(by_name):
    for name, (orbits, chi) in ORBIT_COUNTS.items():
        x = by_name[name].complex
        reps = _orbit_representatives(x)
        assert tuple(map(len, reps)) == orbits, name
        assert sum((-1) ** k * n for k, n in enumerate(orbits)) == chi, name
        order = x.group.order
        for k, level in enumerate(x.simplices):
            assert len(level) == order * orbits[k], (name, k)
            # the orbits of the representatives partition the level
            assert {x.act_simplex(e, t) for t in reps[k] for e in range(order)} == set(level)
    # the antipodal quotient has the projective plane's Euler characteristic
    assert by_name["projective-plane"].complex.euler_characteristic() == 1


def tetrahedra_doc(n=60):
    """n disjoint tetrahedra cycled by C_3 in triples, and a triangle's boundary
    rotated by it: a free action on 906 cells whose orbit quotient is not
    simplicial (the triangle's boundary becomes one vertex with a loop)."""
    perm = [4 * (t - t % 3 + (t + 1) % 3) + i for t in range(n) for i in range(4)]
    a, b, c = 4 * n, 4 * n + 1, 4 * n + 2
    return {
        "schema_version": 1,
        "name": f"tetrahedra-{n}",
        "group": {"degree": 3, "generators": [[1, 2, 0]]},
        "complex": {"vertices": 4 * n + 3,
                    "maximal_simplices": [list(range(4 * t, 4 * t + 4)) for t in range(n)]
                    + [[a, b], [b, c], [a, c]],
                    "action": [perm + [b, c, a]]},
        "lattice": {"rank": 1, "action": {"0": [[1]]}},
    }


def test_verify_builds_no_quotient(monkeypatch):
    s = parse_scenario(json.dumps(tetrahedra_doc()))
    assert sum(s.complex.counts()) == 906 and s.complex.is_free()
    calls = []
    subdivide = COMPLEXES.barycentric_subdivision
    monkeypatch.setattr(COMPLEXES, "barycentric_subdivision",
                        lambda x: calls.append(x) or subdivide(x))
    summary = full_verification(s)
    assert calls == []
    assert summary.free_action.quotient_ok is True
    # the report a verify that subdivided the whole base twice for a simplicial
    # quotient (164,724 cells) wrote, byte for byte
    report = canonical_json(summary_to_dict(summary, s)).encode()
    assert hashlib.sha256(report).hexdigest() == (
        "cfa21b1fca714f526a87a47073d9c7c8ec1d0944e7b86ccf0675b1573b9a49b5")


def _generated_builds():
    """A build of each seed 1-3 generated document's complex, without its
    forced subdivisions."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", GEN)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    builds = []
    for seed in (1, 2, 3):
        for workload in ("large-group", "large-complex"):
            for doc in gen.workload_docs(workload, seed):
                sf = parse_scenario_file(json.dumps(doc))
                builds.append(lambda sf=sf: build_complex(
                    sf.maximal_simplices,
                    group_from_permutations(sf.group_degree, sf.group_generators),
                    sf.complex_action, n_vertices=sf.vertices, pre_subdivisions=0))
    return builds


def test_one_subdivision_of_the_closure_is_regular(monkeypatch):
    # an element mapping a flag s_0 < ... < s_k of sd X to itself fixes each
    # s_i, their dimensions being distinct, so it fixes the flag pointwise:
    # one subdivision makes any simplicial action regular, and build_complex
    # never takes a second
    subdivide = COMPLEXES.barycentric_subdivision
    closures = []

    def recorded(x):
        closures.append(x)
        return subdivide(x)

    monkeypatch.setattr(COMPLEXES, "barycentric_subdivision", recorded)
    builds = [lambda name=name: builtin_scenario(name).complex for name in builtin_names()]
    builds += _generated_builds()
    assert len(builds) > len(builtin_names())
    subdivided = 0
    for build in builds:
        closures.clear()
        x = build()
        assert len(closures) <= 1 and x.subdivision_count == len(closures)
        closure = closures[0] if closures else x
        assert closure.subdivision_count == 0
        assert subdivide(closure).regularity_violation() is None
        subdivided += len(closures)
    assert subdivided  # some closure does need its subdivision


def test_triangle_action_needs_one_subdivision(by_name):
    x = by_name["triangle-s3"].complex
    assert x.subdivision_count == 1
    assert x.counts() == (6, 6)


def test_a_cell_set_is_one_stratum_with_one_cochain_complex(by_name):
    # the action is free: the stratum of the trivial subgroup is the whole space
    s = by_name["octahedron-antipodal"]
    x = s.complex
    whole, trivial = x.as_stratum(), exact_stratum(x, s.group.subgroup([0]))
    assert trivial is whole
    assert cochain_complex(trivial, s.lattice) is cochain_complex(whole, s.lattice)
    # every element fixes the point
    point = by_name["point-c2"]
    for a in range(point.group.order):
        h = point.group.cyclic_subgroup(a)
        assert fixed_subcomplex(point.complex, h) is point.complex.as_stratum()


def test_empty_strata_are_one_object():
    s4 = group_from_permutations(4, [(1, 0, 2, 3), (1, 2, 3, 0)])
    x = build_complex([(0,)], s4, [(0,), (0,)])
    *proper, whole = subgroups(s4)
    empty = [exact_stratum(x, h) for h in proper]
    assert len(proper) == 29
    assert all(st is empty[0] for st in empty)
    assert empty[0].sizes() == (0,)
    assert exact_stratum(x, whole) is x.as_stratum()
