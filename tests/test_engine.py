"""The verification engine on the builtin corpus, with frozen expectations."""

from fractions import Fraction

import pytest

from equilef.characters import character_table, induce, rational_irreducibles
from equilef.engine import (
    Scenario,
    lhs_character,
    rhs_induction,
    rhs_isotypic,
    verify_free_action,
    verify_theorem,
    verify_verdier,
)
from equilef.groups import element_classes, group_from_permutations
from equilef.cohomology import CochainComplex, GLattice
from equilef.complexes import build_complex
import equilef.scenarios as scenarios
from equilef.scenarios import builtin_names, builtin_scenario, builtin_scenarios

# lhs of the identity for every builtin scenario: one exact integer per
# conjugacy class, classes ordered by least member
FROZEN_LHS = {
    "point-trivial": (1,),
    "point-c2": (1, 1),
    "point-c2-sign": (1, -1),
    "point-c2-regular": (2, 0),
    "square-reflection": (0, 2),
    "square-reflection-sign": (0, -2),
    "square-reflection-regular": (0, 0),
    "hexagon-rot2": (0, 0),
    "hexagon-rot2-sign": (0, 0),
    "hexagon-rot2-regular": (0, 0),
    "hexagon-rot3": (0, 0, 0),
    "hexagon-rot3-regular": (0, 0, 0),
    "hexagon-rot6": (0, 0, 0, 0, 0, 0),
    "disc-reflection": (1, 1),
    "triangle-s3": (0, 2, 0),
    "triangle-s3-sign": (0, -2, 0),
    "triangle-s3-regular": (0, 0, 0),
    "octahedron-antipodal": (2, 0),
    "octahedron-antipodal-sign": (2, 0),
    "octahedron-antipodal-regular": (4, 0),
    "octahedron-reflection": (2, 0),
    "octahedron-reflection-sign": (2, 0),
    "octahedron-klein4": (2, 0, 2, 0),
    "torus-involution": (0, 4),
    "torus-involution-sign": (0, -4),
    "pair-of-triangles": (2, 0),
    "projective-plane": (1,),
}

FROZEN_COUNTS = {
    "square-reflection": (4, 4),
    "disc-reflection": (5, 8, 4),
    "triangle-s3": (6, 6),
    "octahedron-antipodal": (6, 12, 8),
    "torus-involution": (16, 48, 32),
    "pair-of-triangles": (6, 6, 2),
    "projective-plane": (6, 15, 10),
}

# scenarios whose action is free, with the invariant Euler characteristic
# (also the coefficient of the regular character in the lhs)
FROZEN_FREE = {
    "point-trivial": 1,
    "hexagon-rot2": 0,
    "hexagon-rot2-sign": 0,
    "hexagon-rot2-regular": 0,
    "hexagon-rot3": 0,
    "hexagon-rot3-regular": 0,
    "hexagon-rot6": 0,
    "octahedron-antipodal": 1,
    "octahedron-antipodal-sign": 1,
    "octahedron-antipodal-regular": 2,
    "pair-of-triangles": 1,
    "projective-plane": 1,
}


def test_corpus_is_complete():
    assert sorted(builtin_names()) == sorted(FROZEN_LHS)
    assert len(FROZEN_LHS) >= 12


def test_builtin_scenario_lookup():
    s = builtin_scenario("torus-involution")
    assert s.name == "torus-involution"
    with pytest.raises(KeyError):
        builtin_scenario("no-such-scenario")


def test_registry_names_are_the_built_names_in_order():
    assert [s.name for s in builtin_scenarios()] == builtin_names()
    assert list(FROZEN_LHS) == builtin_names()


def test_registry_builds_only_what_is_asked(monkeypatch):
    built = []
    real = scenarios.build_complex

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(scenarios, "build_complex", counting)
    names = builtin_names()
    assert built == [] and len(names) == len(FROZEN_LHS)
    assert builtin_scenario("octahedron-klein4").group.order == 4
    assert len(built) == 1


def test_frozen_lhs_values(corpus):
    for s in corpus:
        expected = tuple(Fraction(v) for v in FROZEN_LHS[s.name])
        assert lhs_character(s).values == expected, s.name


def test_theorem_reports(summaries):
    for name, summary in summaries.items():
        report = summary.theorem
        assert report.passed, name
        assert report.lhs == report.rhs_induction, name
        assert report.lhs == report.rhs_isotypic, name
        assert report.scenario_name == name
        assert report.elapsed_seconds >= 0
        if name in FROZEN_COUNTS:
            assert report.complex_counts == FROZEN_COUNTS[name], name


def test_both_rhs_forms_agree(corpus):
    for s in corpus:
        assert rhs_induction(s) == rhs_isotypic(s), s.name


def test_terms_reassemble_the_induction_rhs(summaries, by_name):
    for name, summary in summaries.items():
        s = by_name[name]
        total = lhs_character(s).scale(0)
        for term in summary.theorem.terms:
            total = total + term.induced.scale(term.weight)
        assert total == summary.theorem.rhs_induction, name


def test_terms_reassemble_the_isotypic_rhs(summaries, by_name):
    for name, summary in summaries.items():
        s = by_name[name]
        total = lhs_character(s).scale(0)
        for term in summary.theorem.terms:
            orbits = rational_irreducibles(
                character_table(term.subgroup.as_group())
            )
            for row in term.isotypic:
                piece = induce(term.subgroup, orbits[row.orbit_index].orbit_sum)
                total = total + piece.scale(term.weight * row.coefficient)
        assert total == summary.theorem.rhs_isotypic, name


def test_term_tables_are_consistent(summaries, by_name):
    for name, summary in summaries.items():
        lattice = by_name[name].lattice
        for term in summary.theorem.terms:
            assert term.weight == Fraction(
                term.subgroup_order, term.normalizer_order
            )
            assert term.stratum_euler == sum(
                (-1) ** k * n for k, n in enumerate(term.stratum_sizes)
            )
            # the factorized stratum character: Euler number times lattice trace
            inner = term.subgroup.as_group()
            for cls, value in zip(element_classes(inner), term.theta.values):
                parent_elem = term.subgroup.to_parent(cls.representative)
                expected = term.stratum_euler * lattice.trace(parent_elem)
                assert value == expected, (name, term.subgroup.member_set)


def test_corollary_for_every_element(summaries, by_name):
    for name, summary in summaries.items():
        order = by_name[name].group.order
        assert len(summary.corollaries) == order
        for g, rep in enumerate(summary.corollaries):
            assert rep.element == g
            assert rep.passed, (name, g)
            assert rep.whole_value == rep.fixed_value


def test_free_action_reports(summaries):
    for name, summary in summaries.items():
        report = summary.free_action
        assert report.applicable == (name in FROZEN_FREE), name
        assert report.passed, name
        if report.applicable:
            assert report.invariant_euler == FROZEN_FREE[name], name
            assert report.vanishing_ok and report.covering_ok


def test_verdier_reports(summaries):
    for name, summary in summaries.items():
        report = summary.verdier
        assert report.applicable == (name in FROZEN_FREE), name
        assert report.passed, name
        if report.applicable:
            assert report.multiple == FROZEN_FREE[name], name


def test_covering_and_regular_multiple_do_not_follow_from_vanishing(monkeypatch):
    # H^0 counted |G| too large at the identity: L(g) still vanishes off the
    # identity, but chi moves while the count of invariant cochains does not
    s = builtin_scenario("octahedron-antipodal-sign")
    traced = CochainComplex.trace_on_cohomology
    monkeypatch.setattr(
        CochainComplex, "trace_on_cohomology",
        lambda cc, e, k: traced(cc, e, k) + (s.group.order if (e, k) == (0, 0) else 0))
    report = verify_free_action(s)
    assert report.vanishing_ok and report.quotient_ok is None
    assert report.invariant_euler == FROZEN_FREE[s.name]
    assert not report.covering_ok and not report.passed
    assert not verify_verdier(s).passed


def test_modp_reports(summaries):
    for name, summary in summaries.items():
        assert tuple(m.prime for m in summary.modp) == (2, 3, 5), name
        for m in summary.modp:
            assert m.passed, (name, m.prime)
            assert m.chi_rational == m.chi_modp
            for row in m.rows:
                assert row.reconciles, (name, m.prime, row.degree)


def test_projective_plane_needs_the_torsion_correction(summaries):
    report = next(
        m for m in summaries["projective-plane"].modp if m.prime == 2
    )
    assert any(row.modp_dim != row.betti for row in report.rows)
    assert report.passed


def test_summary_passes(summaries):
    for name, summary in summaries.items():
        assert summary.passed, name
        assert summary.scenario_name == name


def test_verify_theorem_caches_are_per_scenario():
    # two builds of one scenario verify independently and identically
    a = builtin_scenario("square-reflection")
    b = builtin_scenario("square-reflection")
    assert a is not b
    ra, rb = verify_theorem(a), verify_theorem(b)
    assert ra.lhs == rb.lhs
    assert ra.passed and rb.passed


def test_scenario_rejects_group_mismatch():
    c2 = group_from_permutations(2, [(1, 0)])
    other = group_from_permutations(2, [(1, 0)])
    x = build_complex([(0,)], c2, [(0,)])
    with pytest.raises(ValueError):
        Scenario("bad", other, x, GLattice.trivial(other))


def test_primes_are_configurable():
    s = builtin_scenario("projective-plane")
    s.primes = (7,)
    from equilef.engine import full_verification

    summary = full_verification(s)
    assert tuple(m.prime for m in summary.modp) == (7,)
    assert summary.passed
