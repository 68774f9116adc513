"""Acceptance gate: eight headline guarantees, one verdict line each.

Each test records and prints a single [PASS]/[FAIL] line; the conftest
terminal-summary hook repeats the lines after the run so they are visible
without -s.  Everything is exact rational arithmetic; there is no tolerance
anywhere.
"""

import math
import random
import time
from fractions import Fraction

from equilef.characters import (
    IntegralityError,
    character_table,
    induce,
    inner_product,
    power_map,
    rational_coefficients,
    rational_irreducibles,
    restrict,
    trivial_character,
)
from equilef.cohomology import invariant_cohomology
from equilef.complexes import _orbit_representatives
from equilef.engine import verify_theorem
from equilef.groups import element_classes, subgroups
from equilef.scenarios import builtin_scenarios
from chartab_oracle import OracleCyclotomic, cyclotomic_inner_product, oracle_value

ONE = OracleCyclotomic.from_rational(1)
ZERO = OracleCyclotomic.from_rational(0)


def check(log, num, title, ok):
    log.append((num, title, bool(ok)))
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {title}")
    assert ok, f"criterion {num}: {title}"


def test_criterion_1_theorem_identity(acceptance_log):
    fresh = builtin_scenarios()
    started = time.perf_counter()
    reports = [verify_theorem(s) for s in fresh]
    elapsed = time.perf_counter() - started
    ok = (
        len(reports) >= 12
        and all(r.passed for r in reports)
        and all(
            r.lhs == r.rhs_induction and r.lhs == r.rhs_isotypic
            for r in reports
        )
        and elapsed < 10.0
    )
    check(
        acceptance_log,
        1,
        f"theorem identity on {len(reports)} scenarios "
        f"in {elapsed:.2f}s (< 10s), exact equality",
        ok,
    )


def test_criterion_2_cyclic_fixed_sets(acceptance_log, summaries, by_name):
    ok = True
    pairs = 0
    for name, summary in summaries.items():
        order = by_name[name].group.order
        ok = ok and len(summary.corollaries) == order
        for rep in summary.corollaries:
            pairs += 1
            ok = ok and rep.passed and rep.whole_value == rep.fixed_value
    check(
        acceptance_log,
        2,
        f"Lefschetz number of g equals its value on the g-fixed subcomplex "
        f"({pairs} element checks)",
        ok,
    )


def test_criterion_3_free_actions(acceptance_log, summaries):
    free = {
        name: s for name, s in summaries.items() if s.free_action.applicable
    }
    ok = len(free) >= 3
    nonzero_multiple = False
    for name, summary in free.items():
        fr = summary.free_action
        ok = ok and fr.vanishing_ok and fr.covering_ok
        ok = ok and fr.quotient_ok is not False
        vd = summary.verdier
        ok = ok and vd.applicable and vd.passed
        if vd.multiple != 0:
            nonzero_multiple = True
    # a nonzero multiple keeps the regular-character identity non-vacuous
    ok = ok and nonzero_multiple
    check(
        acceptance_log,
        3,
        f"free actions: vanishing, covering Euler law, regular multiples "
        f"({len(free)} scenarios)",
        ok,
    )


def test_criterion_4_modp_comparison(acceptance_log, summaries):
    ok = True
    for name, summary in summaries.items():
        primes = tuple(m.prime for m in summary.modp)
        ok = ok and primes == (2, 3, 5)
        for m in summary.modp:
            ok = ok and m.chi_rational == m.chi_modp
            ok = ok and all(r.reconciles for r in m.rows)
    # the projective plane must exercise the torsion correction at p = 2
    rp2_mod2 = next(
        m for m in summaries["projective-plane"].modp if m.prime == 2
    )
    ok = ok and any(r.modp_dim != r.betti for r in rp2_mod2.rows)
    check(
        acceptance_log,
        4,
        "Euler characteristic matches over F_2, F_3, F_5 and per-degree "
        "dimensions reconcile with torsion",
        ok,
    )


def test_criterion_5_oracle_equivalences(acceptance_log, corpus):
    ok = True
    triples = 0
    for s in corpus:
        cc = s.whole_cochains()
        for g in range(s.group.order):
            triples += 1
            ok = ok and Fraction(cc.hopf_trace(g)) == cc.lefschetz_number(g)
    quotient_checks = 0
    for s in corpus:
        if not (s.complex.is_free() and s.has_trivial_lattice()):
            continue
        quotient_checks += 1
        inv_dims = invariant_cohomology(s.complex, s.lattice)
        inv_euler = sum((-1) ** k * d for k, d in enumerate(inv_dims))
        # the cells of X/G are the orbits of cells of X
        orbits = _orbit_representatives(s.complex)
        ok = ok and inv_euler == sum((-1) ** k * len(reps) for k, reps in enumerate(orbits))
    ok = ok and quotient_checks >= 3
    check(
        acceptance_log,
        5,
        f"chain-level trace equals cohomology trace ({triples} pairs); "
        f"invariant Euler numbers match orbit counts ({quotient_checks} cases)",
        ok,
    )


def corpus_groups(corpus):
    unique = {}
    for s in corpus:
        unique.setdefault(s.group.mul, s.group)
    return list(unique.values())


def random_virtual_character(rng, group):
    orbits = rational_irreducibles(character_table(group))
    total = trivial_character(group).scale(0)
    for o in orbits:
        total = total + o.orbit_sum.scale(rng.randint(-3, 3))
    return total


def test_criterion_6_character_theory(acceptance_log, corpus):
    ok = True
    groups = corpus_groups(corpus)
    for g in groups:
        table = character_table(g)
        classes = element_classes(g)
        # row orthogonality
        for i, a in enumerate(table.irreducibles):
            for j, b in enumerate(table.irreducibles):
                expected = ONE if i == j else ZERO
                ok = ok and cyclotomic_inner_product(a, b) == expected
        # column orthogonality
        for i in range(len(classes)):
            for j in range(len(classes)):
                total = ZERO
                for chi in table.irreducibles:
                    total = total + (oracle_value(chi.values[i])
                                     * oracle_value(chi.values[j]).conjugate())
                if i == j:
                    expected = OracleCyclotomic.from_rational(
                        Fraction(g.order, classes[i].size)
                    )
                else:
                    expected = ZERO
                ok = ok and total == expected
        ok = ok and sum(d * d for d in table.degrees) == g.order
        # rational irreducibles match rational classes
        m = g.exponent()
        pm = power_map(g)
        fused = {
            frozenset(
                pm[j][k % m] for k in range(1, m + 1) if math.gcd(k, m) == 1
            )
            for j in range(len(classes))
        }
        ok = ok and len(rational_irreducibles(table)) == len(fused)
        # Frobenius reciprocity on randomized triples
        rng = random.Random(10_000 + g.order)
        subs = subgroups(g)
        for _ in range(100):
            h = rng.choice(subs)
            f = random_virtual_character(rng, h.as_group())
            w = random_virtual_character(rng, g)
            ok = ok and inner_product(induce(h, f), w) == inner_product(
                f, restrict(w, h)
            )
    check(
        acceptance_log,
        6,
        f"orthogonality, degree sums, rational orbit counts, and Frobenius "
        f"reciprocity on 100 random triples per group ({len(groups)} groups)",
        ok,
    )


def test_criterion_7_sensitivity(acceptance_log, summaries, by_name):
    """Any single +-1 perturbation of the rhs data breaks some verification."""
    term_breaks = weight_breaks = coefficient_breaks = 0
    term_misses = weight_misses = coefficient_misses = 0
    for name, summary in summaries.items():
        s = by_name[name]
        report = summary.theorem
        assert report.passed, name
        for term in report.terms:
            inner = term.subgroup.as_group()
            orbits = rational_irreducibles(character_table(inner))
            unit = induce(term.subgroup, trivial_character(inner))
            for sign in (1, -1):
                # (a) the whole per-subgroup term, shifted by a constant
                shifted = report.rhs_induction + unit.scale(sign * term.weight)
                if shifted == report.lhs:
                    term_misses += 1
                else:
                    term_breaks += 1
                # (b) the subgroup-to-normalizer weight factor
                reweighted = report.rhs_induction + term.induced.scale(sign)
                if reweighted == report.lhs:
                    if any(term.induced.values):
                        weight_misses += 1
                else:
                    weight_breaks += 1
                # (c) a single isotypic coefficient
                for row in term.isotypic:
                    bumped = report.rhs_isotypic + induce(
                        term.subgroup, orbits[row.orbit_index].orbit_sum
                    ).scale(sign * term.weight)
                    if bumped == report.lhs:
                        coefficient_misses += 1
                    else:
                        coefficient_breaks += 1
    ok = (
        term_breaks > 0
        and weight_breaks > 0
        and coefficient_breaks > 0
        # perturbations can only be invisible when they multiply a zero term
        and term_misses == 0
        and weight_misses == 0
        and coefficient_misses == 0
    )
    check(
        acceptance_log,
        7,
        f"every +-1 perturbation of a term, weight, or coefficient is caught "
        f"({term_breaks + weight_breaks + coefficient_breaks} detected)",
        ok,
    )


def _integral(v) -> bool:
    try:
        rational_coefficients(v, "criterion 8")
    except IntegralityError:
        return False
    return True


def test_criterion_8_integrality(acceptance_log, summaries):
    ok = True
    coefficients = 0
    for name, summary in summaries.items():
        report = summary.theorem
        for ch in (report.lhs, report.rhs_induction, report.rhs_isotypic):
            ok = ok and _integral(ch)
        for term in report.terms:
            ok = ok and _integral(term.theta)
            ok = ok and _integral(term.induced)
            for row in term.isotypic:
                coefficients += 1
                ok = ok and row.coefficient.denominator == 1
    # and the guard is live: a non-integral character is a hard failure
    some = summaries["point-c2"].theorem.lhs
    try:
        rational_coefficients(some.scale(Fraction(1, 2)), "synthetic half character")
        ok = False
    except IntegralityError:
        pass
    check(
        acceptance_log,
        8,
        f"all {coefficients} isotypic coefficients and every emitted "
        f"character are integral; violations raise hard errors",
        ok,
    )
