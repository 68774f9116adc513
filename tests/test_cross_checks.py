"""Internal cross-checks fire when the fact they guard is corrupted.

Each test corrupts one computed intermediate with ``monkeypatch`` (the fault
lives only here) and expects ``ArithmeticError`` from the library and exit 3
from ``equilef``, with a message that names the check.

The corollary and the left-hand side read Lefschetz numbers at one
representative per conjugacy class.  Two checks guard those numbers: the
alternating trace on cohomology must be an integer, and it must equal the
Hopf chain-level trace.  ``triangle-s3`` is a circle under S3: three classes,
two of them non-identity.  Further down: d o d = 0 on a built coboundary,
Euler-Poincare over Q and over F_p, the per-degree reconciliation of the F_p
dimensions with the integral cohomology (universal coefficients), the
factorized stratum character against the traced one, the orbit count of a
free action, the degree squares of a character table, the integrality of a
Galois orbit sum, and the integrality of the three characters the engine
compares.  Last, the invariants of the character-table build (the Dixon
prime, the roots of each class sum's minimal polynomial, the idempotent
split mod p, the lift and the Galois action), of the cyclotomic polynomials
behind it, and of the cohomology trace (the image of a cocycle is a
cocycle).
"""

import importlib
import re
from fractions import Fraction

import pytest

import equilef.cli as cli
from equilef import (
    builtin_names,
    builtin_scenario,
    element_classes,
    full_verification,
    verify_corollary,
    verify_modp_comparison,
)
from equilef.characters import (
    CharacterTable,
    ClassFunction,
    IntegralityError,
    character_table,
    rational_irreducibles,
    trivial_character,
)
from equilef.cohomology import CellCochains, CochainComplex
from equilef.cyclotomic import cyclotomic_polynomial
from equilef.cyclotomic import Cyclotomic
from equilef.engine import rhs_isotypic, verify_free_action
from equilef.groups import _INTERN, group_from_permutations

# the attribute equilef.cohomology is the function of that name
COHOMOLOGY = importlib.import_module("equilef.cohomology")
CHARACTERS = importlib.import_module("equilef.characters")
COMPLEXES = importlib.import_module("equilef.complexes")
ENGINE = importlib.import_module("equilef.engine")
CYCLOTOMIC = importlib.import_module("equilef.cyclotomic")

NAME = "triangle-s3"


def _non_identity_representatives(s):
    return [c.representative for c in element_classes(s.group)[1:]]


@pytest.fixture
def half_trace_in_degree_0(monkeypatch):
    # a shift in every degree would cancel in the alternating sum of the circle
    trace = CochainComplex.trace_on_cohomology
    monkeypatch.setattr(
        CochainComplex, "trace_on_cohomology",
        lambda cc, e, k: trace(cc, e, k) + (Fraction(1, 2) if e != 0 and k == 0 else 0))


def test_non_integral_alternating_trace_is_raised(half_trace_in_degree_0):
    s = builtin_scenario(NAME)
    reps = _non_identity_representatives(s)
    assert len(reps) == 2
    verify_corollary(s, 0)
    for g in reps:
        with pytest.raises(ArithmeticError, match="non-integral alternating trace"):
            verify_corollary(s, g)
    with pytest.raises(ArithmeticError, match="non-integral alternating trace"):
        full_verification(builtin_scenario(NAME))


def test_non_integral_alternating_trace_is_an_internal_error(half_trace_in_degree_0, capsys):
    assert cli.main(["verify", NAME]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "non-integral alternating trace" in err


@pytest.fixture
def hopf_off_by_one_away_from_identity(monkeypatch):
    # the cells' fixed count in degree 0: the Hopf side of the rank-one comparison
    fixed = CellCochains.fixed
    monkeypatch.setattr(CellCochains, "fixed", lambda cells, images, k: fixed(cells, images, k)
                        + (k == 0 and not cells.is_identity(images)))


def test_hopf_mismatch_at_a_non_identity_class_is_raised(hopf_off_by_one_away_from_identity):
    s = builtin_scenario(NAME)
    verify_corollary(s, 0)
    for g in _non_identity_representatives(s):
        with pytest.raises(ArithmeticError, match=f"Hopf trace of element {g} disagrees"):
            verify_corollary(s, g)
    with pytest.raises(ArithmeticError, match="Hopf trace"):
        full_verification(builtin_scenario(NAME))


def test_hopf_mismatch_at_a_non_identity_class_is_an_internal_error(
        hopf_off_by_one_away_from_identity, capsys):
    assert cli.main(["verify", NAME]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Hopf trace" in err


def test_no_hopf_comparison_of_a_builtins_pass_is_forced_equal_by_the_lattice(monkeypatch):
    # chi_L(g) = 0 at the non-identity classes of a regular lattice: two traces
    # scaled by it read 0 = 0 whatever the cells give.  A comparison is forced
    # when a corrupted fixed count of the cells leaves its sides equal.
    compared, cell_traces = [], CochainComplex.cell_traces
    monkeypatch.setattr(CochainComplex, "cell_traces",
                        lambda cc, e: compared.append((cc, e)) or cell_traces(cc, e))
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    at_zero = [(cc, e) for cc, e in compared if cc.lattice.trace(e) == 0]
    assert (len(compared), len(at_zero)) == (126, 16)
    fixed = CellCochains.fixed
    monkeypatch.setattr(CellCochains, "fixed",
                        lambda cells, images, k: fixed(cells, images, k) + (k == 0))
    forced = [(cc, e) for cc, e in at_zero if len(set(cell_traces(cc, e))) == 1]
    assert forced == []


def _fires(capsys, name, message, error=ArithmeticError, commands=("verify",)):
    """full_verification of the builtin raises error, and each ``equilef``
    command on it exits 3; all name message."""
    with pytest.raises(error, match=re.escape(message)):
        full_verification(builtin_scenario(name))
    for command in commands:
        assert cli.main([command, name]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"internal error: {message}"), err


def test_a_flipped_coboundary_entry_breaks_d_squared(monkeypatch, capsys):
    # one sign of d_0 on the disc: the edge bounds a triangle, so d_1 d_0 != 0
    build = CellCochains._build_coboundary

    def flipped(cells, k):
        columns = build(cells, k)
        if k == 0 and columns[0]:
            row = min(columns[0])
            columns[0][row] = -columns[0][row]
        return columns

    monkeypatch.setattr(CellCochains, "_build_coboundary", flipped)
    _fires(capsys, "disc-reflection", "differential does not square to zero")


def test_a_lost_cocycle_breaks_euler_poincare_over_q(monkeypatch, capsys):
    # one recorded kernel vector of a coboundary over Q goes missing, so one
    # cohomology representative does; the trivial group reads only identity traces
    reduce_columns = COHOMOLOGY.reduce_columns

    def lossy(columns, p=0, record=False, skip=()):
        echelon, kernel = reduce_columns(columns, p, record, skip)
        return echelon, kernel[:-1] if record and not p else kernel

    monkeypatch.setattr(COHOMOLOGY, "reduce_columns", lossy)
    _fires(capsys, "projective-plane", "Euler-Poincare mismatch over Q")


def test_a_wrong_mod_p_dimension_breaks_euler_poincare_over_f_p(monkeypatch, capsys):
    # dimensions computed from any ranks satisfy Euler-Poincare, so the mod-p
    # check guards the step from ranks to dimensions: one dimension is raised
    dims_from_ranks = COHOMOLOGY._dims_from_ranks

    def raised(sizes, ranks):
        dims = dims_from_ranks(sizes, ranks)
        return (dims[0] + 1,) + dims[1:]

    monkeypatch.setattr(COHOMOLOGY, "_dims_from_ranks", raised)
    _fires(capsys, "disc-reflection", "Euler-Poincare mismatch mod 2")


def test_a_dropped_mod_p_pivot_breaks_universal_coefficients(monkeypatch, capsys):
    # every mod-p reduction loses its last pivot: ranks drop, so dimensions
    # rise; Euler-Poincare still holds, the per-degree reconciliation does not
    reduce_columns = COHOMOLOGY.reduce_columns

    def dropped(columns, p=0, record=False, skip=()):
        echelon, kernel = reduce_columns(columns, p, record, skip)
        if p and echelon:
            del echelon[max(echelon)]
        return echelon, kernel

    monkeypatch.setattr(COHOMOLOGY, "reduce_columns", dropped)
    with pytest.raises(ArithmeticError, match="mod 2 dimension in degree 0"):
        verify_modp_comparison(builtin_scenario("disc-reflection"), 2)
    _fires(capsys, "disc-reflection",
           "disc-reflection: mod 2 dimension in degree 0 does not reconcile with "
           "the integral cohomology: 2 != 1 + 0 + 0")


def _clear_one_column_too_many(monkeypatch, field):
    """Every cleared reduction over the field (0 for Q) also skips the first
    column that clearing must keep, one that leaves a pivot: the rank over
    that field drops.  ``smith_invariants`` still sees every column."""
    reduce_columns = COHOMOLOGY.reduce_columns

    def wrong(columns, p=0, record=False, skip=()):
        if skip and p == field:
            zero = {j for j, _ in reduce_columns(columns, p, True, skip)[1]}
            kept = [j for j in range(len(columns)) if j not in skip and j not in zero]
            skip = {*skip, *kept[:1]}
        return reduce_columns(columns, p, record, skip)

    monkeypatch.setattr(COHOMOLOGY, "reduce_columns", wrong)


def test_a_wrong_clearing_over_q_is_caught_twice(monkeypatch, capsys):
    # the rational dimensions are kernel counts, so Euler-Poincare over Q sees
    # the lost pivot first; the rank of d_1 over Z, from the uncleared
    # columns, catches it on its own
    _clear_one_column_too_many(monkeypatch, 0)
    _fires(capsys, "projective-plane", "Euler-Poincare mismatch over Q: cells 1, cohomology 2")
    monkeypatch.setattr(COHOMOLOGY, "_euler_checked", lambda cells, dims, where: dims)
    with pytest.raises(ArithmeticError, match="rank of d_1 is 10 over Z but 9 over Q"):
        builtin_scenario("projective-plane").whole_cochains().integral_cohomology()


def test_a_wrong_clearing_mod_p_breaks_universal_coefficients(monkeypatch, capsys):
    # dimensions from ranks satisfy Euler-Poincare whatever the ranks; the
    # per-degree reconciliation with the Smith invariants does not
    _clear_one_column_too_many(monkeypatch, 2)
    _fires(capsys, "disc-reflection",
           "disc-reflection: mod 2 dimension in degree 1 does not reconcile with "
           "the integral cohomology: 1 != 0 + 0 + 0")


def test_a_corrupted_traced_stratum_character_is_raised(monkeypatch, capsys):
    # one more than the traced character on every proper isotropy subgroup: it
    # stays integral, and the whole group (the lhs) is untouched
    traced = CochainComplex.equivariant_euler_characteristic

    def off_by_one(cc, acting):
        chi = traced(cc, acting)
        if acting.order == acting.parent.order:
            return chi
        return chi + trivial_character(chi.group)

    monkeypatch.setattr(CochainComplex, "equivariant_euler_characteristic", off_by_one)
    _fires(capsys, NAME,
           f"{NAME}: factorized character disagrees with traced character on stratum of ")


def test_a_lost_orbit_representative_breaks_the_free_orbit_count(monkeypatch, capsys):
    # hexagon-rot6 acts freely with trivial coefficients, so verify counts the
    # cells of its quotient as orbits; one edge orbit goes missing
    representatives = ENGINE._orbit_representatives

    def lossy(x):
        reps = representatives(x)
        return reps[:1] + [reps[1][:-1]] + reps[2:]

    monkeypatch.setattr(ENGINE, "_orbit_representatives", lossy)
    with pytest.raises(ArithmeticError, match="orbit count mismatch for a free action"):
        verify_free_action(builtin_scenario("hexagon-rot6"))
    _fires(capsys, "hexagon-rot6", "orbit count mismatch for a free action")


def test_a_repeated_degree_two_character_breaks_the_degree_squares(monkeypatch, capsys):
    # S3's sign row becomes a copy of its degree-2 row: its eigenvalue
    # multiplicities still sum to its degree, but 1 + 4 + 4 != 6
    central = CHARACTERS._central_characters_mod_p

    def sign_as_degree_two(g, p):
        rows = central(g, p)
        if g.order != 6:
            return rows
        two = next(r for r in rows if r[0] == 2)
        return [two if d == 1 and any(v != 1 for v in row) else (d, row) for d, row in rows]

    monkeypatch.setattr(CHARACTERS, "_central_characters_mod_p", sign_as_degree_two)
    _fires(capsys, "triangle-s3", "degree squares do not sum to the group order")
    assert cli.main(["chartab", "triangle-s3"]) == 3


def _galois_fixed_rows(table):
    """C3's table with rows (1, z, z) and (1, z^2, z^2): the power map
    z -> z^2 swaps the two non-identity classes, so each row is its own orbit."""
    g = table.group
    z, z2 = (Cyclotomic.from_root_combination(3, [0] * k + [1]) for k in (1, 2))
    one = Cyclotomic.from_root_combination(1, [1])
    rows = (ClassFunction(g, (one, z, z)), ClassFunction(g, (one, z2, z2)))
    return CharacterTable(g, table.classes, table.irreducibles[:1] + rows, table.degrees)


def test_a_galois_fixed_non_rational_row_breaks_orbit_sum_integrality(monkeypatch, capsys):
    c3 = group_from_permutations(3, [(1, 2, 0)])
    with pytest.raises(IntegralityError, match="Galois orbit sum has a non-integer value"):
        rational_irreducibles(_galois_fixed_rows(character_table(c3)))
    # hexagon-rot3's C3 would otherwise share the table just built
    _INTERN.clear()
    build = CHARACTERS._build_character_table
    monkeypatch.setattr(
        CHARACTERS, "_build_character_table",
        lambda g: _galois_fixed_rows(build(g)) if g.order == 3 else build(g))
    _fires(capsys, "hexagon-rot3", "Galois orbit sum has a non-integer value",
           error=IntegralityError)
    assert cli.main(["chartab", "hexagon-rot3"]) == 3


def _halved(f):
    return lambda *args: f(*args).scale(Fraction(1, 2))


def test_a_halved_lhs_breaks_its_integrality(monkeypatch, capsys):
    # on C2 fixing a point the lhs is the trivial character; half of it is not integral
    monkeypatch.setattr(CochainComplex, "equivariant_euler_characteristic",
                        _halved(CochainComplex.equivariant_euler_characteristic))
    _fires(capsys, "point-c2", "point-c2: lhs: ", error=IntegralityError)


def test_halved_inductions_break_the_integrality_of_both_sides(monkeypatch, capsys):
    monkeypatch.setattr(ENGINE, "induce", _halved(ENGINE.induce))
    _fires(capsys, "point-c2", "point-c2: rhs (induction): ", error=IntegralityError)
    # verify stops at the induction side; the isotypic side checks its own sum
    with pytest.raises(IntegralityError, match=r"point-c2: rhs \(isotypic\): "):
        rhs_isotypic(builtin_scenario("point-c2"))


def test_a_lowered_prime_bound_leaves_no_dixon_prime(monkeypatch, capsys):
    monkeypatch.setattr(CHARACTERS, "DIXON_PRIME_BOUND", 2)
    _fires(capsys, NAME, "no suitable prime below 2 for exponent ",
           commands=("verify", "chartab"))


def _patch_minimal_polynomial(monkeypatch, corrupt):
    """Every Krylov reduction of the split returns corrupt(f, krylov): the
    minimal polynomial of a class sum on a part, and the Krylov vectors that
    its projections combine."""
    minimal = CHARACTERS.minimal_polynomial
    monkeypatch.setattr(CHARACTERS, "minimal_polynomial",
                        lambda columns, v, p, n=None: corrupt(*minimal(columns, v, p, n), p))


def test_a_repeated_root_means_the_class_algebra_does_not_split(monkeypatch, capsys):
    # f^2 has the roots of f, each twice: fewer distinct roots than its degree,
    # as for a class sum that is not diagonalizable mod p
    def squared(f, krylov, p):
        out = [0] * (2 * len(f) - 1)
        for a, x in enumerate(f):
            for b, y in enumerate(f):
                out[a + b] = (out[a + b] + x * y) % p
        return out, krylov

    _patch_minimal_polynomial(monkeypatch, squared)
    _fires(capsys, NAME, "minimal polynomial of class sum 1 has 3 roots in F_p, fewer than "
           "its degree 6: the class algebra does not split", commands=("verify", "chartab"))


def test_lost_krylov_vectors_make_a_zero_projection(monkeypatch, capsys):
    # each projection q(K_i) e / q(lam) combines the Krylov vectors; with
    # them lost it is zero, so no part splits off
    _patch_minimal_polynomial(monkeypatch, lambda f, krylov, p: (f, [{} for _ in krylov]))
    _fires(capsys, NAME, "class algebra failed to split over F_p",
           commands=("verify", "chartab"))


def test_a_minimal_polynomial_that_never_splits_never_reaches_lines(monkeypatch, capsys):
    # every part reads as an eigenvector of every class sum, f = x - 1, so the
    # identity is never split into the r parts
    _patch_minimal_polynomial(monkeypatch, lambda f, krylov, p: ([p - 1, 1], krylov[:1]))
    _fires(capsys, NAME, "common eigenspace splitting did not reach lines",
           commands=("verify", "chartab"))


def test_idempotents_without_an_identity_coordinate_are_raised(monkeypatch, capsys):
    # C2 splits at its first class sum, into combinations of {0: 1} and
    # {1: 1}; with the identity-class coordinate dropped from each Krylov
    # vector, the idempotents have none
    _patch_minimal_polynomial(monkeypatch, lambda f, krylov, p: (
        f, [{i: c for i, c in x.items() if i} for x in krylov]))
    _fires(capsys, "point-c2", "central character vanishes at the identity class",
           commands=("verify", "chartab"))


def _patch_central_characters(monkeypatch, corrupt):
    central = CHARACTERS._central_characters_mod_p
    monkeypatch.setattr(CHARACTERS, "_central_characters_mod_p",
                        lambda g, p: corrupt(central(g, p), p))


def test_a_wrong_identity_value_mod_p_breaks_the_multiplicities(monkeypatch, capsys):
    # a row's identity entry is its degree mod p: one more is one eigenvalue too many
    def shifted(rows, p):
        (degree, row), *rest = rows
        return [(degree, [(row[0] + 1) % p] + row[1:])] + rest

    _patch_central_characters(monkeypatch, shifted)
    _fires(capsys, NAME, "eigenvalue multiplicities do not sum to the degree",
           commands=("verify", "chartab"))


def test_a_repeated_trivial_row_is_raised(monkeypatch, capsys):
    def trivial_twice(rows, p):
        return [next(t for t in rows if set(t[1]) == {1})] + rows

    _patch_central_characters(monkeypatch, trivial_twice)
    _fires(capsys, NAME, "expected exactly one trivial character",
           commands=("verify", "chartab"))


def test_a_row_whose_galois_image_is_missing_is_raised(monkeypatch, capsys):
    # C3 with rows (1, 1, 1), (1, z, z^2), (1, z, z): z -> z^2 sends the
    # second row to (1, z^2, z), which is not in the table
    build = CHARACTERS._build_character_table

    def broken(g):
        table = build(g)
        if g.order != 3:
            return table
        z, z2 = (Cyclotomic.from_root_combination(3, [0] * k + [1]) for k in (1, 2))
        one = Cyclotomic.from_root_combination(1, [1])
        rows = (ClassFunction(g, (one, z, z2)), ClassFunction(g, (one, z, z)))
        return CharacterTable(g, table.classes, table.irreducibles[:1] + rows, table.degrees)

    monkeypatch.setattr(CHARACTERS, "_build_character_table", broken)
    _fires(capsys, "hexagon-rot3", "Galois action left the character table",
           commands=("verify", "chartab"))


def test_an_image_with_a_stray_entry_is_not_a_cocycle(monkeypatch, capsys):
    # degree-0 cocycles of the circle are the constants; under rank-one moves
    # that flip the sign of one vertex, a constant's image has one stray entry
    # of the other sign, and is not one
    moves = CellCochains.moves

    def flipped(cells, images, k):
        out = moves(cells, images, k)
        if k == 0 and out:
            (t_i, sign), *rest = out
            return [(t_i, -sign), *rest]
        return out

    monkeypatch.setattr(CellCochains, "moves", flipped)
    _fires(capsys, NAME, "degree-0 cochain is not a cocycle")


@pytest.fixture
def fresh_cyclotomic_polynomials():
    # cyclotomic_polynomial is an lru_cache: a corrupted build must start and
    # end with an empty one
    cyclotomic_polynomial.cache_clear()
    yield
    cyclotomic_polynomial.cache_clear()


def test_a_divisor_listed_twice_makes_a_division_inexact(
        monkeypatch, capsys, fresh_cyclotomic_polynomials):
    # Phi_e is x^e - 1 divided by Phi_d for each proper divisor d: dividing by
    # Phi_1 twice leaves a remainder
    divisors = CYCLOTOMIC.divisors
    monkeypatch.setattr(CYCLOTOMIC, "divisors", lambda e: [1] + divisors(e) if e > 1 else [1])
    _fires(capsys, NAME, "division was not exact", commands=("verify", "chartab"))


