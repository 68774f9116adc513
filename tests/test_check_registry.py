"""Every internal cross-check is registered with a test that makes it fire.

An internal check is a ``raise ArithmeticError(...)`` or ``raise
IntegralityError(...)`` in ``src/equilef``: a fact the theory guarantees
failed, which the command line reports as exit 3.  A guard reads the source
with ``ast`` and lists each such site as (module, function, message), the
message being the error's literal text with ``{}`` for each interpolated
value.  ``REGISTRY`` maps every site to the test that corrupts the fact it
guards and expects it to fire.  A site that is not registered, or a
registered site that is gone, fails the guard; every site is reachable, so
none is exempt.

    PYTHONPATH=src python tests/mutate_checks.py

deletes each registered ``raise`` in turn, in a scratch copy of the tree, and
reports whether the registered test then fails.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "equilef").glob("*.py"))
ERRORS = ("ArithmeticError", "IntegralityError")

CROSS = "tests/test_cross_checks.py::"

REGISTRY = {
    ("characters", "_dixon_prime", "no suitable prime below {} for exponent {}"):
        CROSS + "test_a_lowered_prime_bound_leaves_no_dixon_prime",
    ("characters", "_central_characters_mod_p",
     "minimal polynomial of class sum {} has {} roots in F_p, fewer than its degree {}: "
     "the class algebra does not split"):
        CROSS + "test_a_repeated_root_means_the_class_algebra_does_not_split",
    ("characters", "_central_characters_mod_p", "class algebra failed to split over F_p"):
        CROSS + "test_lost_krylov_vectors_make_a_zero_projection",
    ("characters", "_central_characters_mod_p",
     "common eigenspace splitting did not reach lines"):
        CROSS + "test_a_minimal_polynomial_that_never_splits_never_reaches_lines",
    ("characters", "_central_characters_mod_p",
     "central character vanishes at the identity class"):
        CROSS + "test_idempotents_without_an_identity_coordinate_are_raised",
    ("characters", "_degree_mod_p", "no degree up to {} squares to {} mod {}"):
        "tests/test_cli.py::test_missing_character_degree_is_an_internal_error",
    ("characters", "_lift", "eigenvalue multiplicities do not sum to the degree"):
        CROSS + "test_a_wrong_identity_value_mod_p_breaks_the_multiplicities",
    ("characters", "_ordered_table", "expected exactly one trivial character"):
        CROSS + "test_a_repeated_trivial_row_is_raised",
    ("characters", "_ordered_table", "degree squares do not sum to the group order"):
        CROSS + "test_a_repeated_degree_two_character_breaks_the_degree_squares",
    ("characters", "_check_orthonormality",
     "characters {} and {} are not orthonormal; lifting is inconsistent"):
        "tests/test_chartab_oracle.py::test_value_plus_one_at_a_non_identity_class_is_rejected",
    ("characters", "rational_irreducibles", "Galois action left the character table"):
        CROSS + "test_a_row_whose_galois_image_is_missing_is_raised",
    ("characters", "rational_irreducibles", "Galois orbit sum has a non-integer value"):
        CROSS + "test_a_galois_fixed_non_rational_row_breaks_orbit_sum_integrality",
    ("characters", "rational_coefficients", "{}: {} is not an integral virtual character"):
        CROSS + "test_a_halved_lhs_breaks_its_integrality",
    ("cohomology", "_euler_checked", "Euler-Poincare mismatch {}: cells {}, cohomology {}"):
        CROSS + "test_a_lost_cocycle_breaks_euler_poincare_over_q",
    ("cohomology", "CellCochains._check_dd_zero", "differential does not square to zero"):
        CROSS + "test_a_flipped_coboundary_entry_breaks_d_squared",
    ("cohomology", "CellCochains.class_coordinates", "degree-{} cochain is not a cocycle"):
        CROSS + "test_an_image_with_a_stray_entry_is_not_a_cocycle",
    ("cohomology", "CochainComplex.lefschetz_number", "non-integral alternating trace {}"):
        CROSS + "test_non_integral_alternating_trace_is_raised",
    ("cohomology", "CellCochains.torsion", "rank of d_{} is {} over Z but {} over Q"):
        "tests/test_cli.py::test_smith_rank_mismatch_is_an_internal_error",
    ("cyclotomic", "_poly_exact_div", "division was not exact"):
        CROSS + "test_a_divisor_listed_twice_makes_a_division_inexact",
    ("cyclotomic", "_descended", "trace {} over Q(zeta_{}) of a value of Q(zeta_{}) is not "
     "divisible by {}"):
        "tests/test_chartab_oracle.py::test_half_integer_coordinate_is_rejected",
    ("engine", "_class_terms",
     "{}: factorized character disagrees with traced character on stratum of {}"):
        CROSS + "test_a_corrupted_traced_stratum_character_is_raised",
    ("engine", "verify_corollary",
     "{}: Hopf trace of element {} disagrees with its Lefschetz number on the cells of the {} "
     "complex"):
        CROSS + "test_hopf_mismatch_at_a_non_identity_class_is_raised",
    ("engine", "verify_free_action", "orbit count mismatch for a free action"):
        CROSS + "test_a_lost_orbit_representative_breaks_the_free_orbit_count",
    ("engine", "verify_modp_comparison",
     "{}: mod {} dimension in degree {} does not reconcile with the integral cohomology: "
     "{} != {} + {} + {}"):
        CROSS + "test_a_dropped_mod_p_pivot_breaks_universal_coefficients",
}


def _message(node) -> str:
    """The literal text of an error message, {} for each interpolated value."""
    if isinstance(node, ast.Constant):
        return str(node.value)
    if isinstance(node, ast.JoinedStr):
        return "".join(_message(part) if isinstance(part, ast.Constant) else "{}"
                       for part in node.values)
    return "{}"


def raise_sites(tree, module: str) -> list:
    """(module, function, message, raise node) of every internal check in a
    module; a method's function is Class.method."""
    found = []

    def visit(node, owner):
        exc = node.exc if isinstance(node, ast.Raise) else None
        if (isinstance(exc, ast.Call) and isinstance(exc.func, ast.Name)
                and exc.func.id in ERRORS):
            message = _message(exc.args[0]) if exc.args else ""
            found.append((module, owner, message, node))
        for child in ast.iter_child_nodes(node):
            name = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{owner}.{child.name}" if owner else child.name
            visit(child, name)

    visit(tree, None)
    return found


def package_sites() -> list:
    return [site for path in SOURCES
            for site in raise_sites(ast.parse(path.read_text(encoding="utf-8")), path.stem)]


def _test_exists(test_id: str) -> bool:
    path, name = test_id.split("::")
    tree = ast.parse((ROOT / path).read_text(encoding="utf-8"))
    return any(isinstance(node, ast.FunctionDef) and node.name == name for node in tree.body)


def test_every_internal_check_is_registered():
    sites = [site[:3] for site in package_sites()]
    assert len(sites) == len(set(sites)), "two checks share a function and message"
    assert sorted(set(sites) - set(REGISTRY)) == [], "unregistered checks"
    assert sorted(set(REGISTRY) - set(sites)) == [], "registered checks that are gone"


def test_every_registered_test_exists():
    assert [t for t in REGISTRY.values() if not _test_exists(t)] == []


def test_the_guard_sees_every_kind_of_check():
    tree = ast.parse(
        "class A:\n"
        "    def f(self, k):\n"
        "        raise ArithmeticError(f'degree {k} failed')\n"
        "def g():\n"
        "    if True:\n"
        "        raise IntegralityError('not integral')\n"
        "    raise ValueError('input, not a check')\n"
        "def h(e):\n"
        "    raise ArithmeticError(e.message)\n"
    )
    assert [site[:3] for site in raise_sites(tree, "m")] == [
        ("m", "A.f", "degree {} failed"),
        ("m", "g", "not integral"),
        ("m", "h", "{}"),
    ]
