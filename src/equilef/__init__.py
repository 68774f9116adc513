"""Exact verification of equivariant fixed-point identities.

The package computes both sides of an equivariant fixed-point identity on
finite simplicial complexes with a finite group action and integer-lattice
coefficients, entirely in exact arithmetic, and certifies the equality of
virtual characters together with its supporting identities (fixed-set
Lefschetz numbers, free-action vanishing, covering-space Euler
characteristics, regular-representation multiples, and characteristic-p
comparisons).

Typical use:

    from equilef import builtin_scenario, full_verification
    report = full_verification(builtin_scenario("square-reflection"))
    assert report.passed
"""

from .groups import (
    Group,
    Subgroup,
    SubgroupClass,
    ElementClass,
    group_from_permutations,
    element_classes,
    subgroups,
    conjugacy_classes_of_subgroups,
    normalizer,
    max_group_order,
)
from .cyclotomic import Cyclotomic, cyclotomic_polynomial
from .characters import (
    CharacterTable,
    ClassFunction,
    IntegralityError,
    RationalIrreducible,
    VirtualCharacter,
    character_table,
    induce,
    inner_product,
    power_map,
    rational_coefficients,
    rational_irreducibles,
    regular_character,
    restrict,
    trivial_character,
)
from .complexes import (
    SimplicialGComplex,
    Stratum,
    barycentric_subdivision,
    build_complex,
    exact_stratum,
    fixed_subcomplex,
    isotropy_classes,
)
from .cohomology import (
    CochainComplex,
    CohomologySummary,
    GLattice,
    cochain_complex,
    cohomology,
    invariant_cohomology,
    modp_euler_characteristic,
)
from .engine import (
    ClassTerm,
    CorollaryReport,
    FreeActionReport,
    IsotypicRow,
    LefschetzReport,
    ModpReport,
    Scenario,
    VerdierReport,
    VerificationSummary,
    full_verification,
    lhs_character,
    rhs_induction,
    rhs_isotypic,
    verify_corollary,
    verify_free_action,
    verify_modp_comparison,
    verify_theorem,
    verify_verdier,
)
from .scenario_io import (
    ScenarioError,
    ScenarioFile,
    build_scenario,
    parse_scenario,
    parse_scenario_file,
    serialize_scenario,
)
from .scenarios import builtin_names, builtin_scenario, builtin_scenarios

__version__ = "0.1.0"

__all__ = [
    "Group", "Subgroup", "SubgroupClass", "ElementClass",
    "group_from_permutations", "element_classes", "subgroups",
    "conjugacy_classes_of_subgroups", "normalizer", "max_group_order",
    "Cyclotomic", "cyclotomic_polynomial",
    "CharacterTable", "ClassFunction", "IntegralityError",
    "RationalIrreducible", "VirtualCharacter",
    "character_table", "induce", "inner_product", "power_map",
    "rational_coefficients", "rational_irreducibles", "regular_character",
    "restrict", "trivial_character",
    "SimplicialGComplex", "Stratum",
    "barycentric_subdivision", "build_complex",
    "exact_stratum", "fixed_subcomplex", "isotropy_classes",
    "CochainComplex", "CohomologySummary", "GLattice", "cochain_complex",
    "cohomology", "invariant_cohomology",
    "modp_euler_characteristic",
    "ClassTerm", "CorollaryReport", "FreeActionReport", "IsotypicRow",
    "LefschetzReport", "ModpReport", "Scenario", "VerdierReport",
    "VerificationSummary", "full_verification", "lhs_character",
    "rhs_induction", "rhs_isotypic", "verify_corollary",
    "verify_free_action", "verify_modp_comparison", "verify_theorem",
    "verify_verdier",
    "ScenarioError", "ScenarioFile", "build_scenario", "parse_scenario",
    "parse_scenario_file", "serialize_scenario",
    "builtin_names", "builtin_scenario", "builtin_scenarios",
    "__version__",
]
