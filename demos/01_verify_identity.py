"""Build a scenario by hand and certify the fixed-point identity.

A reflection of a square-shaped circle: the group C2 acts on the boundary
of a square by the diagonal flip, fixing two opposite vertices.  The engine
computes the equivariant Euler characteristic of the whole circle (lhs) and
the sum of induced stratum characters (rhs) over the isotropy classes, the
subgroup classes whose stratum is non-empty (here both: the swapped
vertices with all four edges, and the two fixed vertices), and checks they
agree classwise, exactly.
"""

from equilef import (
    GLattice,
    Scenario,
    build_complex,
    group_from_permutations,
    verify_theorem,
)

# the flip swaps vertices 1 and 3 and fixes 0 and 2
flip = (0, 3, 2, 1)
group = group_from_permutations(4, [flip])

square = [(0, 1), (1, 2), (2, 3), (0, 3)]
complex_ = build_complex(square, group, [flip])
print(f"complex: {complex_.counts()[0]} vertices, {complex_.counts()[1]} edges")
print(f"regular without subdivision: {complex_.subdivision_count == 0}")

scenario = Scenario(
    "demo-square", group, complex_, GLattice.trivial(group),
    "a circle with a reflection",
)
report = verify_theorem(scenario)

print()
print("virtual characters, one value per conjugacy class (identity first):")
print(f"  lhs            {[str(v) for v in report.lhs.values]}")
print(f"  rhs induced    {[str(v) for v in report.rhs_induction.values]}")
print(f"  rhs isotypic   {[str(v) for v in report.rhs_isotypic.values]}")
print(f"  identity holds: {report.passed}")

print()
print("per-subgroup-class terms of the right-hand side:")
for term in report.terms:
    print(
        f"  |H| = {term.subgroup_order}"
        f"  weight |H|/|N(H)| = {term.weight}"
        f"  stratum sizes = {term.stratum_sizes}"
        f"  chi_c = {term.stratum_euler}"
    )
    for row in term.isotypic:
        print(
            f"    rational irreducible orbit {row.orbit_index}"
            f" (size {row.orbit_size}): coefficient {row.coefficient}"
        )

# the two fixed vertices carry the fixed-point contribution: the stratum of
# the whole group has Euler characteristic 2, entering with weight 1/2 * |C2|
