"""Free actions: vanishing traces, covering spaces, regular multiples.

When no nontrivial element fixes a point, every Lefschetz number away from
the identity is zero, the Euler characteristic divides by the group order
on passage to the quotient, and the whole equivariant Euler characteristic
is an integer multiple of the regular character.  The cells of the quotient
are the orbits of cells, so its Euler characteristic is their alternating
count.  The antipodal sphere is the classic case: its quotient is the
projective plane.
"""

from equilef import (
    builtin_scenario,
    lhs_character,
    regular_character,
    verify_free_action,
    verify_verdier,
)

for name in ("octahedron-antipodal", "pair-of-triangles", "hexagon-rot6"):
    s = builtin_scenario(name)
    print(f"{name}: group order {s.group.order}, "
          f"complex {s.complex.counts()}")
    report = verify_free_action(s)
    print(f"  action free: {report.applicable}")
    print(f"  L(g) = 0 for all g != 1: {report.vanishing_ok}")
    print(f"  chi(X) = |G| * chi-invariant: {report.covering_ok} "
          f"(invariant Euler characteristic {report.invariant_euler})")

    x = s.complex
    orbits = tuple(
        len({frozenset(x.act_simplex(e, t) for e in range(s.group.order)) for t in level})
        for level in x.simplices)
    print(f"  cell orbits {orbits}: chi(X/G) = "
          f"{sum((-1) ** k * n for k, n in enumerate(orbits))}")

    verdier = verify_verdier(s)
    lhs = lhs_character(s)
    expected = regular_character(s.group).scale(verdier.multiple)
    print(f"  lhs {[str(v) for v in lhs.values]} = "
          f"{verdier.multiple} x regular "
          f"{[str(v) for v in regular_character(s.group).values]}: "
          f"{lhs == expected}")
    print()

print("the antipodal quotient is a projective plane: Euler characteristic 1,")
print("matching the six-vertex model from the cohomology demo.")
