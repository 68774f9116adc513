"""Reference integrality check, for tests: every complex multiplicity.

A rational virtual character v is integral when <v, chi> is a rational
integer for every complex irreducible chi.  This computes each <v, chi> as a
cyclotomic sum over the conjugacy classes, one irreducible at a time.  The
package instead decides integrality over the rational irreducibles (Galois
orbit sums) in ``equilef.characters.rational_coefficients``; the oracle
shares the character table with it, but neither the inner product nor the
orbit sums.
"""

from equilef.characters import character_table
from equilef.groups import element_classes
from chartab_oracle import OracleCyclotomic, oracle_value


def multiplicities(v) -> list:
    """<v, chi> for each complex irreducible chi, in character-table order."""
    g = v.group
    classes = element_classes(g)
    out = []
    for chi in character_table(g).irreducibles:
        total = OracleCyclotomic.from_rational(0)
        for cl, a, b in zip(classes, v.values, chi.values):
            term = OracleCyclotomic.from_rational(cl.size * a) * oracle_value(b).conjugate()
            total = total + term
        out.append(total / g.order)
    return out


def is_integral(v) -> bool:
    return all(m.is_integer() for m in multiplicities(v))
