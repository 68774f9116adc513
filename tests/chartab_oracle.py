"""Reference character tables, for tests: the exponent lift and cyclotomic
orthonormality.

``oracle_table(g)`` shares the class-algebra diagonalization mod p and the
ordering of the irreducibles with ``equilef.characters``.  It then lifts every
value through the multiplicities of all m = exp(G) powers of zeta_m, whatever
the order of the class, and checks orthonormality with
``cyclotomic_inner_product``, one ``Cyclotomic`` operation per term.  The
package lifts each class over its own element order and checks
orthonormality in integer coordinates over Z[zeta_e]; the tests compare the
two tables value for value.

    PYTHONPATH=src python tests/chartab_oracle.py

prints the time to build the tables of the subgroup-class representatives of
S4, A5, S5 and S6, new against oracle.
"""

import time

from equilef.characters import (
    ClassFunction,
    _build_character_table,
    _central_characters_mod_p,
    _dixon_prime,
    _ordered_table,
    power_map,
)
from equilef.cyclotomic import Cyclotomic
from equilef.groups import conjugacy_classes_of_subgroups, element_classes, group_from_permutations
from equilef.numtheory import primitive_root


def _cyc(x) -> Cyclotomic:
    return x if isinstance(x, Cyclotomic) else Cyclotomic.from_rational(x)


def cyclotomic_inner_product(a, b) -> Cyclotomic:
    """<a, b> = |G|^-1 sum_g a(g) conj(b(g)) in ``Cyclotomic`` arithmetic, for
    class functions on one group with cyclotomic or rational values."""
    g = a.group
    if not (g is b.group or g.mul == b.group.mul):
        raise ValueError("inner product needs class functions on one group")
    total = Cyclotomic.from_rational(0)
    for cl, x, y in zip(element_classes(g), a.values, b.values):
        total = total + cl.size * (_cyc(x) * _cyc(y).conjugate())
    return total / g.order


def oracle_table(g):
    """The character table of g, lifted over the exponent, checked pair by pair."""
    classes = element_classes(g)
    r = len(classes)
    if r == 1:
        return [(1, (Cyclotomic.from_rational(1),))]
    m = g.exponent()
    p = _dixon_prime(g.order, m)
    pm = power_map(g)
    z = pow(primitive_root(p), (p - 1) // m, p)
    z_pows = [pow(z, k, p) for k in range(m)]
    z_inv_pows = [pow(z_pows[k], -1, p) for k in range(m)]
    m_inv = pow(m % p, -1, p)
    lifted = []
    for degree, row in _central_characters_mod_p(g, p):
        values = []
        for j in range(r):
            mults = []
            for l in range(m):
                acc = 0
                for k in range(m):
                    acc += row[pm[j][k]] * z_inv_pows[l * k % m]
                mults.append(acc % p * m_inv % p)
            if sum(mults) != degree:
                raise ArithmeticError("eigenvalue multiplicities do not sum to the degree")
            values.append(Cyclotomic.from_root_combination(m, mults))
        lifted.append((degree, ClassFunction(g, tuple(values))))
    table = _ordered_table(g, lifted)
    irr = table.irreducibles
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            if cyclotomic_inner_product(irr[i], irr[j]) != (1 if i == j else 0):
                raise ArithmeticError(f"characters {i} and {j} are not orthonormal")
    return [(d, chi.values) for d, chi in zip(table.degrees, irr)]


def symmetric(n):
    return group_from_permutations(n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)])


def alternating(n):
    # the 3-cycles (0 1 k) generate A_n
    return group_from_permutations(
        n, [tuple({0: 1, 1: k, k: 0}.get(i, i) for i in range(n)) for k in range(2, n)])


def _representative_groups(g):
    inner = [c.representative.as_group() for c in conjugacy_classes_of_subgroups(g)]
    for h in inner:
        power_map(h)  # shared by both builds, so neither pays for it
    return inner


def _seconds(build, groups) -> float:
    t0 = time.perf_counter()
    for h in groups:
        build(h)
    return time.perf_counter() - t0


def main():
    for name, g in (("S4", symmetric(4)), ("A5", alternating(5)),
                    ("S5", symmetric(5)), ("S6", symmetric(6))):
        groups = _representative_groups(g)
        new = _seconds(_build_character_table, groups)
        old = _seconds(oracle_table, groups)
        print(f"{name}: {len(groups)} tables, new {new:.3f} s, oracle {old:.3f} s")


if __name__ == "__main__":
    main()
