"""Reference character tables, for tests: the kernel split, the exponent lift
and cyclotomic orthonormality.

``oracle_table(g)`` shares the Dixon prime, the degree recovery and the
ordering of the irreducibles with ``equilef.characters``.  It splits the class
algebra mod p by kernels (``kernel_split_mod_p``): each common eigenspace is
shifted at every root of a class sum's minimal polynomial and replaced by the
kernels, one reduction per shift.  It then lifts every value through the
multiplicities of all m = exp(G) powers of zeta_m, whatever the order of the
class, and checks orthonormality on every pair with
``cyclotomic_inner_product``, one ``Cyclotomic`` operation per term.  The
package splits by Lagrange idempotents, lifts each class over its own element
order and checks orthonormality once per orbit of pairs, in integer
coordinates over Z[zeta_e]; the tests compare the two tables value for value.

    PYTHONPATH=src python tests/chartab_oracle.py

prints the time to build the tables of the subgroup-class representatives of
S4, A5, S5 and S6, new against oracle.
"""

import time
from collections import Counter

from equilef.characters import (
    ClassFunction,
    _build_character_table,
    _degree_mod_p,
    _dixon_prime,
    _horner,
    _ordered_table,
    power_map,
)
from equilef.cyclotomic import Cyclotomic
from equilef.groups import (
    class_index_of,
    conjugacy_classes_of_subgroups,
    element_classes,
    group_from_permutations,
)
from equilef.linalg import _apply, _sub, minimal_polynomial, reduce_columns
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


def kernel_split_mod_p(g, p: int) -> list[tuple[int, list[int]]]:
    """(degree, [chi(x_j) mod p for each class j]) for every irreducible chi,
    by shifts and kernels."""
    classes = element_classes(g)
    r = len(classes)
    cls_of = class_index_of(g)
    sizes = [cl.size for cl in classes]
    inv_class = [cls_of[g.inverse[cl.representative]] for cl in classes]

    reps = [cl.representative for cl in classes]

    # split F_p^r into common eigenspaces; each line is a central character.
    # A kernel vector x of the columns (K_i - lam) s_j spans the eigenvector
    # sum_j x_j s_j, so a space is never restricted to its own coordinates.
    # The class algebra mod p is split semisimple (p does not divide |G|) and
    # the identity {0: 1} generates it, so the minimal polynomial of K_i on
    # that vector is K_i's own, with as many distinct roots as its degree, and
    # every eigenvalue of K_i on a common eigenspace is one of them: lam runs
    # over these roots only.  A lam skipped had an empty kernel, so the
    # spaces come out as a sweep over all of F_p would give them.
    spaces = [[{j: 1} for j in range(r)]]
    for i in range(1, r):
        if all(len(basis) == 1 for basis in spaces):
            break
        # right multiplication by the class sum K_i on the basis {K_j}: the
        # entry (j, k) counts the y in C_i with z_k y^-1 in C_j
        inverses = [g.inverse[y] for y in classes[i].members]
        columns = []
        for zk in reps:
            row = g.mul[zk]
            counts = Counter(cls_of[row[y]] for y in inverses)
            columns.append({j: c % p for j, c in counts.items() if c % p})
        f = minimal_polynomial(columns, {0: 1}, p)[0]
        roots = [lam for lam in range(p) if _horner(f, lam, p) == 0]
        if len(roots) < len(f) - 1:
            raise ArithmeticError(
                f"minimal polynomial of class sum {i} has {len(roots)} roots in F_p, "
                f"fewer than its degree {len(f) - 1}: the class algebra does not split")
        refined = []
        for basis in spaces:
            if len(basis) == 1:
                refined.append(basis)
                continue
            images = [_apply(columns, s, p) for s in basis]
            found = 0
            for lam in roots:
                shifted = []
                for s, image in zip(basis, images):
                    col = dict(image)
                    _sub(col, lam, s, p)
                    shifted.append(col)
                kernel = reduce_columns(shifted, p, record=True)[1]
                if kernel:
                    refined.append([_apply(basis, x, p) for _, x in kernel])
                    found += len(kernel)
                    if found == len(basis):
                        break
            if found != len(basis):
                raise ArithmeticError("class algebra failed to split over F_p")
        spaces = refined
    if any(len(basis) != 1 for basis in spaces):
        raise ArithmeticError("common eigenspace splitting did not reach lines")

    # normalize central characters and recover degrees via orthogonality
    inv_sizes = [pow(s % p, -1, p) for s in sizes]
    rows_mod_p = []
    for (w,) in spaces:
        if 0 not in w:
            raise ArithmeticError("central character vanishes at the identity class")
        scale = pow(w[0], -1, p)
        omega = [w.get(j, 0) * scale % p for j in range(r)]
        s_sum = sum(omega[j] * omega[inv_class[j]] * inv_sizes[j] for j in range(r)) % p
        deg_sq = g.order * pow(s_sum, -1, p) % p
        degree = _degree_mod_p(g.order, deg_sq, p)
        row = [omega[j] * degree * inv_sizes[j] % p for j in range(r)]
        rows_mod_p.append((degree, row))
    return rows_mod_p


def exponent_lift(g, p: int, rows_mod_p):
    """(degree, values) per row mod p, in the given order: each value lifted
    through the multiplicities of all m = exp(G) powers of zeta_m."""
    m = g.exponent()
    pm = power_map(g)
    z = pow(primitive_root(p), (p - 1) // m, p)
    z_pows = [pow(z, k, p) for k in range(m)]
    z_inv_pows = [pow(z_pows[k], -1, p) for k in range(m)]
    m_inv = pow(m % p, -1, p)
    lifted = []
    for degree, row in rows_mod_p:
        values = []
        for j in range(len(row)):
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
    return lifted


def oracle_table(g):
    """The character table of g, split by kernels, lifted over the exponent,
    checked pair by pair."""
    if len(element_classes(g)) == 1:
        return [(1, (Cyclotomic.from_rational(1),))]
    p = _dixon_prime(g.order, g.exponent())
    table = _ordered_table(g, exponent_lift(g, p, kernel_split_mod_p(g, p)))
    irr = table.irreducibles
    for i in range(len(irr)):
        for j in range(i, len(irr)):
            if cyclotomic_inner_product(irr[i], irr[j]) != (1 if i == j else 0):
                raise ArithmeticError(f"characters {i} and {j} are not orthonormal")
    return [(d, chi.values) for d, chi in zip(table.degrees, irr)]


def symmetric(n):
    return group_from_permutations(n, [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)])


def cyclic(n):
    return group_from_permutations(n, [tuple(range(1, n)) + (0,)])


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
