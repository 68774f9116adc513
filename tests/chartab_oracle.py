"""Reference character tables, for tests: a cyclotomic field, the kernel
split, the exponent lift and cyclotomic orthonormality.

``OracleCyclotomic`` is a field Q(zeta_e) with ``Fraction`` coordinates and
the ring operations, ``galois`` and ``conjugate`` that the package's integer
value format ``equilef.cyclotomic.Cyclotomic`` does without.  Its canonical
form is found by elimination: for each divisor d of the conductor, ascending,
``reduce_columns`` over Q decides whether the value lies in Q(zeta_d) and
gives its coordinates there.  The package decides the same by relative
traces, in ints; the tests compare the two canonical forms.  The cyclotomic
polynomials come from sympy.  A value of the field equals a package value
with the same conductor and coordinates, and hashes like it.

``oracle_table(g)`` shares the Dixon prime, the degree recovery and the
ordering of the irreducibles with ``equilef.characters``.  It splits the class
algebra mod p by kernels (``kernel_split_mod_p``): each common eigenspace is
shifted at every root of a class sum's minimal polynomial and replaced by the
kernels, one reduction per shift.  It then lifts every value into
``OracleCyclotomic`` through the multiplicities of all m = exp(G) powers of
zeta_m, whatever the order of the class, and checks orthonormality on every
pair with ``cyclotomic_inner_product``, one field operation per term.  The
package splits by Lagrange idempotents, lifts each class over its own element
order and checks orthonormality once per orbit of pairs, in integer
coordinates over Z[zeta_e]; the tests compare the two tables value for value.

    PYTHONPATH=src python tests/chartab_oracle.py

prints the time to build the tables of the subgroup-class representatives of
S4, A5, S5 and S6, new against oracle.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import sympy

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
from equilef.numtheory import divisors, euler_phi, primitive_root


@lru_cache(maxsize=None)
def _phi(e: int) -> tuple[int, ...]:
    """Coefficients of Phi_e, low degree first, from sympy."""
    x = sympy.symbols("x")
    return tuple(int(c) for c in reversed(sympy.Poly(sympy.cyclotomic_poly(e, x), x).all_coeffs()))


def _reduce(coeffs: list, e: int) -> list:
    """Remainder of a polynomial in z modulo Phi_e, as phi(e) coefficients."""
    phi = _phi(e)
    deg = len(phi) - 1
    a = list(coeffs) + [0] * max(0, deg - len(coeffs))
    for i in range(len(a) - 1, deg - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(deg):
                a[i - deg + j] -= c * phi[j]
    return a[:deg]


class OracleCyclotomic:
    """An element of a cyclotomic field in canonical (minimal-conductor) form."""

    __slots__ = ("conductor", "coeffs", "_hash")

    def __init__(self, conductor: int, coeffs):
        coeffs = tuple(Fraction(c) for c in coeffs)
        if len(coeffs) != euler_phi(conductor):
            raise ValueError("coefficient vector has wrong length")
        self.conductor = conductor
        self.coeffs = coeffs
        # a rational value hashes as the rational, since it compares equal to it
        self._hash = hash(coeffs[0]) if conductor == 1 else hash((conductor, coeffs))

    # -- construction ------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "OracleCyclotomic":
        return cls(1, (Fraction(q),))

    @classmethod
    def from_root_combination(cls, e: int, coeffs) -> "OracleCyclotomic":
        """sum_k coeffs[k] * zeta_e^k, reduced to canonical form."""
        raw = [Fraction(c) for c in coeffs]
        if len(raw) > e:
            folded = [0] * e
            for i, c in enumerate(raw):
                folded[i % e] += c
            raw = folded
        return _make(e, raw)

    # -- ring operations ---------------------------------------------------

    def _promoted(self, e: int) -> list[Fraction]:
        """Coefficients of self inside Q(zeta_e); requires conductor | e."""
        if e == self.conductor:
            return list(self.coeffs)
        step = e // self.conductor
        raw = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            raw[(i * step) % e] += c
        return _reduce(raw, e)

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = math.lcm(self.conductor, other.conductor)
        a, b = self._promoted(e), other._promoted(e)
        return _make(e, [x + y for x, y in zip(a, b)])

    __radd__ = __add__

    def __neg__(self):
        return OracleCyclotomic(self.conductor, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return OracleCyclotomic(self.conductor, tuple(c * other for c in self.coeffs))
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        e = math.lcm(self.conductor, other.conductor)
        a, b = self._promoted(e), other._promoted(e)
        prod = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return _make(e, prod)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        raise TypeError("division only by rational scalars")

    # -- Galois actions ----------------------------------------------------

    def galois(self, k: int) -> "OracleCyclotomic":
        """Image under sigma_k : zeta -> zeta^k, for k coprime to the conductor."""
        e = self.conductor
        if e == 1:
            return self
        if math.gcd(k, e) != 1:
            raise ValueError(f"{k} is not coprime to the conductor {e}")
        raw = [Fraction(0)] * e
        for i, c in enumerate(self.coeffs):
            raw[(i * k) % e] += c
        return _make(e, raw)

    def conjugate(self) -> "OracleCyclotomic":
        return self.galois(self.conductor - 1) if self.conductor > 1 else self

    # -- predicates and conversions ----------------------------------------

    def as_fraction(self) -> Fraction:
        if self.conductor != 1:
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    def is_integer(self) -> bool:
        return self.conductor == 1 and self.coeffs[0].denominator == 1

    def __eq__(self, other):
        if isinstance(other, (OracleCyclotomic, Cyclotomic)):
            return self.conductor == other.conductor and self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.conductor == 1 and self.coeffs[0] == other
        return NotImplemented

    def __hash__(self):
        return self._hash

    def __bool__(self):
        return any(self.coeffs)

    def __repr__(self):
        if self.conductor == 1:
            return f"Oracle({self.coeffs[0]})"
        terms = ", ".join(str(c) for c in self.coeffs)
        return f"Oracle(z{self.conductor}; {terms})"

    def sort_key(self):
        """Deterministic total order key (conductor, then coefficients)."""
        return (self.conductor, self.coeffs)


def _coerce(x) -> OracleCyclotomic:
    if isinstance(x, OracleCyclotomic):
        return x
    if isinstance(x, (int, Fraction)):
        return OracleCyclotomic.from_rational(x)
    return NotImplemented


def _make(e: int, raw_coeffs: list) -> OracleCyclotomic:
    """Reduce mod Phi_e and rewrite over the smallest containing subfield."""
    coeffs = _reduce(raw_coeffs, e)
    if e == 1 or not any(coeffs[1:]):
        return OracleCyclotomic(1, coeffs[:1])
    # Q(zeta_1) = Q(zeta_2) = Q: the rational test above has decided them
    for d in divisors(e)[:-1]:
        if d > 2:
            sub = _express_in_subfield(coeffs, e, d)
            if sub is not None:
                return OracleCyclotomic(d, sub)
    return OracleCyclotomic(e, coeffs)


def _express_in_subfield(coeffs: list, e: int, d: int) -> tuple | None:
    """Coordinates of the value in the power basis of Q(zeta_d) inside Q(zeta_e).

    Reduces the columns [z_d^0, ..., z_d^(phi(d)-1), value] over Q.  The
    value lies in Q(zeta_d) exactly when its column reduces to zero, and then
    its recorded kernel vector v gives value = -sum_i v[i] z_d^i; otherwise
    the result is None.  The basis columns never reduce to zero.
    """
    step = e // d
    n = euler_phi(d)
    columns = []
    for i in range(n):
        raw = [0] * e
        raw[(i * step) % e] = 1
        columns.append(_reduce(raw, e))
    columns.append(coeffs)
    kernel = reduce_columns(
        [{r: c for r, c in enumerate(col) if c} for col in columns], record=True
    )[1]
    if not kernel:
        return None
    if [j for j, _ in kernel] != [n]:
        raise ArithmeticError("subfield expression failed")
    v = kernel[0][1]
    return tuple(-v.get(i, 0) for i in range(n))


def oracle_value(x) -> OracleCyclotomic:
    """x in the oracle field: a package value (canonicalised again here), a
    rational, or an oracle value."""
    if isinstance(x, OracleCyclotomic):
        return x
    if isinstance(x, Cyclotomic):
        return OracleCyclotomic.from_root_combination(x.conductor, x.coeffs)
    return OracleCyclotomic.from_rational(x)


def package_value(x: OracleCyclotomic) -> Cyclotomic:
    """An algebraic integer of the oracle field as a package value."""
    if any(c.denominator != 1 for c in x.coeffs):
        raise ValueError(f"{x!r} has a non-integer coordinate")
    return Cyclotomic.from_root_combination(x.conductor, [int(c) for c in x.coeffs])


def cyclotomic_inner_product(a, b) -> OracleCyclotomic:
    """<a, b> = |G|^-1 sum_g a(g) conj(b(g)) in ``OracleCyclotomic`` arithmetic,
    for class functions on one group with cyclotomic or rational values."""
    g = a.group
    if not (g is b.group or g.mul == b.group.mul):
        raise ValueError("inner product needs class functions on one group")
    total = OracleCyclotomic.from_rational(0)
    for cl, x, y in zip(element_classes(g), a.values, b.values):
        total = total + cl.size * (oracle_value(x) * oracle_value(y).conjugate())
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
            values.append(OracleCyclotomic.from_root_combination(m, mults))
        lifted.append((degree, ClassFunction(g, tuple(values))))
    return lifted


def oracle_table(g):
    """The character table of g, split by kernels, lifted over the exponent,
    checked pair by pair."""
    if len(element_classes(g)) == 1:
        return [(1, (OracleCyclotomic.from_rational(1),))]
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
