"""Exact character theory of finite groups over Q.

Irreducible complex character tables are computed by the class-algebra
method (Dixon 1967): the class-sum matrices act on the centre of the group
algebra over a prime field F_p with p = 1 (mod exponent), their common
eigenvectors are the central characters, and eigenvalue data is lifted back
to exact cyclotomic values through root-of-unity multiplicities.  The
centre is split by its idempotents, starting from the identity, the sum of
all central characters: on a part e, one reduction of the Krylov sequence
e, K_i e, ... gives the minimal polynomial f of the class sum K_i on e
(Schneider 1990), and for each root lam the Lagrange projection
q(K_i) e / q(lam), q = f / (x - lam), keeps the central characters of e with
eigenvalue lam.  It combines the Krylov vectors already built, so the split
makes no other reduction.  Each class is lifted over its own element order
o, from the o powers of its representative, into Q(zeta_o), in integer
arithmetic, once per distinct power row; ``Cyclotomic`` finds its smallest
field by relative traces, in ints too.  Every value is written once in
integer coordinates over Z[zeta_e], e the lcm of the table's conductors, and
the Galois orbit sums (the rational irreducibles) are added there.

A table depends only on the multiplication table, so ``character_table``
builds one per distinct table in a process, on the first group with that
table to ask (``groups.interned``); scenarios and subgroups with equal
tables share it, and with it every fact memoized on it.

The units k mod the exponent act on the table by chi -> chi o p_k, with p_k
the class of x -> x^k, and ``_galois_action`` walks them once, comparing
rows exactly.  Its row orbits are the Galois orbits, and its permutations
serve the orthonormality check, one reduction mod Phi_e per pair of
characters checked, once per orbit of pairs.  A unit that sends every row
onto a row is a symmetry: p_k permutes the classes and keeps their sizes, so
<chi_i o p_k, chi_j o p_k> = <chi_i, chi_j> term for term, for any class
functions, and the image of a checked pair needs no check of its own.  A
corrupted row breaks every symmetry that moves it, so all of its pairs are
still checked.  Induction, restriction and the inner product act on
rational virtual characters only.

A rational virtual character stores each value as an ``int`` when it is an
integer and as a ``Fraction`` only when it has a denominator (``_rational``),
so the integer-valued characters of the engine are computed in ints.
Integrality is decided in one place, ``rational_coefficients``: a rational
virtual character is integral when its coefficients over the rational
irreducibles are integers and rebuild it exactly.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from fractions import Fraction

from .cyclotomic import Cyclotomic, _reduce_mod_phi
from .groups import (Group, Subgroup, ElementClass, element_classes, class_index_of, interned,
                     memo)
from .linalg import _sub, minimal_polynomial
from .numtheory import euler_phi, is_prime, primitive_root

DIXON_PRIME_BOUND = 10_000_000


class IntegralityError(ArithmeticError):
    """A quantity that the theory forces to be an integer failed to be one."""


class ClassFunction(namedtuple("ClassFunction", "group values")):
    """A cyclotomic-valued function on conjugacy classes."""

    __slots__ = ()

    def sort_key(self):
        return tuple(v.sort_key() for v in self.values)


class CharacterTable:
    """All irreducible characters of a group, trivial first, degrees ascending.

    Read-only; it owns the memo of ``rational_irreducibles``, so two tables
    are equal only when they are the same object.
    """

    __slots__ = ("group", "classes", "irreducibles", "degrees", "_cache")

    def __init__(self, group: Group, classes: tuple[ElementClass, ...],
                 irreducibles: tuple[ClassFunction, ...], degrees: tuple[int, ...]):
        for name, value in zip(self.__slots__, (group, classes, irreducibles, degrees, {})):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of a CharacterTable")

    def __repr__(self):
        return (f"CharacterTable(group={self.group!r}, classes={self.classes!r}, "
                f"irreducibles={self.irreducibles!r}, degrees={self.degrees!r})")


def _same_group(g: Group, h: Group) -> bool:
    """One group: the same object, or equal multiplication tables."""
    return g is h or g.mul == h.mul


def _rational(v) -> int | Fraction:
    """v as an int when it is an integer, else as a Fraction.

    Only ints and Fractions are exact rationals here: a float, or anything
    else, raises TypeError rather than being converted.
    """
    if type(v) is int:
        return v
    if isinstance(v, Fraction):
        return v.numerator if v.denominator == 1 else v
    raise TypeError(f"{v!r} is not an exact rational: an int or a Fraction expected")


def _quotient(a: int | Fraction, n: int) -> int | Fraction:
    """a / n for a positive int n: an int when n divides a, else a Fraction."""
    if type(a) is int and a % n == 0:
        return a // n
    return _rational(Fraction(a, n))


class VirtualCharacter:
    """A rational-valued class function, the common currency of the engine.

    ``values`` holds one exact rational per conjugacy class: an int, or a
    Fraction where the value is not an integer (``_rational``; a float is
    refused).  Since Fraction(n) == n and hashes like n, a character built
    from Fractions equals one built from ints.  Supports exact addition,
    subtraction and rational scaling.  Whether the values are an integer
    combination of irreducible characters is decided by
    ``rational_coefficients``; engine-level violations of it are hard errors.
    """

    __slots__ = ("group", "values")

    def __init__(self, group: Group, values):
        values = tuple(map(_rational, values))
        if len(values) != len(element_classes(group)):
            raise ValueError("one value per conjugacy class expected")
        self.group = group
        self.values = values

    def _check_group(self, other: "VirtualCharacter"):
        if not _same_group(self.group, other.group):
            raise ValueError("class functions live on different groups")

    def __add__(self, other):
        self._check_group(other)
        return VirtualCharacter(self.group, [a + b for a, b in zip(self.values, other.values)])

    def __sub__(self, other):
        self._check_group(other)
        return VirtualCharacter(self.group, [a - b for a, b in zip(self.values, other.values)])

    def __neg__(self):
        return VirtualCharacter(self.group, [-a for a in self.values])

    def scale(self, c) -> "VirtualCharacter":
        """c times each value, divided exactly by c's denominator."""
        c = _rational(c)
        n, d = c.numerator, c.denominator
        return VirtualCharacter(self.group, [_quotient(n * a, d) for a in self.values])

    def __rmul__(self, c):
        if isinstance(c, (int, Fraction)):
            return self.scale(c)
        return NotImplemented

    __mul__ = __rmul__

    def __eq__(self, other):
        if not isinstance(other, VirtualCharacter):
            return NotImplemented
        return _same_group(self.group, other.group) and self.values == other.values

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        return f"VirtualCharacter({list(self.values)})"


class RationalIrreducible(
        namedtuple("RationalIrreducible", "group orbit orbit_sum orbit_size")):
    """A Galois orbit of irreducible characters and its integer-valued sum."""

    __slots__ = ()


def trivial_character(g: Group) -> VirtualCharacter:
    return VirtualCharacter(g, [1] * len(element_classes(g)))


def regular_character(g: Group) -> VirtualCharacter:
    values = [0] * len(element_classes(g))
    values[0] = g.order
    return VirtualCharacter(g, values)


def inner_product(a: VirtualCharacter, b: VirtualCharacter) -> int | Fraction:
    """<a, b> = |G|^-1 sum_g a(g) b(g), exact, for rational virtual characters.

    A rational value is its own complex conjugate; a cyclotomic class
    function is refused rather than paired without its conjugation.
    """
    if not (isinstance(a, VirtualCharacter) and isinstance(b, VirtualCharacter)):
        raise TypeError("inner_product takes rational virtual characters")
    a._check_group(b)
    total = sum(cl.size * av * bv for cl, av, bv in
                zip(element_classes(a.group), a.values, b.values))
    return _quotient(total, a.group.order)


def _fusion(h: Subgroup) -> list[int]:
    """Class fusion H -> G: the G-class index of each class of H, in order."""
    parent_class = class_index_of(h.parent)
    return [parent_class[h.to_parent(cl.representative)] for cl in element_classes(h.as_group())]


def induce(h: Subgroup, f: VirtualCharacter) -> VirtualCharacter:
    """The induced class function ind_H^G f, through the class fusion.

    (ind f)(g_k) = |G| / (|H| |C_k|) * sum of |c| f(c) over the classes c of H
    that fuse into the G-class C_k.  Induction of an integral virtual
    character is again integral (Frobenius reciprocity pairs it with
    restriction, which is visibly integral).  The index |G|/|H| is an
    integer; each value is an exact quotient by |C_k|, a Fraction only when
    |C_k| does not divide it.
    """
    hg = h.as_group()
    if not _same_group(f.group, hg):
        raise ValueError("the class function is not defined on the given subgroup")
    classes = element_classes(h.parent)
    sums = [0] * len(classes)
    for k, cl, v in zip(_fusion(h), element_classes(hg), f.values):
        sums[k] += cl.size * v
    index = h.parent.order // h.order
    return VirtualCharacter(
        h.parent, [_quotient(index * t, cl.size) for t, cl in zip(sums, classes)])


def restrict(f: VirtualCharacter, h: Subgroup) -> VirtualCharacter:
    """res_H^G f: the same function evaluated on H's own classes."""
    g = h.parent
    if not _same_group(f.group, g):
        raise ValueError("the class function is not defined on the parent group")
    return VirtualCharacter(h.as_group(), [f.values[k] for k in _fusion(h)])


# ---------------------------------------------------------------------------
# character table by exact diagonalization of the class algebra mod p


@memo
def character_table(g: Group) -> CharacterTable:
    """The table of g's multiplication table, built once per process on the
    first Group with that table to ask (``groups.interned``): its ``group``
    may be that first group rather than g."""
    first = interned(g)
    return _build_character_table(g) if first is g else character_table(first)


def _dixon_prime(order: int, exponent: int) -> int:
    """Smallest p = 1 (mod exponent) with p^2 > 4|G| (so degrees lift uniquely)."""
    p = exponent + 1
    while p <= DIXON_PRIME_BOUND:
        if p * p > 4 * order and is_prime(p):
            return p
        p += exponent
    raise ArithmeticError(
        f"no suitable prime below {DIXON_PRIME_BOUND} for exponent {exponent}"
    )


@memo
def power_map(g: Group) -> list[tuple[int, ...]]:
    """pm[j][k] = class index of (rep of class j)^k, for k = 0..exponent-1."""
    cls_of = class_index_of(g)
    m = g.exponent()
    pm = []
    for cl in element_classes(g):
        rep = cl.representative
        row, x = [], 0
        for _ in range(m):
            row.append(cls_of[x])
            x = g.mul[x][rep]
        pm.append(tuple(row))
    return pm


def _build_character_table(g: Group) -> CharacterTable:
    p = _dixon_prime(g.order, g.exponent())
    table = _ordered_table(g, _lift(g, p, _central_characters_mod_p(g, p)))
    _check_orthonormality(table)
    return table


def _central_characters_mod_p(g: Group, p: int) -> list[tuple[int, list[int]]]:
    """(degree, [chi(x_j) mod p for each class j]) for every irreducible chi."""
    classes = element_classes(g)
    r = len(classes)
    cls_of = class_index_of(g)
    sizes = [cl.size for cl in classes]
    inv_class = [cls_of[g.inverse[cl.representative]] for cl in classes]

    reps = [cl.representative for cl in classes]

    # split the identity {0: 1} into r lines, each a multiple of a central
    # character.  A part (e, n) is a sum of at most n central characters; the
    # Krylov sequence e, K_i e, ... gives the minimal polynomial f of K_i on
    # it, whose roots are distinct (the class algebra mod p is split
    # semisimple), and for each root lam, with q = f / (x - lam), the part
    # q(K_i) e / q(lam) keeps exactly e's central characters with eigenvalue
    # lam.  It is read off the Krylov vectors already built.
    parts = [({0: 1}, r)]
    for i in range(1, r):
        if len(parts) == r:
            break
        # right multiplication by the class sum K_i on the basis {K_j}: the
        # entry (j, k) counts the y in C_i with z_k y^-1 in C_j
        inverses = [g.inverse[y] for y in classes[i].members]
        columns = []
        for zk in reps:
            row = g.mul[zk]
            counts = Counter(cls_of[row[y]] for y in inverses)
            columns.append({j: c % p for j, c in counts.items() if c % p})
        # the other parts are nonzero, so each holds at most r - len + 1 lines
        slack = r - len(parts) + 1
        refined = []
        for e, n in parts:
            n = min(n, slack)
            if n == 1:
                refined.append((e, n))
                continue
            f, krylov = minimal_polynomial(columns, e, p, n)
            d = len(f) - 1
            if d == 1:
                refined.append((e, n))
                continue
            roots = [lam for lam in range(p) if _horner(f, lam, p) == 0]
            if len(roots) < d:
                raise ArithmeticError(
                    f"minimal polynomial of class sum {i} has {len(roots)} roots in F_p, "
                    f"fewer than its degree {d}: the class algebra does not split")
            for lam in roots:
                q = [1]  # f / (x - lam), high degree first, by synthetic division
                for c in reversed(f[1:-1]):
                    q.append((c + lam * q[-1]) % p)
                scale = pow(_horner(q[::-1], lam, p), -1, p)
                part: dict = {}
                for c, s in zip(reversed(q), krylov):
                    if c:
                        _sub(part, -c * scale, s, p)
                if not part:
                    raise ArithmeticError("class algebra failed to split over F_p")
                refined.append((part, n - d + 1))
        parts = refined
    if len(parts) != r:
        raise ArithmeticError("common eigenspace splitting did not reach lines")

    # normalize central characters and recover degrees via orthogonality
    inv_sizes = [pow(s % p, -1, p) for s in sizes]
    rows_mod_p = []
    for w, _ in parts:
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


def _horner(f: list[int], x: int, p: int) -> int:
    """f(x) mod p for the coefficients f, low degree first."""
    acc = 0
    for c in reversed(f):
        acc = (acc * x + c) % p
    return acc


def _degree_mod_p(order: int, deg_sq: int, p: int) -> int:
    """The degree d <= isqrt(order) with d^2 = deg_sq (mod p).

    A degree is at most sqrt|G|, and p^2 > 4|G| (``_dixon_prime``) makes
    two such d with equal squares mod p equal: the search finds the only one.
    """
    bound = math.isqrt(order)
    for d in range(1, bound + 1):
        if d * d % p == deg_sq:
            return d
    raise ArithmeticError(f"no degree up to {bound} squares to {deg_sq} mod {p}")


def _lift(g: Group, p: int, rows_mod_p) -> list[tuple[int, ClassFunction]]:
    """Exact values through root-of-unity multiplicities, per element order.

    chi(x^k) depends only on k mod o = o(x), so the multiplicity of zeta_o^l
    as an eigenvalue of x is o^-1 sum_{k<o} chi(x^k) zeta_o^(-lk), taken mod p
    with zeta_o = z^(m/o) for a primitive m-th root of unity z mod p.  The
    power row (chi(x^k) mod p for k < o) determines the multiplicities, so
    they are computed, checked and lifted once per degree and power row.
    """
    m = g.exponent()
    pm = power_map(g)
    z = pow(primitive_root(p), (p - 1) // m, p)
    orders = [g.element_order(cl.representative) for cl in element_classes(g)]
    powers = [pm[j][:o] for j, o in enumerate(orders)]
    # per order o: zeta_o^-t for t < o, and o^-1
    inverse_roots = {}
    for o in set(orders):
        w = pow(z, m - m // o, p)
        inverse_roots[o] = ([pow(w, t, p) for t in range(o)], pow(o, -1, p))
    exact = {}  # (degree, power row) -> value; most power rows repeat within a table
    interned = {}
    lifted = []
    for degree, row in rows_mod_p:
        values = []
        for cols in powers:
            chi = tuple(map(row.__getitem__, cols))
            value = exact.get((degree, chi))
            if value is None:
                o = len(chi)
                roots, o_inv = inverse_roots[o]
                # a geometric power row, (zeta_o^tk)_k as on a linear character,
                # has the one eigenvalue zeta_o^t: its transform needs no sums
                t = roots.index(chi[-1]) if chi[-1] in roots else None
                if t is not None and all(chi[k] == roots[-t * k % o] for k in range(o)):
                    mults = tuple(int(l == t) for l in range(o))
                else:
                    mults = tuple(
                        sum(v * roots[l * k % o] for k, v in enumerate(chi)) % p * o_inv % p
                        for l in range(o))
                if sum(mults) != degree:
                    raise ArithmeticError("eigenvalue multiplicities do not sum to the degree")
                value = Cyclotomic.from_root_combination(o, mults)
                # one object per value, so that later lookups compare by identity
                value = exact[degree, chi] = interned.setdefault(value, value)
            values.append(value)
        lifted.append((degree, ClassFunction(g, tuple(values))))
    return lifted


def _ordered_table(g: Group, lifted) -> CharacterTable:
    """Trivial character first, the rest by (degree, values); degrees checked."""
    trivial = [t for t in lifted if all(v == 1 for v in t[1].values)]
    rest = [t for t in lifted if not all(v == 1 for v in t[1].values)]
    if len(trivial) != 1:
        raise ArithmeticError("expected exactly one trivial character")
    rest.sort(key=lambda t: (t[0], t[1].sort_key()))
    ordered = trivial + rest
    degrees = tuple(t[0] for t in ordered)
    irreducibles = tuple(t[1] for t in ordered)
    if sum(d * d for d in degrees) != g.order:
        raise ArithmeticError("degree squares do not sum to the group order")
    return CharacterTable(g, tuple(element_classes(g)), irreducibles, degrees)


@memo
def _coordinates(table: CharacterTable) -> tuple[int, list[list[tuple[int, ...]]]]:
    """(e, rows): e the lcm of the table's conductors and rows[i][k] the
    integer coordinates of chi_i(x_k) in the power basis of Z[zeta_e].

    Each distinct value is promoted once.
    """
    e = math.lcm(*(v.conductor for chi in table.irreducibles for v in chi.values))
    coords = {}
    for chi in table.irreducibles:
        for v in chi.values:
            if v not in coords:
                coords[v] = tuple(v._promoted(e))
    return e, [[coords[v] for v in chi.values] for chi in table.irreducibles]


@memo
def _galois_action(table: CharacterTable) -> list[list[int | None]]:
    """For each unit k mod exp(G), in increasing order from 1, the row index
    of chi_i o p_k for each row chi_i, or None where that is not a row.

    p_k is the class of x -> x^k; rows are compared exactly, on their values.
    The one walk of the units: orthonormality reads its permutations and the
    rational irreducibles its row orbits.
    """
    g = table.group
    m = g.exponent()
    pm = power_map(g)
    ids: dict = {}
    rows = [tuple(ids.setdefault(v, len(ids)) for v in chi.values) for chi in table.irreducibles]
    index = {row: i for i, row in enumerate(rows)}
    columns = [[pm_j[k % m] for pm_j in pm] for k in range(1, m + 1) if math.gcd(k, m) == 1]
    return [[index.get(tuple(map(row.__getitem__, cols))) for row in rows] for cols in columns]


def _check_orthonormality(table: CharacterTable):
    """<chi_i, chi_j> = delta_ij for every pair, in integer coordinates, checked
    once per orbit of pairs under the ``_galois_action``'s permutations
    (module docstring).

    The pairs are walked in order and a pair is skipped when a symmetry maps
    a checked pair onto it, so the first pair that fails is always checked.

    Per pair, sum_k |C_k| chi_i(x_k) conj chi_j(x_k) is accumulated over the
    ``_coordinates`` of the values as an integer polynomial in zeta_e and
    reduced mod Phi_e once; it must be |G| delta_ij.
    """
    e, rows = _coordinates(table)
    n = euler_phi(e)
    sizes = [cl.size for cl in table.classes]
    conjugates = {}
    for c in {c for row in rows for c in row}:
        raw = [0] * e
        for t, x in enumerate(c):
            raw[-t % e] += x
        conjugates[c] = _reduce_mod_phi(raw, e)
    # the nonzero (exponent, coordinate) terms of each value and conjugate
    terms = {c: [(t, x) for t, x in enumerate(c) if x] for c in conjugates}
    conj_terms = {c: [(u, y) for u, y in enumerate(conjugates[c]) if y] for c in conjugates}
    term_rows = [[terms[c] for c in row] for row in rows]
    conj_rows = [[conj_terms[c] for c in row] for row in rows]
    perms = [pi for pi in _galois_action(table) if None not in pi and len(set(pi)) == len(pi)]
    covered = set()
    for i, a_row in enumerate(term_rows):
        for j in range(i, len(rows)):
            if (i, j) in covered:
                continue
            acc = [0] * (2 * n - 1)
            for size, a, b in zip(sizes, a_row, conj_rows[j]):
                for t, x in a:
                    x *= size
                    for u, y in b:
                        acc[t + u] += x * y
            expected = [table.group.order if i == j else 0] + [0] * (n - 1)
            if _reduce_mod_phi(acc, e) != expected:
                raise ArithmeticError(
                    f"characters {i} and {j} are not orthonormal; lifting is inconsistent"
                )
            for pi in perms:
                covered.add((pi[i], pi[j]) if pi[i] <= pi[j] else (pi[j], pi[i]))


# ---------------------------------------------------------------------------
# rational irreducibles as Galois orbit sums


@memo
def rational_irreducibles(table: CharacterTable) -> list[RationalIrreducible]:
    """Galois orbits of the irreducibles under zeta -> zeta^k, with orbit sums.

    The orbit sum Phi takes rational integer values and satisfies
    <Phi, Phi> = orbit size.  Orbits are listed by least member index, so the
    trivial orbit comes first.
    """
    g = table.group
    r = len(table.classes)
    coords = _coordinates(table)[1]
    action = _galois_action(table)
    seen: set = set()
    out = []
    for t in range(len(table.irreducibles)):
        if t in seen:
            continue
        orbit = {pi[t] for pi in action}
        if None in orbit:
            raise ArithmeticError("Galois action left the character table")
        seen |= orbit
        orbit = tuple(sorted(orbit))
        # a value is rational when only its constant coordinate is nonzero
        acc = [[sum(c) for c in zip(*(coords[u][j] for u in orbit))] for j in range(r)]
        if any(any(c[1:]) for c in acc):
            raise IntegralityError("Galois orbit sum has a non-integer value")
        orbit_sum = VirtualCharacter(g, [c[0] for c in acc])
        out.append(RationalIrreducible(g, orbit, orbit_sum, len(orbit)))
    return out


def rational_coefficients(v: VirtualCharacter, context: str) -> tuple[int, ...]:
    """Coefficients c = <v, Phi>/|orbit| of v, one per ``rational_irreducibles``.

    Raises IntegralityError unless every c is an integer and sum c Phi
    rebuilds v.  For rational v that is "every <v, chi> is an integer":
    Galois permutes the <v, chi> within orbits, so integers are equal there,
    and a rebuilt v forces <v, chi> = c.  The rebuild matters: on C3,
    v = (0, 3, -3) has every c = 0 but <v, chi_1> = -i sqrt 3.

    Each c is one exact division: the numerator sum_k |C_k| v(x_k) Phi(x_k)
    must be a multiple of |G| |orbit|.  On an int-valued v the numerators,
    the coefficients and the rebuild are ints.
    """
    irreducibles = rational_irreducibles(character_table(v.group))
    weighted = [cl.size * x for cl, x in zip(element_classes(v.group), v.values)]
    quotients = [
        divmod(sum(w * y for w, y in zip(weighted, lam.orbit_sum.values)),
               v.group.order * lam.orbit_size)
        for lam in irreducibles
    ]
    coefficients = tuple(c for c, _ in quotients)
    rebuilt = tuple(
        sum(c * lam.orbit_sum.values[j] for c, lam in zip(coefficients, irreducibles))
        for j in range(len(v.values))
    )
    if any(r for _, r in quotients) or rebuilt != v.values:
        raise IntegralityError(f"{context}: {v!r} is not an integral virtual character")
    return coefficients
