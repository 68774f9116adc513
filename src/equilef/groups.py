"""Finite groups as explicit multiplication tables.

A group is a table over element indices 0..n-1 with 0 the identity; only
``Group.from_table`` checks a raw one.  Groups built from permutation
generators remember, for every element, a shortest generator word.
``extend_from_generators`` is the one routine that turns data given per
generator (vertex maps of a complex, matrices of a lattice) into data per
element: it walks those words and checks the relations against the table,
so the result is a homomorphism and callers check only their generators.
``is_permutation`` is the one test of a permutation row.

``generated`` is the one routine that generates a subgroup, as the orbit of
the identity under right multiplication.  A ``Subgroup`` checks that its
members are closed under products by generating them from at most log2 |H| of
them, its ``generators``; normalizers and lattice joins work from those.

Enumeration order is deterministic everywhere: elements appear in
breadth-first order over generator words with lexicographic tie-break,
subgroups are sorted by (order, member tuple), conjugacy classes by their
least member.

``memo`` is how every derived fact is cached, on its owner; a cache keyed by
a value normalises the value and passes it to a memoized function of it.
The one exception is the intern, the process's one module-level map.
``interned`` maps a multiplication table to the first ``Group`` with that
table to ask: re-based subgroups and character tables go through it, so
equal tables share one group and one character table across scenarios.
``interned_value`` maps a kind and a value to the object first made for
them: ``cohomology`` keeps there one rank-one cochain object per cell set, so
every stratum with those cells, under any lattice, shares its coboundaries,
eliminations, cell moves and cohomology traces (a vertex map is keyed by
its images, a value).  The intern holds groups, tables and cells, never a
scenario, complex, stratum or lattice.
"""

from __future__ import annotations

import functools
import math
import os
from collections import namedtuple
from operator import itemgetter

DEFAULT_MAX_ORDER = 10_000
ORDER_ENV_VAR = "EQUILEF_MAX_GROUP_ORDER"


def max_group_order() -> int:
    """The configured closure bound (env EQUILEF_MAX_GROUP_ORDER overrides)."""
    raw = os.environ.get(ORDER_ENV_VAR)
    if raw is None:
        return DEFAULT_MAX_ORDER
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{ORDER_ENV_VAR} must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"{ORDER_ENV_VAR} must be positive, got {value}")
    return value


def memo(f):
    """Compute f(owner, *args) once: owner._cache keeps it under (f, *args)."""
    @functools.wraps(f)
    def cached(owner, *args):
        key = (f, *args)
        try:
            return owner._cache[key]
        except KeyError:
            pass
        value = owner._cache[key] = f(owner, *args)
        return value
    return cached


class Group:
    """Immutable finite group given by its multiplication table, stored as
    given: every caller but ``from_table`` builds a group table by construction."""

    __slots__ = (
        "order",
        "mul",
        "inverse",
        "generator_permutations",
        "generator_elements",
        "words",
        "_cache",
    )

    def __init__(self, mul, generator_permutations=None, generator_elements=None, words=None):
        mul = tuple(tuple(row) for row in mul)
        self.order = len(mul)
        self.mul = mul
        self.inverse = tuple(row.index(0) for row in mul)
        self.generator_permutations = generator_permutations
        self.generator_elements = generator_elements
        self.words = words
        self._cache: dict = {}

    @classmethod
    def from_table(cls, rows) -> "Group":
        """The group of a raw table: a Latin square, identity 0, two-sided inverses."""
        mul = tuple(tuple(row) for row in rows)
        n = len(mul)
        if n == 0:
            raise ValueError("a group needs at least the identity")
        full = frozenset(range(n))
        for i, row in enumerate(mul):
            if len(row) != n or frozenset(row) != full:
                raise ValueError(f"row {i} of the multiplication table is not a permutation")
        for j, column in enumerate(zip(*mul)):
            if mul[0][j] != j or mul[j][0] != j:
                raise ValueError("element 0 must be the identity")
            if frozenset(column) != full:
                raise ValueError(f"column {j} of the multiplication table is not a permutation")
        for a, row in enumerate(mul):
            if mul[row.index(0)][a] != 0:
                raise ValueError(f"one-sided inverse at element {a}")
        return cls(mul)

    # -- elementary operations ----------------------------------------------

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.mul[self.mul[g][x]][self.inverse[g]]

    @memo
    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul[x][a]
            k += 1
        return k

    @memo
    def exponent(self) -> int:
        """The lcm of the class representatives' orders: element order is a class function."""
        return math.lcm(*(self.element_order(cl.representative) for cl in element_classes(self)))

    def subgroup(self, members) -> "Subgroup":
        """The subgroup with the given member set (canonical, cached instance)."""
        return self._subgroup(tuple(sorted(set(members))))

    @memo
    def _subgroup(self, members: tuple) -> "Subgroup":
        return Subgroup(self, members)

    def cyclic_subgroup(self, a: int) -> "Subgroup":
        return self.subgroup(generated(self, (a,)))

    def whole_subgroup(self) -> "Subgroup":
        return self.subgroup(range(self.order))

    def __repr__(self):
        return f"Group(order={self.order})"


# What a process keeps across scenarios, for its whole life.  The first Group
# of each distinct multiplication table to ask ``interned``: a bucket is keyed
# by rows 1 and n-1, O(n) to hash, and its groups are told apart by comparing
# tables.  And under (kind, hash of a value), the kind objects that
# ``interned_value`` first made for each value with that hash.
_INTERN: dict[tuple, list] = {}


def interned(g: Group) -> Group:
    """The first Group with g's multiplication table to ask: g itself if none had.

    Whatever is memoized on the returned group, its classes and character
    table above all, is then computed once per table in a process.
    """
    mul = g.mul
    bucket = _INTERN.setdefault((mul[1 % g.order], mul[-1]), [])
    for first in bucket:
        if first is g or first.mul == mul:
            return first
    bucket.append(g)
    return g


def interned_value(kind: type, value, make):
    """The kind object made for the first value equal to value to ask: make()
    then, kept for the process; a make that raises keeps nothing.

    Callers whose equal values are different objects share one object and
    whatever is memoized on it.  The value is hashed once per ask: a bucket
    is keyed by (kind, hash), and its values are told apart by comparing.
    """
    key = (kind, hash(value))
    for kept, made in _INTERN.get(key, ()):
        if kept == value:
            return made
    made = make()
    _INTERN.setdefault(key, []).append((value, made))
    return made


class ElementClass(namedtuple("ElementClass", "representative members")):
    """A conjugacy class of group elements."""

    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.members)


class Subgroup:
    """A subgroup of a parent group: its sorted member tuple, and members that generate it."""

    __slots__ = ("parent", "member_set", "order", "generators", "_members_frozen", "_cache")

    def __init__(self, parent: Group, members):
        members = tuple(sorted(set(members)))
        if not members or members[0] != 0:
            raise ValueError("a subgroup must contain the identity")
        frozen = frozenset(members)
        gens, span = (), frozenset({0})
        for a in members:
            if a not in span:
                gens += (a,)
                span = generated(parent, gens)
                if not span <= frozen:
                    raise ValueError(f"member set not closed under products with {a}")
        self.parent = parent
        self.member_set = members
        self.order = len(members)
        self.generators = gens
        self._members_frozen = frozen
        self._cache: dict = {}

    def to_parent(self, sub_elem: int) -> int:
        return self.member_set[sub_elem]

    @memo
    def as_group(self) -> Group:
        """This subgroup as a group in its own right (indices re-based).

        The whole subgroup returns the parent itself, so characters computed
        on it live on the original group object.  Any other is ``interned``
        by its table: subgroups with equal re-based tables, of any parent,
        share one Group, and with it its classes and character table.
        """
        if self.order == self.parent.order:
            return self.parent
        mem = self.member_set
        idx = {e: i for i, e in enumerate(mem)}
        table = tuple(tuple(idx[self.parent.mul[a][b]] for b in mem) for a in mem)
        return interned(Group(table))

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.member_set == other.member_set
        )

    def __hash__(self):
        return hash((id(self.parent), self.member_set))

    def __repr__(self):
        return f"Subgroup(order={self.order}, members={self.member_set})"


class SubgroupClass(namedtuple("SubgroupClass", "representative members order")):
    """A conjugacy class of subgroups."""

    __slots__ = ()


# ---------------------------------------------------------------------------
# construction and enumeration


def is_permutation(row, n: int) -> bool:
    """True when row lists 0..n-1 in some order; the length is compared first,
    so a short row against a huge n costs nothing."""
    return len(row) == n and sorted(row) == list(range(n))


def group_from_permutations(degree: int, generators) -> Group:
    """Close a set of permutation generators into a Group.

    Elements are enumerated breadth-first over generator words (lexicographic
    within each length), so indexing is reproducible.  The table is filled
    by rows: row a is the row of a's parent read through left multiplication
    by the last letter of a's word.  Identity and redundant generators are
    allowed.  Closure beyond ``max_group_order()`` is rejected.
    """
    if not isinstance(degree, int) or degree < 1:
        raise ValueError("degree must be a positive integer")
    gens = [tuple(g) for g in generators]
    for gi, g in enumerate(gens):
        if not is_permutation(g, degree):
            raise ValueError(f"generator {gi} is not a permutation of 0..{degree - 1}")
    bound = max_group_order()

    # without generators the group is trivial: no permutation of the degree is built
    identity = tuple(range(degree)) if gens else ()
    elems = [identity]
    index = {identity: 0}
    words: list[tuple[int, ...]] = [()]
    parent = [0]
    frontier = [0]
    while frontier:
        next_frontier = []
        for ei in frontier:
            base = elems[ei]
            for j, gen in enumerate(gens):
                prod = tuple(base[gen[v]] for v in range(degree))
                if prod not in index:
                    if len(elems) >= bound:
                        raise ValueError(
                            f"closure of the generators exceeds the order bound {bound}"
                        )
                    index[prod] = len(elems)
                    elems.append(prod)
                    words.append(words[ei] + (j,))
                    parent.append(ei)
                    next_frontier.append(index[prod])
        frontier = next_frontier

    # left[j] reads a row at gen_j b for every b; row a is row parent(a) read
    # through left[j] for a's last letter j, since a b = parent(a) (gen_j b)
    n = len(elems)
    left = [itemgetter(*(index[tuple(map(gen.__getitem__, e))] for e in elems)) for gen in gens]
    mul = [tuple(range(n))]
    for a in range(1, n):
        mul.append(left[words[a][-1]](mul[parent[a]]))
    gen_elements = tuple(index[g] for g in gens)
    return Group(mul, generator_permutations=tuple(gens), generator_elements=gen_elements,
                 words=tuple(words))


def extend_from_generators(group: Group, images, identity, compose, what: str) -> list:
    """The image of every element under a homomorphism given on the generators.

    ``images[j]`` is the image of generator j, ``identity`` that of element
    0, and ``compose(a, b)`` the image of x * y when a, b are those of x, y.
    Elements are visited in index order; each one's image is its parent's
    image composed with the image of its word's last generator, the parent
    of b = parent * gen_j being mul[b][inverse[gen_j]].  Then every product
    gen_j * e is checked against the table, which also checks that identity
    and redundant generators act as the table says; a violation raises
    ValueError naming the relation.  ``what`` names one image in messages.
    """
    gens = group.generator_elements
    if gens is None:
        if group.order > 1:
            raise ValueError(f"group was not built from generators; cannot extend a {what}")
        gens = ()
    if len(images) != len(gens):
        raise ValueError(f"need one {what} per generator ({len(gens)} expected)")
    mul, inverse, words = group.mul, group.inverse, group.words
    out = [identity]
    for b in range(1, group.order):
        j = words[b][-1]
        out.append(compose(out[mul[b][inverse[gens[j]]]], images[j]))
    for j, (ge, image) in enumerate(zip(gens, images)):
        row = mul[ge]
        for e in range(group.order):
            if out[row[e]] != compose(image, out[e]):
                raise ValueError(
                    f"the {what} of generator {j} violates the relation gen[{j}] * element[{e}]")
    return out


@memo
def element_classes(g: Group) -> list[ElementClass]:
    """Conjugacy classes of elements by least member: orbits under the movers of ``_conjugates``."""
    conj, movers = g.conj, g.generator_elements or range(g.order)
    seen: set = set()
    classes = []
    for a in range(g.order):
        if a not in seen:
            orbit = _orbit(a, lambda y: [conj(x, y) for x in movers])
            seen |= orbit
            classes.append(ElementClass(representative=a, members=tuple(sorted(orbit))))
    return classes


@memo
def class_index_of(g: Group) -> tuple[int, ...]:
    """Map element -> index of its conjugacy class."""
    idx = [0] * g.order
    for ci, cl in enumerate(element_classes(g)):
        for m in cl.members:
            idx[m] = ci
    return tuple(idx)


def _orbit(start, moves) -> set:
    """Everything reachable from start by repeated moves, breadth first."""
    seen, frontier = {start}, [start]
    for x in frontier:
        for y in moves(x):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def generated(g: Group, gens) -> frozenset:
    """Members of the subgroup generated by gens: the orbit of the identity
    under right multiplication by them (a finite group needs no inverses)."""
    mul = g.mul
    return frozenset(_orbit(0, lambda x: [mul[x][s] for s in gens]))


@memo
def subgroups(g: Group) -> list[Subgroup]:
    """All subgroups, sorted by (order, member tuple): the classes flattened."""
    subs = [h for c in conjugacy_classes_of_subgroups(g) for h in c.members]
    return sorted(subs, key=lambda h: (h.order, h.member_set))


@memo
def conjugacy_classes_of_subgroups(g: Group) -> list[SubgroupClass]:
    """Subgroups up to conjugacy, by cyclic extension over class representatives.

    Starting from the trivial subgroup, each class representative H is
    joined with the cyclic subgroups <c> it does not contain, one c per
    N(H)-orbit (conjugating by N(H) conjugates the join).  A new join, generated
    by H's generators and c, starts a class filled in at once by conjugation.
    Every subgroup is generated by cyclic ones, so every class is reached
    (Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005).

    Classes are sorted by (order, representative member tuple); the
    representative is the lexicographically least member.
    """
    conj = g.conj
    cyclic: dict = {}
    canon = {a: cyclic.setdefault(generated(g, (a,)), a) for a in range(1, g.order)}
    trivial = frozenset({0})
    known, orbits, work = {trivial}, [{trivial}], [g.subgroup(trivial)]
    for h in work:
        norm = normalizer(g, h).member_set
        done: set = set()
        for c in cyclic.values():
            if c in h._members_frozen or c in done:
                continue
            done.update(canon[conj(x, c)] for x in norm)
            join = generated(g, h.generators + (c,))
            if join not in known:
                orbit = _conjugates(g, join)
                known |= orbit
                orbits.append(orbit)
                work.append(g.subgroup(join))
    return _classes_of_orbits(g, orbits)


def _conjugates(g: Group, members: frozenset) -> set:
    """Member sets of every conjugate of a subgroup, conjugating under the generators."""
    conj, movers = g.conj, g.generator_elements or range(g.order)
    return _orbit(members, lambda k: [frozenset(conj(x, m) for m in k) for x in movers])


def _classes_of_orbits(g: Group, orbits) -> list[SubgroupClass]:
    """Subgroup classes from conjugation orbits of member sets, sorted by
    (order, representative member tuple); the representative is the
    lexicographically least member."""
    classes = []
    for orbit in orbits:
        subs = tuple(g.subgroup(m) for m in sorted(tuple(sorted(m)) for m in orbit))
        classes.append(SubgroupClass(subs[0], subs, subs[0].order))
    classes.sort(key=lambda c: (c.order, c.representative.member_set))
    return classes


def normalizer(g: Group, h: Subgroup) -> Subgroup:
    """N_G(H): the x with x H x^-1 inside H, i.e. conjugating H's generators into H."""
    if h.parent is not g:
        raise ValueError("subgroup does not belong to this group")
    inside = h._members_frozen
    return g.subgroup(
        x for x in range(g.order) if all(g.conj(x, s) in inside for s in h.generators))
