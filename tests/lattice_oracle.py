"""Reference subgroup enumeration, for tests: pairwise joins to a fixpoint.

Starts from the cyclic subgroups and closes the join of every pair of
incomparable subgroups found so far, re-scanning until nothing new appears;
conjugacy classes are orbits under conjugation by every element.  Each join
is closed under products of all pairs of members, so it is quadratic in the
subgroup size and the whole enumeration is far slower than the cyclic
extension in ``equilef.groups``; keep it to groups of order at most 60.
It returns plain member tuples, so it shares nothing with the package but
the multiplication table.
"""

from itertools import combinations


def _closure_of(g, seed) -> frozenset:
    elems = set(seed)
    elems.add(0)
    frontier = list(elems)
    while frontier:
        fresh = []
        for a in frontier:
            for b in tuple(elems):
                for c in (g.mul[a][b], g.mul[b][a]):
                    if c not in elems:
                        elems.add(c)
                        fresh.append(c)
        frontier = fresh
    return frozenset(elems)


def oracle_subgroups(g) -> list[tuple[int, ...]]:
    """Member tuples of all subgroups, sorted by (order, member tuple)."""
    found = {frozenset({0})}
    for a in range(1, g.order):
        found.add(_closure_of(g, {a}))
    changed = True
    while changed:
        changed = False
        current = sorted(found, key=lambda s: (len(s), sorted(s)))
        for sa, sb in combinations(current, 2):
            if sa <= sb or sb <= sa:
                continue
            join = _closure_of(g, sa | sb)
            if join not in found:
                found.add(join)
                changed = True
    return sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))


def oracle_classes(g) -> list[tuple[tuple[int, ...], ...]]:
    """Conjugacy classes as sorted tuples of member tuples, sorted by
    (order, least member tuple); the least member is the representative."""
    remaining = set(oracle_subgroups(g))
    classes = []
    while remaining:
        h = min(remaining)
        orbit = sorted(
            {tuple(sorted(g.conj(x, m) for m in h)) for x in range(g.order)}
        )
        remaining.difference_update(orbit)
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: (len(c[0]), c[0]))
    return classes
