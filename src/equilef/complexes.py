"""Finite simplicial complexes with a group action.

Simplices are sorted vertex tuples, kept face-closed and ordered per
dimension.  A complex carries the full per-element vertex action, extended
from generator images by ``groups.extend_from_generators``, which also
checks it against the multiplication table; ``build_complex`` checks that
each generator maps simplices to simplices, and nothing is checked per element.

The action is forced to be regular (an element fixing a simplex setwise
fixes it pointwise) by one barycentric subdivision, which suffices for any
simplicial action.  Its cells are counted before it is built: the cost model
of the run, ``MAX_CELLS`` and the subdivided cell count, lives here, next to
the subdivision whose output it predicts.
The G-orbits of cells are walked once per level, by
``_level_representatives``, memoized on the complex: the regularity scan
reads them level by level up to the first violation, and the cell count of
a free quotient reads every level.
Under regularity the open simplices with pointwise stabilizer exactly H
tile the space; those tiles and the fixed subcomplexes are returned as
Stratum objects which the cohomology layer consumes.
The classes of H that occur, ``isotropy_classes``, come from the cell
stabilizers alone; every other exact stratum is empty.
A stratum is its cells: every constructor goes through one routine that
returns the single Stratum of a cell set, cached on the complex and keyed
by the cells, so the whole space, X^H for an H fixing everything and every
empty stratum are each one object with one set of cochain complexes.
"""

from __future__ import annotations

import math
from itertools import combinations

from .groups import (
    Group,
    Subgroup,
    SubgroupClass,
    _classes_of_orbits,
    _conjugates,
    extend_from_generators,
    is_permutation,
    memo,
)

Simplex = tuple[int, ...]

# A verify peaks at about 3 KB per cell (3.1 KB on the torus subdivided three
# times, 20,736 cells; 2.3 KB on the 16-vertex simplex, 65,535 cells), so
# this many cells stay near 0.5 GB.
MAX_CELLS = 150_000


def signed_image(row, s: Simplex) -> tuple[Simplex, int]:
    """The image of a simplex under a vertex map (row[v] is v's image), sorted,
    and the sign of the permutation that sorts it."""
    image = [row[v] for v in s]
    sign = 1
    for i in range(len(image)):
        for j in range(i + 1, len(image)):
            if image[i] > image[j]:
                sign = -sign
    return tuple(sorted(image)), sign


class Stratum:
    """A locally closed union of open simplices of a parent complex.

    Built only by ``_stratum_of``: ``simplices`` holds one sorted tuple of
    cells per degree of the parent, and no other Stratum has the same cells.
    """

    __slots__ = ("parent", "simplices", "_cache")

    def __init__(self, parent: "SimplicialGComplex", simplices):
        self.parent = parent
        self.simplices = simplices
        self._cache: dict = {}

    def sizes(self) -> tuple[int, ...]:
        """Number of open simplices per dimension, degree 0..dim(parent)."""
        counts = [0] * (self.parent.dim + 1)
        for dim, group in enumerate(self.simplices):
            counts[dim] = len(group)
        return tuple(counts)

    def euler_characteristic(self) -> int:
        """Alternating cell count: the compactly supported Euler characteristic,
        the ordinary one on a whole complex (which shares this method)."""
        return sum((-1) ** dim * len(group) for dim, group in enumerate(self.simplices))

    @memo
    def simplex_set(self) -> frozenset:
        """Every cell, in one set."""
        return frozenset(s for group in self.simplices for s in group)

    @memo
    def closure_set(self) -> frozenset:
        out = set()
        for group in self.simplices:
            for s in group:
                for k in range(1, len(s) + 1):
                    out.update(combinations(s, k))
        return frozenset(out)

    def is_locally_closed(self) -> bool:
        """closure(S) minus S must be face-closed."""
        own = self.simplex_set()
        boundary = self.closure_set() - own
        for s in boundary:
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    if face in own:
                        return False
        return True

    def __repr__(self):
        return f"Stratum(sizes={self.sizes()})"


class SimplicialGComplex:
    """A finite simplicial complex with a simplicial action of a finite group.

    Built only by ``build_complex`` and ``barycentric_subdivision``:
    ``vertex_action`` holds one vertex permutation per element.
    """

    __slots__ = (
        "group",
        "n_vertices",
        "dim",
        "simplices",
        "vertex_action",
        "subdivision_count",
        "_cache",
    )

    def __init__(self, group: Group, n_vertices: int, simplices_by_dim, vertex_action,
                 subdivision_count: int = 0):
        self.group = group
        self.n_vertices = n_vertices
        self.simplices = tuple(tuple(sorted(set(map(tuple, level)))) for level in simplices_by_dim)
        self.dim = len(self.simplices) - 1
        self.vertex_action = tuple(tuple(row) for row in vertex_action)
        self.subdivision_count = subdivision_count
        self._cache = {}

    # -- basic queries -------------------------------------------------------

    simplex_set = Stratum.simplex_set

    def act_simplex(self, e: int, s: Simplex) -> Simplex:
        row = self.vertex_action[e]
        return tuple(sorted(row[v] for v in s))

    @memo
    def vertex_stabilizers(self) -> list[frozenset]:
        order = self.group.order
        return [
            frozenset(e for e in range(order) if self.vertex_action[e][v] == v)
            for v in range(self.n_vertices)
        ]

    @memo
    def stabilizer(self, s: Simplex) -> frozenset:
        """Pointwise stabilizer of a simplex (equals setwise under regularity)."""
        vstab = self.vertex_stabilizers()
        acc = vstab[s[0]]
        for v in s[1:]:
            acc = acc & vstab[v]
        return acc

    def regularity_violation(self):
        """A pair (element, simplex) fixed setwise but not pointwise, or None.

        The first violating simplex in level order, with its least element.
        Regularity is G-invariant (if e fixes s setwise but not pointwise,
        g e g^-1 does so for g s), so the first violating simplex is the
        first of its orbit: only the ``_level_representatives`` are scanned,
        and no level past the first violating one is walked.
        """
        for k in range(1, len(self.simplices)):
            for s in _level_representatives(self, k):
                stab = self.stabilizer(s)
                for e in range(1, self.group.order):
                    if e not in stab and self.act_simplex(e, s) == s:
                        return (e, s)
        return None

    def is_free(self) -> bool:
        return all(len(st) == 1 for st in self.vertex_stabilizers())

    euler_characteristic = Stratum.euler_characteristic

    def counts(self) -> tuple[int, ...]:
        return tuple(len(level) for level in self.simplices)

    def as_stratum(self) -> Stratum:
        return _stratum_of(self, self.simplices)

    def __repr__(self):
        return (
            f"SimplicialGComplex(|G|={self.group.order}, counts={self.counts()}, "
            f"subdivisions={self.subdivision_count})"
        )


# ---------------------------------------------------------------------------
# construction


def _face_closure(maximal) -> list[list[Simplex]]:
    seen: set[Simplex] = set()
    for s in maximal:
        s = tuple(sorted(set(s)))
        for k in range(1, len(s) + 1):
            seen.update(combinations(s, k))
    dim = max(len(s) for s in seen) - 1
    by_dim: list[list[Simplex]] = [[] for _ in range(dim + 1)]
    for s in seen:
        by_dim[len(s) - 1].append(s)
    return [sorted(level) for level in by_dim]


def build_complex(maximal_simplices, group: Group, vertex_action,
                  n_vertices: int | None = None, pre_subdivisions: int = 0) -> SimplicialGComplex:
    """Build a G-complex from maximal simplices and generator vertex images.

    The action is extended to every group element, its generators checked to
    be simplicial, and made regular by at most one barycentric subdivision,
    counted on the result and refused (ValueError) when it would make more
    than ``MAX_CELLS`` cells.  ``pre_subdivisions`` forces subdivisions first.
    """
    maximal = [tuple(sorted(set(s))) for s in maximal_simplices]
    if not maximal:
        raise ValueError("at least one maximal simplex is required")
    top = max(v for s in maximal for v in s)
    if n_vertices is None:
        n_vertices = top + 1
    elif top >= n_vertices:
        raise ValueError("maximal simplices mention vertices beyond the declared count")
    levels = _face_closure(maximal)
    if len(levels[0]) < n_vertices:
        missing = sorted(set(range(n_vertices)) - {s[0] for s in levels[0]})
        for v in missing:
            levels[0].append((v,))
        levels[0].sort()

    images = [tuple(img) for img in vertex_action]
    for j, img in enumerate(images):
        if not is_permutation(img, n_vertices):
            raise ValueError(f"action of generator {j} is not a vertex permutation")
    action = extend_from_generators(group, images, tuple(range(n_vertices)),
                                    lambda a, b: tuple(a[v] for v in b), "vertex map")
    if levels[0][0][0] < 0:
        raise ValueError(f"simplex {levels[0][0]} has out-of-range vertices")
    # every element is a composite of generators, so simplicial generators suffice
    ordered = [s for level in levels for s in level]
    cells = set(ordered)
    for j, img in enumerate(images):
        for s in ordered:
            if tuple(sorted(img[v] for v in s)) not in cells:
                raise ValueError(f"generator {j} does not map simplex {s} to a simplex")
    x = SimplicialGComplex(group, n_vertices, levels, action, subdivision_count=0)
    for _ in range(pre_subdivisions):
        x = barycentric_subdivision(x)
    # an element fixing a flag of sd X fixes each of its faces, their
    # dimensions being distinct, so one subdivision makes the action regular
    if x.regularity_violation() is not None:
        cells = _subdivided_cells(x.counts(), 1)
        if cells > MAX_CELLS:
            raise ValueError(f"the action is not regular, and the subdivision that makes it "
                             f"so would have {cells} cells, over the limit of {MAX_CELLS}")
        x = barycentric_subdivision(x)
    return x


def _surjections(n: int, m: int) -> int:
    """Surjections of an n-set onto an m-set, m! S(n, m), by inclusion-exclusion."""
    return sum((-1) ** i * math.comb(m, i) * (m - i) ** n for i in range(m + 1))


def _subdivided_cells(f, times) -> int:
    """The cell count after barycentric subdivisions of a complex with f-vector f.

    A subdivision puts (j+1)! S(k+1, j+1) open j-cells in each k-cell.
    """
    for _ in range(times):
        f = [sum(f[k] * _surjections(k + 1, j + 1) for k in range(j, len(f)))
             for j in range(len(f))]
    return sum(f)


def barycentric_subdivision(x: SimplicialGComplex) -> SimplicialGComplex:
    """The barycentric subdivision with the induced action.

    New vertices are the simplices of x (ordered by dimension then
    lexicographically); new simplices are the chains of proper inclusions.
    """
    order: list[Simplex] = [s for level in x.simplices for s in level]
    index = {s: i for i, s in enumerate(order)}

    chains_by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(x.dim + 1)]
    chain_memo: dict[Simplex, list[tuple[int, ...]]] = {}

    def chains_ending_at(s: Simplex) -> list[tuple[int, ...]]:
        got = chain_memo.get(s)
        if got is None:
            got = [(index[s],)]
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    for ch in chains_ending_at(face):
                        got.append(ch + (index[s],))
            chain_memo[s] = got
        return got

    for s in order:
        for ch in chains_ending_at(s):
            chains_by_dim[len(ch) - 1].append(ch)

    new_action = []
    for e in range(x.group.order):
        new_action.append(tuple(index[x.act_simplex(e, s)] for s in order))

    return SimplicialGComplex(
        x.group,
        len(order),
        chains_by_dim,
        new_action,
        subdivision_count=x.subdivision_count + 1,
    )


# ---------------------------------------------------------------------------
# strata


def _stratum(x: SimplicialGComplex, keep) -> Stratum:
    """The one Stratum of the cells that keep selects, cached by those cells."""
    cells = tuple(tuple(s for s in level if keep(s)) for level in x.simplices)
    return _stratum_of(x, cells)


@memo
def _stratum_of(x: SimplicialGComplex, cells: tuple) -> Stratum:
    return Stratum(x, cells)


def fixed_subcomplex(x: SimplicialGComplex, h: Subgroup) -> Stratum:
    """The closed subcomplex fixed pointwise by all of H; the whole space if H is trivial."""
    _check_subgroup(x, h)
    members = h._members_frozen
    return _stratum(x, lambda s: members <= x.stabilizer(s))


def exact_stratum(x: SimplicialGComplex, h: Subgroup) -> Stratum:
    """Open simplices whose stabilizer is exactly H (locally closed)."""
    _check_subgroup(x, h)
    members = h._members_frozen
    return _stratum(x, lambda s: x.stabilizer(s) == members)


@memo
def isotropy_classes(x: SimplicialGComplex) -> list[SubgroupClass]:
    """The classes [H] whose exact stratum is non-empty: the cell stabilizers
    up to conjugacy, as ``conjugacy_classes_of_subgroups`` would list them
    (same representatives, conjugates and order) but without the lattice."""
    orbits: list[set] = []
    for stab in {x.stabilizer(s) for level in x.simplices for s in level}:
        if not any(stab in orbit for orbit in orbits):
            orbits.append(_conjugates(x.group, stab))
    return _classes_of_orbits(x.group, orbits)


def _check_subgroup(x: SimplicialGComplex, h: Subgroup):
    if h.parent is not x.group:
        raise ValueError("subgroup belongs to a different group than the complex")


# ---------------------------------------------------------------------------
# orbits


@memo
def _level_representatives(x: SimplicialGComplex, k: int) -> tuple:
    """The least simplex of each orbit of k-simplices, in sorted order.

    The level is sorted, so the first simplex met of each orbit is its least.
    Each simplex is met once, so only the images under non-identity elements
    are marked covered.
    """
    covered: set = set()
    reps = []
    for s in x.simplices[k]:
        if s not in covered:
            covered.update(x.act_simplex(e, s) for e in range(1, x.group.order))
            reps.append(s)
    return tuple(reps)


def _orbit_representatives(x: SimplicialGComplex) -> list[tuple]:
    """``_level_representatives`` of every level: for a free action, the cells of X/G."""
    return [_level_representatives(x, k) for k in range(len(x.simplices))]
