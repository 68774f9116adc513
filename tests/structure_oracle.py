"""Reference checks of G-data, element by element, for tests.

The package checks outside data once, on the generators, and relies on
``groups.extend_from_generators`` making the extension a homomorphism.  These
are the per-element checks that a constructor would make without that
argument: a group table that is a group table, a vertex action that is
simplicial for every element, and a matrix invertible over Z for every
element.  Each raises AssertionError naming the first violation.
"""

from itertools import combinations

from equilef.groups import Group, is_permutation
from equilef.linalg import is_unimodular


def check_group(g):
    """The table passes the raw-table checks of ``Group.from_table``."""
    Group.from_table(g.mul)


def check_complex(x):
    """One vertex permutation per element, face-closed cells filed by
    dimension with vertices in range, no empty level, and every element simplicial."""
    assert x.simplices and all(x.simplices), "an empty level"
    assert len(x.vertex_action) == x.group.order, "one permutation per group element"
    for e, row in enumerate(x.vertex_action):
        assert is_permutation(row, x.n_vertices), f"action of element {e} is not a permutation"
    cells = {s for level in x.simplices for s in level}
    for dim, level in enumerate(x.simplices):
        for s in level:
            assert len(s) == dim + 1, f"simplex {s} filed under dimension {dim}"
            assert all(0 <= v < x.n_vertices for v in s), f"simplex {s} out of range"
            for k in range(1, len(s)):
                for face in combinations(s, k):
                    assert face in cells, f"not face-closed at {s}"
    for e, row in enumerate(x.vertex_action):
        for s in cells:
            assert tuple(sorted(row[v] for v in s)) in cells, f"element {e} moves {s} off"


def check_lattice(lattice):
    """One rank x rank matrix per element, the identity at 0, each invertible over Z."""
    r = lattice.rank
    assert len(lattice.matrices) == lattice.group.order, "one matrix per group element"
    identity = tuple(tuple(int(i == j) for j in range(r)) for i in range(r))
    assert lattice.matrices[0] == identity, "element 0 must act by the identity"
    for e, m in enumerate(lattice.matrices):
        assert len(m) == r and all(len(row) == r for row in m), f"matrix {e} has the wrong shape"
        assert is_unimodular(m), f"matrix {e} is not invertible over Z"
