"""Cochain complexes of strata with lattice coefficients, over Q, Z, and F_p.

A GLattice is an integer representation of the group on Z^r; matrices given
per generator are checked for shape and extended to every element by
``groups.extend_from_generators``, the routine that also extends the vertex
maps of a complex; its relations make every matrix invertible over Z.  For a
locally closed stratum S the complex restricts the full simplicial coboundary
to the simplices of S; its cohomology is the compactly supported cohomology
of the open union of S.  All arithmetic is exact.

Coefficients are flat, so the cochains with values in a lattice L of rank r
are C^*(S) (x) L, with d (x) I_r as differential and an element acting as
its signed move of the cells tensored with its matrix: every rank over Q
and F_p, and every Smith invariant over Z, is r copies of one of d, and over
Q every trace is the rank-one one times the lattice trace chi_L (Kunneth,
with L in degree 0).  The lattice enters only through chi_L.  So a
``CellCochains`` holds everything that depends on the cells alone (the
simplex index, the coboundaries d_k, their reductions and Smith invariants,
and the moves and traces of each vertex map, keyed by the images of the
cells' own vertices), one per distinct cell set in a process:
``cell_cochains`` keeps it in the package's one intern
(``groups.interned_value``), keyed by ``Stratum.simplices``.  A
``CochainComplex`` of (stratum, lattice) scales its dimensions by r and its
traces by chi_L, and checks that the stratum is invariant under each
element it traces.  The identity moves no cell and its traces are the
dimensions, so a group fixing its stratum pointwise walks no cell.

Coboundaries are sparse columns, and one column reduction
(``linalg.reduce_columns``, as in persistent cohomology) serves every
question: it runs once per degree over Q, in ints except where a value has
a denominator, and over F_p for mod-p ranks.  Each reduction of d_k clears
the pivot rows of d_(k-1), over Q and over each F_p with that field's own
pivots: those columns of d_k are known to reduce to zero, so they are
skipped (Chen-Kerber's twist).
Reducing d_k yields an echelon basis of im d_k and, from the recorded column
operations, kernel vectors of d_k; with the cleared columns left out, each
has a pivot that im d_(k-1) leaves free, and they represent H^k.  A trace
on H^k moves each rank-one representative and reduces its image against
this basis of ker d_k; a residue raises ArithmeticError.  Over Q the
invariants of H^k are read off its trace character (Maschke), and integral
torsion is read off the Smith invariants of the same sparse columns, uncleared
(``linalg.smith_invariants``), whose count must match the rank over Q: a
wrong clearing would lower a rank over a field, and Smith does not share it.
The chain-level alternating trace is exposed separately so callers can
confront the two.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain

from .linalg import _apply, _sub, reduce_columns, smith_invariants
from .characters import VirtualCharacter, _rational, rational_coefficients
from .complexes import Stratum, signed_image
from .groups import (Group, Subgroup, element_classes, extend_from_generators,
                     interned_value, memo)


def _dims_from_ranks(sizes, ranks) -> tuple[int, ...]:
    """Cohomology dimensions from cochain dimensions and ranks of d_0..d_(top-1)."""
    return tuple(
        n - (ranks[k] if k < len(ranks) else 0) - (ranks[k - 1] if k >= 1 else 0)
        for k, n in enumerate(sizes)
    )


def _euler_checked(cells, dims, where):
    lhs = sum((-1) ** k * d for k, d in enumerate(cells))
    rhs = sum((-1) ** k * d for k, d in enumerate(dims))
    if lhs != rhs:
        raise ArithmeticError(
            f"Euler-Poincare mismatch {where}: cells {lhs}, cohomology {rhs}"
        )
    return dims


def _int_matmul(a, b):
    """a b for integer matrices given as rows; each row of the product starts
    from its first nonzero term, a copy of b's row when the coefficient is 1."""
    out = []
    for row in a:
        acc = None
        for c, brow in zip(row, b):
            if c:
                if acc is not None:
                    acc = [x + c * y for x, y in zip(acc, brow)]
                else:
                    acc = list(brow) if c == 1 else [c * y for y in brow]
        out.append([0] * len(b[0]) if acc is None else acc)
    return out


class GLattice:
    """A finite group acting on Z^r by invertible integer matrices.

    Built only by ``trivial``, ``regular`` and ``from_generator_matrices``:
    ``matrices`` holds one r x r matrix per element, a homomorphism, so each
    is invertible over Z (rho(x) rho(x^-1) = I).
    """

    __slots__ = ("group", "rank", "matrices", "_hash", "_cache")

    def __init__(self, group: Group, rank_: int, matrices):
        self.group = group
        self.rank = rank_
        self.matrices = tuple(
            tuple(tuple(row) for row in m) for m in matrices
        )
        self._cache: dict = {}
        self._hash = hash(self.matrices)

    def __eq__(self, other):
        """The same group object acting by equal matrices (hashed once, above)."""
        return (isinstance(other, GLattice) and self.group is other.group
                and self.matrices == other.matrices)

    def __hash__(self):
        return self._hash

    @classmethod
    def from_generator_matrices(cls, group: Group, rank_: int, generator_matrices):
        """Extend generator matrices to the group (``groups.extend_from_generators``,
        which checks the relations); each must be rank x rank, the rank positive."""
        if rank_ < 1:
            raise ValueError(f"lattice rank {rank_} is not positive")
        gens = [[[int(v) for v in row] for row in m] for m in generator_matrices]
        for j, m in enumerate(gens):
            if len(m) != rank_ or any(len(row) != rank_ for row in m):
                raise ValueError(f"matrix of generator {j} is not {rank_}x{rank_}")
        ident = [[1 if i == j else 0 for j in range(rank_)] for i in range(rank_)]
        return cls(group, rank_, extend_from_generators(group, gens, ident, _int_matmul, "matrix"))

    @classmethod
    def trivial(cls, group: Group) -> "GLattice":
        return cls(group, 1, [((1,),)] * group.order)

    @classmethod
    def regular(cls, group: Group) -> "GLattice":
        """Z[G] with the left translation action."""
        n = group.order
        mats = []
        for g in range(n):
            m = [[0] * n for _ in range(n)]
            for x in range(n):
                m[group.mul[g][x]][x] = 1
            mats.append(m)
        return cls(group, n, mats)

    def trace(self, e: int) -> int:
        m = self.matrices[e]
        return sum(m[i][i] for i in range(self.rank))

    @memo
    def character(self) -> VirtualCharacter:
        """Trace function as a virtual character of the acting group."""
        classes = element_classes(self.group)
        return VirtualCharacter(
            self.group, tuple(self.trace(c.representative) for c in classes))

    def __repr__(self):
        return f"GLattice(|G|={self.group.order}, rank={self.rank})"


class CellCochains:
    """The rank-one integer cochains of a cell set: all that no lattice enters.

    Built only by ``cell_cochains``, once per distinct ``Stratum.simplices``
    in a process: it keeps those cells and what is derived from them, the
    simplex index, the coboundaries d_k (one {row: +-1} column per k-cell,
    checked to square to zero), their reductions over Q and ranks over F_p,
    their Smith invariants, and the action and traces of vertex maps, never
    the stratum itself.  A vertex map is given by ``images``, the image of
    each of the cells' ``vertices`` in order, so equal maps share a trace.
    """

    __slots__ = ("simplices", "sizes", "vertices", "coboundaries", "_cache")

    def __init__(self, stratum: Stratum):
        if not stratum.is_locally_closed():
            raise ValueError(f"stratum of sizes {stratum.sizes()} is not locally closed")
        self.simplices = stratum.simplices
        self.sizes = tuple(len(level) for level in self.simplices)
        self.vertices = tuple(sorted(set().union(*chain.from_iterable(self.simplices))))
        self._cache = {}
        self.coboundaries = tuple(
            self._build_coboundary(k) for k in range(len(self.simplices) - 1)
        )
        self._check_dd_zero()

    def _build_coboundary(self, k):
        index_k = self.index(k)
        columns = [{} for _ in range(self.sizes[k])]
        for t_i, tau in enumerate(self.simplices[k + 1]):
            for drop in range(len(tau)):
                s_i = index_k.get(tau[:drop] + tau[drop + 1:])
                if s_i is not None:
                    columns[s_i][t_i] = -1 if drop % 2 else 1
        return tuple(columns)

    def _check_dd_zero(self):
        for lower, upper in zip(self.coboundaries, self.coboundaries[1:]):
            if any(_apply(upper, col) for col in lower):
                raise ArithmeticError("differential does not square to zero")

    def coboundary(self, k):
        """d_k as sparse columns, or None when k is outside 0..top-1."""
        if 0 <= k < len(self.coboundaries):
            return self.coboundaries[k]
        return None

    @memo
    def index(self, k):
        """Position of each k-cell in its degree."""
        return {s: i for i, s in enumerate(self.simplices[k])}

    # -- the action of a vertex map -------------------------------------------

    def is_identity(self, images) -> bool:
        """Whether the vertex map fixes every vertex: then it moves no cell,
        and nothing of it is walked or kept."""
        return images == self.vertices

    @memo
    def moves(self, images, k):
        """(image index, orientation sign) of each k-cell under the vertex map,
        or None when some k-cell leaves the set."""
        row = dict(zip(self.vertices, images))
        index = self.index(k)
        moves = []
        for s in self.simplices[k]:
            image, sign = signed_image(row, s)
            t_i = index.get(image)
            if t_i is None:
                return None
            moves.append((t_i, sign))
        return moves

    @memo
    def fixed(self, images, k) -> int:
        """Trace of the vertex map on the k-cochains: the signs of the cells it fixes."""
        if self.is_identity(images):
            return self.sizes[k]
        return sum(sign for s_i, (t_i, sign) in enumerate(self.moves(images, k)) if t_i == s_i)

    # -- cohomology over Q ----------------------------------------------------

    @memo
    def reduction(self, k):
        """reduce_columns of d_k over Q with kernel vectors; d_top has no rows.

        The pivot rows of d_(k-1) are cleared: a pivot j of d_(k-1) has a
        reduced column r in im d_(k-1), so d_k r = 0 with r[j] = 1 and no
        key above j, and column j of d_k reduces to zero.
        """
        columns = self.coboundary(k) or [{}] * self.sizes[k]
        cleared = self.reduction(k - 1)[0] if k >= 1 else ()
        return reduce_columns(columns, record=True, skip=cleared)

    @memo
    def cocycles(self, k):
        """(basis, representatives) of ker d_k in echelon form.

        basis maps each pivot to a cocycle with leading coefficient 1: the
        echelon of im d_(k-1), completed by the kernel vectors of d_k.  Its
        pivots were cleared from d_k, so theirs are free: they are the
        representatives of H^k.
        """
        basis = dict(self.reduction(k - 1)[0]) if k >= 1 else {}
        kernel = self.reduction(k)[1]
        basis.update(kernel)
        return basis, tuple(j for j, _ in kernel)

    def class_coordinates(self, k: int, cocycle: dict) -> dict:
        """Coordinates of a degree-k cocycle's class on the representatives.

        Raises ArithmeticError when the cochain is not a cocycle.
        """
        basis, representatives = self.cocycles(k)
        wanted = set(representatives)
        w = dict(cocycle)
        coords = {}
        while w:
            pivot = max(w)
            b = basis.get(pivot)
            if b is None:
                raise ArithmeticError(f"degree-{k} cochain is not a cocycle")
            f = w[pivot]
            if pivot in wanted:
                coords[pivot] = f
            _sub(w, f, b)
        return coords

    @memo
    def rational_dims(self) -> tuple[int, ...]:
        """dim_Q H^k for k = 0..top; checked against Euler-Poincare."""
        dims = tuple(len(self.cocycles(k)[1]) for k in range(len(self.simplices)))
        return _euler_checked(self.sizes, dims, "over Q")

    @memo
    def trace(self, images, k: int) -> int | Fraction:
        """Trace of the vertex map on H^k over Q: an int, or a Fraction if it
        is not an integer (a Fraction coordinate appears only after a non-unit
        pivot of the reduction).  The identity's is the dimension."""
        if self.is_identity(images):
            return self.rational_dims()[k]
        moves = self.moves(images, k)
        basis, representatives = self.cocycles(k)
        total = 0
        for j in representatives:
            image = {moves[s_i][0]: moves[s_i][1] * v for s_i, v in basis[j].items()}
            total += self.class_coordinates(k, image).get(j, 0)
        return _rational(total)

    # -- cohomology over Z and F_p ---------------------------------------------

    @memo
    def modp_ranks(self, p: int) -> tuple[int, ...]:
        """Ranks of d_0..d_(top-1) over F_p, each cleared by the pivots of the last."""
        ranks, pivots = [], ()
        for columns in self.coboundaries:
            pivots = reduce_columns(columns, p, skip=pivots)[0]
            ranks.append(len(pivots))
        return tuple(ranks)

    @memo
    def torsion(self) -> tuple[tuple[int, ...], ...]:
        """Torsion coefficients of H^k per degree, from Smith invariants.

        The torsion of H^(k+1) is the invariants of d_k above 1; their count,
        the rank of d_k over Z, must equal its rank over Q.
        """
        torsion = [()]
        for k, columns in enumerate(self.coboundaries):
            invariants = smith_invariants(columns)
            rank = len(self.reduction(k)[0])
            if len(invariants) != rank:
                raise ArithmeticError(
                    f"rank of d_{k} is {len(invariants)} over Z but {rank} over Q"
                )
            torsion.append(tuple(v for v in invariants if v > 1))
        return tuple(torsion)

    def __repr__(self):
        return f"CellCochains(sizes={self.sizes})"


def cell_cochains(stratum: Stratum) -> CellCochains:
    """The process's one CellCochains of the stratum's cells (``groups.interned_value``)."""
    return interned_value(CellCochains, stratum.simplices, lambda: CellCochains(stratum))


class CochainComplex:
    """Simplicial cochains of a stratum with values in a lattice.

    Basis of degree k: one copy of the lattice basis per open k-simplex of
    the stratum, simplex-major; an element acts as its signed move of the
    cells tensored with its lattice matrix.  Coefficients are flat, so every
    elimination is r copies of that of the stratum's ``cells``, and every
    trace, on cochains and on cohomology, is theirs times the lattice trace.
    """

    __slots__ = ("stratum", "lattice", "cells", "bases", "dims", "_cache")

    def __init__(self, stratum: Stratum, lattice: GLattice):
        if stratum.parent.group is not lattice.group:
            raise ValueError("stratum and lattice belong to different groups")
        self.cells = cell_cochains(stratum)
        self.stratum = stratum
        self.lattice = lattice
        self.bases = stratum.simplices
        self.dims = tuple(lattice.rank * n for n in self.cells.sizes)
        self._cache = {}

    # -- group action ---------------------------------------------------------

    @memo
    def _images(self, e: int) -> tuple[int, ...]:
        """The images of the cells' vertices under e: its vertex map, by value."""
        row = self.stratum.parent.vertex_action[e]
        return tuple(row[v] for v in self.cells.vertices)

    def _acting(self, e: int, k: int) -> tuple[int, ...]:
        """``_images`` of e, once the stratum's k-cells are checked invariant under e."""
        images = self._images(e)
        if not self.cells.is_identity(images) and self.cells.moves(images, k) is None:
            raise ValueError(
                f"stratum of sizes {self.stratum.sizes()} is not invariant "
                f"under element {e}"
            )
        return images

    def chain_trace(self, e: int, k: int) -> int:
        """Trace of the element on degree-k cochains (no cohomology needed).

        Each simplex that e maps to itself contributes its orientation sign
        times the lattice trace; the stratum must be invariant under e.
        """
        return self.cells.fixed(self._acting(e, k), k) * self.lattice.trace(e)

    def hopf_trace(self, e: int) -> int:
        """Alternating chain-level trace; equals the alternating cohomology trace."""
        return sum(
            (-1) ** k * self.chain_trace(e, k) for k in range(len(self.bases))
        )

    def cell_traces(self, e: int) -> tuple:
        """(Hopf, cohomology) alternating traces of e on the cells at rank one:
        chi_L(e) scales both, so they are compared also where it is 0."""
        acting = [(k, self._acting(e, k)) for k in range(len(self.bases))]
        return tuple(sum((-1) ** k * f(images, k) for k, images in acting)
                     for f in (self.cells.fixed, self.cells.trace))

    # -- cohomology over Q ----------------------------------------------------

    def rational_dims(self) -> tuple[int, ...]:
        """dim_Q H^k for k = 0..top: r times the cells' (checked against Euler-Poincare)."""
        return tuple(self.lattice.rank * d for d in self.cells.rational_dims())

    @memo
    def trace_on_cohomology(self, e: int, k: int) -> int | Fraction:
        """Trace of the element on H^k over Q: the cells' trace times the
        lattice trace (Kunneth over Q with L concentrated in degree 0)."""
        return _rational(self.cells.trace(self._acting(e, k), k) * self.lattice.trace(e))

    def lefschetz_number(self, e: int) -> int:
        """Alternating trace on cohomology; always an integer, checked."""
        total = _rational(sum(
            (-1) ** k * self.trace_on_cohomology(e, k) for k in range(len(self.bases))))
        if type(total) is not int:
            raise ArithmeticError(f"non-integral alternating trace {total}")
        return total

    def _character(self, acting: Subgroup, trace) -> VirtualCharacter:
        """trace(h) at the class representatives of the acting group."""
        inner = acting.as_group()
        return VirtualCharacter(inner, tuple(
            trace(acting.to_parent(c.representative)) for c in element_classes(inner)))

    def equivariant_euler_characteristic(self, acting: Subgroup) -> VirtualCharacter:
        """The virtual character h |-> alternating trace of h, on the acting group."""
        return self._character(acting, self.lefschetz_number)

    # -- cohomology over Z and F_p ---------------------------------------------

    @memo
    def integral_cohomology(self) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
        """(betti numbers, torsion coefficients per degree), from the cells'
        Smith invariants: each torsion coefficient of theirs, r times."""
        betti = self.rational_dims()
        r = self.lattice.rank
        return betti, tuple(
            tuple(v for v in degree for _ in range(r)) for degree in self.cells.torsion())

    @memo
    def modp_dims(self, p: int) -> tuple[int, ...]:
        """dim_{F_p} H^k for k = 0..top, from r times the cells' ranks;
        checked against Euler-Poincare."""
        r = self.lattice.rank
        dims = _dims_from_ranks(self.dims, [r * n for n in self.cells.modp_ranks(p)])
        return _euler_checked(self.dims, dims, f"mod {p}")

    @memo
    def invariant_dims(self, acting: Subgroup) -> tuple[int, ...]:
        """dim_Q H^k(C)^H per degree, the cohomology of the invariant cochains.

        Over Q, H^k is semisimple (Maschke), so its invariants are its
        multiplicity of the trivial character: the first coefficient of its
        trace character, which ``rational_coefficients`` checks is integral.
        """
        return tuple(
            rational_coefficients(
                self._character(acting, lambda e: self.trace_on_cohomology(e, k)),
                f"H^{k} of {self!r}")[0]
            for k in range(len(self.bases))
        )

    def __repr__(self):
        return (
            f"CochainComplex({self.stratum!r}, rank={self.lattice.rank}, "
            f"dims={self.dims})"
        )


@memo
def cochain_complex(stratum: Stratum, lattice: GLattice) -> CochainComplex:
    """Cached cochain complex: one per stratum (its cells) and equal lattice."""
    return CochainComplex(stratum, lattice)


def _as_stratum(space) -> Stratum:
    return space.as_stratum() if not isinstance(space, Stratum) else space


class CohomologySummary(namedtuple("CohomologySummary", "dims_q betti torsion traces")):
    """Dimensions over Q, Betti numbers and torsion over Z, optional traces."""

    __slots__ = ()


def cohomology(c: CochainComplex, aut: int | None = None) -> CohomologySummary:
    """Dimension and torsion data, with per-degree traces of an automorphism."""
    betti, torsion = c.integral_cohomology()
    traces = None
    if aut is not None:
        traces = tuple(
            c.trace_on_cohomology(aut, k) for k in range(len(c.bases))
        )
    return CohomologySummary(
        dims_q=c.rational_dims(), betti=betti, torsion=torsion, traces=traces
    )


def invariant_cohomology(space, lattice: GLattice) -> tuple[int, ...]:
    """Per-degree rational dimensions of the invariant subcomplex's cohomology."""
    stratum = _as_stratum(space)
    group = stratum.parent.group
    return cochain_complex(stratum, lattice).invariant_dims(group.whole_subgroup())


def modp_euler_characteristic(space, lattice: GLattice, p: int) -> int:
    """Euler characteristic over F_p; always equals the rational one."""
    dims = cochain_complex(_as_stratum(space), lattice).modp_dims(p)
    return sum((-1) ** k * d for k, d in enumerate(dims))
