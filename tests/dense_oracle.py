"""Dense reference implementation of cochain-complex cohomology, for tests.

Dense exact linear algebra from sympy's ``DomainMatrix`` over QQ and GF(p),
none of equilef's own: a nullspace and a column space per degree for H^k,
coordinates of g . H^k from one rref, dense ranks over GF(p), and the
averaging projector for invariant cochains.  It reads a CochainComplex only
through its stratum (``bases``, the parent's vertex maps), its lattice and
``dims``, and builds d (x) I_r (``explicit_coboundary``) and the action
(``explicit_action``) itself on the r-fold basis, so it checks the sparse
kernel, and the factoring of every rank-r fact through the rank-one cells,
independently.  It is cubic in the number of cells; keep it to small
complexes.
"""

from fractions import Fraction

from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from equilef.complexes import signed_image


def dm(rows, m, n, domain=QQ) -> DomainMatrix:
    """An m-by-n DomainMatrix from integer rows."""
    return DomainMatrix([[domain(v) for v in row] for row in rows], (m, n), domain)


def column_space_basis(mat: DomainMatrix) -> DomainMatrix:
    """The columns of mat at the pivots of its rref, a basis of its column space."""
    _, pivots = mat.rref()
    return mat.extract(range(mat.shape[0]), list(pivots))


def kept_columns(base: DomainMatrix, candidates: DomainMatrix) -> list[int]:
    """Indices of candidates that extend the independent columns of base.

    They are the rref pivots of [base | candidates] past base: the greedy
    choice, taking candidates in order when independent of what came before.
    """
    _, pivots = base.hstack(candidates).rref()
    b = base.shape[1]
    return [j - b for j in pivots if j >= b]


def explicit_coboundary(cc, k):
    """d_k as sparse columns on the r-fold basis, written entry by entry as
    d (x) I_r: each face relation of the cells gives r entries, one per copy
    of the lattice basis.  None outside 0..top-1."""
    if not 0 <= k < len(cc.bases) - 1:
        return None
    r = cc.lattice.rank
    index_k = {s: i for i, s in enumerate(cc.bases[k])}
    columns = [{} for _ in range(cc.dims[k])]
    for t_i, tau in enumerate(cc.bases[k + 1]):
        for drop in range(len(tau)):
            s_i = index_k.get(tau[:drop] + tau[drop + 1:])
            if s_i is None:
                continue
            sign = -1 if drop % 2 else 1
            for c in range(r):
                columns[s_i * r + c][t_i * r + c] = sign
    return tuple(columns)


def dense_coboundary(cc, k):
    """d_k as integer rows (dims[k+1] x dims[k]), or None outside 0..top-1."""
    columns = explicit_coboundary(cc, k)
    if columns is None:
        return None
    return [
        [columns[j].get(i, 0) for j in range(cc.dims[k])]
        for i in range(cc.dims[k + 1])
    ]


def explicit_action(cc, e, k, cochain):
    """Image of a sparse degree-k cochain on the r-fold basis under e, written
    out as (signed cell move) (x) rho(e): the basis cochain of lattice vector
    j at simplex s goes to sign times column j of rho(e) at the simplex e*s.
    Raises ValueError when e moves a k-simplex out of the stratum."""
    x = cc.stratum.parent
    index = {s: i for i, s in enumerate(cc.bases[k])}
    r = cc.lattice.rank
    rho = cc.lattice.matrices[e]
    out = {}
    for idx, v in cochain.items():
        s_i, j = divmod(idx, r)
        image, sign = signed_image(x.vertex_action[e], cc.bases[k][s_i])
        if image not in index:
            raise ValueError(f"element {e} moves {cc.bases[k][s_i]} out of the stratum")
        for i in range(r):
            if rho[i][j]:
                t = index[image] * r + i
                out[t] = out.get(t, 0) + sign * rho[i][j] * v
    return {t: w for t, w in out.items() if w}


def dense_action(cc, e, k):
    """The element's action on degree-k cochains as an integer matrix."""
    n = cc.dims[k]
    cols = [explicit_action(cc, e, k, {j: 1}) for j in range(n)]
    return [[cols[j].get(i, 0) for j in range(n)] for i in range(n)]


def _diff(cc, k, domain=QQ):
    d = dense_coboundary(cc, k)
    return None if d is None else dm(d, cc.dims[k + 1], cc.dims[k], domain)


def _solver(cc, k):
    """(Q, B): a complement Q of im d_(k-1) in ker d_k, and B a basis of im d_(k-1)."""
    n = cc.dims[k]
    dk = _diff(cc, k)
    kernel = DomainMatrix.eye(n, QQ) if dk is None else dk.nullspace().transpose()
    dprev = _diff(cc, k - 1)
    image = (column_space_basis(dprev) if dprev is not None
             else DomainMatrix.zeros((n, 0), QQ))
    q = kernel.extract(range(n), kept_columns(image, kernel))
    return q, image


def rational_dims(cc):
    return tuple(_solver(cc, k)[0].shape[1] for k in range(len(cc.bases)))


def trace_on_cohomology(cc, e, k):
    """Trace of e on H^k: the Q-coordinates of e . Q in the basis [Q | B]."""
    q, image = _solver(cc, k)
    h, b = q.shape[1], image.shape[1]
    if h == 0:
        return Fraction(0)
    n = cc.dims[k]
    moved = dm(dense_action(cc, e, k), n, n) * q
    red, pivots = q.hstack(image, moved).rref()
    assert list(pivots) == list(range(h + b)), "e . H^k left ker d_k"
    rows = red.to_list()
    total = sum((rows[i][h + b + i] for i in range(h)), QQ(0))
    return Fraction(int(total.numerator), int(total.denominator))


def _dims_from_ranks(sizes, ranks):
    return tuple(
        n - (ranks[k] if k < len(ranks) else 0) - (ranks[k - 1] if k >= 1 else 0)
        for k, n in enumerate(sizes)
    )


def modp_dims(cc, p):
    ranks = [_diff(cc, k, GF(p)).rank() for k in range(len(cc.bases) - 1)]
    return _dims_from_ranks(cc.dims, ranks)


def invariant_dims(cc, acting):
    """Cohomology of the invariant subcomplex via the averaging projector.

    The projector (here |H| times it, the sum of the actions) has the
    invariant cochains as column space B_k; d_k maps B_k into B_(k+1), so
    the restricted differential has the rank of d_k . B_k.
    """
    bases = []
    for k in range(len(cc.bases)):
        n = cc.dims[k]
        acc = [[0] * n for _ in range(n)]
        for e in acting.member_set:
            a = dense_action(cc, e, k)
            for i in range(n):
                for j in range(n):
                    acc[i][j] += a[i][j]
        bases.append(column_space_basis(dm(acc, n, n)))
    ranks = [(_diff(cc, k) * bases[k]).rank() for k in range(len(cc.bases) - 1)]
    return _dims_from_ranks([b.shape[1] for b in bases], ranks)
