"""Dense reference implementation of cochain-complex cohomology, for tests.

Dense Fraction linear algebra throughout: nullspace, column space, basis
extension and a left inverse per degree for H^k and traces, dense ranks
over F_p, and the averaging projector for invariant cochains.  It reads a
CochainComplex only through its public accessors (``coboundary``,
``apply_action``, ``dims``), so it checks the sparse kernel independently.
It is cubic in the number of cells; keep it to small complexes.
"""

from fractions import Fraction

from equilef.linalg import (
    QQ,
    Mat,
    PrimeField,
    from_columns,
    left_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
)


def column_space_basis(mat: Mat, field=QQ) -> list[list]:
    """The pivot columns of mat, a basis of its column space."""
    _, pivots = rref(mat, field)
    return [mat.column(j) for j in pivots]


def extend_basis(base: list[list], candidates: list[list], field=QQ) -> list[int]:
    """Indices of candidates that extend span(base) to an independent family.

    Greedy Gaussian sweep: candidates are taken in order and kept exactly
    when independent of base plus the candidates kept so far.
    """
    if base:
        dim = len(base[0])
    elif candidates:
        dim = len(candidates[0])
    else:
        return []
    echelon: list[tuple[int, list]] = []

    def reduce(vec):
        v = list(vec)
        for pos, row in echelon:
            if v[pos] != field.zero:
                f = v[pos]
                v = [field.sub(x, field.mul(f, y)) for x, y in zip(v, row)]
        return v

    def insert(vec) -> bool:
        v = reduce(vec)
        for pos in range(dim):
            if v[pos] != field.zero:
                inv = field.div(field.one, v[pos])
                echelon.append((pos, [field.mul(inv, x) for x in v]))
                return True
        return False

    for b in base:
        insert(b)
    kept = []
    for i, cand in enumerate(candidates):
        if insert(cand):
            kept.append(i)
    return kept


def dense_coboundary(cc, k):
    """d_k as integer rows (dims[k+1] x dims[k]), or None outside 0..top-1."""
    columns = cc.coboundary(k)
    if columns is None:
        return None
    return [
        [columns[j].get(i, 0) for j in range(cc.dims[k])]
        for i in range(cc.dims[k + 1])
    ]


def dense_action(cc, e, k):
    """The element's action on degree-k cochains as an integer matrix."""
    n = cc.dims[k]
    cols = [cc.apply_action(e, k, {j: 1}) for j in range(n)]
    return [[cols[j].get(i, 0) for j in range(n)] for i in range(n)]


def _qq(rows, n):
    return Mat.from_rows([[Fraction(v) for v in row] for row in rows], n)


def _qq_diff(cc, k):
    d = dense_coboundary(cc, k)
    return None if d is None else _qq(d, cc.dims[k])


def _solver(cc, k):
    """(Q_mat, P_Q): a complement of im d_(k-1) in ker d_k and its coordinates."""
    n = cc.dims[k]
    dk = _qq_diff(cc, k)
    if dk is None:
        kernel = [
            [Fraction(1) if i == j else Fraction(0) for i in range(n)]
            for j in range(n)
        ]
    else:
        kernel = nullspace(dk, QQ)
    dprev = _qq_diff(cc, k - 1)
    image = column_space_basis(dprev, QQ) if dprev is not None else []
    kept = extend_basis(image, kernel, QQ)
    q_cols = [kernel[i] for i in kept]
    h = len(q_cols)
    if h == 0:
        return None
    full = from_columns(q_cols + image, n)
    inv = left_inverse(full, QQ)
    p_q = Mat.from_rows([list(inv.rows[i]) for i in range(h)], n)
    return from_columns(q_cols, n), p_q


def rational_dims(cc):
    dims = []
    for k in range(cc.top_degree() + 1):
        solver = _solver(cc, k)
        dims.append(solver[0].n if solver else 0)
    return tuple(dims)


def trace_on_cohomology(cc, e, k):
    solver = _solver(cc, k)
    if solver is None:
        return Fraction(0)
    q_mat, p_q = solver
    action = _qq(dense_action(cc, e, k), cc.dims[k])
    small = mat_mul(p_q, mat_mul(action, q_mat, QQ), QQ)
    return sum((small.rows[i][i] for i in range(small.m)), Fraction(0))


def _dims_from_ranks(sizes, ranks):
    return tuple(
        n - (ranks[k] if k < len(ranks) else 0) - (ranks[k - 1] if k >= 1 else 0)
        for k, n in enumerate(sizes)
    )


def modp_dims(cc, p):
    field = PrimeField(p)
    ranks = []
    for k in range(cc.top_degree()):
        d = dense_coboundary(cc, k)
        m = Mat.from_rows([[v % p for v in row] for row in d], cc.dims[k])
        ranks.append(rank(m, field))
    return _dims_from_ranks(cc.dims, ranks)


def invariant_dims(cc, acting):
    """Cohomology of the invariant subcomplex via the averaging projector."""
    members = acting.member_set
    size = Fraction(1, len(members))
    bases_cols = []
    lifts = []
    for k in range(cc.top_degree() + 1):
        n = cc.dims[k]
        acc = [[0] * n for _ in range(n)]
        for e in members:
            a = dense_action(cc, e, k)
            for i in range(n):
                for j in range(n):
                    acc[i][j] += a[i][j]
        proj = Mat.from_rows([[size * v for v in row] for row in acc], n)
        cols_b = column_space_basis(proj, QQ)
        b_mat = from_columns(cols_b, n)
        bases_cols.append(b_mat)
        lifts.append(left_inverse(b_mat, QQ) if b_mat.n else None)
    ranks = []
    for k in range(cc.top_degree()):
        b_k = bases_cols[k]
        lift = lifts[k + 1]
        if b_k.n == 0 or lift is None:
            ranks.append(0)
            continue
        restricted = mat_mul(lift, mat_mul(_qq_diff(cc, k), b_k, QQ), QQ)
        ranks.append(rank(restricted, QQ))
    return _dims_from_ranks([b.n for b in bases_cols], ranks)
