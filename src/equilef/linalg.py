"""Exact linear algebra: one sparse column reduction, plus integer routines.

``reduce_columns`` is the package's only elimination over a field.  It
reduces sparse columns ({row: value}) over Q or F_p and can record the
column operations, which turns zero columns into kernel vectors.  Over Q an
integral value is stored as an int, so columns of integers never pay for
Fraction arithmetic.  A caller that knows some columns reduce to zero may
skip them (clearing): cochain complexes skip, in d_k, the pivot rows of
d_(k-1).  Cochain complexes run on it over Q, and so does
``minimal_polynomial``: one reduction of a Krylov sequence mod p, whose
first kernel vector holds the coefficients.  It is the only reduction of the
character-table split.  Most working columns are short, and find their
lowest row by a scan; a column that grows past HEAP_THRESHOLD entries keeps
its rows in a max-heap instead (the ``vector_heap`` column of PHAT, Bauer,
Kerber, Reininghaus, Wagner, J. Symb. Comput. 2017).
``smith_invariants`` is the only elimination over Z: it takes the same
sparse columns, never cleared, and computes torsion; its rank is thus an
independent witness of the cleared ranks.  It eliminates unit pivots first,
sparsest columns first, as Dumas, Heckenbach, Saunders and Welker do for
simplicial boundaries (2003); only what is left meets a non-unit pivot.
``is_unimodular`` reads invertibility over Z off it.  No floating point
anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction
from heapq import heapify, heappop, heappush


# ---------------------------------------------------------------------------
# sparse column reduction over Q and F_p

# A working column with more entries than this finds its lowest row through
# a max-heap instead of max(col).  On the subdivided tori 64 ran as fast as
# 16 or 256, or faster, and at 16 small complexes build heaps too; without
# any heap, torus-4 takes seven times as long.  A heap on every column
# costs more than max(col) on short ones: reduce_columns alone runs 14-23 %
# slower on the coboundaries of large-complex, large-group and torus-3, and
# full_verification 2-8 % slower on large-complex, corpus and torus-2/3/4
# (about flat on large-group; BENCH_27.json).
HEAP_THRESHOLD = 64


def _sub(y: dict, f, x: dict, p: int = 0):
    """y -= f * x in place, over Q (p = 0) or F_p; zero entries are dropped,
    and an integral Fraction is stored as an int."""
    for i, v in x.items():
        w = y.get(i, 0) - f * v
        if p:
            w %= p
        elif type(w) is Fraction and w.denominator == 1:
            w = w.numerator
        if w:
            y[i] = w
        else:
            y.pop(i, None)


def _scale(x: dict, f, p: int = 0) -> dict:
    """f * x, for f nonzero (invertible mod p)."""
    out: dict = {}
    _sub(out, -f, x, p)
    return out


def _apply(columns, vec: dict, p: int = 0) -> dict:
    """The sparse matrix (given by its columns) times a sparse vector."""
    out: dict = {}
    for j, v in vec.items():
        _sub(out, -v, columns[j], p)
    return out


def reduce_columns(columns, p: int = 0, record: bool = False, skip=()):
    """Column reduction of a sparse matrix over Q (p = 0) or F_p.

    Each column ({row: value}) is reduced by earlier ones until its largest
    row is a new pivot.  Returns (echelon, kernel): echelon maps pivot rows
    to reduced columns with leading 1, a basis of the column space; kernel
    lists (j, v) for each column j reduced to zero, v being the recorded
    kernel vector (v[j] = 1, other keys below j) or None without record.

    Columns whose index is in skip are passed over (clearing): the caller
    knows that they reduce to zero, so the echelon is the same without them
    and the kernel lacks exactly their entries.

    The largest row of a working column is found by max(col) while the
    column has at most HEAP_THRESHOLD entries.  Past that, the column keeps
    a max-heap of its rows with lazy deletion: rows no longer in the column
    are popped when they surface, and each subtraction pushes the pivot's
    rows that are then in the column.  The pivots found, hence the echelon
    and the kernel, are the same either way.
    """
    echelon: dict = {}
    ops: dict = {}
    kernel = []
    for j, column in enumerate(columns):
        if j in skip:
            continue
        col = {i: v % p for i, v in column.items() if v % p} if p else dict(column)
        rec = {j: 1} if record else None
        heap = None
        while col:
            if heap is not None:
                while -heap[0] not in col:
                    heappop(heap)
                low = -heap[0]
            elif len(col) > HEAP_THRESHOLD:
                heap = [-i for i in col]
                heapify(heap)
                low = -heap[0]
            else:
                low = max(col)
            pivot = echelon.get(low)
            if pivot is None:
                break
            f = col[low]
            _sub(col, f, pivot, p)
            if heap is not None:
                for i in pivot:
                    if i in col:
                        heappush(heap, -i)
            if record:
                _sub(rec, f, ops[low], p)
        if not col:
            kernel.append((j, rec))
            continue
        lead = col[low]
        if lead != 1:
            inv = pow(lead, -1, p) if p else -1 if lead == -1 else 1 / Fraction(lead)
            col = _scale(col, inv, p)
            if record:
                rec = _scale(rec, inv, p)
        echelon[low] = col
        if record:
            ops[low] = rec
    return echelon, kernel


def minimal_polynomial(columns, v: dict, p: int, n: int | None = None):
    """(f, krylov): the monic f of least degree over F_p with f(A) v = 0, A the
    square matrix given by its columns, as coefficients, low degree first;
    and krylov = [v, Av, ..., A^(d-1) v], d = deg f.

    n bounds deg f: the dimension of some A-invariant space that holds v,
    by default the whole space.  The Krylov vectors v, Av, ..., A^n v are
    reduced once.  The first of them that reduces to zero is A^d v, and its
    recorded kernel vector (1 at d, other keys below d) holds the
    coefficients of f.
    """
    krylov = [v]
    for _ in range(len(columns) if n is None else n):
        krylov.append(_apply(columns, krylov[-1], p))
    d, f = reduce_columns(krylov, p, record=True)[1][0]
    return [f.get(k, 0) for k in range(d + 1)], krylov[:d]


# ---------------------------------------------------------------------------
# integer routines


def smith_invariants(columns) -> list[int]:
    """Nonzero Smith invariants d_1 | d_2 | ... of sparse integer columns.

    Its length is the rank.  A pivot u clears its row by column operations;
    then clearing its column by row operations touches only u's column,
    which reduces mod u.  A nonzero remainder, smaller than u, is the next
    pivot; otherwise row and column are dropped and |u| is recorded.

    Units go first: passes over the columns, sparsest first, pivot each
    column that has a unit on the one in the sparsest row.  A unit leaves
    no remainder, so its row and column are dropped at once.  Only a pass
    that finds no unit pivots on the smallest entry.  No column is skipped
    by clearing, so that the rank stays a witness of the cleared ranks.
    """
    cols = {j: dict(c) for j, c in enumerate(columns) if c}
    rows: dict = {}
    for j, c in cols.items():
        for i in c:
            rows.setdefault(i, set()).add(j)

    def sub_column(j2, f, j):
        other = cols[j2]
        for r, v in cols[j].items():
            w = other.get(r, 0) - f * v
            if w:
                other[r] = w
                rows[r].add(j2)
            else:
                other.pop(r, None)
                rows[r].discard(j2)
        if not other:
            del cols[j2]

    def pivot(i, j):
        while True:
            u = cols[j][i]
            for j2 in rows[i] - {j}:
                sub_column(j2, cols[j2][i] // u, j)
            rest = rows[i] - {j}
            if rest:
                j = min(rest, key=lambda c: abs(cols[c][i]))
                continue
            col = cols[j]
            for r in [r for r in col if r != i]:
                w = col[r] % u
                if w:
                    col[r] = w
                else:
                    del col[r]
                    rows[r].discard(j)
            if len(col) > 1:
                i = min((r for r in col if r != i), key=lambda r: abs(col[r]))
                continue
            del cols[j]
            rows[i].discard(j)
            return abs(u)

    diag: list[int] = []
    while cols:
        found = len(diag)
        for j in sorted(cols, key=lambda j: len(cols[j])):
            col = cols.get(j)
            units = [i for i, v in col.items() if v in (1, -1)] if col else ()
            if not units:
                continue
            # a unit leaves no remainder, so this is pivot(i, j) without its
            # second scan of row i and its reduction of column j mod 1; through
            # pivot(), Smith takes 15-29 % longer on large-complex and the tori
            i = min(units, key=lambda r: len(rows[r]))
            u = col[i]
            for j2 in rows[i] - {j}:
                sub_column(j2, cols[j2][i] * u, j)
            for r in col:
                rows[r].discard(j)
            del cols[j]
            diag.append(1)
        if len(diag) == found:
            _, i, j = min((abs(v), i, j) for j, c in cols.items() for i, v in c.items())
            diag.append(pivot(i, j))
    # enforce the divisibility chain d_i | d_{i+1}; units divide everything
    chain = [d for d in diag if d > 1]
    for i in range(len(chain)):
        for j in range(i + 1, len(chain)):
            if chain[j] % chain[i]:
                g = math.gcd(chain[i], chain[j])
                chain[j] = chain[i] * chain[j] // g
                chain[i] = g
    return [1] * (len(diag) - len(chain)) + chain


def is_unimodular(rows) -> bool:
    """Whether a square integer matrix (a list of rows) is invertible over Z: its
    Smith invariants are n ones (rows as columns; the transpose has the same)."""
    columns = [{j: v for j, v in enumerate(row) if v} for row in rows]
    return smith_invariants(columns) == [1] * len(rows)
