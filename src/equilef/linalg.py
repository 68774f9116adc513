"""Exact linear algebra: one sparse column reduction, plus integer routines.

``reduce_columns`` is the package's only elimination over a field.  It
reduces sparse columns ({row: value}) over Q or F_p and can record the
column operations, which turns zero columns into kernel vectors.  Cochain
complexes, the eigenspace split of character tables (mod p) and subfield
coordinates of cyclotomic numbers (over Q) all run on it.  Integer matrices
are dense lists of rows, for the Bareiss determinant and the Smith normal
form.  No floating point anywhere.
"""

from __future__ import annotations

import math
from fractions import Fraction


# ---------------------------------------------------------------------------
# sparse column reduction over Q and F_p


def _sub(y: dict, f, x: dict, p: int = 0):
    """y -= f * x in place, over Q (p = 0) or F_p; zero entries are dropped."""
    for i, v in x.items():
        w = y.get(i, 0) - f * v
        if p:
            w %= p
        if w:
            y[i] = w
        else:
            y.pop(i, None)


def _scale(x: dict, f, p: int = 0) -> dict:
    if p:
        return {i: v * f % p for i, v in x.items()}
    return {i: v * f for i, v in x.items()}


def _apply(columns, vec: dict, p: int = 0) -> dict:
    """The sparse matrix (given by its columns) times a sparse vector."""
    out: dict = {}
    for j, v in vec.items():
        _sub(out, -v, columns[j], p)
    return out


def reduce_columns(columns, p: int = 0, record: bool = False):
    """Column reduction of a sparse matrix over Q (p = 0) or F_p.

    Each column ({row: value}) is reduced by earlier ones until its largest
    row is a new pivot.  Returns (echelon, kernel): echelon maps pivot rows
    to reduced columns with leading 1, a basis of the column space; kernel
    lists (j, v) for each column j reduced to zero, v being the recorded
    kernel vector (v[j] = 1, other keys below j) or None without record.
    """
    echelon: dict = {}
    ops: dict = {}
    kernel = []
    for j, column in enumerate(columns):
        col = {i: v % p for i, v in column.items() if v % p} if p else dict(column)
        rec = {j: 1} if record else None
        while col:
            low = max(col)
            pivot = echelon.get(low)
            if pivot is None:
                break
            f = col[low]
            _sub(col, f, pivot, p)
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


# ---------------------------------------------------------------------------
# integer routines


def int_det(rows) -> int:
    """Determinant of a square integer matrix (a list of rows) by Bareiss elimination."""
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("determinant of a non-square matrix")
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            pr = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if pr is None:
                return 0
            a[k], a[pr] = a[pr], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def smith_normal_form(rows) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of a list of integer rows.

    Row/column reduction chooses the smallest-magnitude nonzero entry as the
    pivot at each step, which keeps intermediate entries small.  The returned
    list d_1, ..., d_r is positive with d_i | d_{i+1}; its length is the rank.
    """
    a = [list(r) for r in rows]
    m, n = len(a), len(a[0]) if a else 0
    diag: list[int] = []
    top = 0
    left = 0
    while top < m and left < n:
        # locate the smallest nonzero entry in the remaining block
        best = None
        for i in range(top, m):
            for j in range(left, n):
                v = abs(a[i][j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
                    if v == 1:
                        break
            if best and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        a[top], a[pi] = a[pi], a[top]
        for row in a:
            row[left], row[pj] = row[pj], row[left]
        # clear the pivot row and column; restart if remainders appear
        while True:
            pivot = a[top][left]
            done = True
            for i in range(top + 1, m):
                if a[i][left]:
                    q = a[i][left] // pivot
                    a[i] = [x - q * y for x, y in zip(a[i], a[top])]
                    if a[i][left]:
                        a[top], a[i] = a[i], a[top]
                        done = False
                        break
            if not done:
                continue
            for j in range(left + 1, n):
                if a[top][j]:
                    q = a[top][j] // pivot
                    for row in a:
                        row[j] -= q * row[left]
                    if a[top][j]:
                        for row in a:
                            row[left], row[j] = row[j], row[left]
                        done = False
                        break
            if done:
                break
        diag.append(abs(a[top][left]))
        top += 1
        left += 1
    # enforce the divisibility chain d_i | d_{i+1}
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            if diag[j] % diag[i]:
                g = math.gcd(diag[i], diag[j])
                diag[j] = diag[i] * diag[j] // g
                diag[i] = g
    return diag
