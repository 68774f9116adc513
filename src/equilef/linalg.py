"""Exact linear algebra over Q and prime fields, plus integer Smith normal form.

Matrices are dense lists of rows.  The field routines are generic over a tiny
field object (``Rationals`` or ``PrimeField``): character tables eliminate
mod p, cyclotomic arithmetic over Q.  No floating point anywhere.  Cochain
complexes use the sparse column reduction in ``cohomology`` instead.
"""

from __future__ import annotations

import math
from fractions import Fraction


class Rationals:
    """Field object for exact rational arithmetic."""

    zero = Fraction(0)
    one = Fraction(1)

    @staticmethod
    def of(n) -> Fraction:
        return Fraction(n)

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def div(a, b):
        return a / b

    @staticmethod
    def neg(a):
        return -a


QQ = Rationals()


class PrimeField:
    """Field object for arithmetic in F_p; elements are ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def of(self, n) -> int:
        n = Fraction(n)
        den = n.denominator % self.p
        if den == 0:
            raise ZeroDivisionError(f"denominator divisible by {self.p}")
        return n.numerator * pow(den, -1, self.p) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return a * b % self.p

    def div(self, a, b):
        return a * pow(b, -1, self.p) % self.p

    def neg(self, a):
        return -a % self.p


class Mat:
    """A dense m-by-n matrix with explicit shape (rows may be empty)."""

    __slots__ = ("m", "n", "rows")

    def __init__(self, m: int, n: int, rows):
        self.m = m
        self.n = n
        self.rows = rows
        if len(rows) != m or any(len(r) != n for r in rows):
            raise ValueError("matrix shape mismatch")

    @classmethod
    def from_rows(cls, rows, n: int | None = None) -> "Mat":
        rows = [list(r) for r in rows]
        if rows:
            return cls(len(rows), len(rows[0]), rows)
        if n is None:
            raise ValueError("empty matrix needs an explicit column count")
        return cls(0, n, [])

    @classmethod
    def identity(cls, n: int, field=QQ) -> "Mat":
        rows = [[field.zero] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = field.one
        return cls(n, n, rows)

    def column(self, j: int) -> list:
        return [r[j] for r in self.rows]

    def columns(self) -> list[list]:
        return [self.column(j) for j in range(self.n)]

    def transpose(self) -> "Mat":
        return Mat(self.n, self.m, [self.column(j) for j in range(self.n)])

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and (self.m, self.n) == (other.m, other.n)
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Mat({self.m}x{self.n})"


def mat_mul(a: Mat, b: Mat, field=QQ) -> Mat:
    if a.n != b.m:
        raise ValueError("inner dimensions differ")
    bt = b.transpose().rows
    out = []
    for row in a.rows:
        new = []
        for col in bt:
            acc = field.zero
            for x, y in zip(row, col):
                if x != field.zero and y != field.zero:
                    acc = field.add(acc, field.mul(x, y))
            new.append(acc)
        out.append(new)
    return Mat(a.m, b.n, out)


def from_columns(cols: list[list], m: int) -> Mat:
    """Assemble a matrix from column vectors of length m."""
    rows = [[col[i] for col in cols] for i in range(m)]
    return Mat(m, len(cols), rows)


def rref(mat: Mat, field=QQ) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    a = [list(r) for r in mat.rows]
    m, n = mat.m, mat.n
    pivots: list[int] = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, m):
            if a[i][c] != field.zero:
                pr = i
                break
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = field.div(field.one, a[r][c])
        a[r] = [field.mul(inv, x) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c] != field.zero:
                f = a[i][c]
                a[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return Mat(m, n, a), pivots


def rank(mat: Mat, field=QQ) -> int:
    return len(rref(mat, field)[1])


def nullspace(mat: Mat, field=QQ) -> list[list]:
    """Basis (as column vectors) of {v : mat . v = 0}."""
    red, pivots = rref(mat, field)
    piv_set = set(pivots)
    free = [j for j in range(mat.n) if j not in piv_set]
    basis = []
    for j in free:
        v = [field.zero] * mat.n
        v[j] = field.one
        for r_idx, c in enumerate(pivots):
            v[c] = field.neg(red.rows[r_idx][j])
        basis.append(v)
    return basis


def left_inverse(mat: Mat, field=QQ) -> Mat:
    """P with P . mat = I for a matrix of full column rank."""
    m, n = mat.m, mat.n
    aug = [list(row) + [field.one if i == j else field.zero for j in range(m)]
           for i, row in enumerate(mat.rows)]
    red, pivots = rref(Mat(m, n + m, aug), field)
    if len(pivots) < n or pivots[:n] != list(range(n)):
        raise ValueError("matrix does not have full column rank")
    return Mat(n, m, [red.rows[i][n:] for i in range(n)])


# ---------------------------------------------------------------------------
# integer routines


def int_det(mat: Mat) -> int:
    """Determinant of an integer matrix by fraction-free Bareiss elimination."""
    if mat.m != mat.n:
        raise ValueError("determinant of a non-square matrix")
    n = mat.m
    if n == 0:
        return 1
    a = [list(r) for r in mat.rows]
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


def smith_normal_form(mat: Mat) -> list[int]:
    """Nonzero diagonal entries of the Smith normal form of an integer matrix.

    Row/column reduction chooses the smallest-magnitude nonzero entry as the
    pivot at each step, which keeps intermediate entries small.  The returned
    list d_1, ..., d_r is positive with d_i | d_{i+1}; its length is the rank.
    """
    a = [list(r) for r in mat.rows]
    m, n = mat.m, mat.n
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
