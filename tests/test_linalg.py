"""Exact linear algebra against sympy oracles and algebraic laws."""

import random
from fractions import Fraction

import sympy
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from equilef.linalg import (
    Mat,
    PrimeField,
    QQ,
    from_columns,
    int_det,
    left_inverse,
    mat_mul,
    nullspace,
    rank,
    rref,
    smith_normal_form,
)

from dense_oracle import column_space_basis, extend_basis


def random_int_mat(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def to_qq(rows, n=None):
    return Mat.from_rows([[Fraction(x) for x in r] for r in rows], n=n)


def test_rref_shape_and_pivots():
    rng = random.Random(101)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        red, pivots = rref(to_qq(rows, n))
        assert red.m == m and red.n == n
        # pivot columns carry identity blocks
        for i, j in enumerate(pivots):
            assert red.rows[i][j] == 1
            for k in range(m):
                if k != i:
                    assert red.rows[k][j] == 0
        # rows past the pivots vanish
        for i in range(len(pivots), m):
            assert all(v == 0 for v in red.rows[i])


def test_rank_matches_sympy():
    rng = random.Random(102)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        assert rank(to_qq(rows, n)) == sympy.Matrix(rows).rank()


def test_rank_over_prime_fields():
    # rank over F_p = number of elementary divisors coprime to p
    rng = random.Random(103)
    for _ in range(40):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = random_int_mat(rng, m, n)
        divisors = [
            int(d) for d in sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ).diagonal()
            if d != 0
        ]
        for p in (2, 3, 5):
            field = PrimeField(p)
            mat = Mat.from_rows([[field.of(x) for x in r] for r in rows], n=n)
            expected = sum(1 for d in divisors if d % p != 0)
            assert rank(mat, field) == expected, (rows, p)


def test_nullspace_is_exact_kernel():
    rng = random.Random(104)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        mat = to_qq(rows, n)
        basis = nullspace(mat)
        assert len(basis) == n - rank(mat)
        for vec in basis:
            image = [sum(Fraction(rows[i][j]) * vec[j] for j in range(n))
                     for i in range(m)]
            assert all(v == 0 for v in image)
        if basis:
            assert rank(from_columns(basis, n)) == len(basis)


def test_column_space_basis_spans():
    rng = random.Random(105)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        mat = to_qq(rows, n)
        basis = column_space_basis(mat)
        r = rank(mat)
        assert len(basis) == r
        # every original column lies in the span: augmenting cannot grow rank
        together = basis + [mat.column(j) for j in range(n)]
        assert rank(from_columns(together, m)) == r


def test_left_inverse_property():
    rng = random.Random(106)
    built = 0
    while built < 30:
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        rows = random_int_mat(rng, m, n)
        mat = to_qq(rows, n)
        if rank(mat) < n:
            continue
        built += 1
        linv = left_inverse(mat)
        prod = mat_mul(linv, mat)
        assert prod == Mat.identity(n)


def test_extend_basis_completes():
    rng = random.Random(107)
    for _ in range(30):
        m = rng.randint(2, 6)
        k = rng.randint(1, m - 1)
        base_rows = random_int_mat(rng, m, k)
        base_mat = to_qq(base_rows, k)
        if rank(base_mat) < k:
            continue
        base = [base_mat.column(j) for j in range(k)]
        candidates = [[Fraction(int(i == j)) for i in range(m)] for j in range(m)]
        chosen = extend_basis(base, candidates, QQ)
        assert len(chosen) == m - k
        full = base + [candidates[i] for i in chosen]
        assert rank(from_columns(full, m)) == m


def test_int_det_matches_sympy():
    rng = random.Random(108)
    for _ in range(60):
        n = rng.randint(0, 6)
        rows = random_int_mat(rng, n, n)
        mat = Mat.from_rows(rows, n=n)
        assert int_det(mat) == int(sympy.Matrix(n, n, lambda i, j: rows[i][j]).det())


def test_smith_normal_form_matches_sympy():
    rng = random.Random(109)
    cases = [random_int_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
             for _ in range(50)]
    cases.append([[2, 4], [6, 8]])
    cases.append([[0, 0], [0, 0]])
    cases.append([[12]])
    for rows in cases:
        n = len(rows[0])
        ours = smith_normal_form(Mat.from_rows(rows, n=n))
        theirs = sorted(
            abs(int(d))
            for d in sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ).diagonal()
            if d != 0
        )
        assert sorted(ours) == theirs, rows
        # divisibility chain
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0, ours


def test_prime_field_arithmetic():
    f = PrimeField(7)
    for a in range(7):
        for b in range(7):
            assert f.add(a, b) == (a + b) % 7
            assert f.mul(a, b) == (a * b) % 7
            if b:
                assert f.mul(f.div(a, b), b) == a % 7
