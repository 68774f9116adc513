"""Exact linear algebra against sympy oracles and algebraic laws."""

import math
import random
from fractions import Fraction

import sympy
from hypothesis import given, settings, strategies as st
from sympy.matrices.normalforms import smith_normal_form as sympy_snf
from sympy.polys.matrices import DomainMatrix

from equilef import builtin_scenario, linalg
from equilef.complexes import barycentric_subdivision
from equilef.engine import Scenario
from equilef.linalg import (
    is_unimodular, minimal_polynomial, reduce_columns, smith_invariants, unit_phase)

from dense_oracle import column_space_basis, dense_coboundary, dm, explicit_coboundary, kept_columns


def random_int_mat(rng, m, n, lo=-5, hi=5):
    return [[rng.randint(lo, hi) for _ in range(n)] for _ in range(m)]


def sparse_columns(rows, n):
    """The columns of a dense integer matrix as {row: value} dicts."""
    return [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(n)]


def test_echelon_leading_ones_at_distinct_pivot_rows():
    rng = random.Random(101)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        for p in (0, 2, 5):
            echelon, kernel = reduce_columns(sparse_columns(rows, n), p)
            assert len(echelon) + len(kernel) == n
            # each echelon column has a leading 1 at its own pivot row
            for low, col in echelon.items():
                assert 0 <= low < m and max(col) == low and col[low] == 1
                if p:
                    assert all(0 < v < p for v in col.values())


def test_rank_matches_sympy():
    rng = random.Random(102)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        echelon, _ = reduce_columns(sparse_columns(rows, n))
        assert len(echelon) == sympy.Matrix(rows).rank()


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
            expected = sum(1 for d in divisors if d % p != 0)
            echelon, _ = reduce_columns(sparse_columns(rows, n), p)
            assert len(echelon) == expected, (rows, p)


def test_nullspace_is_exact_kernel():
    rng = random.Random(104)
    for _ in range(60):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        for p in (0, 2, 3, 5):
            echelon, kernel = reduce_columns(sparse_columns(rows, n), p, record=True)
            assert len(kernel) == n - len(echelon)
            for j, vec in kernel:
                # v[j] = 1 and lower keys only: the vectors are independent
                assert vec[j] == 1 and max(vec) == j
                for row in rows:
                    value = sum(Fraction(row[c]) * x for c, x in vec.items())
                    assert (value % p if p else value) == 0, (rows, p, vec)


def test_column_space_basis_spans():
    rng = random.Random(105)
    for _ in range(40):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        rows = random_int_mat(rng, m, n)
        r = sympy.Matrix(rows).rank()
        echelon, _ = reduce_columns(sparse_columns(rows, n))
        oracle = column_space_basis(dm(rows, m, n)).to_Matrix()
        assert len(echelon) == oracle.shape[1] == r
        # every original column lies in each span: augmenting cannot grow rank
        ours = sympy.Matrix(m, r, lambda i, k: list(echelon.values())[k].get(i, 0))
        assert ours.row_join(sympy.Matrix(rows)).rank() == r
        assert oracle.row_join(sympy.Matrix(rows)).rank() == r


def test_recorded_kernel_gives_coordinates():
    # reducing [basis | basis . x] leaves one kernel vector, (-x, 1)
    rng = random.Random(106)
    built = 0
    while built < 30:
        m = rng.randint(1, 6)
        n = rng.randint(1, m)
        rows = random_int_mat(rng, m, n)
        if sympy.Matrix(rows).rank() < n:
            continue
        built += 1
        x = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(n)]
        target = {i: v for i, row in enumerate(rows)
                  if (v := sum(a * b for a, b in zip(row, x)))}
        _, kernel = reduce_columns(sparse_columns(rows, n) + [target], record=True)
        assert [j for j, _ in kernel] == [n]
        vec = kernel[0][1]
        assert [-vec.get(i, 0) for i in range(n)] == x


def test_minimal_polynomial_annihilates_and_is_least():
    # f(A) v = 0, f monic, and v, Av, ..., A^(deg f - 1) v independent mod p;
    # those are the Krylov vectors returned, and a bound n >= deg f changes nothing
    rng = random.Random(107)
    for _ in range(60):
        p = rng.choice([2, 3, 7, 31])
        n = rng.randint(1, 6)
        rows = [[rng.randint(0, p - 1) if rng.random() < 0.5 else 0 for _ in range(n)]
                for _ in range(n)]
        v = {i: x for i in range(n) if (x := rng.randint(0, p - 1))} or {0: 1}
        f, returned = minimal_polynomial(sparse_columns(rows, n), v, p)
        assert f[-1] == 1 and all(0 <= c < p for c in f)
        assert minimal_polynomial(sparse_columns(rows, n), v, p, len(f) - 1) == (f, returned)
        krylov = [[v.get(i, 0) for i in range(n)]]
        for _ in range(len(f) - 1):
            x = krylov[-1]
            krylov.append([sum(a * b for a, b in zip(row, x)) % p for row in rows])
        assert [[x.get(i, 0) for i in range(n)] for x in returned] == krylov[:len(f) - 1]
        residue = [0] * n
        for c, x in zip(f, krylov):
            residue = [(r + c * y) % p for r, y in zip(residue, x)]
        assert residue == [0] * n
        d = len(f) - 1
        lower = DomainMatrix([[sympy.ZZ(c) for c in x] for x in krylov[:d]], (d, n), sympy.ZZ)
        assert lower.convert_to(sympy.GF(p)).rank() == d


def test_extend_basis_completes():
    rng = random.Random(107)
    for _ in range(30):
        m = rng.randint(2, 6)
        k = rng.randint(1, m - 1)
        base_rows = random_int_mat(rng, m, k)
        if sympy.Matrix(base_rows).rank() < k:
            continue
        base = dm(base_rows, m, k)
        candidates = dm([[int(i == j) for j in range(m)] for i in range(m)], m, m)
        chosen = kept_columns(base, candidates)
        assert len(chosen) == m - k
        full = base.hstack(candidates.extract(range(m), chosen))
        assert full.rank() == m


def sympy_det(rows) -> int:
    """The determinant of a square integer matrix, by sympy over ZZ."""
    return int(dm(rows, len(rows), len(rows), sympy.ZZ).det())


def test_is_unimodular_matches_sympy():
    rng = random.Random(108)
    for _ in range(60):
        n = rng.randint(0, 6)
        rows = random_int_mat(rng, n, n)
        assert is_unimodular(rows) == (abs(sympy_det(rows)) == 1)
    # random matrices are rarely unimodular: also walk away from the identity
    # by row operations (unimodular), then double one row (determinant +-2)
    for _ in range(30):
        n = rng.randint(1, 6)
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(4 * n):
            a, b = rng.randrange(n), rng.randrange(n)
            if a != b:
                f = rng.randint(-3, 3)
                rows[a] = [x + f * y for x, y in zip(rows[a], rows[b])]
            else:
                rows[a] = [-x for x in rows[a]]
        assert abs(sympy_det(rows)) == 1 and is_unimodular(rows)
        doubled = [[2 * x for x in rows[0]]] + rows[1:]
        assert abs(sympy_det(doubled)) == 2 and not is_unimodular(doubled)


def sympy_invariants(rows):
    if not rows or not rows[0]:
        return []
    diagonal = sympy_snf(sympy.Matrix(rows), domain=sympy.ZZ).diagonal()
    return sorted(abs(int(d)) for d in diagonal if d != 0)


def test_smith_normal_form_matches_sympy():
    rng = random.Random(109)
    cases = [random_int_mat(rng, rng.randint(1, 5), rng.randint(1, 5))
             for _ in range(50)]
    cases.append([[2, 4], [6, 8]])
    cases.append([[0, 0], [0, 0]])
    cases.append([[12]])
    # no unit entry: only the general step runs, and remainders occur
    cases.append([[2, 3], [3, 5]])
    cases.append([[4, 6], [6, 9]])
    cases.append([[6, 10], [10, 15]])
    # no columns, zero columns among nonzero ones, tall and wide shapes
    cases.append([])
    cases.append([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    cases.append([[0], [-4], [0]])
    cases.append([[0, 4, 0], [0, 6, 0]])
    cases.append([[2, 0], [4, 0], [6, 3], [0, 9], [8, 12]])
    cases.append([[6, 4, 10, 0, 14, 2], [9, 6, 15, 3, 21, 0]])
    cases.extend(random_int_mat(rng, rng.randint(6, 9), rng.randint(1, 3), -12, 12)
                 for _ in range(5))
    cases.extend(random_int_mat(rng, rng.randint(1, 3), rng.randint(6, 9), -12, 12)
                 for _ in range(5))
    for rows in cases:
        # the columns of the transpose: a transpose has the same Smith form
        ours = smith_invariants([{j: v for j, v in enumerate(row) if v} for row in rows])
        assert ours == sympy_invariants(rows), rows
        # divisibility chain
        for a, b in zip(ours, ours[1:]):
            assert b % a == 0, ours


def test_smith_invariants_multiply_to_the_determinant():
    # independent oracle: for a nonsingular square matrix, prod d_i = |det|
    rng = random.Random(40)
    rows = random_int_mat(rng, 40, 40, -9, 9)
    ours = smith_invariants(sparse_columns(rows, 40))
    det = sympy_det(rows)
    assert det != 0
    assert len(ours) == 40
    assert math.prod(ours) == abs(det)


def subdivided_cochains(name, times):
    """The whole cochain complex of a builtin after some barycentric subdivisions."""
    s = builtin_scenario(name)
    x = s.complex
    for _ in range(times):
        x = barycentric_subdivision(x)
    return Scenario(s.name, s.group, x, s.lattice, s.description).whole_cochains()


def test_the_heap_path_is_the_same_reduction(monkeypatch):
    # a column past HEAP_THRESHOLD finds its lowest row through a heap; the
    # pivots, hence echelon and kernel, are those of max(col) on every column
    rng = random.Random(110)
    inputs = []
    for _ in range(6):
        m, n = rng.randint(80, 160), rng.randint(20, 60)
        columns = [{i: rng.choice((1, -1, 1, 2, -3)) for i in rng.sample(range(m), rng.randint(0, 4))}
                   for _ in range(n)]
        for j in rng.sample(range(n), 3):
            columns[j] = {i: rng.choice((1, -1, 2, 5)) for i in range(m) if rng.random() < 0.8}
        inputs.append((columns, set(rng.sample(range(n), n // 4))))
    torus = subdivided_cochains("torus-involution", 2)
    pivots = ()
    for k in range(len(torus.bases) - 1):
        columns = explicit_coboundary(torus, k)
        inputs.append((columns, set(pivots)))
        pivots = reduce_columns(columns)[0]
    assert max(len(c) for columns, _ in inputs for c in columns) > linalg.HEAP_THRESHOLD
    krylov_matrix = [{i: rng.randint(1, 6) for i in range(12) if rng.random() < 0.6}
                     for _ in range(12)]

    heaps = []
    heapify = linalg.heapify
    monkeypatch.setattr(linalg, "heapify", lambda h: (heaps.append(len(h)), heapify(h)))

    def reductions():
        out = [reduce_columns(columns, p, record, skip if cleared else ())
               for columns, skip in inputs
               for p in (0, 2, 3, 5) for record in (False, True) for cleared in (False, True)]
        return out, minimal_polynomial(krylov_matrix, {0: 1}, 7)

    scanned = reductions()
    # at the default threshold only the columns past it build a heap
    assert heaps and min(heaps) > linalg.HEAP_THRESHOLD
    for threshold, fired in ((0, True), (10 ** 9, False)):
        monkeypatch.setattr(linalg, "HEAP_THRESHOLD", threshold)
        heaps.clear()
        assert reductions() == scanned, threshold
        assert bool(heaps) == fired, threshold


def test_smith_matches_sympy_on_simplicial_coboundaries():
    complexes = [subdivided_cochains("projective-plane", 0),
                 subdivided_cochains("projective-plane", 1),
                 subdivided_cochains("torus-involution", 1)]
    torsion = []
    for cc in complexes:
        for k in range(len(cc.bases) - 1):
            ours = smith_invariants(explicit_coboundary(cc, k))
            assert ours == sympy_invariants(dense_coboundary(cc, k)), (cc, k)
            torsion.append([d for d in ours if d > 1])
    # the projective plane's H^2 has torsion Z/2, before and after subdivision
    assert torsion == [[], [2], [], [2], [], []]


def test_smith_matches_sympy_where_units_leave_a_non_unit_remainder():
    # a unit pivot records a 1, so an invariant above 1 comes from the
    # general loop on what the units left
    rng = random.Random(111)
    remainders = 0
    for _ in range(80):
        m, n = rng.randint(2, 8), rng.randint(2, 8)
        rows = [[rng.choice((0, 0, 1, -1, 2, -2, 3, 4, 6)) for _ in range(n)] for _ in range(m)]
        ours = smith_invariants(sparse_columns(rows, n))
        assert ours == sympy_invariants(rows), rows
        remainders += 1 in ours and ours[-1] > 1
    assert remainders > 10


def test_smith_rank_equals_the_rational_rank_on_every_builtin(corpus):
    for s in corpus:
        cc = s.whole_cochains()
        for k in range(len(cc.bases) - 1):
            rank = dm(dense_coboundary(cc, k), cc.dims[k + 1], cc.dims[k]).rank()
            assert len(smith_invariants(explicit_coboundary(cc, k))) == rank, (s.name, k)


@st.composite
def sparse_integer_rows(draw):
    """An integer matrix of up to 12 x 12, as rows, entries -3..3, mostly 0."""
    m, n = draw(st.integers(1, 12)), draw(st.integers(0, 12))
    entry = st.sampled_from((0, 0, 0, 0, 1, -1, 2, -2, 3, -3))
    flat = draw(st.lists(entry, min_size=m * n, max_size=m * n))
    return [flat[i * n:(i + 1) * n] for i in range(m)]


@settings(max_examples=120, deadline=None, derandomize=True)
@given(sparse_integer_rows())
def test_the_unit_phase_leaves_the_smith_form_and_every_rank_mod_p(rows):
    # units ones and the rest's invariants are the whole matrix's Smith form;
    # units plus the rest's rank mod p is the whole matrix's rank mod p
    columns = sparse_columns(rows, len(rows[0]))
    units, rest = unit_phase(columns)
    assert all(rest)
    assert [1] * units + smith_invariants(rest) == smith_invariants(columns)
    for p in (2, 3, 5):
        assert units + len(reduce_columns(rest, p)[0]) == len(reduce_columns(columns, p)[0])
