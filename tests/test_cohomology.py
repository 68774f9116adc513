"""Lattices, cochain complexes, exact cohomology against sympy oracles."""

import importlib
import random
from fractions import Fraction

import pytest
import sympy
from sympy import GF
from sympy.matrices.normalforms import smith_normal_form as sympy_snf

from equilef.characters import IntegralityError, regular_character
from equilef.cohomology import (
    CochainComplex,
    GLattice,
    cochain_complex,
    cohomology,
    invariant_cohomology,
    modp_euler_characteristic,
    reduce_columns,
)
from equilef.complexes import (
    barycentric_subdivision, exact_stratum, fixed_subcomplex, isotropy_classes)
from equilef.engine import Scenario, lhs_character
from equilef.linalg import smith_invariants
from equilef.groups import (
    class_index_of, element_classes, group_from_permutations, normalizer, subgroups)
from equilef.scenario_io import parse_scenario
from equilef.scenarios import builtin_names, builtin_scenario

import dense_oracle
from dense_oracle import dense_action, dense_coboundary
from test_golden import generated_documents


def matmul(a, b):
    if not a or not b:
        return []
    n = len(b[0])
    return [
        [sum(row[k] * b[k][j] for k in range(len(b))) for j in range(n)]
        for row in a
    ]


# -- lattices -----------------------------------------------------------------


def test_lattice_validation():
    c2 = group_from_permutations(2, [(1, 0)])
    with pytest.raises(ValueError):
        GLattice.from_generator_matrices(c2, 1, [[[2]]])
    with pytest.raises(ValueError):
        GLattice.from_generator_matrices(c2, 1, [[[1, 0]]])
    # an order-2 generator cannot act with order 4
    c2_matrix_of_order_4 = [[0, -1], [1, 0]]
    with pytest.raises(ValueError):
        GLattice.from_generator_matrices(c2, 2, [c2_matrix_of_order_4])
    with pytest.raises(ValueError):
        GLattice.from_generator_matrices(c2, 1, [[[-2]]])


def test_lattice_product_equals_the_triple_loop():
    # rows with zeros up front, all-zero rows, coefficients 1, -1 and larger
    rng = random.Random(2024)
    for _ in range(200):
        n, k, m = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
        a = [[0] * k if rng.random() < 0.2 else
             [rng.choice([0, 0, 1, -1, rng.randint(-9, 9)]) for _ in range(k)]
             for _ in range(n)]
        b = [[rng.randint(-9, 9) for _ in range(m)] for _ in range(k)]
        product = cohomology_module._int_matmul(a, b)
        assert product == matmul(a, b)
        assert all(type(x) is int for row in product for x in row)
        # b's rows are copied, never shared
        product[0][0] += 1
        assert matmul(a, b) == cohomology_module._int_matmul(a, b)


def test_generator_matrices_must_be_square_of_the_rank():
    # the identity generator's relations hold for a 1 x 2 matrix: only the shape check sees it
    trivial = group_from_permutations(2, [(0, 1)])
    with pytest.raises(ValueError, match="generator 0 is not 1x1"):
        GLattice.from_generator_matrices(trivial, 1, [[[1, 0]]])
    c2 = group_from_permutations(2, [(1, 0)])
    with pytest.raises(ValueError, match="generator 0 is not 2x2"):
        GLattice.from_generator_matrices(c2, 2, [[[0, 1], [1, 0], [0, 0]]])


def test_a_lattice_of_rank_zero_is_refused():
    # the engine reads stratum dimensions as multiples of the rank
    c2 = group_from_permutations(2, [(1, 0)])
    with pytest.raises(ValueError, match="lattice rank 0 is not positive"):
        GLattice.from_generator_matrices(c2, 0, [[]])


def test_identity_generator_must_act_trivially_on_the_lattice():
    # C2 presented with an extra identity generator, first in the list
    c2 = group_from_permutations(2, [(0, 1), (1, 0)])
    assert c2.order == 2
    sign = GLattice.from_generator_matrices(c2, 1, [[[1]], [[-1]]])
    c2_sign = GLattice.from_generator_matrices(group_from_permutations(2, [(1, 0)]), 1, [[[-1]]])
    assert sign.matrices == c2_sign.matrices
    with pytest.raises(ValueError, match="relation"):
        GLattice.from_generator_matrices(c2, 1, [[[-1]], [[-1]]])
    trivial = group_from_permutations(2, [(0, 1)])
    assert GLattice.from_generator_matrices(trivial, 1, [[[1]]]).matrices == (((1,),),)
    with pytest.raises(ValueError, match="relation"):
        GLattice.from_generator_matrices(trivial, 1, [[[-1]]])


def test_lattice_characters():
    c2 = group_from_permutations(2, [(1, 0)])
    assert GLattice.trivial(c2).character().values == (Fraction(1), Fraction(1))
    assert GLattice.from_generator_matrices(c2, 1, [[[-1]]]).character().values == (
        Fraction(1),
        Fraction(-1),
    )
    assert GLattice.regular(c2).character() == regular_character(c2)
    s3 = group_from_permutations(3, [(1, 2, 0), (1, 0, 2)])
    assert GLattice.regular(s3).character() == regular_character(s3)


def test_lattice_matrices_form_a_representation(corpus):
    for s in corpus:
        lat = s.lattice
        g = s.group
        for a in range(g.order):
            for b in range(g.order):
                assert matmul(lat.matrices[a], lat.matrices[b]) == list(
                    map(list, lat.matrices[g.mul[a][b]])
                ), s.name


# -- differentials and the action ----------------------------------------------


def whole_complexes(corpus, max_cells=80):
    for s in corpus:
        if sum(s.complex.counts()) <= max_cells:
            yield s, s.whole_cochains()


def test_differential_squares_to_zero(corpus):
    for s, cc in whole_complexes(corpus):
        for k in range(len(cc.bases) - 2):
            prod = matmul(dense_coboundary(cc, k + 1), dense_coboundary(cc, k))
            assert all(v == 0 for row in prod for v in row), s.name


def test_action_commutes_with_differential(corpus):
    for s, cc in whole_complexes(corpus, max_cells=40):
        for e in range(s.group.order):
            for k in range(len(cc.bases) - 1):
                d_k = dense_coboundary(cc, k)
                a_k = dense_action(cc, e, k)
                a_k1 = dense_action(cc, e, k + 1)
                assert matmul(d_k, a_k) == matmul(a_k1, d_k), (
                    s.name,
                    e,
                    k,
                )


def test_action_matrices_represent_the_group(corpus):
    for s, cc in whole_complexes(corpus, max_cells=40):
        g = s.group
        for a in range(g.order):
            for b in range(g.order):
                for k in range(len(cc.bases)):
                    assert matmul(
                        dense_action(cc, a, k), dense_action(cc, b, k)
                    ) == dense_action(cc, g.mul[a][b], k)


def test_action_on_noninvariant_stratum_is_rejected(by_name):
    s = by_name["triangle-s3"]
    reflection_subgroups = [
        h for h in subgroups(s.group) if h.order == 2
    ]
    stratum = exact_stratum(s.complex, reflection_subgroups[0])
    cc = cochain_complex(stratum, s.lattice)
    rotation = next(
        e for e in range(s.group.order) if s.group.element_order(e) == 3
    )
    with pytest.raises(ValueError):
        dense_action(cc, rotation, 0)
    with pytest.raises(ValueError, match=f"not invariant under element {rotation}"):
        cc.trace_on_cohomology(rotation, 0)
    with pytest.raises(ValueError, match=f"not invariant under element {rotation}"):
        cc.chain_trace(rotation, 0)


# -- integral and mod-p cohomology against sympy -------------------------------


def snf_oracle(cc):
    """Betti numbers and torsion straight from the differentials via sympy."""
    top = len(cc.bases) - 1
    ranks = []
    divisors_by_degree = []
    for k in range(top):
        d_k = dense_coboundary(cc, k)
        mat = sympy.Matrix(d_k) if d_k else sympy.zeros(0, 0)
        if mat.rows == 0 or mat.cols == 0:
            ranks.append(0)
            divisors_by_degree.append([])
            continue
        diag = [
            abs(int(d))
            for d in sympy_snf(mat, domain=sympy.ZZ).diagonal()
            if d != 0
        ]
        ranks.append(len(diag))
        divisors_by_degree.append(sorted(d for d in diag if d > 1))
    betti = []
    torsion = []
    for k in range(top + 1):
        r_out = ranks[k] if k < top else 0
        r_in = ranks[k - 1] if k > 0 else 0
        betti.append(cc.dims[k] - r_out - r_in)
        torsion.append(tuple(divisors_by_degree[k - 1]) if k > 0 else ())
    return tuple(betti), tuple(torsion)


def test_integral_cohomology_matches_sympy(corpus):
    for s, cc in whole_complexes(corpus, max_cells=60):
        betti, torsion = cc.integral_cohomology()
        oracle_betti, oracle_torsion = snf_oracle(cc)
        assert betti == oracle_betti, s.name
        assert tuple(tuple(sorted(t)) for t in torsion) == oracle_torsion, s.name


KNOWN_TOPOLOGY = {
    # name -> (betti, torsion) of the whole complex with its own lattice
    "square-reflection": ((1, 1), ((), ())),
    "octahedron-antipodal": ((1, 0, 1), ((), (), ())),
    "torus-involution": ((1, 2, 1), ((), (), ())),
    "projective-plane": ((1, 0, 0), ((), (), (2,))),
    "disc-reflection": ((1, 0, 0), ((), (), ())),
}


def test_known_integral_cohomology(by_name):
    # torsion is a topological invariant: subdividing keeps it, and the
    # subdivided projective plane runs the non-unit Smith step on larger blocks
    for name, (betti, torsion) in KNOWN_TOPOLOGY.items():
        s = by_name[name]
        x = s.complex
        for subdivisions in range(3):
            cc = cochain_complex(x.as_stratum(), s.lattice)
            assert cc.integral_cohomology() == (betti, torsion), (name, subdivisions)
            x = barycentric_subdivision(x)


def test_rational_dims_match_betti_for_trivial_lattices(corpus):
    for s in corpus:
        if not s.has_trivial_lattice():
            continue
        cc = s.whole_cochains()
        betti, _ = cc.integral_cohomology()
        assert cc.rational_dims() == betti, s.name


def test_projective_plane_modp_dims(by_name):
    cc = by_name["projective-plane"].whole_cochains()
    assert cc.rational_dims() == (1, 0, 0)
    assert cc.modp_dims(2) == (1, 1, 1)
    assert cc.modp_dims(3) == (1, 0, 0)
    assert cc.modp_dims(5) == (1, 0, 0)
    assert modp_euler_characteristic(
        by_name["projective-plane"].complex,
        by_name["projective-plane"].lattice,
        2,
    ) == 1


def test_modp_dims_against_snf(corpus):
    # dim over F_p = betti + p-torsion here + p-torsion one degree up
    for s, cc in whole_complexes(corpus, max_cells=60):
        betti, torsion = cc.integral_cohomology()
        top = len(cc.bases) - 1
        for p in (2, 3, 5):
            dims = cc.modp_dims(p)
            for k in range(top + 1):
                r_here = sum(1 for t in torsion[k] if t % p == 0)
                r_up = (
                    sum(1 for t in torsion[k + 1] if t % p == 0)
                    if k < top
                    else 0
                )
                assert dims[k] == betti[k] + r_here + r_up, (s.name, p, k)


# -- traces and Lefschetz numbers ----------------------------------------------


def test_reflection_traces_on_circle(by_name):
    s = by_name["square-reflection"]
    cc = s.whole_cochains()
    assert cc.rational_dims() == (1, 1)
    assert cc.trace_on_cohomology(1, 0) == 1
    assert cc.trace_on_cohomology(1, 1) == -1
    assert cc.lefschetz_number(1) == 2
    assert cc.hopf_trace(1) == 2
    assert cochain_complex(s.complex.as_stratum(), s.lattice).lefschetz_number(1) == 2


def test_identity_traces_are_dimensions(corpus):
    for s, cc in whole_complexes(corpus):
        dims = cc.rational_dims()
        for k, d in enumerate(dims):
            assert cc.trace_on_cohomology(0, k) == d, s.name


def test_equivariant_euler_characteristic_collects_lefschetz_numbers(corpus):
    for s in corpus:
        cc = s.whole_cochains()
        chi = cc.equivariant_euler_characteristic(s.group.whole_subgroup())
        for e in range(s.group.order):
            assert chi.values[class_index_of(s.group)[e]] == cc.lefschetz_number(e), (s.name, e)


def test_cohomology_summary(by_name):
    s = by_name["octahedron-antipodal"]
    summary = cohomology(s.whole_cochains(), aut=1)
    assert summary.dims_q == (1, 0, 1)
    assert summary.betti == (1, 0, 1)
    assert summary.torsion == ((), (), ())
    assert summary.traces == (Fraction(1), Fraction(0), Fraction(-1))


def test_invariant_dims(by_name):
    assert invariant_cohomology(
        by_name["octahedron-antipodal"].complex,
        by_name["octahedron-antipodal"].lattice,
    ) == (1, 0, 0)
    assert invariant_cohomology(
        by_name["square-reflection"].complex,
        by_name["square-reflection"].lattice,
    ) == (1, 0)
    # a free orientation-preserving rotation keeps both circle classes
    assert invariant_cohomology(
        by_name["hexagon-rot2"].complex, by_name["hexagon-rot2"].lattice
    ) == (1, 1)


# -- the sparse kernel against the dense oracle ---------------------------------


def small_complexes(corpus, max_cells=80):
    """(scenario, complex, acting subgroup) for the whole space, every exact
    stratum and every fixed subcomplex with at most max_cells cells."""
    for s in corpus:
        g = s.group
        seen = set()
        candidates = [(s.complex.as_stratum(), g.whole_subgroup())]
        for h in subgroups(g):
            n = normalizer(g, h)
            candidates.append((exact_stratum(s.complex, h), n))
            candidates.append((fixed_subcomplex(s.complex, h), n))
        for stratum, acting in candidates:
            key = (stratum.simplices, acting.member_set)
            if sum(stratum.sizes()) > max_cells or key in seen:
                continue
            seen.add(key)
            yield s, cochain_complex(stratum, s.lattice), acting


def test_sparse_kernel_matches_dense_oracle(corpus):
    checked = 0
    for s, cc, acting in small_complexes(corpus):
        label = (s.name, cc.stratum)
        assert cc.rational_dims() == dense_oracle.rational_dims(cc), label
        for p in (2, 3, 5):
            assert cc.modp_dims(p) == dense_oracle.modp_dims(cc, p), (label, p)
        assert cc.invariant_dims(acting) == dense_oracle.invariant_dims(
            cc, acting
        ), label
        own = cc.stratum.simplex_set()
        for e in range(s.group.order):
            if any(cc.stratum.parent.act_simplex(e, t) not in own for t in own):
                continue
            for k in range(len(cc.bases)):
                assert cc.trace_on_cohomology(
                    e, k
                ) == dense_oracle.trace_on_cohomology(cc, e, k), (label, e, k)
        checked += 1
    assert checked > len(corpus)


def test_class_coordinates_reject_non_cocycles(by_name):
    cells = by_name["square-reflection"].whole_cochains().cells
    # the indicator of one vertex has a nonzero coboundary
    assert cells.coboundary(0)[0]
    with pytest.raises(ArithmeticError):
        cells.class_coordinates(0, {0: 1})
    # the constant cochain is a cocycle representing the generator of H^0
    constant = {i: 1 for i in range(cells.sizes[0])}
    assert list(cells.class_coordinates(0, constant).values()) == [1]
    # a coboundary has class zero
    assert cells.class_coordinates(1, dict(cells.coboundary(0)[0])) == {}


def test_reduce_columns_ranks_match_sympy():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 7), rng.randint(1, 7)
        rows = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(n)] for _ in range(m)]
        columns = [{i: rows[i][j] for i in range(m) if rows[i][j]} for j in range(n)]
        echelon, kernel = reduce_columns(columns, record=True)
        assert len(echelon) == sympy.Matrix(rows).rank()
        assert len(echelon) + len(kernel) == n
        for j, v in kernel:
            assert v[j] == 1 and max(v) == j
            assert all(
                sum(rows[i][c] * x for c, x in v.items()) == 0 for i in range(m)
            )
        for p in (2, 3):
            dense = dense_oracle.dm(rows, m, n, GF(p))
            assert len(reduce_columns(columns, p)[0]) == dense.rank()
        # cleared: a matrix whose rows annihilate the columns of rows, so the
        # pivot rows of rows index columns that reduce to zero
        left = [list(v.T * sympy.ilcm(1, *[x.q for x in v]))
                for v in sympy.Matrix(rows).T.nullspace()]
        if not left:
            continue
        mixes = [[rng.randint(-2, 2) for _ in left] for _ in range(rng.randint(1, 5))]
        after = [[sum(c * v[i] for c, v in zip(mix, left)) for i in range(m)]
                 for mix in mixes]
        later = [{i: int(after[i][j]) for i in range(len(after)) if after[i][j]}
                 for j in range(m)]
        cleared, cleared_kernel = reduce_columns(later, record=True, skip=echelon)
        full, full_kernel = reduce_columns(later, record=True)
        assert cleared == full and len(cleared) == sympy.Matrix(after).rank()
        assert cleared_kernel == [(j, v) for j, v in full_kernel if j not in echelon]


def test_cochain_cache_is_keyed_by_lattice_value(by_name):
    s = by_name["torus-involution"]
    stratum = s.complex.as_stratum()
    a = cochain_complex(stratum, GLattice.trivial(s.group))
    assert cochain_complex(stratum, GLattice.trivial(s.group)) is a
    assert cochain_complex(stratum, s.base_lattice()) is a


# -- invariants from the trace characters ----------------------------------------

# by import_module: the package exports a function named cohomology
cohomology_module = importlib.import_module("equilef.cohomology")
linalg_module = importlib.import_module("equilef.linalg")


def _free_scenarios():
    """Every free builtin and the subdivided antipodal octahedron, built afresh."""
    free = [builtin_scenario(name) for name in builtin_names()]
    free = [s for s in free if s.complex.is_free()]
    with generated_documents() as paths:
        [path] = [p for p in paths if p.stem == "octahedron-antipodal-sub1"]
        free.append(parse_scenario(path.read_text(encoding="utf-8")))
    return free


def test_invariant_dims_run_no_elimination_after_the_lhs(monkeypatch):
    calls = []
    # linalg's own reduce_columns is the Krylov reduction of the character tables
    for module in (cohomology_module, linalg_module):
        original = module.reduce_columns

        def counted(*args, _original=original, **kwargs):
            calls.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, "reduce_columns", counted)
    scenarios = _free_scenarios()
    assert len(scenarios) == 13
    for s in scenarios:
        lhs_character(s)
        calls.clear()
        dims = s.whole_cochains().invariant_dims(s.group.whole_subgroup())
        assert calls == [], s.name
        # a free action: chi(X) = |G| chi(X/G)
        assert lhs_character(s).values[0] == s.group.order * sum(
            (-1) ** k * d for k, d in enumerate(dims)), s.name
    # the counter does see eliminations
    scenarios[-1].whole_cochains().modp_dims(7)
    assert calls


def test_a_non_integral_trace_character_names_its_degree(monkeypatch):
    s = builtin_scenario("octahedron-antipodal")
    traced = CochainComplex.trace_on_cohomology

    def raised(cc, e, k):
        return traced(cc, e, k) + (Fraction(1, 2) if e and k == 2 else 0)

    monkeypatch.setattr(CochainComplex, "trace_on_cohomology", raised)
    with pytest.raises(IntegralityError, match=r"H\^2 of CochainComplex"):
        s.whole_cochains().invariant_dims(s.group.whole_subgroup())


# -- clearing ----------------------------------------------------------------------


def _verified_complexes():
    """The cochains of the whole complex and of every isotropy stratum, for
    each builtin and each seed-1 generated document."""
    scenarios = [builtin_scenario(name) for name in builtin_names()]
    with generated_documents() as paths:
        scenarios += [parse_scenario(path.read_text(encoding="utf-8")) for path in paths]
    complexes = {}
    for s in scenarios:
        complexes[s.whole_cochains()] = s.name
        for cls in isotropy_classes(s.complex):
            complexes[cochain_complex(exact_stratum(s.complex, cls.representative),
                                      s.lattice)] = s.name
    return complexes


def test_clearing_skips_only_columns_that_reduce_to_zero():
    # over Q and F_2, F_3, F_5, in every degree: the pivot rows of d_(k-1) are
    # columns of d_k that reduce to zero, so skipping them keeps the echelon and
    # drops exactly their kernel entries
    complexes = _verified_complexes()
    assert any(cc.lattice.rank > 1 and cc.stratum.simplex_set()
               != cc.stratum.parent.as_stratum().simplex_set()
               for cc in complexes), "a proper stratum with a rank > 1 lattice"
    skipped = 0
    for cc, name in complexes.items():
        for p in (0, 2, 3, 5):
            pivots = {}
            for k in range(len(cc.bases)):
                columns = dense_oracle.explicit_coboundary(cc, k) or [{}] * cc.dims[k]
                full, full_kernel = reduce_columns(columns, p, record=True)
                cleared, kernel = reduce_columns(columns, p, record=True, skip=pivots)
                assert cleared == full, (name, cc, p, k)
                assert kernel == [(j, v) for j, v in full_kernel if j not in pivots], (name, p, k)
                assert {j for j, _ in full_kernel} >= set(pivots), (name, p, k)
                skipped += len(pivots)
                pivots = full
    assert skipped > 1000


def test_the_rational_reduction_skips_exactly_the_rank_of_the_previous_degree():
    for cc, name in _verified_complexes().items():
        previous = 0
        for k, n in enumerate(cc.cells.sizes):
            echelon, kernel = cc.cells.reduction(k)
            # every column is reduced once, except rank(d_(k-1)) of them
            assert len(echelon) + len(kernel) == n - previous, (name, k)
            previous = len(echelon)


def test_no_reduction_entry_is_an_integral_fraction():
    # an integral value is stored as an int where it is made, so int-only
    # columns never meet Fraction arithmetic
    for cc, name in _verified_complexes().items():
        for k in range(len(cc.bases)):
            echelon, kernel = cc.cells.reduction(k)
            for column in [*echelon.values(), *(v for _, v in kernel)]:
                assert not any(type(v) is Fraction and v.denominator == 1
                               for v in column.values()), (name, k)


# -- flat coefficients: r copies of the cells' eliminations and traces -----------


def _rank_r_complexes():
    """For each scenario with a lattice of rank > 1 (the six ``-regular``
    builtins, the seed-1 permutation lattices of rank 4 and 5, and the
    projective plane with Z^3, whose torsion is then three copies of Z/2):
    its group and the cochains of the whole complex, of each exact stratum
    and of each fixed subcomplex X^<g>."""
    scenarios = [builtin_scenario(name) for name in builtin_names() if name.endswith("-regular")]
    with generated_documents() as paths:
        scenarios += [parse_scenario(path.read_text(encoding="utf-8"))
                      for path in paths if path.stem.endswith("-permutation")]
    rp2 = builtin_scenario("projective-plane")
    scenarios.append(Scenario("projective-plane-z3", rp2.group, rp2.complex,
                              GLattice.from_generator_matrices(rp2.group, 3, [])))
    assert len(scenarios) == 9 and {s.lattice.rank for s in scenarios} >= {3, 4, 5}
    for s in scenarios:
        x = s.complex
        yield s.name, s.whole_cochains()
        for cls in isotropy_classes(x):
            yield s.name, cochain_complex(exact_stratum(x, cls.representative), s.lattice)
        for g in range(s.group.order):
            yield s.name, cochain_complex(
                fixed_subcomplex(x, s.group.cyclic_subgroup(g)), s.lattice)


def _copies(reduction, r):
    """The reduction of d (x) I_r predicted from that of d: pivot and kernel
    column i become i*r + c in copy c, in the order a reduction of d (x) I_r
    finds them."""
    def copy(column, c):
        return {i * r + c: v for i, v in column.items()}

    echelon, kernel = reduction
    return ({i * r + c: copy(col, c) for i, col in echelon.items() for c in range(r)},
            [(j * r + c, copy(v, c)) for j, v in kernel for c in range(r)])


def test_a_rank_r_lattice_eliminates_r_copies_of_its_cells():
    # d (x) I_r written entry by entry, reduced as it stands, against r copies
    # of its cells' rank-one eliminations
    complexes = {cc: name for name, cc in _rank_r_complexes()}
    assert sum(1 for cc in complexes if sum(cc.dims)) == 15
    assert any(cc.integral_cohomology()[1] == ((), (), (2, 2, 2)) for cc in complexes)
    for cc, name in complexes.items():
        r = cc.lattice.rank
        _, torsion = cc.integral_cohomology()
        echelon, dims = {}, []
        for k in range(len(cc.bases)):
            explicit = dense_oracle.explicit_coboundary(cc, k)
            columns = explicit or [{}] * cc.dims[k]
            reduction = reduce_columns(columns, record=True, skip=echelon)
            # equal dicts and lists, and in the same order
            expected = _copies(cc.cells.reduction(k), r)
            assert reduction == expected, (name, k)
            assert list(reduction[0]) == list(expected[0]), (name, k)
            echelon = reduction[0]
            dims.append(len(reduction[1]))
            if explicit is not None:
                invariants = smith_invariants(explicit)
                assert len(invariants) == len(echelon), (name, k)
                assert tuple(v for v in invariants if v > 1) == torsion[k + 1], (name, k)
        assert cc.rational_dims() == tuple(dims), name
        for p in (2, 3, 5):
            ranks = [len(reduce_columns(dense_oracle.explicit_coboundary(cc, k), p)[0])
                     for k in range(len(cc.bases) - 1)]
            assert cc.modp_dims(p) == dense_oracle._dims_from_ranks(cc.dims, ranks), (name, p)


def test_rank_r_traces_are_the_cells_traces_times_the_lattice_trace():
    # the explicit rank-r action, (signed cell move) (x) rho(e), traced on the
    # dense cohomology of d (x) I_r, against the rank-one trace times chi_L(e),
    # per degree and per element class; an element that moves a cell out of
    # the complex is refused by both
    traced = refused = at_zero = 0
    for cc, name in {cc: name for name, cc in _rank_r_complexes()}.items():
        group = cc.stratum.parent.group
        for c in element_classes(group):
            e = c.representative
            for k in range(len(cc.bases)):
                try:
                    action = dense_action(cc, e, k)
                except ValueError:
                    with pytest.raises(ValueError, match="not invariant"):
                        cc.trace_on_cohomology(e, k)
                    refused += 1
                    continue
                explicit = dense_oracle.trace_on_cohomology(cc, e, k)
                assert cc.trace_on_cohomology(e, k) == explicit, (name, cc, e, k)
                assert cc.chain_trace(e, k) == sum(
                    action[i][i] for i in range(cc.dims[k])), (name, cc, e, k)
                traced += 1
                at_zero += explicit == 0 and cc.cells.rational_dims()[k] > 0
    assert (traced, refused, at_zero) == (90, 5, 24)
