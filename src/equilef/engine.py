"""The fixed-point identity engine.

A Scenario bundles a finite group, a regular simplicial action, and an
integer lattice of coefficients.  The engine computes, as exact virtual
characters of the group:

  lhs            the equivariant Euler characteristic of the whole space,
  rhs_induction  the sum over subgroup classes [H] of |H|/|N(H)| times the
                 induced Euler characteristic of the stratum of points with
                 stabilizer exactly H,
  rhs_isotypic   the same sum expanded over rational irreducibles of each H,
                 with the integer coefficients of ``rational_coefficients``,

and certifies their classwise equality, along with the cyclic-subgroup
comparison of Lefschetz numbers (each also checked against the Hopf
chain-level trace), the free-action vanishing and covering identities, the
regular-multiple identity for free actions, and the characteristic-p
comparison with its per-degree reconciliation.

L(g, X) and L(g, X^<g>) are class functions: conjugating g carries the fixed
set of <g> onto that of its conjugate and intertwines the actions on
cohomology.  The corollary and the free-action vanishing are therefore
computed once per conjugacy class, on its representative, with every check
made there; the report still has one corollary row per element.

The term of [H] vanishes when that stratum is empty, so both sums run over
the isotropy classes only (``complexes.isotropy_classes``, the cell
stabilizers up to conjugacy) and the subgroup lattice is never built.

Every number is an exact rational, an int unless it has a denominator (as a
weight |H|/|N(H)| may); a comparison either holds on the nose or the
verdict fails.  Integrality is decided by ``rational_coefficients``,
which checks the lhs and both right-hand sides and gives the isotypic rows:
a character whose coefficients over the rational irreducibles are not
integers, or do not rebuild it, raises IntegralityError.  That cannot occur for a correct
computation and is treated as a bug rather than a verdict.
"""

from __future__ import annotations

import time
from collections import namedtuple
from fractions import Fraction

from .characters import (
    VirtualCharacter,
    _quotient,
    character_table,
    induce,
    rational_coefficients,
    rational_irreducibles,
    regular_character,
    restrict,
)
from .cohomology import GLattice, CochainComplex, cochain_complex
from .complexes import (
    SimplicialGComplex,
    _orbit_representatives,
    exact_stratum,
    fixed_subcomplex,
    isotropy_classes,
)
from .groups import Group, class_index_of, element_classes, memo


DEFAULT_PRIMES = (2, 3, 5)


class Scenario:
    """A named (group, complex, lattice) triple ready for verification."""

    __slots__ = ("name", "group", "complex", "lattice", "description", "primes",
                 "_cache")

    def __init__(self, name: str, group: Group, complex_: SimplicialGComplex,
                 lattice: GLattice, description: str = "",
                 primes: tuple[int, ...] = DEFAULT_PRIMES):
        if complex_.group is not group or lattice.group is not group:
            raise ValueError("scenario parts disagree about the group")
        self.name = name
        self.group = group
        self.complex = complex_
        self.lattice = lattice
        self.description = description
        self.primes = tuple(primes)
        self._cache: dict = {}

    @property
    def subdivision_count(self) -> int:
        return self.complex.subdivision_count

    def whole_cochains(self) -> CochainComplex:
        return cochain_complex(self.complex.as_stratum(), self.lattice)

    @memo
    def base_lattice(self) -> GLattice:
        """Rank-one trivial coefficients on the same group."""
        return GLattice.trivial(self.group)

    def has_trivial_lattice(self) -> bool:
        ident = self.lattice.matrices[0]
        return all(m == ident for m in self.lattice.matrices)

    def __repr__(self):
        return f"Scenario({self.name!r}, |G|={self.group.order}, rank={self.lattice.rank})"


class IsotypicRow(namedtuple("IsotypicRow", "orbit_index orbit_size coefficient")):
    """One rational irreducible of H with its integer coefficient."""

    __slots__ = ()


class ClassTerm(namedtuple("ClassTerm", (
        "subgroup", "subgroup_order", "normalizer_order", "conjugate_count", "weight",
        "stratum_sizes", "stratum_euler", "cohomology_dims", "theta", "induced",
        "isotypic"))):
    """Everything the theorem attaches to one subgroup class [H]."""

    __slots__ = ()


class LefschetzReport(namedtuple("LefschetzReport", (
        "scenario_name", "lhs", "rhs_induction", "rhs_isotypic", "terms",
        "complex_counts", "subdivision_count", "passed", "elapsed_seconds"))):
    """The three characters of the theorem, its terms, and their verdict."""

    __slots__ = ()


@memo
def lhs_character(s: Scenario) -> VirtualCharacter:
    """Equivariant Euler characteristic of the whole complex, as a character."""
    chi = s.whole_cochains().equivariant_euler_characteristic(
        s.group.whole_subgroup()
    )
    rational_coefficients(chi, f"{s.name}: lhs")
    return chi


@memo
def _class_terms(s: Scenario) -> tuple[ClassTerm, ...]:
    """Per-[H] tables shared by both right-hand sides, one per isotropy class:
    a class whose exact stratum is empty contributes nothing."""
    g = s.group
    x = s.complex
    terms = []
    for cls in isotropy_classes(x):
        h = cls.representative
        inner = h.as_group()
        n_order = g.order // len(cls.members)
        weight = _quotient(h.order, n_order)
        stratum = exact_stratum(x, h)
        cc = cochain_complex(stratum, s.lattice)
        euler = stratum.euler_characteristic()

        # H fixes its stratum pointwise and coefficients are flat, so theta is
        # the lattice character times the stratum's Euler characteristic; the
        # traced one reads the cells' cohomology, each dimension r times theirs.
        theta = restrict(s.lattice.character(), h).scale(euler)
        if theta != cc.equivariant_euler_characteristic(h):
            raise ArithmeticError(
                f"{s.name}: factorized character disagrees with traced character "
                f"on stratum of {h!r}"
            )
        coefficients = rational_coefficients(theta, f"{s.name}: stratum character of {h!r}")
        irreducibles = rational_irreducibles(character_table(inner))

        terms.append(
            ClassTerm(
                subgroup=h,
                subgroup_order=h.order,
                normalizer_order=n_order,
                conjugate_count=len(cls.members),
                weight=weight,
                stratum_sizes=stratum.sizes(),
                stratum_euler=euler,
                cohomology_dims=cc.cells.rational_dims(),
                theta=theta,
                induced=induce(h, theta),
                isotypic=tuple(
                    IsotypicRow(idx, lam.orbit_size, c)
                    for idx, (lam, c) in enumerate(zip(irreducibles, coefficients))
                ),
            )
        )
    return tuple(terms)


@memo
def rhs_induction(s: Scenario) -> VirtualCharacter:
    """Sum over [H] of |H|/|N(H)| times the induced stratum character."""
    total = None
    for term in _class_terms(s):
        piece = term.induced.scale(term.weight)
        total = piece if total is None else total + piece
    rational_coefficients(total, f"{s.name}: rhs (induction)")
    return total


@memo
def rhs_isotypic(s: Scenario) -> VirtualCharacter:
    """The same sum expanded over rational irreducibles of each H."""
    total = None
    for term in _class_terms(s):
        inner = term.subgroup.as_group()
        irreducibles = rational_irreducibles(character_table(inner))
        for row in term.isotypic:
            if row.coefficient == 0:
                continue
            piece = induce(term.subgroup, irreducibles[row.orbit_index].orbit_sum)
            piece = piece.scale(row.coefficient).scale(term.weight)
            total = piece if total is None else total + piece
    if total is None:
        total = lhs_character(s).scale(0)
    rational_coefficients(total, f"{s.name}: rhs (isotypic)")
    return total


def verify_theorem(s: Scenario) -> LefschetzReport:
    """Compute all three characters and compare them classwise."""
    started = time.perf_counter()
    lhs = lhs_character(s)
    rhs_a = rhs_induction(s)
    rhs_b = rhs_isotypic(s)
    passed = lhs == rhs_a and lhs == rhs_b
    return LefschetzReport(
        scenario_name=s.name,
        lhs=lhs,
        rhs_induction=rhs_a,
        rhs_isotypic=rhs_b,
        terms=_class_terms(s),
        complex_counts=s.complex.counts(),
        subdivision_count=s.subdivision_count,
        passed=passed,
        elapsed_seconds=time.perf_counter() - started,
    )


class CorollaryReport(namedtuple("CorollaryReport", "element whole_value fixed_value passed")):
    """L(g, X) and L(g, X^<g>) for one element g."""

    __slots__ = ()


def verify_corollary(s: Scenario, g: int) -> CorollaryReport:
    """L(g, X) against L(g, fixed set of <g>); each complex's cells are checked
    against the Hopf trace at rank one, before chi_L(g) scales them."""
    whole_cc = s.whole_cochains()
    fixed_cc = cochain_complex(fixed_subcomplex(s.complex, s.group.cyclic_subgroup(g)), s.lattice)
    for where, cc in (("whole", whole_cc), ("fixed", fixed_cc)):
        hopf, traced = cc.cell_traces(g)
        if hopf != traced:
            raise ArithmeticError(f"{s.name}: Hopf trace of element {g} disagrees with its "
                                  f"Lefschetz number on the cells of the {where} complex")
    whole, fixed_val = whole_cc.lefschetz_number(g), fixed_cc.lefschetz_number(g)
    return CorollaryReport(g, whole, fixed_val, passed=whole == fixed_val)


class FreeActionReport(namedtuple(
        "FreeActionReport",
        "applicable vanishing_ok covering_ok quotient_ok invariant_euler",
        defaults=(None, None, None, None))):
    """The free-action laws; a check that does not apply is None."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        if not self.applicable:
            return True
        checks = (self.vanishing_ok, self.covering_ok, self.quotient_ok)
        return all(c is not False for c in checks)


@memo
def _invariant_euler(s: Scenario) -> int | Fraction | None:
    """chi of the invariant cochains if the action is free, else None; cached.

    Counted on the cochains, not read off the cohomology: the averaging
    projector on C^k has rank (1/|G|) sum_g tr(g | C^k), so chi is the mean
    Hopf trace.  The covering and regular-multiple laws then confront it with
    the cohomology traces that the vanishing law reads.
    """
    if not s.complex.is_free():
        return None
    cc = s.whole_cochains()
    return _quotient(
        sum(c.size * cc.hopf_trace(c.representative) for c in element_classes(s.group)),
        s.group.order)


def verify_free_action(s: Scenario) -> FreeActionReport:
    """Vanishing of L(g), and the covering-space Euler characteristic laws."""
    chi_inv = _invariant_euler(s)
    if chi_inv is None:
        return FreeActionReport(applicable=False)
    cc = s.whole_cochains()
    # L(g) is a class function; class 0 is the identity's
    vanishing = all(
        cc.lefschetz_number(c.representative) == 0 for c in element_classes(s.group)[1:])
    chi = cc.lefschetz_number(0)
    covering = chi == s.group.order * chi_inv
    quotient_ok = None
    if s.has_trivial_lattice():
        # the cells of X/G are the orbits of cells of X, each of |G| cells
        x = s.complex
        orbits = [len(reps) for reps in _orbit_representatives(x)]
        if [s.group.order * n for n in orbits] != list(x.counts()):
            raise ArithmeticError("orbit count mismatch for a free action")
        quotient_ok = (x.euler_characteristic()
                       == s.group.order * sum((-1) ** k * n for k, n in enumerate(orbits)))
    return FreeActionReport(
        applicable=True,
        vanishing_ok=vanishing,
        covering_ok=covering,
        quotient_ok=quotient_ok,
        invariant_euler=chi_inv,
    )


class VerdierReport(namedtuple("VerdierReport", "applicable multiple passed",
                                defaults=(None, True))):
    """The regular-multiple identity of a free action."""

    __slots__ = ()


def verify_verdier(s: Scenario) -> VerdierReport:
    """For a free action the lhs is (invariant Euler characteristic) x regular."""
    c = _invariant_euler(s)
    if c is None:
        return VerdierReport(applicable=False)
    expected = regular_character(s.group).scale(c)
    return VerdierReport(
        applicable=True,
        multiple=c,
        passed=lhs_character(s) == expected,
    )


class ModpDegreeRow(namedtuple(
        "ModpDegreeRow", "degree modp_dim betti torsion_here torsion_above")):
    """One degree's F_p dimension against its Betti number and p-torsion."""

    __slots__ = ()

    @property
    def reconciles(self) -> bool:
        return self.modp_dim == self.betti + self.torsion_here + self.torsion_above


class ModpReport(namedtuple("ModpReport", "prime chi_rational chi_modp rows")):
    """The characteristic-p comparison at one prime; its rows reconcile, or
    ``verify_modp_comparison`` would have raised."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return self.chi_rational == self.chi_modp


def verify_modp_comparison(s: Scenario, p: int) -> ModpReport:
    """chi over F_p equals chi over Q; per-degree dims reconcile with torsion.

    The reconciliation is the universal coefficient theorem, so a degree that
    fails it is a bug, raised as ArithmeticError, not a verdict.
    """
    cc = s.whole_cochains()
    qdims = cc.rational_dims()
    pdims = cc.modp_dims(p)
    betti, torsion = cc.integral_cohomology()
    rows = []
    top = len(qdims) - 1
    for k in range(top + 1):
        r_here = sum(1 for t in torsion[k] if t % p == 0)
        r_above = (
            sum(1 for t in torsion[k + 1] if t % p == 0) if k < top else 0
        )
        row = ModpDegreeRow(k, pdims[k], betti[k], r_here, r_above)
        if not row.reconciles:
            raise ArithmeticError(
                f"{s.name}: mod {p} dimension in degree {k} does not reconcile with "
                f"the integral cohomology: {row.modp_dim} != "
                f"{row.betti} + {row.torsion_here} + {row.torsion_above}"
            )
        rows.append(row)
    chi_q = sum((-1) ** k * d for k, d in enumerate(qdims))
    chi_p = sum((-1) ** k * d for k, d in enumerate(pdims))
    return ModpReport(prime=p, chi_rational=chi_q, chi_modp=chi_p, rows=tuple(rows))


class VerificationSummary(namedtuple(
        "VerificationSummary", "scenario_name theorem corollaries free_action verdier modp")):
    """Every report of one scenario; it passes when all of them do."""

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.theorem.passed
            and all(c.passed for c in self.corollaries)
            and self.free_action.passed
            and self.verdier.passed
            and all(m.passed for m in self.modp)
        )


def full_verification(s: Scenario) -> VerificationSummary:
    """Run the theorem, the corollary for every element, and every lemma.

    Both sides of the corollary are class functions, so ``verify_corollary``
    runs once per conjugacy class, on its representative, and each element's
    row repeats the values of its class.
    """
    theorem = verify_theorem(s)
    per_class = [verify_corollary(s, c.representative) for c in element_classes(s.group)]
    rows = (per_class[ci] for ci in class_index_of(s.group))
    corollaries = tuple(
        CorollaryReport(g, r.whole_value, r.fixed_value, r.passed) for g, r in enumerate(rows))
    return VerificationSummary(
        scenario_name=s.name,
        theorem=theorem,
        corollaries=corollaries,
        free_action=verify_free_action(s),
        verdier=verify_verdier(s),
        modp=tuple(verify_modp_comparison(s, p) for p in s.primes),
    )
