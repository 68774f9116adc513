"""Scenario files and report emission.

Scenario files are JSON: group generators as permutations, a complex as
maximal simplices plus per-generator vertex images, a lattice as
per-generator integer matrices, and optional run options.  Parsing
validates everything (known fields, permutations, faces, invertibility,
group relations) and reports failures as ScenarioError with a location path.

Reports serialize to canonical JSON: fixed key order, rationals as
{"num": ..., "den": ...} strings, no timestamps; two runs on the same
input produce byte-identical output.  Timings are added only on request.
Text reports are rendered from the same canonical dicts, so the two
formats cannot disagree.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import namedtuple

from .characters import character_table, rational_irreducibles
from .cohomology import GLattice
from .complexes import (
    MAX_CELLS,
    _subdivided_cells,
    build_complex,
    exact_stratum,
    fixed_subcomplex,
)
from .engine import DEFAULT_PRIMES, Scenario, VerificationSummary
from .groups import (
    Group,
    conjugacy_classes_of_subgroups,
    element_classes,
    group_from_permutations,
    is_permutation,
)
from .linalg import is_unimodular
from .numtheory import is_prime

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Input validation failure, carrying the JSON path of the bad field."""

    def __init__(self, message: str, location: str):
        self.location = location
        self.message = message
        super().__init__(f"{location}: {message}")


class ScenarioFile(namedtuple("ScenarioFile", (
        "schema_version", "name", "description", "group_degree", "group_generators",
        "vertices", "maximal_simplices", "complex_action", "lattice_rank",
        "lattice_action", "primes", "pre_subdivisions"))):
    """Canonicalized content of a scenario file, before construction."""

    __slots__ = ()


def _expect(cond, message, location):
    if not cond:
        raise ScenarioError(message, location)


def _is_int(v) -> bool:
    """A JSON integer; bools are ints in Python but not in a scenario file."""
    return isinstance(v, int) and not isinstance(v, bool)


def check_primes(primes, location):
    """A ScenarioError at location(i) unless entry i is an integer prime below
    ``MR_BOUND`` that no earlier entry repeats: its verdict would print twice."""
    for i, p in enumerate(primes):
        try:
            prime = _is_int(p) and is_prime(p)
        except ValueError as exc:
            raise ScenarioError(str(exc), location(i)) from None
        _expect(prime, f"{p!r} is not a prime", location(i))
        _expect(p not in primes[:i], f"prime {p} is repeated", location(i))


def _is_text(s: str) -> bool:
    """Whether s encodes as UTF-8.  JSON can write a lone surrogate ("\\ud800"),
    which a text report could then not write."""
    try:
        s.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _known_fields(obj, location, *fields):
    for key in obj:
        _expect(key in fields, f"unknown field {key!r}", location)


def _int_field(obj, key, location, minimum=None):
    _expect(key in obj, f"missing required field {key!r}", location)
    v = obj[key]
    _expect(_is_int(v), f"field {key!r} must be an integer", f"{location}.{key}")
    if minimum is not None:
        _expect(v >= minimum, f"field {key!r} must be at least {minimum}",
                f"{location}.{key}")
    return v


def _permutation(row, degree, location):
    _expect(isinstance(row, list), "permutation must be a list", location)
    _expect(all(_is_int(v) for v in row), "permutation entries must be integers",
            location)
    _expect(is_permutation(row, degree), f"not a permutation of 0..{degree - 1}",
            location)
    return tuple(row)


def _estimate(vertices, maximal, subdivisions, rank):
    """What a document makes the run build, as (count, what, JSON path) in the
    order they are refused, from its listed simplices; a later bound adds a
    yield here.

    Lazy, so every simplex's faces are admitted before any edge is enumerated
    and every size before any matrix is read.  The face closure has its
    distinct edges, counted exactly (stopping past the limit), and at most
    sum_s C(|s|, j+1) cells of each dimension j > 1; the subdivisions the
    document declares multiply them as ``_subdivided_cells`` counts.
    """
    for i, s in enumerate(maximal):
        yield 2 ** len(s) - 1, "the simplex has {} faces", f"$.complex.maximal_simplices[{i}]"
    maximal = sorted(set(maximal))
    edges: set = set()
    for s in maximal:
        edges.update(itertools.combinations(s, 2))
        if len(edges) > MAX_CELLS:
            break
    f = [vertices, len(edges)] + [sum(math.comb(len(s), j + 1) for s in maximal)
                                  for j in range(2, max(map(len, maximal)))]
    yield sum(f), "the complex may have {} cells", (
        "$.complex.vertices" if vertices > MAX_CELLS else "$.complex.maximal_simplices")
    cells = _subdivided_cells(f, subdivisions)
    yield (cells, f"the complex may have {{}} cells after {subdivisions} subdivision(s)",
           "$.options.subdivisions")
    yield from _lattice_estimate(cells, rank)


def _lattice_estimate(cells, rank):
    """The cochains, r per cell, and the entries of each element's dense r x r matrix."""
    yield (cells * rank, f"lattice rank {rank} on {cells} cell(s) may make {{}} cochains",
           "$.lattice.rank")
    yield rank * rank, f"lattice rank {rank} needs {{}}-entry matrices", "$.lattice.rank"


def _admit(estimate):
    """The one refusal site: a ScenarioError at the first size over ``MAX_CELLS``."""
    for count, what, location in estimate:
        _expect(count <= MAX_CELLS,
                what.format(_written(count)) + f", over the limit of {MAX_CELLS}", location)


def _written(n: int) -> str:
    """n in decimal, or its power of two where it has more digits than ``str`` writes
    (the faces of a simplex on 15,000 vertices, a rank of 4,300 digits on two cells)."""
    try:
        return str(n)
    except ValueError:
        return f"about 2^{n.bit_length()}"


def parse_scenario_file(text: str) -> ScenarioFile:
    """Validate scenario JSON into canonical form (no heavy construction)."""
    try:
        data = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ScenarioError(f"not valid JSON: {exc}", "$") from None
    except RecursionError:
        raise ScenarioError("JSON is nested too deeply", "$") from None
    _expect(isinstance(data, dict), "top level must be an object", "$")
    _known_fields(data, "$", "schema_version", "name", "description", "group", "complex",
                  "lattice", "options")
    version = _int_field(data, "schema_version", "$")
    _expect(version == SCHEMA_VERSION,
            f"unsupported schema_version {version}", "$.schema_version")
    name = data.get("name")
    _expect(isinstance(name, str) and name, "field 'name' must be a nonempty string",
            "$.name")
    description = data.get("description", "")
    _expect(isinstance(description, str), "field 'description' must be a string",
            "$.description")
    for key, text in (("name", name), ("description", description)):
        _expect(_is_text(text), f"field {key!r} holds a lone surrogate", f"$.{key}")

    group = data.get("group")
    _expect(isinstance(group, dict), "field 'group' must be an object", "$.group")
    _known_fields(group, "$.group", "degree", "generators")
    degree = _int_field(group, "degree", "$.group", minimum=1)
    raw_gens = group.get("generators")
    _expect(isinstance(raw_gens, list), "field 'generators' must be a list",
            "$.group.generators")
    generators = tuple(
        _permutation(row, degree, f"$.group.generators[{i}]")
        for i, row in enumerate(raw_gens)
    )

    comp = data.get("complex")
    _expect(isinstance(comp, dict), "field 'complex' must be an object", "$.complex")
    _known_fields(comp, "$.complex", "vertices", "maximal_simplices", "action")
    vertices = _int_field(comp, "vertices", "$.complex", minimum=1)
    raw_max = comp.get("maximal_simplices")
    _expect(isinstance(raw_max, list) and raw_max,
            "field 'maximal_simplices' must be a nonempty list",
            "$.complex.maximal_simplices")
    maximal = []
    for i, simplex in enumerate(raw_max):
        loc = f"$.complex.maximal_simplices[{i}]"
        _expect(isinstance(simplex, list) and simplex,
                "simplex must be a nonempty list of vertices", loc)
        _expect(all(_is_int(v) and 0 <= v < vertices for v in simplex),
                f"vertices must be integers in 0..{vertices - 1}", loc)
        _expect(len(set(simplex)) == len(simplex),
                "simplex has a repeated vertex", loc)
        maximal.append(tuple(sorted(simplex)))
    # each vertex map lists every vertex; without generators, a vertex that no
    # simplex names is an isolated point that nothing lists, so it must be [v]
    top = max(v for simplex in maximal for v in simplex)
    _expect(generators or vertices <= top + 1,
            f"without group generators 'vertices' may not exceed {top + 1}, one more than "
            "the largest listed vertex; list an isolated point v as [v]",
            "$.complex.vertices")
    raw_act = comp.get("action")
    _expect(isinstance(raw_act, list), "field 'action' must be a list",
            "$.complex.action")
    _expect(len(raw_act) == len(generators),
            f"need one vertex map per group generator ({len(generators)} expected)",
            "$.complex.action")
    action = tuple(
        _permutation(row, vertices, f"$.complex.action[{i}]")
        for i, row in enumerate(raw_act)
    )

    options = data.get("options", {})
    _expect(isinstance(options, dict), "field 'options' must be an object",
            "$.options")
    _known_fields(options, "$.options", "primes", "subdivisions")
    primes = options.get("primes", list(DEFAULT_PRIMES))
    _expect(isinstance(primes, list) and primes,
            "option 'primes' must be a nonempty list", "$.options.primes")
    check_primes(primes, lambda i: f"$.options.primes[{i}]")
    subdivisions = options.get("subdivisions", 0)
    _expect(_is_int(subdivisions) and 0 <= subdivisions <= 2,
            "option 'subdivisions' must be an integer 0..2",
            "$.options.subdivisions")

    lat = data.get("lattice")
    _expect(isinstance(lat, dict), "field 'lattice' must be an object", "$.lattice")
    _known_fields(lat, "$.lattice", "rank", "action")
    rank = _int_field(lat, "rank", "$.lattice", minimum=1)
    _admit(_estimate(vertices, maximal, subdivisions, rank))
    raw_mats = lat.get("action")
    _expect(isinstance(raw_mats, dict), "field 'action' must be an object",
            "$.lattice.action")
    _expect(
        set(raw_mats) == {str(i) for i in range(len(generators))},
        f"need matrices for generator indices 0..{len(generators) - 1}",
        "$.lattice.action",
    )
    matrices = []
    for i in range(len(generators)):
        loc = f"$.lattice.action[{i}]"
        m = raw_mats[str(i)]
        _expect(
            isinstance(m, list) and len(m) == rank
            and all(isinstance(r, list) and len(r) == rank for r in m),
            f"matrix must be {rank}x{rank}", loc)
        _expect(all(_is_int(v) for r in m for v in r),
                "matrix entries must be integers", loc)
        _expect(is_unimodular(m), "lattice generator not invertible over integers", loc)
        matrices.append(tuple(tuple(r) for r in m))

    return ScenarioFile(
        schema_version=version,
        name=name,
        description=description,
        group_degree=degree,
        group_generators=generators,
        vertices=vertices,
        maximal_simplices=tuple(sorted(set(maximal))),
        complex_action=action,
        lattice_rank=rank,
        lattice_action=tuple(matrices),
        primes=tuple(primes),
        pre_subdivisions=subdivisions,
    )


def build_scenario(sf: ScenarioFile) -> Scenario:
    """Construct the Scenario, turning construction failures into diagnostics."""
    try:
        group = group_from_permutations(sf.group_degree, sf.group_generators)
    except ValueError as exc:
        raise ScenarioError(str(exc), "$.group") from None
    try:
        complex_ = build_complex(
            sf.maximal_simplices,
            group,
            sf.complex_action,
            n_vertices=sf.vertices,
            pre_subdivisions=sf.pre_subdivisions,
            # a regularity subdivision makes more cells than the document
            # declares, so its cochains are admitted before it is built
            admit=lambda cells: _admit(_lattice_estimate(cells, sf.lattice_rank)),
        )
    except ScenarioError:
        raise
    except ValueError as exc:
        raise ScenarioError(str(exc), "$.complex.action") from None
    try:
        lattice = GLattice.from_generator_matrices(
            group, sf.lattice_rank, sf.lattice_action
        )
    except ValueError as exc:
        raise ScenarioError(str(exc), "$.lattice.action") from None
    return Scenario(
        sf.name, group, complex_, lattice,
        description=sf.description, primes=sf.primes,
    )


def parse_scenario(text: str) -> Scenario:
    return build_scenario(parse_scenario_file(text))


def scenario_file_dict(sf: ScenarioFile) -> dict:
    return {
        "schema_version": sf.schema_version,
        "name": sf.name,
        "description": sf.description,
        "group": {
            "degree": sf.group_degree,
            "generators": [list(g) for g in sf.group_generators],
        },
        "complex": {
            "vertices": sf.vertices,
            "maximal_simplices": [list(s) for s in sf.maximal_simplices],
            "action": [list(a) for a in sf.complex_action],
        },
        "lattice": {
            "rank": sf.lattice_rank,
            "action": {
                str(i): [list(r) for r in m]
                for i, m in enumerate(sf.lattice_action)
            },
        },
        "options": {
            "primes": list(sf.primes),
            "subdivisions": sf.pre_subdivisions,
        },
    }


def serialize_scenario(sf: ScenarioFile) -> str:
    """Canonical JSON text; parse(serialize(parse(t))) == parse(t)."""
    return canonical_json(scenario_file_dict(sf))


# ---------------------------------------------------------------------------
# report emission


def _rat(value) -> dict:
    """An int or a Fraction as {"num", "den"} strings; an int's denominator is 1."""
    return {"num": str(value.numerator), "den": str(value.denominator)}


def _rat_text(r: dict) -> str:
    """A {"num", "den"} rational as text: "3" or "-1/2"."""
    return r["num"] if r["den"] == "1" else f"{r['num']}/{r['den']}"


def _character_values(v) -> list:
    return [_rat(x) for x in v.values]


def _class_block(group: Group) -> list:
    return [
        {"representative": c.representative, "size": c.size}
        for c in element_classes(group)
    ]


def summary_to_dict(summary: VerificationSummary, scenario: Scenario,
                    include_timings: bool = False) -> dict:
    th = summary.theorem
    verdicts = {
        "theorem": th.passed,
        "corollary": [
            {
                "element": c.element,
                "whole": _rat(c.whole_value),
                "fixed": _rat(c.fixed_value),
                "passed": c.passed,
            }
            for c in summary.corollaries
        ],
        "free_action": (
            {
                "applicable": True,
                "vanishing": summary.free_action.vanishing_ok,
                "covering": summary.free_action.covering_ok,
                "quotient": summary.free_action.quotient_ok,
                "invariant_euler": _rat(summary.free_action.invariant_euler),
                "passed": summary.free_action.passed,
            }
            if summary.free_action.applicable
            else {"applicable": False, "passed": True}
        ),
        "verdier": (
            {
                "applicable": True,
                "multiple": _rat(summary.verdier.multiple),
                "passed": summary.verdier.passed,
            }
            if summary.verdier.applicable
            else {"applicable": False, "passed": True}
        ),
        "modp": [
            {
                "prime": m.prime,
                "chi_rational": m.chi_rational,
                "chi_modp": m.chi_modp,
                "degrees": [
                    {
                        "degree": r.degree,
                        "dim_modp": r.modp_dim,
                        "betti": r.betti,
                        "torsion_here": r.torsion_here,
                        "torsion_above": r.torsion_above,
                    }
                    for r in m.rows
                ],
                "passed": m.passed,
            }
            for m in summary.modp
        ],
    }
    tables = [
        {
            "subgroup_order": t.subgroup_order,
            "subgroup_members": list(t.subgroup.member_set),
            "normalizer_order": t.normalizer_order,
            "conjugates": t.conjugate_count,
            "weight": _rat(t.weight),
            "stratum_sizes": list(t.stratum_sizes),
            "stratum_euler": t.stratum_euler,
            "cohomology_dims": list(t.cohomology_dims),
            "theta": _character_values(t.theta),
            "isotypic": [
                {
                    "orbit": row.orbit_index,
                    "orbit_size": row.orbit_size,
                    "coefficient": _rat(row.coefficient),
                }
                for row in t.isotypic
            ],
        }
        for t in th.terms
    ]
    out = {
        "scenario": summary.scenario_name,
        "passed": summary.passed,
        "verdicts": verdicts,
        "characters": {
            "classes": _class_block(scenario.group),
            "lhs": _character_values(th.lhs),
            "rhs_induction": _character_values(th.rhs_induction),
            "rhs_isotypic": _character_values(th.rhs_isotypic),
        },
        "tables": {"subgroup_classes": tables},
        "complex": {
            "counts": list(th.complex_counts),
            "subdivisions": th.subdivision_count,
        },
    }
    if include_timings:
        out["timings"] = {"theorem_seconds": th.elapsed_seconds}
    return out


def summary_to_text(data: dict, scenario: Scenario) -> str:
    """Text of a ``summary_to_dict`` report; ``scenario`` gives only the
    description and lattice rank, the two facts the JSON does not carry."""
    chars = data["characters"]
    verdicts = data["verdicts"]
    lines = []

    def ok(flag):
        return "pass" if flag else "FAIL"

    lines.append(f"scenario {data['scenario']}: {ok(data['passed'])}")
    if scenario.description:
        lines.append(f"  {scenario.description}")
    lines.append(
        f"  complex: counts {tuple(data['complex']['counts'])}, "
        f"{data['complex']['subdivisions']} subdivision(s); "
        f"lattice rank {scenario.lattice.rank}"
    )
    reps = [c["representative"] for c in chars["classes"]]
    lines.append(f"  classes (representatives): {reps}")
    lines.append(f"  lhs            : {[_rat_text(r) for r in chars['lhs']]}")
    lines.append(f"  rhs (induction): {[_rat_text(r) for r in chars['rhs_induction']]}")
    lines.append(f"  rhs (isotypic) : {[_rat_text(r) for r in chars['rhs_isotypic']]}")
    lines.append(f"  theorem: {ok(verdicts['theorem'])}")
    for t in data["tables"]["subgroup_classes"]:
        lines.append(
            f"  [H] order {t['subgroup_order']} members {t['subgroup_members']}: "
            f"|N(H)| = {t['normalizer_order']}, weight {_rat_text(t['weight'])}, "
            f"stratum sizes {tuple(t['stratum_sizes'])}, chi_c = {t['stratum_euler']}"
        )
        lines.append(
            f"      cohomology dims {tuple(t['cohomology_dims'])}, "
            f"theta {[_rat_text(r) for r in t['theta']]}, "
            f"coefficients {[_rat_text(r['coefficient']) for r in t['isotypic']]}"
        )
    corollaries = verdicts["corollary"]
    lines.append(
        f"  corollary (fixed-set Lefschetz) over {len(corollaries)} "
        f"elements: {ok(all(c['passed'] for c in corollaries))}"
    )
    for c in corollaries:
        lines.append(
            f"      g = {c['element']}: L(X) = {_rat_text(c['whole'])}, "
            f"L(fixed) = {_rat_text(c['fixed'])}"
            + ("" if c["passed"] else "  MISMATCH")
        )
    fa = verdicts["free_action"]
    if fa["applicable"]:
        lines.append(
            f"  free action: vanishing {ok(fa['vanishing'])}, covering "
            f"{ok(fa['covering'])}"
            + (f", quotient {ok(fa['quotient'])}" if fa["quotient"] is not None else "")
            + f" (invariant chi = {_rat_text(fa['invariant_euler'])})"
        )
        lines.append(
            f"  regular multiple: {ok(verdicts['verdier']['passed'])} "
            f"(lhs = {_rat_text(verdicts['verdier']['multiple'])} x regular)"
        )
    else:
        lines.append("  free action: not applicable (action has fixed simplices)")
    for m in verdicts["modp"]:
        detail = ", ".join(
            f"H^{r['degree']}: {r['dim_modp']} = "
            f"{r['betti']}+{r['torsion_here']}+{r['torsion_above']}"
            for r in m["degrees"]
        )
        lines.append(
            f"  mod {m['prime']}: chi {m['chi_modp']} vs {m['chi_rational']} "
            f"{ok(m['passed'])} ({detail})"
        )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# character table and strata listings


def _cyclotomic_dict(v) -> dict:
    return {
        "conductor": v.conductor,
        "coeffs": [_rat(c) for c in v.coeffs],
    }


def cyclotomic_str(v) -> str:
    """Text of a cyclotomic value, given as its canonical dict or a Cyclotomic."""
    if not isinstance(v, dict):
        v = _cyclotomic_dict(v)
    e, coeffs = v["conductor"], v["coeffs"]
    if e == 1:
        return _rat_text(coeffs[0])
    parts = []
    for k, c in enumerate(coeffs):
        if c["num"] == "0":
            continue
        if k == 0:
            parts.append(_rat_text(c))
            continue
        negative = c["num"].startswith("-")
        mag = _rat_text({"num": c["num"].lstrip("-"), "den": c["den"]})
        parts.append(
            ("-" if negative else "+" if parts else "")
            + ("" if mag == "1" else f"{mag}*")
            + (f"z{e}" if k == 1 else f"z{e}^{k}")
        )
    return "".join(parts) if parts else "0"


def chartab_dict(scenario: Scenario) -> dict:
    g = scenario.group
    table = character_table(g)
    rats = rational_irreducibles(table)
    # one dict per distinct value: a table repeats few values many times
    distinct = {v for chi in table.irreducibles for v in chi.values}
    rendered = {v: _cyclotomic_dict(v) for v in distinct}
    return {
        "scenario": scenario.name,
        "group_order": g.order,
        "classes": _class_block(g),
        "irreducibles": [
            {
                "degree": d,
                "values": [rendered[v] for v in chi.values],
            }
            for chi, d in zip(table.irreducibles, table.degrees)
        ],
        "rational_irreducibles": [
            {
                "orbit": list(lam.orbit),
                "orbit_size": lam.orbit_size,
                "values": [_rat(v) for v in lam.orbit_sum.values],
            }
            for lam in rats
        ],
    }


def chartab_text(data: dict) -> str:
    """Text of a ``chartab_dict`` report."""
    lines = [f"group of order {data['group_order']} ({data['scenario']})"]
    reps = [c["representative"] for c in data["classes"]]
    sizes = [c["size"] for c in data["classes"]]
    lines.append(f"  class representatives: {reps}")
    lines.append(f"  class sizes:           {sizes}")
    # a chartab_dict shares one dict per distinct value: each is rendered once
    texts = {}
    for i, chi in enumerate(data["irreducibles"]):
        for v in chi["values"]:
            if id(v) not in texts:
                texts[id(v)] = cyclotomic_str(v)
        vals = ", ".join(texts[id(v)] for v in chi["values"])
        lines.append(f"  chi_{i}: [{vals}]")
    lines.append("  rational irreducibles (orbit sums):")
    for lam in data["rational_irreducibles"]:
        vals = ", ".join(_rat_text(r) for r in lam["values"])
        lines.append(
            f"    orbit {lam['orbit']} (size {lam['orbit_size']}): [{vals}]"
        )
    return "\n".join(lines) + "\n"


def strata_dict(scenario: Scenario) -> dict:
    g = scenario.group
    x = scenario.complex
    rows = []
    for cls in conjugacy_classes_of_subgroups(g):
        h = cls.representative
        fixed = fixed_subcomplex(x, h)
        exact = exact_stratum(x, h)
        rows.append(
            {
                "subgroup_order": h.order,
                "subgroup_members": list(h.member_set),
                "conjugates": len(cls.members),
                "fixed_sizes": list(fixed.sizes()),
                "fixed_euler": fixed.euler_characteristic(),
                "exact_sizes": list(exact.sizes()),
                "exact_euler_compact": exact.euler_characteristic(),
            }
        )
    return {
        "scenario": scenario.name,
        "complex": {
            "counts": list(x.counts()),
            "subdivisions": x.subdivision_count,
        },
        "subgroup_classes": rows,
    }


def strata_text(data: dict) -> str:
    """Text of a ``strata_dict`` report."""
    lines = [
        f"scenario {data['scenario']}: counts {tuple(data['complex']['counts'])}, "
        f"{data['complex']['subdivisions']} subdivision(s)"
    ]
    for row in data["subgroup_classes"]:
        lines.append(
            f"  [H] order {row['subgroup_order']} members {row['subgroup_members']} "
            f"({row['conjugates']} conjugate(s)):"
        )
        lines.append(
            f"      fixed set sizes {tuple(row['fixed_sizes'])} "
            f"chi = {row['fixed_euler']}; exact stratum sizes "
            f"{tuple(row['exact_sizes'])} chi_c = {row['exact_euler_compact']}"
        )
    return "\n".join(lines) + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}
# the leaves, by exact type: a str or int subclass takes the general path
_LEAF_TEXT = {str: _encode_str, int: int.__repr__,
              bool: _CONSTANTS.__getitem__, type(None): _CONSTANTS.__getitem__}


def canonical_json(data) -> str:
    """``json.dumps(data, indent=2) + "\\n"``, byte for byte.

    ``indent`` makes ``json.dumps`` use its pure-Python encoder, so the
    indentation is written here and only the leaves are encoded: strings by
    the C string encoder, ints by ``repr``, bools and None from a table,
    anything else by ``json.dumps``.  Each container is one join of its
    items' texts.
    """
    return _json_text(data, "\n") + "\n"


def _json_text(value, indent: str) -> str:
    leaf = _LEAF_TEXT.get(type(value))
    if leaf is not None:
        return leaf(value)
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(key if isinstance(key, str) else _json_key(key)) + ": "
            + (leaf(item) if (leaf := _LEAF_TEXT.get(type(item))) else _json_text(item, inner))
            for key, item in value.items()]) + indent + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            leaf(item) if (leaf := _LEAF_TEXT.get(type(item))) else _json_text(item, inner)
            for item in value]) + indent + "]"
    return json.dumps(value)


def _json_key(key) -> str:
    """A non-str dict key as ``json.dumps`` writes it; TypeError where it refuses."""
    if isinstance(key, (int, float)) or key is None:
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")
