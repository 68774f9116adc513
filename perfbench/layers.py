"""The traced pass: each layer timed from outside, in pipeline order.

For every scenario the pass makes the calls ``equilef verify`` makes, one
layer at a time, on the scenario's own objects, and times each call:

    scenario_io.parse_s        read the file, parse_scenario_file
    scenarios.load_s           builtin_scenario (corpus; opaque from outside)
    groups.closure_s           group_from_permutations
    complexes.build_s          build_complex, with subdivisions
    cohomology.lattice_s       GLattice.from_generator_matrices
    groups.subgroup_classes_s  conjugacy_classes_of_subgroups
    groups.normalizer_s        normalizer of each class representative
    characters.tables_s        character_table, rational_irreducibles
    complexes.strata_s         exact_stratum of each class representative
    cohomology.cochains_s      cochain_complex: whole space, each stratum
    cohomology.solve_s         rational_dims of every complex
    cohomology.trace_s         lhs_character, stratum equivariant characters
    characters.induce_s        induce of each stratum character
    cohomology.invariant_s     invariant_cohomology (free actions only)
    cohomology.smith_s         cohomology (Smith normal form)
    cohomology.modp_s          modp_euler_characteristic per prime
    engine.residual_s          full_verification on the warmed scenario
    scenario_io.render_s       summary_to_dict, canonical_json, write

Results cached on the scenario's objects are reused by later calls, so each
span holds the first computation of its layer.  Lefschetz numbers are not
cached by equilef, so ``engine.residual_s`` recomputes the traces; that
repeated work shows in ``trace.overhead_s``.  Only names in
``equilef.__all__`` and the documented methods of their objects are
called, plus the scenario_io report renderer that the CLI uses.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

from equilef import (
    GLattice,
    Scenario,
    build_complex,
    builtin_scenario,
    character_table,
    cochain_complex,
    cohomology,
    conjugacy_classes_of_subgroups,
    exact_stratum,
    full_verification,
    group_from_permutations,
    induce,
    invariant_cohomology,
    lhs_character,
    modp_euler_characteristic,
    normalizer,
    parse_scenario_file,
    rational_irreducibles,
    subgroups,
)
from equilef.scenario_io import canonical_json, summary_to_dict

SPANS = (
    "scenario_io.parse_s", "scenarios.load_s", "groups.closure_s",
    "complexes.build_s", "cohomology.lattice_s", "groups.subgroup_classes_s",
    "groups.normalizer_s", "characters.tables_s", "complexes.strata_s",
    "cohomology.cochains_s", "cohomology.solve_s", "cohomology.trace_s",
    "characters.induce_s", "cohomology.invariant_s", "cohomology.smith_s",
    "cohomology.modp_s", "engine.residual_s", "scenario_io.render_s",
)
COUNTS = (
    "groups.subgroups", "groups.subgroup_classes", "characters.tables",
    "complexes.cells", "complexes.strata", "complexes.strata_nonempty",
    "cohomology.complexes_built", "cohomology.complexes_distinct",
    "cohomology.matrix_entries", "cohomology.matrix_nnz",
    "scenario_io.report_bytes",
)


class Recorder:
    """Busy seconds per layer and work counts, summed over a pass."""

    def __init__(self):
        self.seconds = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)

    @contextmanager
    def span(self, name):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.seconds[name] += time.perf_counter() - started

    def as_dict(self) -> dict:
        return {**self.seconds, **self.counts}


def matrix_size(cc) -> tuple[int, int]:
    """(entries, nonzeros) of all coboundary matrices, from the simplices."""
    levels = cc.stratum.simplices
    r = cc.lattice.rank
    entries = nnz = 0
    for k in range(len(levels) - 1):
        entries += r * len(levels[k]) * r * len(levels[k + 1])
        lower = set(levels[k])
        for tau in levels[k + 1]:
            nnz += r * sum(1 for i in range(len(tau)) if tau[:i] + tau[i + 1:] in lower)
    return entries, nnz


def _load(target, rec) -> Scenario:
    """The loading steps of ``equilef verify`` for a file or a builtin name."""
    if not os.path.exists(target):
        with rec.span("scenarios.load_s"):
            return builtin_scenario(target)
    with rec.span("scenario_io.parse_s"):
        with open(target, encoding="utf-8") as handle:
            sf = parse_scenario_file(handle.read())
    with rec.span("groups.closure_s"):
        group = group_from_permutations(sf.group_degree, sf.group_generators)
    with rec.span("complexes.build_s"):
        complex_ = build_complex(sf.maximal_simplices, group, sf.complex_action,
                                 n_vertices=sf.vertices,
                                 pre_subdivisions=sf.pre_subdivisions)
    with rec.span("cohomology.lattice_s"):
        lattice = GLattice.from_generator_matrices(group, sf.lattice_rank,
                                                   sf.lattice_action)
        return Scenario(sf.name, group, complex_, lattice,
                        description=sf.description, primes=sf.primes)


def traced_scenario(target, out_path, rec: Recorder) -> int:
    """Run one scenario layer by layer; returns the exit code verify would."""
    s = _load(target, rec)
    g, x, lattice = s.group, s.complex, s.lattice
    count = rec.counts

    with rec.span("groups.subgroup_classes_s"):
        classes = conjugacy_classes_of_subgroups(g)
        count["groups.subgroups"] += len(subgroups(g))
    count["groups.subgroup_classes"] += len(classes)
    reps = [c.representative for c in classes]

    with rec.span("groups.normalizer_s"):
        for h in reps:
            normalizer(g, h)

    with rec.span("characters.tables_s"):
        inner_groups = {id(h.as_group()): h.as_group() for h in reps}
        for inner in inner_groups.values():
            rational_irreducibles(character_table(inner))
    count["characters.tables"] += len(inner_groups)

    with rec.span("complexes.strata_s"):
        strata = [exact_stratum(x, h) for h in reps]
    count["complexes.cells"] += sum(x.counts())
    count["complexes.strata"] += len(strata)
    count["complexes.strata_nonempty"] += sum(1 for st in strata if any(st.simplices))

    with rec.span("cohomology.cochains_s"):
        whole = cochain_complex(x.as_stratum(), lattice)
        base = [cochain_complex(st, s.base_lattice()) for st in strata]
        general = [cochain_complex(st, lattice) for st in strata]
    built = {id(cc): cc for cc in [whole, *base, *general]}
    count["cohomology.complexes_built"] += len(built)
    count["cohomology.complexes_distinct"] += len(
        {(cc.stratum.simplices, cc.lattice.matrices) for cc in built.values()})
    for cc in built.values():
        entries, nnz = matrix_size(cc)
        count["cohomology.matrix_entries"] += entries
        count["cohomology.matrix_nnz"] += nnz

    with rec.span("cohomology.solve_s"):
        for cc in built.values():
            cc.rational_dims()

    with rec.span("cohomology.trace_s"):
        lhs_character(s)
        thetas = [cc.equivariant_euler_characteristic(h) for cc, h in zip(general, reps)]

    with rec.span("characters.induce_s"):
        for h, theta in zip(reps, thetas):
            induce(h, theta)

    with rec.span("cohomology.invariant_s"):
        if x.is_free():
            invariant_cohomology(x, lattice)

    with rec.span("cohomology.smith_s"):
        cohomology(whole)

    with rec.span("cohomology.modp_s"):
        for p in s.primes:
            modp_euler_characteristic(x, lattice, p)

    with rec.span("engine.residual_s"):
        summary = full_verification(s)

    with rec.span("scenario_io.render_s"):
        text = canonical_json(summary_to_dict(summary, s))
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    count["scenario_io.report_bytes"] += len(text.encode("utf-8"))
    return 0 if summary.passed else 1
