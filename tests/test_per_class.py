"""Element work runs once per conjugacy class; the per-element loop is the oracle.

L(g, X) and L(g, X^<g>) are class functions, so ``full_verification`` runs
``verify_corollary`` on one representative per conjugacy class and repeats
its values on every element of the class, and the free-action vanishing is
checked on the non-identity class representatives.  Here the loop over every
element, as the engine once ran it, is the oracle: on every builtin, the
seed-1..3 generated documents and the ladder's S4 and S5 rungs, its rows
must equal the report's, and on every free action L(g) must vanish at every
non-identity element.  The oracle runs on a separately built scenario, so it
shares no cached trace with the report.  A counting wrap of
``verify_corollary`` keeps the per-element loop from coming back.
"""

import json

import pytest

import equilef.engine as engine
from equilef import builtin_names, builtin_scenario, element_classes, parse_scenario
from equilef.cohomology import CochainComplex
from test_isotropy import DOCUMENTS, gen


def _build(name):
    """A freshly built scenario: nothing cached is shared between two calls."""
    if name in DOCUMENTS:
        return parse_scenario(json.dumps(DOCUMENTS[name]))
    return builtin_scenario(name)


@pytest.mark.parametrize("name", [*builtin_names(), *DOCUMENTS])
def test_report_rows_equal_the_per_element_loop(name):
    oracle = _build(name)
    expected = tuple(engine.verify_corollary(oracle, g) for g in range(oracle.group.order))
    assert engine.full_verification(_build(name)).corollaries == expected


def test_free_actions_vanish_at_every_non_identity_element():
    free = []
    for name in [*builtin_names(), *DOCUMENTS]:
        s = _build(name)
        if s.complex.is_free():
            free.append(name)
            cc = s.whole_cochains()
            assert all(cc.lefschetz_number(g) == 0 for g in range(1, s.group.order)), name
            assert engine.verify_free_action(s).vanishing_ok is True, name
    # the oracle is not vacuous: it meets free actions
    assert len(free) >= 3, free


def test_vanishing_reads_every_non_identity_class(monkeypatch):
    # a non-zero L at any one non-identity class must fail the vanishing check
    s = builtin_scenario("hexagon-rot6")
    assert s.complex.is_free()
    lefschetz = CochainComplex.lefschetz_number
    reps = [c.representative for c in element_classes(s.group)[1:]]
    assert len(reps) == 5
    for bad in reps:
        monkeypatch.setattr(CochainComplex, "lefschetz_number",
                            lambda cc, e: 1 if e == bad else lefschetz(cc, e))
        assert engine.verify_free_action(s).vanishing_ok is False, bad
    monkeypatch.setattr(CochainComplex, "lefschetz_number", lefschetz)
    assert engine.verify_free_action(s).vanishing_ok is True


def _on_a_point(name, degree, generators) -> str:
    return json.dumps(gen.scenario_doc(
        name, degree, generators, 1, [(0,)], [(0,)] * len(generators),
        [[[1]]] * len(generators)))


S4_POINT = _on_a_point("s4-point", 4, gen.S4_GENERATORS)
A5_POINT = _on_a_point("a5-point", 5, gen.A5_GENERATORS)


@pytest.fixture
def corollary_calls(monkeypatch):
    """The elements ``engine.verify_corollary`` is called with, in order."""
    calls = []
    original = engine.verify_corollary

    def counted(s, g):
        calls.append(g)
        return original(s, g)

    monkeypatch.setattr(engine, "verify_corollary", counted)
    return calls


@pytest.mark.parametrize("text, order, classes", [
    pytest.param(S4_POINT, 24, 5, id="s4-point"),
    pytest.param(A5_POINT, 60, 5, id="a5-point"),
])
def test_corollary_runs_once_per_class(corollary_calls, text, order, classes):
    s = parse_scenario(text)
    summary = engine.full_verification(s)
    assert s.group.order == order
    assert corollary_calls == [c.representative for c in element_classes(s.group)]
    assert len(corollary_calls) == classes
    assert [c.element for c in summary.corollaries] == list(range(order))


def test_the_counter_sees_every_call(corollary_calls):
    # the wrap is what the engine calls: a loop over every element counts each one
    s = parse_scenario(S4_POINT)
    for g in range(s.group.order):
        engine.verify_corollary(s, g)
    assert corollary_calls == list(range(24))
