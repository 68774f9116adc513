"""Cross-checks on the per-class path fire when the fact they guard is corrupted.

The corollary and the left-hand side read Lefschetz numbers at one
representative per conjugacy class.  Two checks guard those numbers: the
alternating trace on cohomology must be an integer, and it must equal the
Hopf chain-level trace.  Each test corrupts one computed intermediate with
``monkeypatch`` (the fault lives only here) and expects ``ArithmeticError``
from the library and exit 3 from ``equilef verify``, with a message that
names the check.  ``triangle-s3`` is a circle under S3: three classes, two of
them non-identity.
"""

from fractions import Fraction

import pytest

import equilef.cli as cli
from equilef import builtin_scenario, element_classes, full_verification, verify_corollary
from equilef.cohomology import CochainComplex

NAME = "triangle-s3"


def _non_identity_representatives(s):
    return [c.representative for c in element_classes(s.group)[1:]]


@pytest.fixture
def half_trace_in_degree_0(monkeypatch):
    # a shift in every degree would cancel in the alternating sum of the circle
    trace = CochainComplex.trace_on_cohomology
    monkeypatch.setattr(
        CochainComplex, "trace_on_cohomology",
        lambda cc, e, k: trace(cc, e, k) + (Fraction(1, 2) if e != 0 and k == 0 else 0))


def test_non_integral_alternating_trace_is_raised(half_trace_in_degree_0):
    s = builtin_scenario(NAME)
    reps = _non_identity_representatives(s)
    assert len(reps) == 2
    verify_corollary(s, 0)
    for g in reps:
        with pytest.raises(ArithmeticError, match="non-integral alternating trace"):
            verify_corollary(s, g)
    with pytest.raises(ArithmeticError, match="non-integral alternating trace"):
        full_verification(builtin_scenario(NAME))


def test_non_integral_alternating_trace_is_an_internal_error(half_trace_in_degree_0, capsys):
    assert cli.main(["verify", NAME]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "non-integral alternating trace" in err


@pytest.fixture
def hopf_off_by_one_away_from_identity(monkeypatch):
    hopf = CochainComplex.hopf_trace
    monkeypatch.setattr(
        CochainComplex, "hopf_trace", lambda cc, e: hopf(cc, e) + (1 if e != 0 else 0))


def test_hopf_mismatch_at_a_non_identity_class_is_raised(hopf_off_by_one_away_from_identity):
    s = builtin_scenario(NAME)
    verify_corollary(s, 0)
    for g in _non_identity_representatives(s):
        with pytest.raises(ArithmeticError, match=f"Hopf trace of element {g} disagrees"):
            verify_corollary(s, g)
    with pytest.raises(ArithmeticError, match="Hopf trace"):
        full_verification(builtin_scenario(NAME))


def test_hopf_mismatch_at_a_non_identity_class_is_an_internal_error(
        hopf_off_by_one_away_from_identity, capsys):
    assert cli.main(["verify", NAME]) == 3
    err = capsys.readouterr().err
    assert err.startswith("internal error:")
    assert "Hopf trace" in err
