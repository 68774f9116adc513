"""Shared fixtures: a session-wide scenario corpus and verification cache.

Scenario objects memoize strata and cochain solvers, so unit tests share
one corpus build.  Anything that needs to measure cold-start cost builds
its own fresh scenarios instead.  Character tables are shared by every group
with the same multiplication table in a process, and the coboundaries and
eliminations of a cell set by every stratum with those cells, through the
intern of ``groups``; each test starts with it empty, so a fresh scenario
builds its tables and runs its eliminations again, through any builder or
kernel the test patches.
"""

import pytest

from equilef import builtin_scenarios, full_verification
from equilef.groups import _INTERN

# (criterion number, title, ok) rows recorded by the acceptance tests
ACCEPTANCE_RESULTS = []


@pytest.fixture(autouse=True)
def empty_intern():
    _INTERN.clear()


@pytest.fixture(scope="session")
def corpus():
    return builtin_scenarios()


@pytest.fixture(scope="session")
def by_name(corpus):
    return {s.name: s for s in corpus}


@pytest.fixture(scope="session")
def summaries(corpus):
    return {s.name: full_verification(s) for s in corpus}


@pytest.fixture(scope="session")
def acceptance_log():
    return ACCEPTANCE_RESULTS


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for num, title, ok in sorted(ACCEPTANCE_RESULTS):
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {num}: {title}")
