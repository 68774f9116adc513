"""Verify computes each fact once, on one path.

Character values are lifted into ``Cyclotomic`` form once per table and
written once in integer coordinates over Z[zeta_e]; orthonormality and the
Galois orbit sums both read those coordinates, and the inner product is
rational.  So ``full_verification`` makes no ``Cyclotomic`` arithmetic call.

Coefficients are flat, so the cochains of a stratum that H fixes pointwise
are the trivial-coefficient cochains tensored with the lattice: the engine
reads the stratum's cohomology dimensions off the lattice complex whose
traces it uses, and builds no trivial-coefficient twin.  Every cochain
complex of a verification carries the scenario's own lattice.

Both halves run on every builtin and on the seed-1 ``large-group`` and
``large-complex`` documents, each scenario built afresh so nothing is cached.
"""

from equilef import builtin_names, builtin_scenario, full_verification, parse_scenario
from equilef.cohomology import CochainComplex
from equilef.cyclotomic import Cyclotomic
from test_golden import generated_documents

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__mul__", "__truediv__", "galois",
              "conjugate")


def _fresh_scenarios():
    with generated_documents() as paths:
        generated = [parse_scenario(path.read_text(encoding="utf-8")) for path in paths]
    return [builtin_scenario(name) for name in builtin_names()] + generated


def _counted(calls, name, original):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    return wrapper


def test_verify_makes_no_cyclotomic_arithmetic(monkeypatch):
    calls = []
    for name in ARITHMETIC:
        monkeypatch.setattr(Cyclotomic, name, _counted(calls, name, getattr(Cyclotomic, name)))
    scenarios = _fresh_scenarios()
    assert len(scenarios) > len(builtin_names())
    assert all(full_verification(s).passed for s in scenarios)
    assert calls == []
    # the counters do see the arithmetic: each operation, once by hand
    z = Cyclotomic.from_root_combination(3, [0, 1])
    (z + z, 1 + z, z - 1, z * z, z / 2, z.galois(2), z.conjugate())
    assert set(calls) == set(ARITHMETIC)


def test_every_cochain_complex_carries_the_scenario_lattice(monkeypatch):
    lattices = []
    init = CochainComplex.__init__

    def recording(cc, stratum, lattice):
        lattices.append(lattice)
        init(cc, stratum, lattice)

    monkeypatch.setattr(CochainComplex, "__init__", recording)
    for s in _fresh_scenarios():
        lattices.clear()
        full_verification(s)
        assert lattices, s.name
        assert all(lattice == s.lattice for lattice in lattices), s.name
