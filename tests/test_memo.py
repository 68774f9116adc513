"""The memo contract: every derived fact is computed once per owner.

``groups.memo`` is the one cache of the package, and the intern of
``groups`` its one module-level map: ``interned`` files there the first
group with each multiplication table, ``interned_value`` the first object
made for each value of a kind.  Guards read the source with ``ast`` so
that no module grows a hand-rolled ``_cache`` or a second such map, and a
second verification of a warmed scenario must run no elimination, build no
character table and make no cyclotomic value.  A fresh build of the same
scenarios does none of it either, until the intern is emptied: it holds the
character table of each multiplication table and the eliminations, cell
moves and rank-one traces of each cell set, so a pass over the builtins
builds one cocycle basis per cell set and degree, and a lattice twin on the
same cells moves no cell and traces nothing.
"""

import ast
import gc
import importlib
import types
from pathlib import Path

import pytest

from equilef import builtin_names, builtin_scenario, full_verification
from equilef.cohomology import CellCochains, CochainComplex, GLattice
from equilef.complexes import SimplicialGComplex, Stratum
from equilef.engine import Scenario
from equilef.groups import _INTERN, memo

# by import_module: the package exports a function named cohomology
characters, cohomology, cyclotomic = (
    importlib.import_module(f"equilef.{name}") for name in ("characters", "cohomology", "cyclotomic"))

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "equilef").glob("*.py"))

# (module, outermost function) allowed to read or write an owner's _cache:
# the memo itself
ALLOWED = {("groups", "memo")}


def _is_cache(node) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "_cache"


def _cache_uses(tree):
    """(outermost function, line) of every _cache subscript, .get or .setdefault."""
    found = []

    def visit(node, owner):
        hit = (
            isinstance(node, ast.Subscript) and _is_cache(node.value)
            or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("get", "setdefault") and _is_cache(node.func.value)
        )
        if hit:
            found.append((owner, node.lineno))
        if owner is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for top in tree.body:
        # methods count under their own name, module functions under theirs
        if isinstance(top, ast.ClassDef):
            for item in top.body:
                visit(item, None)
        else:
            visit(top, None)
    return found


def _memo_decorated(tree) -> list[str]:
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(isinstance(d, ast.Name) and d.id == "memo" for d in node.decorator_list)
    ]


def test_only_memo_touches_a_cache():
    offenders = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [
            (path.stem, owner, line)
            for owner, line in _cache_uses(tree)
            if (path.stem, owner) not in ALLOWED
        ]
    assert offenders == []


def test_the_guard_sees_a_hand_rolled_cache():
    tree = ast.parse(
        "class A:\n"
        "    def f(self):\n"
        "        if 'k' not in self._cache:\n"
        "            self._cache['k'] = 1\n"
        "        return self._cache.get('k')\n"
        "def g(x):\n"
        "    return x._cache.setdefault('s', {})\n"
    )
    assert _cache_uses(tree) == [("f", 4), ("f", 5), ("g", 7)]


def test_at_least_thirty_facts_are_memoized():
    names = [
        name
        for path in SOURCES
        for name in _memo_decorated(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert len(names) >= 30, names


class Owner:
    def __init__(self):
        self._cache = {}
        self.calls = []

    @memo
    def square(self, x):
        """x squared, counted."""
        self.calls.append(x)
        return x * x


def test_memo_computes_once_per_owner_and_arguments():
    a, b = Owner(), Owner()
    assert [a.square(3), a.square(3), a.square(4), b.square(3)] == [9, 9, 16, 9]
    assert a.calls == [3, 4] and b.calls == [3]
    assert Owner.square.__doc__ == "x squared, counted."


def test_memo_caches_no_failure():
    class Failing(Owner):
        @memo
        def boom(self):
            self.calls.append("boom")
            raise ArithmeticError("boom")

    f = Failing()
    for _ in range(2):
        with pytest.raises(ArithmeticError):
            f.boom()
    assert f.calls == ["boom", "boom"]


def _count_calls(monkeypatch, *targets) -> list[str]:
    """The qualified name of every call to the (module, name) targets from now on."""
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(f"{module.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in targets:
        counted(module, name)
    return calls


ELIMINATIONS = ((cohomology, "reduce_columns"), (cohomology, "smith_invariants"))


def test_second_verification_recomputes_nothing(monkeypatch):
    scenarios = [builtin_scenario(name) for name in builtin_names()]
    first = [full_verification(s) for s in scenarios]
    calls = _count_calls(
        monkeypatch, *ELIMINATIONS,
        (characters, "minimal_polynomial"),
        (characters, "_build_character_table"),
        (cyclotomic, "_make"),
    )
    second = [full_verification(s) for s in scenarios]
    assert calls == []
    assert [s.passed for s in second] == [s.passed for s in first]
    assert all(a.theorem.lhs == b.theorem.lhs for a, b in zip(first, second))
    # a fresh build of the same scenarios has the same cells and group tables,
    # so it runs no elimination either: they are those of the first build
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    assert calls == []
    # the counters do see the work: once the intern is emptied, the
    # eliminations run and the tables are built again
    _INTERN.clear()
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    assert set(calls) == {
        "equilef.cohomology.reduce_columns",
        "equilef.cohomology.smith_invariants",
        "equilef.characters.minimal_polynomial",
        "equilef.characters._build_character_table",
        "equilef.cyclotomic._make",
    }


def test_a_pass_over_the_builtins_builds_one_cell_set_per_distinct_cells(monkeypatch):
    built, cells = [], []
    for cls, log in ((CochainComplex, built), (CellCochains, cells)):
        init = cls.__init__

        def logged(self, stratum, *args, init=init, log=log):
            init(self, stratum, *args)
            log.append(stratum.simplices)

        monkeypatch.setattr(cls, "__init__", logged)
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    # the 66 cochain complexes share one rank-one object per distinct cell set
    assert (len(built), len(set(built))) == (66, 23)
    assert len(cells) == len(set(cells)) and set(cells) == set(built)


def _logged(monkeypatch, cls, name) -> list:
    """(cells, *arguments) of every computation of the memoized method from now
    on: it is memoized afresh around a logging copy of the function."""
    log, compute = [], getattr(cls, name).__wrapped__

    def logged(owner, *args):
        log.append((owner.simplices, *args))
        return compute(owner, *args)

    monkeypatch.setattr(cls, name, memo(logged))
    return log


def test_a_pass_over_the_builtins_builds_one_cocycle_basis_per_cell_set_and_degree(monkeypatch):
    built = _logged(monkeypatch, CellCochains, "cocycles")
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    # one per degree of each of the 23 cell sets, where a basis per cochain
    # complex and degree made 157
    cell_sets = {cells for cells, _ in built}
    assert len(cell_sets) == 23
    assert len(built) == len(set(built)) == sum(map(len, cell_sets)) == 59


def test_twins_on_the_same_cells_compute_no_move_and_no_trace(monkeypatch):
    # the sign and regular lattices on triangle-s3's circle scale its
    # rank-one traces by their characters: every vertex map, cell set and
    # degree they act on was met by the trivial lattice
    moves = _logged(monkeypatch, CellCochains, "moves")
    traces = _logged(monkeypatch, CellCochains, "trace")
    assert full_verification(builtin_scenario("triangle-s3")).passed
    assert moves and traces
    moves.clear()
    traces.clear()
    for name in ("triangle-s3-sign", "triangle-s3-regular"):
        assert full_verification(builtin_scenario(name)).passed, name
    assert (moves, traces) == ([], [])


def test_a_sign_twin_runs_no_elimination(monkeypatch):
    # the same cells under another rank-one lattice: only the traces differ
    full_verification(builtin_scenario("torus-involution"))
    calls = _count_calls(monkeypatch, *ELIMINATIONS)
    assert full_verification(builtin_scenario("torus-involution-sign")).passed
    assert calls == []


# names of the calls that make an empty map
MAP_MAKERS = {"dict", "defaultdict", "OrderedDict", "Counter",
              "WeakKeyDictionary", "WeakValueDictionary"}

# (module, name) that may be bound to a map at module or class level: the intern
ALLOWED_MAPS = {("groups", "_INTERN")}


def _is_empty_map(node) -> bool:
    if isinstance(node, ast.Dict):
        return not node.keys
    if isinstance(node, ast.Call):
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        return name in MAP_MAKERS
    return False


def _module_maps(tree) -> list[str]:
    """Names bound to an empty map outside any function: at module level or
    in a class body, where a map outlives every call and keys by value."""
    found = []
    for top in tree.body:
        for node in top.body if isinstance(top, ast.ClassDef) else [top]:
            if isinstance(node, ast.Assign) and _is_empty_map(node.value):
                found += [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif (isinstance(node, ast.AnnAssign) and node.value is not None
                  and _is_empty_map(node.value) and isinstance(node.target, ast.Name)):
                found.append(node.target.id)
    return found


def test_the_intern_is_the_only_module_level_map():
    found = {
        (path.stem, name)
        for path in SOURCES
        for name in _module_maps(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == ALLOWED_MAPS


def test_the_map_guard_sees_every_binding():
    tree = ast.parse(
        "A = {}\n"
        "B: dict[int, int] = dict()\n"
        "C = collections.defaultdict(list)\n"
        "TABLE = {1: 2}\n"
        "class K:\n"
        "    cache = weakref.WeakValueDictionary()\n"
        "def f():\n"
        "    local = {}\n"
    )
    assert _module_maps(tree) == ["A", "B", "C", "cache"]


def _count_builds(monkeypatch) -> list[int]:
    """The order of every group whose character table is built from now on."""
    built = []
    build = characters._build_character_table

    def counted(g):
        built.append(g.order)
        return build(g)

    monkeypatch.setattr(characters, "_build_character_table", counted)
    return built


def test_a_pass_over_the_builtins_builds_one_table_per_distinct_group_table(monkeypatch):
    built = _count_builds(monkeypatch)
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    # C1, C2, C3, C2 x C2, C6 and S3, where a table per group object made 53
    assert sorted(built) == [1, 2, 3, 4, 6, 6]


def test_builtins_with_equal_group_tables_share_one_character_table(monkeypatch):
    built = _count_builds(monkeypatch)
    point, square = builtin_scenario("point-c2"), builtin_scenario("square-reflection")
    assert point.group is not square.group and point.group.mul == square.group.mul
    table = characters.character_table(point.group)
    assert characters.character_table(square.group) is table
    assert characters.rational_irreducibles(table) is characters.rational_irreducibles(
        characters.character_table(square.group))
    assert built == [2]


def _reachable(roots):
    """Every object reachable from roots, not entering modules, classes or functions."""
    seen, stack, out = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        out.append(obj)
        if isinstance(obj, (types.ModuleType, type, types.FunctionType,
                            types.BuiltinFunctionType)):
            continue
        stack.extend(gc.get_referents(obj))
    return out


def test_the_intern_keeps_no_scenario_data_alive():
    for name in builtin_names():
        full_verification(builtin_scenario(name))
    assert _INTERN
    kept = {type(obj).__name__ for obj in _reachable([_INTERN])}
    assert {"Group", "Subgroup", "CharacterTable", "CellCochains"} <= kept
    assert not kept & {cls.__name__ for cls in
                       (Scenario, SimplicialGComplex, Stratum, GLattice, CochainComplex)}
