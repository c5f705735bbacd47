"""Every exported name resolves, and so does every name the layer tracer of
``perfbench/`` rebinds, so a deleted or renamed function cannot silently
break a traced benchmark run.  The tracer is read as source, not imported.
No module of the package imports a name it does not use, and every private
module-level function or class is used somewhere outside its definition.
No table writes an element's cached order or inverse: only an element's own
methods assign ``_ord`` and ``_inv``, and only on ``self``.
No module names a per-element key dict (`_index`, `_hold`) or reads a
table's `keys`: tables find elements by their rows.  No module but
``groups.py`` looks an element object up (``index_of``, ``canon``), apart
from the test-facing object helper ``actions.mixed_commutator``.
The package calls none of numpy's sorting set routines (``np.unique`` and
the ``*1d`` set operations built on it): on numpy 2.4.6 the first such call
imports ``numpy.ma``, which costs about 18 ms and 1 MB of peak memory in
every process that makes it, for work a mask or ``searchsorted`` does.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pcentral

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _modules():
    yield pcentral
    for info in pkgutil.iter_modules(pcentral.__path__):
        yield importlib.import_module(f"pcentral.{info.name}")


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_all_names_resolve(module):
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{module.__name__}.__all__ names missing attributes {missing}"


@pytest.fixture(scope="module")
def tracer_tree():
    if not TRACER.exists():
        pytest.skip("perfbench/tracer.py is not present")
    return ast.parse(TRACER.read_text())


def _assigned(tree, name):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == name:
            return node.value
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name
                                                for t in node.targets):
            return node.value
    raise AssertionError(f"tracer.py no longer assigns {name}")


def test_spanned_functions_resolve(tracer_tree):
    spanned = ast.literal_eval(_assigned(tracer_tree, "SPANNED"))
    for layer, names in spanned.items():
        mod = importlib.import_module(f"pcentral.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                assert isinstance(vars(getattr(mod, cls_name)).get(meth), classmethod), name
            else:
                assert callable(getattr(mod, name, None)), f"pcentral.{layer}.{name}"


def test_leaf_methods_resolve(tracer_tree):
    from pcentral import elements

    for key in _assigned(tracer_tree, "LEAVES").keys:
        cls_name, meth = ast.literal_eval(key).split(".")
        assert meth in vars(getattr(elements, cls_name)), key.value


def test_check_registries_resolve(tracer_tree):
    from pcentral import checks

    read = {node.attr for node in ast.walk(tracer_tree)
            if isinstance(node, ast.Attribute)
            and getattr(node.value, "id", None) == "checks"}
    imported = {alias.name for node in ast.walk(tracer_tree)
                if isinstance(node, ast.ImportFrom) and node.module == "pcentral.checks"
                for alias in node.names}
    registries = {n for n in read if n.endswith("_CHECKS")}
    assert len(registries) == 5 and "ALL_CHECK_NAMES" in imported
    names = set()
    for n in registries:
        registry = getattr(checks, n)
        assert isinstance(registry, dict) and all(map(callable, registry.values())), n
        names |= set(registry)
    assert names == set(checks.ALL_CHECK_NAMES)
    # a registry the tracer does not read would drop out of traced runs
    tabled = {id(kind.registry) for kind in checks.CHECK_KINDS}
    assert tabled == {id(getattr(checks, n)) for n in registries}
    assert len(checks.CHECK_KINDS) == 5


# the package's __init__ re-exports what it imports
MODULES = sorted(p for p in (ROOT / "src" / "pcentral").glob("*.py")
                 if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = ast.literal_eval(_assigned(tree, "__all__")) if "__all__" in used else ()
    unused = sorted(set(imported) - used - set(exported))
    assert not unused, f"{path.name} imports unused names {unused}"


def _uses(tree):
    """(name, line) of each name, attribute, imported name or string."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value, node.lineno


@pytest.fixture(scope="module")
def name_uses():
    uses = {}
    for path in [*(ROOT / "src" / "pcentral").glob("*.py"),
                 *(ROOT / "tests").glob("*.py")]:
        for name, line in _uses(ast.parse(path.read_text())):
            uses.setdefault(name, set()).add((path, line))
    return uses


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "pcentral").glob("*.py")),
                         ids=lambda p: p.name)
def test_private_definitions_are_used(path, name_uses):
    unused = []
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and node.name.startswith("_")):
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(p != path or line not in inside
                       for p, line in name_uses.get(node.name, ())):
                unused.append(node.name)
    assert not unused, f"{path.name} defines unused private names {unused}"


SET_ROUTINES = ("unique", "setdiff1d", "union1d", "intersect1d")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_numpy_set_routines(path):
    calls = [(node.func.attr, node.lineno) for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in SET_ROUTINES
             and getattr(node.func.value, "id", None) in ("np", "numpy")]
    assert not calls, f"{path.name} calls numpy set routines {calls}"


ELEMENT_CACHES = ("_ord", "_inv")


def _assigned_attributes(tree):
    """(attribute node, line) of every attribute an assignment writes,
    unpacking tuple and list targets."""
    for node in ast.walk(tree):
        targets = (list(node.targets) if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
                   else [])
        while targets:
            target = targets.pop()
            if isinstance(target, (ast.Tuple, ast.List)):
                targets += target.elts
            elif isinstance(target, ast.Starred):
                targets.append(target.value)
            elif isinstance(target, ast.Attribute):
                yield target, node.lineno


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_element_caches_are_written_only_by_their_element(path):
    writes = [(attr.attr, line) for attr, line in _assigned_attributes(ast.parse(path.read_text()))
              if attr.attr in ELEMENT_CACHES and getattr(attr.value, "id", None) != "self"]
    assert not writes, f"{path.name} writes element caches of other objects {writes}"


PER_ELEMENT_NAMES = ("_index", "_hold")


def _reads_of_keys(tree):
    """Lines that read an attribute `keys` other than to call it."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr == "keys"
            and isinstance(node.ctx, ast.Load) and id(node) not in called]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_tables_keep_no_per_element_lookup(path):
    tree = ast.parse(path.read_text())
    named = [(name, line) for name, line in _uses(tree) if name in PER_ELEMENT_NAMES]
    named += [(node.name, node.lineno) for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name in PER_ELEMENT_NAMES]
    assert not named, f"{path.name} names a per-element key lookup {named}"
    reads = _reads_of_keys(tree)
    assert not reads, f"{path.name} reads a table's keys at lines {reads}"


LOOKUPS = ("index_of", "canon")
# (module, top-level function) that may look an element object up
LOOKUPS_ALLOWED = {("actions.py", "mixed_commutator")}


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "groups.py"],
                         ids=lambda p: p.name)
def test_only_the_group_core_looks_elements_up(path):
    calls = [(getattr(top, "name", None), node.lineno)
             for top in ast.parse(path.read_text()).body for node in ast.walk(top)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr in LOOKUPS and (path.name, getattr(top, "name", None))
             not in LOOKUPS_ALLOWED]
    assert not calls, f"{path.name} looks element objects up in {calls}"
