import ast
import importlib
import pkgutil
from pathlib import Path

import splitoct

ROOT = Path(__file__).resolve().parents[1]

# exports that only the tests call, each with the reason it stays
TEST_ONLY_EXPORTS = {
    "group.automorphism_mask": "the vectorized check of the GF(2) enumeration",
    "octonion.q_form": "the bilinear form of acceptance criterion 5",
    "orbits.theta_curve": "the second path that checks orbits.limit",
    "words.te_norm": "the norm factor of the expansions test_words writes out by hand",
}


# names exported by two modules as different objects, each with the reason
DISTINCT_EXPORTS = {
    "rank": "linalg.rank(rows, field) and orbits.rank(tup) are different functions",
}


def _modules():
    names = ["splitoct"] + ["splitoct." + m.name
                            for m in pkgutil.iter_modules(splitoct.__path__)]
    return [importlib.import_module(name) for name in names]


def test_all_exports_resolve():
    for mod in _modules():
        for attr in getattr(mod, "__all__", ()):
            assert hasattr(mod, attr), (mod.__name__, attr)


def test_a_name_exported_twice_is_one_object():
    # a re-export such as invariants.Descriptor must be words.Descriptor
    owners = {}
    for mod in _modules():
        for attr in getattr(mod, "__all__", ()):
            owners.setdefault(attr, []).append(getattr(mod, attr))
    distinct = {attr for attr, objs in owners.items()
                if any(obj is not objs[0] for obj in objs)}
    assert distinct == set(DISTINCT_EXPORTS)


def test_the_package_reexports_nothing():
    # every name has one import path, its module
    tree = ast.parse((ROOT / "src" / "splitoct" / "__init__.py").read_text())
    assert not any(isinstance(node, (ast.Import, ast.ImportFrom))
                   for node in ast.walk(tree))


def _defined_names(stmt):
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, ast.Assign):
        return {t.id for t in stmt.targets if isinstance(t, ast.Name)}
    return set()


def _uses(path):
    """(identifier, top-level statement) for every name, attribute and
    string constant of a file, outside imports and __all__."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        if (isinstance(stmt, (ast.Import, ast.ImportFrom))
                or "__all__" in _defined_names(stmt)):
            continue
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                out.append((node.id, stmt))
            elif isinstance(node, ast.Attribute):
                out.append((node.attr, stmt))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.append((node.value, stmt))
    return out


def _used_elsewhere(name, path, uses):
    """Whether name is used in the files of uses outside the top-level
    statement of path that defines it."""
    return any(used == name
               and not (where == path and name in _defined_names(stmt))
               for where, found in uses.items()
               for used, stmt in found)


def test_every_export_is_used_by_the_library_or_the_benchmark():
    # a name in __all__ must be referenced in the package or the benchmark
    # outside its own definition
    src = sorted((ROOT / "src" / "splitoct").glob("*.py"))
    uses = {path: _uses(path)
            for path in src + sorted((ROOT / "bench").glob("*.py"))}
    unused = []
    for path in src:
        if path.stem == "__init__":
            continue
        for name in importlib.import_module("splitoct." + path.stem).__all__:
            if not _used_elsewhere(name, path, uses):
                unused.append("%s.%s" % (path.stem, name))
    assert sorted(unused) == sorted(TEST_ONLY_EXPORTS)


def test_every_function_is_referenced():
    # a function or method the package defines, dunders aside, must be
    # referenced in the package, the tests or the benchmark outside its
    # own definition
    src = sorted((ROOT / "src" / "splitoct").glob("*.py"))
    uses = {path: _uses(path)
            for path in src + sorted((ROOT / "tests").glob("*.py"))
            + sorted((ROOT / "bench").glob("*.py"))}
    unused = []
    for path in src:
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (node.name.startswith("__") and node.name.endswith("__"))
                    and not _used_elsewhere(node.name, path, uses)):
                unused.append("%s.%s" % (path.stem, node.name))
    assert unused == []
