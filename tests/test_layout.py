"""The package's layout: the CLI uses public names, no code sits unused, every
export names a definition of its module, no module imports `dataclasses` or,
when it loads, `hashlib`, and the oracle shares nothing with the orbit
automaton but its printed list.

The checks read the source with `ast` and import nothing.  Slow references
that only the tests call live in `tests/`, not in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadsemi"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _is_private(name):
    return name.startswith("_") and not _is_dunder(name)


def _names_used(node):
    """Every name that `node` reads, as a bare name, an attribute or an import."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name)
    return used


def _exports():
    """`__init__.py`'s `_EXPORTS` table: module name -> the names it exports."""
    for stmt in _parse(PACKAGE / "__init__.py").body:
        if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in stmt.targets):
            return ast.literal_eval(stmt.value)
    raise AssertionError("__init__.py has no _EXPORTS table")


def _top_level_names(tree):
    """Every name that a module's top-level statements define or import."""
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in stmt.names}
    return names


def test_cli_imports_no_private_name_from_the_package():
    private = []
    for node in ast.walk(_parse(PACKAGE / "cli.py")):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "quadsemi":
                private += [(node.module, a.name) for a in node.names if _is_private(a.name)]
    assert private == []


def test_every_top_level_definition_is_used_in_the_package():
    # a definition counts as used when a top-level statement other than its
    # own, in any module of the package, reads its name, or when
    # __init__.py's _EXPORTS table exports it from its module; a dunder
    # (the package's __getattr__ and __dir__) is a hook the interpreter calls
    statements = [(path.stem, stmt) for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in _parse(path).body]
    used_by = [(stmt, _names_used(stmt)) for _, stmt in statements]
    exported = {(module, name) for module, names in _exports().items() for name in names}
    unused = []
    for module, stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if (module, stmt.name) in exported or _is_dunder(stmt.name):
                continue
            if not any(stmt.name in names for other, names in used_by if other is not stmt):
                unused.append(f"{module}.{stmt.name}")
    assert unused == []


def test_every_export_names_a_top_level_definition_of_its_module():
    # the table is read without importing anything, so a misspelt or moved
    # name shows here rather than as an AttributeError on first use
    missing = []
    for module, names in _exports().items():
        path = PACKAGE / f"{module}.py"
        defined = _top_level_names(_parse(path)) if path.is_file() else set()
        missing += [f"{module}.{name}" for name in names if name not in defined]
    assert missing == []


def _imports(node, in_function=False):
    """(root module, inside a function?) for every absolute import under `node`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Import):
            yield from ((a.name.split(".")[0], in_function) for a in child.names)
        elif isinstance(child, ast.ImportFrom) and not child.level:
            yield child.module.split(".")[0], in_function
        else:
            inner = in_function or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            yield from _imports(child, inner)


def test_no_module_imports_dataclasses_or_hashlib_on_load():
    # the records are NamedTuples (GeneratorSet a __slots__ class), and the
    # registry's digest uses the interpreter's own SHA-256: hashlib, and with
    # it OpenSSL, is imported only inside a function, for a build without one
    heavy = []
    for path in sorted(PACKAGE.glob("*.py")):
        for root, in_function in _imports(_parse(path)):
            if root == "dataclasses" or (root == "hashlib" and not in_function):
                heavy.append(f"{path.stem}: {root}")
    assert heavy == []


def test_oracle_reads_only_the_public_lists_of_dynamics():
    # the oracle composes words and reads the certified list that
    # `scan-words` prints; it reaches no automaton internals
    imported, whole = set(), []
    for node in ast.walk(_parse(PACKAGE / "oracle.py")):
        if isinstance(node, ast.ImportFrom):
            module = ("." * node.level) + (node.module or "")
            if module in (".dynamics", "quadsemi.dynamics"):
                imported |= {a.name for a in node.names}
            elif module in (".", "quadsemi"):
                whole += [a.name for a in node.names if a.name == "dynamics"]
        elif isinstance(node, ast.Import):
            whole += [a.name for a in node.names if a.name == "quadsemi.dynamics"]
    assert imported == {"GeneratorSet", "compose_word", "join_certified_words"}
    assert whole == []
