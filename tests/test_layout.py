"""The package's layout: the CLI uses public names, no code sits unused, and
the oracle shares nothing with the orbit automaton but its printed list.

The checks read the source with `ast` and import nothing.  Slow references
that only the tests call live in `tests/`, not in the package.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "quadsemi"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


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


def test_cli_imports_no_private_name_from_the_package():
    private = []
    for node in ast.walk(_parse(PACKAGE / "cli.py")):
        if isinstance(node, ast.ImportFrom):
            if node.level or node.module.split(".")[0] == "quadsemi":
                private += [(node.module, a.name) for a in node.names if _is_private(a.name)]
    assert private == []


def test_every_top_level_definition_is_used_in_the_package():
    # a definition counts as used when a top-level statement other than its
    # own, in any module of the package, reads its name; __init__.py's
    # imports are its exports
    statements = [(path.stem, stmt) for path in sorted(PACKAGE.glob("*.py"))
                  for stmt in _parse(path).body]
    used_by = [(stmt, _names_used(stmt)) for _, stmt in statements]
    unused = []
    for module, stmt in statements:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not any(stmt.name in names for other, names in used_by if other is not stmt):
                unused.append(f"{module}.{stmt.name}")
    assert unused == []


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
