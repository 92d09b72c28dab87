"""The package's namespace: each public name loads its module on first use.

`import quadsemi` runs no submodule, and `quadsemi.registry()` loads only
the modules the registry needs, while every public name still resolves to
the object its module defines.  Neither the registry nor any CLI command
loads `dataclasses` or `hashlib` (and with it OpenSSL), nor `inspect` where
the standard library itself does not.  The load checks run in a fresh
interpreter, since this one has imported the whole package already.
"""

import functools
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quadsemi
from test_cli import VALID_ARGV

EXPORTS = {
    "CrossValidationReport", "ExceptionalPrefixReport", "ExceptionalVerdict",
    "GeneratorSet", "HeightEstimate", "IterateBound", "LemmaEntry",
    "LemmaVerification", "ObstructionResult", "OrbitAutomaton", "Portrait",
    "PrefixRecipe", "QuadraticMap", "RegistryError", "SequenceSampler",
    "SolutionFamily", "SquareForm", "SquareImageCertificate", "StabilityVerdict",
    "System", "TheoremViolationError", "canonical_height", "certified_counts",
    "certify_no_square_images", "check_exceptional_prefix", "classify_from_systems",
    "closed_form_of", "compose_word", "compute_iterate_bound",
    "construct_irreducible_prefix", "cross_validate", "find_factor",
    "integral_points_on_phi2", "is_exceptional_pair", "is_irreducible_exact",
    "is_perfect_square", "join_certified_words", "min_positive_height",
    "modular_obstruction", "monte_carlo_stability", "naive_height",
    "orbit_entries", "portrait", "preper_set", "quartic_curve_points",
    "rational_periodic_points", "recognize_square_periodic", "registry",
    "registry_checksum", "registry_path", "scan_exceptional_pairs",
    "solve_system_complete", "stability_certificate", "verify_all", "verify_lemma",
}

MODULES = ("arith", "diophantine", "dynamics", "exceptional", "heights", "oracle", "portraits")


def _fresh(code):
    """Run `code` in a new interpreter that imports this checkout's package."""
    src = str(Path(quadsemi.__file__).resolve().parent.parent)
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": pythonpath}, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


LOADED = "print(*sorted(m for m in sys.modules if m.startswith('quadsemi.')))"


def test_bare_import_loads_no_submodule():
    assert _fresh(f"import sys, quadsemi\n{LOADED}") == []


def test_registry_loads_only_its_own_modules():
    loaded = _fresh(f"import sys, quadsemi\nquadsemi.registry()\n{LOADED}")
    assert loaded == ["quadsemi.arith", "quadsemi.diophantine", "quadsemi.portraits"]


# modules the package must not add to an interpreter: `dataclasses` and
# `inspect` cost import time, and `hashlib` loads OpenSSL through `_hashlib`
HEAVY = ("dataclasses", "hashlib", "_hashlib", "inspect")
PRINT_HEAVY = f"print(','.join(sorted(set({HEAVY!r}) & set(sys.modules))) or '-')"


@functools.cache
def bare_heavy():
    """HEAVY's modules that a bare interpreter holds once it imports what the
    registry imports from the standard library: `importlib.resources` loads
    `inspect` on Python 3.12 and later."""
    (loaded,) = _fresh(f"import sys, importlib.resources, json\n{PRINT_HEAVY}")
    return loaded


def test_registry_loads_neither_dataclasses_nor_hashlib():
    # the registry's records are NamedTuples, and its digest, taken on the
    # first request, uses the interpreter's own SHA-256 and matches the
    # file's checksum
    code = ("import sys, quadsemi\n"
            "quadsemi.registry()\n"
            f"{PRINT_HEAVY}\n"
            "sha256 = quadsemi.diophantine.registry_provenance()['sha256']\n"
            "print(sha256 == quadsemi.registry_checksum())\n"
            f"{PRINT_HEAVY}")
    assert _fresh(code) == [bare_heavy(), "True", bare_heavy()]


def test_cli_calls_load_neither_dataclasses_nor_hashlib():
    # one in-process call of every subcommand, as a process serving many
    # calls makes them; verify-lemma's report carries the registry's digest
    code = ("import contextlib, io, sys\n"
            "from quadsemi.cli import main\n"
            f"for command, argv in {VALID_ARGV!r}.items():\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert main([command, *argv, '--json']) == 0, command\n"
            f"{PRINT_HEAVY}")
    assert _fresh(code) == [bare_heavy()]


def test_digest_falls_back_to_hashlib_without_the_built_in_hashes():
    # a build may omit _sha2 (_sha256 before Python 3.12): hashlib then
    # takes the digest, still loaded only when the digest is first asked for
    code = ("import pathlib, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import quadsemi\n"
            "quadsemi.registry()\n"
            "print('hashlib' in sys.modules)\n"
            "sha256 = quadsemi.diophantine.registry_provenance()['sha256']\n"
            "print('hashlib' in sys.modules)\n"
            "import hashlib\n"
            "data = pathlib.Path(quadsemi.registry_path()).read_bytes()\n"
            "print(sha256 == hashlib.sha256(data).hexdigest())")
    assert _fresh(code) == ["False", "True", "True"]


def test_submodule_attribute_loads_it_after_a_bare_import():
    code = ("import sys, quadsemi\n"
            "print(quadsemi.dynamics is sys.modules['quadsemi.dynamics'])\n"
            f"{LOADED}")
    assert _fresh(code) == ["True", "quadsemi.arith", "quadsemi.dynamics"]


def test_exports_are_the_pinned_names_and_their_modules_objects():
    assert sorted(quadsemi.__all__) == sorted(EXPORTS)
    for name in EXPORTS:
        obj = getattr(quadsemi, name)
        module = sys.modules[obj.__module__]
        assert module.__name__ in {f"quadsemi.{m}" for m in MODULES}, name
        assert getattr(module, name) is obj, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from quadsemi import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == EXPORTS
    assert EXPORTS <= set(dir(quadsemi))
    assert "__version__" in dir(quadsemi)


def test_unknown_name_raises_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        quadsemi.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from quadsemi import no_such_name", {})


def test_dir_and_getattr_walk_leaves_the_namespace_keys_unchanged():
    # a resolved name is not cached in the package, so a walk over dir()
    # (as a tracer that wraps every public function makes) adds no binding
    importlib.import_module("quadsemi.cli")
    before = set(vars(quadsemi))
    for name in dir(quadsemi):
        getattr(quadsemi, name)
    assert set(vars(quadsemi)) == before
    assert not EXPORTS & before
