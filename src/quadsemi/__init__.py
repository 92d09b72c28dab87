"""Irreducible compositions of quadratic maps x^2 + c over the integers.

The library certifies irreducibility of composition words through square-free
adjusted critical orbits, computes rational preperiodic portraits, classifies
exceptional pairs of maps, builds constructive irreducible prefixes, and
verifies the 48 underlying Diophantine case systems from their complete
solution sets, modular obstructions, and curve point enumeration.

Each public name loads its module the first time it is read (PEP 562
``__getattr__``), so ``import quadsemi`` runs no submodule and
``quadsemi.registry()`` loads only ``diophantine`` and the two modules it
imports, ``arith`` and ``portraits``.  ``_EXPORTS`` lists the names under
the module that defines them.  A resolved name is not stored in the
package's namespace: every read asks its module, so a name rebound there is
seen here too.  ``quadsemi.<module>`` loads that module in the same way.
"""

import sys as _sys

__version__ = "0.1.0"

_EXPORTS = {
    "arith": ("is_perfect_square",),
    "diophantine": (
        "LemmaEntry",
        "LemmaVerification",
        "ObstructionResult",
        "RegistryError",
        "SolutionFamily",
        "System",
        "modular_obstruction",
        "quartic_curve_points",
        "registry",
        "registry_checksum",
        "registry_path",
        "solve_system_complete",
        "verify_all",
        "verify_lemma",
    ),
    "dynamics": (
        "GeneratorSet",
        "OrbitAutomaton",
        "QuadraticMap",
        "SequenceSampler",
        "StabilityVerdict",
        "certified_counts",
        "compose_word",
        "join_certified_words",
        "monte_carlo_stability",
        "orbit_entries",
        "stability_certificate",
    ),
    "exceptional": (
        "ExceptionalPrefixReport",
        "ExceptionalVerdict",
        "PrefixRecipe",
        "SquareImageCertificate",
        "TheoremViolationError",
        "certify_no_square_images",
        "check_exceptional_prefix",
        "classify_from_systems",
        "closed_form_of",
        "construct_irreducible_prefix",
        "is_exceptional_pair",
        "scan_exceptional_pairs",
    ),
    "heights": (
        "HeightEstimate",
        "IterateBound",
        "canonical_height",
        "compute_iterate_bound",
        "integral_points_on_phi2",
        "min_positive_height",
        "naive_height",
    ),
    "oracle": (
        "CrossValidationReport",
        "cross_validate",
        "find_factor",
        "is_irreducible_exact",
    ),
    "portraits": (
        "Portrait",
        "SquareForm",
        "portrait",
        "preper_set",
        "rational_periodic_points",
        "recognize_square_periodic",
    ),
}

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def _load(module):
    # the import statement's machinery, not importlib.import_module, so that
    # `python3 -X importtime` lists the module and its own import time
    qualified = f"{__name__}.{module}"
    __import__(qualified)
    return _sys.modules[qualified]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(_load(module), name)
    if name in _EXPORTS:
        return _load(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
