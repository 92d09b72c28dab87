"""Irreducible compositions of quadratic maps x^2 + c over the integers.

The library certifies irreducibility of composition words through square-free
adjusted critical orbits, computes rational preperiodic portraits, classifies
exceptional pairs of maps, builds constructive irreducible prefixes, and
verifies the 48 underlying Diophantine case systems from their complete
solution sets, modular obstructions, and curve point enumeration.
"""

__version__ = "0.1.0"

from .arith import is_perfect_square
from .diophantine import (
    LemmaEntry,
    LemmaVerification,
    ObstructionResult,
    RegistryError,
    SolutionFamily,
    System,
    modular_obstruction,
    quartic_curve_points,
    registry,
    registry_checksum,
    registry_path,
    solve_system_complete,
    verify_all,
    verify_lemma,
)
from .dynamics import (
    GeneratorSet,
    OrbitAutomaton,
    QuadraticMap,
    SequenceSampler,
    StabilityVerdict,
    certified_counts,
    compose_word,
    join_certified_words,
    monte_carlo_stability,
    orbit_entries,
    stability_certificate,
)
from .exceptional import (
    ExceptionalPrefixReport,
    ExceptionalVerdict,
    PrefixRecipe,
    SquareImageCertificate,
    TheoremViolationError,
    certify_no_square_images,
    check_exceptional_prefix,
    classify_from_systems,
    closed_form_of,
    construct_irreducible_prefix,
    is_exceptional_pair,
    scan_exceptional_pairs,
)
from .heights import (
    HeightEstimate,
    IterateBound,
    canonical_height,
    compute_iterate_bound,
    integral_points_on_phi2,
    min_positive_height,
    naive_height,
)
from .oracle import (
    CrossValidationReport,
    cross_validate,
    find_factor,
    is_irreducible_exact,
)
from .portraits import (
    Portrait,
    SquareForm,
    portrait,
    preper_set,
    rational_periodic_points,
    recognize_square_periodic,
)
