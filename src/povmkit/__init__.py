"""povmkit: finite structure of continuous quantum measurements.

Test extremality of finite POVMs, decompose non-extremal ones into
convex combinations of extremal POVMs with at most d**2 outcomes,
realize the spin-direction and covariant phase measurements by exact
classical randomizations of finite measurements, sample both routes,
and post-process informationally complete statistics with dual outcome
functions.

``import povmkit`` loads no submodule: each exported name is imported
from its module on first use (PEP 562), so a caller pays only for the
modules it touches.
"""

import importlib

_EXPORTS = {
    "catalog": (
        "coin_flip_povm",
        "projective_basis_povm",
        "random_density_matrix",
        "random_povm",
        "random_pure_state",
        "sic_tetrahedron_povm",
    ),
    "errors": (
        "DegeneratePerturbation",
        "DimensionMismatch",
        "EmptySample",
        "InvalidDimension",
        "InvalidPOVM",
        "NonHermitianInput",
        "NotInformationallyComplete",
        "NumericalRankAmbiguity",
        "PovmkitError",
        "SchemaError",
        "SpaceMismatch",
        "SparseBins",
        "TermBudgetExceeded",
    ),
    "extremality": (
        "DecompositionResult",
        "Perturbation",
        "decompose_extremal",
        "is_extremal",
        "kernel_dimension",
        "perturbation_space",
    ),
    "families": (
        "CirclePhasePOVM",
        "ContinuousPOVM",
        "DesignScheme",
        "EquivalenceReport",
        "FiniteMixtureScheme",
        "RandomizedScheme",
        "SpinDirectionPOVM",
        "named_family",
        "phase_povm",
        "phase_scheme",
        "scheme_from_decomposition",
        "spin_direction_povm",
        "stern_gerlach_scheme",
        "verify_scheme_equivalence",
    ),
    "merit": ("BayesGainSpec", "MeritReport", "bayes_gain", "check_equal_optimality"),
    "outcomes": ("CIRCLE", "SPHERE", "Cap", "Circle", "FiniteLabels", "OutcomeSpace", "Region",
                 "Sphere"),
    "povm": (
        "FinitePOVM",
        "ValidationReport",
        "born_probabilities",
        "probability_of_region",
        "validate_povm",
    ),
    "sampling": (
        "GofReport",
        "OutcomeRecords",
        "compare_samples",
        "make_rng",
        "sample_direct",
        "sample_two_stage",
    ),
    "tomography": (
        "DualProcessing",
        "EstimateReport",
        "dual_coefficients",
        "estimate_expectation",
        "is_informationally_complete",
        "phase_dual",
        "spin_dual",
    ),
}

_SUBMODULES = frozenset({*_EXPORTS, "cli", "operators", "quadrature", "serialize"})
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
