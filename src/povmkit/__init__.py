"""povmkit: finite structure of continuous quantum measurements.

Test extremality of finite POVMs, decompose non-extremal ones into
convex combinations of extremal POVMs with at most d**2 outcomes,
realize the spin-direction and covariant phase measurements by exact
classical randomizations of finite measurements, sample both routes,
and post-process informationally complete statistics with dual outcome
functions.
"""

from .catalog import (
    coin_flip_povm,
    projective_basis_povm,
    random_density_matrix,
    random_povm,
    random_pure_state,
    sic_tetrahedron_povm,
)
from .errors import (
    DegeneratePerturbation,
    DimensionMismatch,
    EmptySample,
    InvalidDimension,
    InvalidPOVM,
    NonHermitianInput,
    NotInformationallyComplete,
    NumericalRankAmbiguity,
    PovmkitError,
    SchemaError,
    SpaceMismatch,
    SparseBins,
    TermBudgetExceeded,
    UnsupportedFamily,
)
from .extremality import (
    DecompositionResult,
    Perturbation,
    decompose_extremal,
    is_extremal,
    kernel_dimension,
    max_step,
    perturbation_space,
)
from .families import (
    CirclePhasePOVM,
    ContinuousPOVM,
    DesignScheme,
    EquivalenceReport,
    FiniteMixtureScheme,
    RandomizedScheme,
    SpinDirectionPOVM,
    named_family,
    phase_povm,
    phase_scheme,
    scheme_from_decomposition,
    spin_direction_povm,
    stern_gerlach_scheme,
    verify_scheme_equivalence,
)
from .merit import BayesGainSpec, MeritReport, bayes_gain, check_equal_optimality, merit_of_mixture
from .outcomes import CIRCLE, SPHERE, Cap, Circle, FiniteLabels, OutcomeSpace, Region, Sphere
from .povm import (
    FinitePOVM,
    ValidationReport,
    born_probabilities,
    probability_of_region,
    validate_povm,
)
from .sampling import (
    GofReport,
    OutcomeRecords,
    compare_samples,
    make_rng,
    sample_direct,
    sample_two_stage,
)
from .tomography import (
    DualProcessing,
    EstimateReport,
    dual_coefficients,
    estimate_expectation,
    is_informationally_complete,
    phase_dual,
    spin_dual,
)

__version__ = "0.1.0"
