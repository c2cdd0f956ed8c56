"""Exception types shared across the package."""


class PovmkitError(Exception):
    """Base class for all povmkit errors."""


class NonHermitianInput(PovmkitError):
    """A matrix that must be Hermitian violates symmetry beyond tolerance."""


class InvalidDimension(PovmkitError):
    """Hilbert-space dimension outside the supported range."""


class InvalidPOVM(PovmkitError):
    """Input that should be a POVM fails the POVM axioms."""


class DimensionMismatch(PovmkitError):
    """Operators or states with inconsistent dimensions."""


class SpaceMismatch(PovmkitError):
    """Outcome spaces of two objects do not agree."""


class DegeneratePerturbation(PovmkitError):
    """A decomposition walk step along a direction that no element bounds:
    unbounded, so the direction is not a POVM perturbation."""


class NumericalRankAmbiguity(PovmkitError):
    """A rank/support decision fell inside the singular-value gap band."""


class TermBudgetExceeded(PovmkitError):
    """Decomposition needs more terms than allowed.

    Carries the ``(weight, povm, is_leaf)`` triples gathered before the
    budget ran out, for diagnostics: the extremal terms found so far
    (``is_leaf`` true) and the remaining, not yet decomposed face
    (``is_leaf`` false).  Their weights sum to one.
    """

    def __init__(self, message, partial_terms=None):
        super().__init__(message)
        self.partial_terms = partial_terms or []


class SparseBins(PovmkitError):
    """A goodness-of-fit bin has expected count below the validity floor."""


class NotInformationallyComplete(PovmkitError):
    """POVM elements do not span the operator space."""


class EmptySample(PovmkitError):
    """An estimator was fed zero records."""


class SchemaError(PovmkitError):
    """Malformed or inconsistent JSON input."""
