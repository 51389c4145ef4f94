"""Exception types shared across the package."""

__all__ = [
    "RelaqmError",
    "DimensionMismatch",
    "NotAPartition",
    "ZeroBranch",
    "PreconditionViolated",
    "InvalidDimension",
    "TooLarge",
    "IndexOutOfRange",
    "FamilyMismatch",
    "NotDoublyStochastic",
    "NotHermitian",
    "ParseError",
    "ValidationError",
    "NormalizationError",
    "DescriptionUnavailable",
]


class RelaqmError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(RelaqmError):
    """Operands live on Hilbert spaces of incompatible dimension."""


class NotAPartition(RelaqmError):
    """Projector list is not pairwise orthogonal or does not sum to the identity."""


class ZeroBranch(RelaqmError):
    """Conditioning on a branch with (numerically) zero weight."""


class PreconditionViolated(RelaqmError):
    """An operation was called outside its stated precondition."""


class IndexOutOfRange(RelaqmError):
    """Outcome index not valid for the kernel or family at hand."""


class FamilyMismatch(RelaqmError):
    """Kernel composition with no shared middle family."""


class NotDoublyStochastic(RelaqmError):
    """Matrix fails the doubly stochastic constraints at the required tolerance."""


class NotHermitian(RelaqmError):
    """A Hamiltonian (or other operator required to be self-adjoint) is not."""


class ParseError(RelaqmError):
    """Scenario document is syntactically malformed."""


class ValidationError(RelaqmError):
    """Scenario document violates a structural rule.

    ``rule`` is a short machine-readable name for the violated rule, e.g.
    ``"SelfMeasurement"`` for an observer told to measure itself.
    """

    def __init__(self, rule: str, message: str):
        super().__init__(f"{rule}: {message}")
        self.rule = rule


class NormalizationError(ValidationError):
    """Declared amplitudes are not a unit vector."""

    def __init__(self, message: str):
        super().__init__("Normalization", message)


class InvalidDimension(ValidationError):
    """Hilbert-space dimension outside the supported range."""

    def __init__(self, message: str):
        super().__init__("InvalidDimension", message)


class TooLarge(ValidationError):
    """An input that would hold more than the package allows: amplitudes past
    the 2**26 budget, a premeasurement past its dimension, or a Boolean
    algebra past its enumeration limit."""

    def __init__(self, message: str):
        super().__init__("TooLarge", message)


class DescriptionUnavailable(RelaqmError):
    """No state assignment exists relative to the requested observer."""
