"""Exception hierarchy for the interference-channel bound toolkit.

Every failure mode that callers are expected to branch on gets its own
class.  ``ValidationError`` covers malformed inputs, ``ComputationError``
covers conditions detected while computing (singular covariances,
internal cross-checks), and ``TooLarge`` marks requests past the
enumeration or subset-explosion caps.
"""

from __future__ import annotations


class IfcError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(IfcError):
    """An input failed a structural or numerical precondition."""


class NonSquare(ValidationError):
    pass


class NonPositiveDiagonal(ValidationError):
    pass


class NonFinite(ValidationError):
    pass


class NotHermitian(ValidationError):
    pass


class NotUnitDiagonal(ValidationError):
    pass


class NotPSD(ValidationError):
    pass


class IndexOutOfRange(ValidationError):
    pass


class RhoTooLarge(ValidationError):
    pass


class LabelOverlap(ValidationError):
    pass


class ConditionViolated(ValidationError):
    """A constructor's admissibility condition failed in strict mode."""


class NonStandardDiagonal(ValidationError):
    """A constructed channel would not have a real, positive diagonal."""


class NotSorted(ValidationError):
    """Receiver gains must be supplied in ascending magnitude order."""


class BetaInvalid(ValidationError):
    """Power-split weights must be nonnegative and sum to one."""


class SchemaError(ValidationError):
    """A JSON document failed schema validation.

    ``pointer`` holds a JSON-pointer to the offending location.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


class TooLarge(IfcError):
    """The request exceeds an enumeration or subset cap."""


class ComputationError(IfcError):
    """A numerical condition was detected while computing."""


class SingularCovariance(ComputationError):
    """A conditional covariance needed at full rank is singular."""


class WitnessFailure(ComputationError):
    """A construction failed its post-hoc degradedness check."""


class InternalConsistencyError(ComputationError):
    """Two redundant computations of the same quantity disagree."""


class BudgetExhaustedWarning(UserWarning):
    """Restarted searches disagreed more than expected; result kept.

    No search in the package emits it: every bound term is solved in closed
    form or by a convex local solve.  It stays importable for callers that
    filter it.
    """
