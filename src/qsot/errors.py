"""Exception hierarchy.

Every error raised on a user-visible code path derives from :class:`QsotError`
so the CLI can map failures onto its exit codes (validation vs. numerical vs.
internal) without string matching.
"""


class QsotError(Exception):
    """Base class for all library errors."""


class ShapeMismatchError(QsotError):
    """Operands live on incompatible algebra shapes."""


class NotHermitianError(QsotError):
    """An operation requiring a hermitian input received a non-hermitian one."""


class NotAStateError(QsotError):
    """An element fails the density-matrix requirements (PSD, unit trace)."""


class FaithfulnessError(QsotError):
    """Strict mode encountered an eigenvalue below the faithfulness tolerance."""


class SingularityError(QsotError):
    """A required inverse / denominator is numerically singular."""


class UnsupportedFamilyError(QsotError):
    """The requested operation is not defined for this family."""


class ExtensionError(QsotError):
    """A family that is not linear in the state was asked to evaluate a
    second argument outside the density matrices."""


class InapplicableError(QsotError):
    """A certification property does not apply to the given family; the
    caller should record an 'inapplicable' verdict rather than a failure."""


class ConstraintError(QsotError):
    """A constructor constraint (POVM completeness, stochastic columns,
    instrument trace condition, ...) is violated beyond tolerance."""


class ParseError(QsotError):
    """A document could not be parsed (malformed JSON or wrong schema)."""


class ValidationError(QsotError):
    """A parsed document is structurally valid but semantically unusable
    (shape mismatch, wrong kind, bad parameters)."""
