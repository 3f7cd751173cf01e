"""Exception hierarchy and the CLI's exit codes.

Every error raised on a user-visible code path derives from :class:`QsotError`
and carries the exit code the CLI returns for it and the label of its stderr
line: validation, parse or numerical failure, with the internal-error code
for any other.
"""

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_PARSE = 3
EXIT_NUMERICAL = 4
EXIT_INTERNAL = 5

# (exit code, stderr label) of the failure kinds
_VALIDATION = (EXIT_VALIDATION, "validation error")
_NUMERICAL = (EXIT_NUMERICAL, "numerical error")


class QsotError(Exception):
    """Base class for all library errors."""
    exit_code, label = EXIT_INTERNAL, "error"


class ShapeMismatchError(QsotError):
    """Operands live on incompatible algebra shapes."""
    exit_code, label = _VALIDATION


class NotHermitianError(QsotError):
    """An operation requiring a hermitian input received a non-hermitian one."""
    exit_code, label = _VALIDATION


class NotAStateError(QsotError):
    """An element fails the density-matrix requirements (PSD, unit trace)."""
    exit_code, label = _VALIDATION


class FaithfulnessError(QsotError):
    """Strict mode encountered an eigenvalue below the faithfulness tolerance."""
    exit_code, label = _NUMERICAL


class SingularityError(QsotError):
    """A required inverse / denominator is numerically singular."""
    exit_code, label = _NUMERICAL


class UnsupportedFamilyError(QsotError):
    """The requested operation is not defined for this family."""
    exit_code, label = _VALIDATION


class ExtensionError(QsotError):
    """A family that is not linear in the state was asked to evaluate a
    second argument outside the density matrices."""
    exit_code, label = _VALIDATION


class InapplicableError(QsotError):
    """A certification property does not apply to the given family; the
    caller should record an 'inapplicable' verdict rather than a failure."""
    exit_code, label = _VALIDATION


class ConstraintError(QsotError):
    """A constructor constraint (POVM completeness, stochastic columns,
    instrument trace condition, ...) is violated beyond tolerance."""
    exit_code, label = _VALIDATION


class ParseError(QsotError):
    """A document could not be parsed (malformed JSON or wrong schema)."""
    exit_code, label = EXIT_PARSE, "parse error"


class ValidationError(QsotError):
    """A parsed document is structurally valid but semantically unusable
    (shape mismatch, wrong kind, bad parameters)."""
    exit_code, label = _VALIDATION
