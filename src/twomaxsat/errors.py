"""Exception types shared across the package."""


class TwoMaxSatError(Exception):
    """Base class for all package errors."""


class FormulaParseError(TwoMaxSatError):
    """Base class for CNF text parsing errors."""


class MalformedHeaderError(FormulaParseError):
    pass


class ClauseArityError(FormulaParseError):
    pass


class UnknownVariableError(FormulaParseError):
    pass


class EmptyFormulaError(FormulaParseError):
    pass


class PartialAssignmentError(TwoMaxSatError):
    """An assignment does not cover every variable it must."""


class UnknownVariableNameError(TwoMaxSatError):
    pass


class DuplicateNameError(TwoMaxSatError):
    pass


class IncompleteExplicitOrderError(TwoMaxSatError):
    pass


class UnmappedPositionError(TwoMaxSatError):
    """A span references a sequence position with no trie node (construction bug)."""


class TooManyVariablesError(TwoMaxSatError):
    pass


class ExpectationFailedError(TwoMaxSatError):
    """A builtin counterexample stopped reproducing its recorded numbers."""


class InternalError(RuntimeError):
    """A proved invariant of the pipeline failed: a bug, not a bad input."""
