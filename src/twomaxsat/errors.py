"""Exception types shared across the package.

One class per way a caller reacts, not per fault: the message names the
fault.  The CLI prints a ``FormulaParseError`` as ``parse error: ...`` and
any other ``TwoMaxSatError`` (a bad ordering or assignment, or a builtin
name ``repro`` cannot resolve, raised as ``TwoMaxSatError`` itself) as
``error: ...``, both with exit code 2; a ``TooManyVariablesError`` is a
resource cap and exits 3.  ``InternalError`` is not an input error at all:
it marks a bug, and the CLI lets its traceback through.  Library calls
whose arguments do not fit together, such as ``overlay_spans`` given a node
map that misses a conjunction, raise ``ValueError``.
"""


class TwoMaxSatError(Exception):
    """Base class for all package errors."""


class FormulaParseError(TwoMaxSatError):
    """CNF text or literal pairs that do not form a formula."""


class OrderingError(TwoMaxSatError):
    """An ordering that is not a permutation of the variable table."""


class PartialAssignmentError(TwoMaxSatError):
    """An assignment does not cover every variable it must."""


class TooManyVariablesError(TwoMaxSatError):
    pass


class ExpectationFailedError(TwoMaxSatError):
    """A builtin counterexample stopped reproducing its recorded numbers."""


class InternalError(RuntimeError):
    """A proved invariant of the pipeline failed: a bug, not a bad input."""
