"""Exception hierarchy shared across the toolkit: one class per CLI exit
code, so the CLI needs one handler per code.

Builder errors carry enough context to be reported by the CLI without
re-deriving anything; search budget exhaustion is deliberately distinct
from nonexistence.
"""


class CirculantColoringError(Exception):
    """Base class for all toolkit errors (exit 1), e.g. a missing
    fixture."""


class PreconditionFailed(CirculantColoringError):
    """An input violates a documented requirement (exit 2): a malformed
    generator set, an out-of-range parameter, an instance too large for
    the oracle, an unreadable or malformed file."""


class FactorizationImpossible(PreconditionFailed):
    """The requested edge set provably has no 1-factorization
    (e.g. a component of odd order)."""


class VerificationFailed(CirculantColoringError):
    """A coloring was rejected by the independent checker, or cannot be
    checked because it is improper or incomplete (exit 3).

    The offending coloring and its report are attached for diagnostics
    when the caller has them.
    """

    def __init__(self, message, coloring=None, report=None):
        super().__init__(message)
        self.coloring = coloring
        self.report = report


# The former name of an improper-coloring failure, kept only because
# perfbench/harness.py still catches it under this name; nothing else uses it.
ImproperColoring = VerificationFailed


class SearchBudgetExceeded(CirculantColoringError):
    """The configured node budget ran out before the search finished
    (exit 4).

    This is an operational failure, never a claim of nonexistence.
    """


class MismatchFound(CirculantColoringError):
    def __init__(self, message, mismatches=None):
        super().__init__(message)
        self.mismatches = mismatches or []
