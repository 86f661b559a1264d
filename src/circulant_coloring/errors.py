"""Exception hierarchy shared across the toolkit: one class per CLI exit
code.  Each class carries its ``exit_code`` and ``label``, the prefix of
the one stderr line the CLI prints, so the CLI has one handler for all
of them.  Every error holds only its message; search budget exhaustion
is deliberately distinct from nonexistence.
"""


class CirculantColoringError(Exception):
    """Base class for all toolkit errors (exit 1), e.g. a missing
    fixture."""

    exit_code = 1
    label = "error"


class PreconditionFailed(CirculantColoringError):
    """An input violates a documented requirement (exit 2): a malformed
    generator set, an out-of-range parameter, an edge set with no
    1-factorization, an instance too large for the oracle, an unreadable
    or malformed file."""

    exit_code = 2
    label = "precondition failed"


class VerificationFailed(CirculantColoringError):
    """A coloring was rejected by the independent checker, or cannot be
    checked because it is improper or incomplete (exit 3)."""

    exit_code = 3
    label = "verification failed"


# The former name of an improper-coloring failure, kept only because
# perfbench/harness.py still catches it under this name; nothing else uses it.
ImproperColoring = VerificationFailed


class SearchBudgetExceeded(CirculantColoringError):
    """The configured node budget ran out before the search finished
    (exit 4).

    This is an operational failure, never a claim of nonexistence.
    """

    exit_code = 4
    label = "search budget exceeded"


class MismatchFound(CirculantColoringError):
    """A rebuilt fixture differs from the shipped one (exit 1)."""
