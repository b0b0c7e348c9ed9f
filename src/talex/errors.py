"""Exception hierarchy.

Every error raised by this package derives from TalexError.  The CLI maps
each class to a distinct process exit code, so the classes double as the
machine-readable failure taxonomy: parse problems, numerical
non-convergence, and failed certification checks are distinguishable
without scraping stderr.
"""


class TalexError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(TalexError):
    """Malformed input text: presentations, PD codes, words, data files."""

    exit_code = 2


class AlgebraError(TalexError):
    """Structural algebra failure: bad degrees, impossible division,
    degenerate matrices, invalid normalization requests."""

    exit_code = 3


class NonPolynomialError(AlgebraError):
    """A quotient that was required to be a Laurent polynomial is not one
    (remainder above tolerance, or an exactly nonzero remainder)."""

    exit_code = 4


class SolveError(TalexError):
    """Newton iteration failed to reach the residual target within the
    restart budget, a closed-form construction missed it, or either found
    only solutions of the wrong kind.

    The solver's counters ride along as attributes (zero, and an infinite
    best residual, when no restart ran): restarts run, Newton iterations
    and line-search halvings summed over them, the smallest final max|f|
    of any restart, and the restarts ended by each stopping rule that then
    failed the residual test (rejected_at_floor, rejected_stagnant).
    """

    exit_code = 5

    def __init__(self, message: str, *, restarts: int = 0,
                 iterations: int = 0, halvings: int = 0,
                 best_residual: float = float("inf"),
                 rejected_at_floor: int = 0, rejected_stagnant: int = 0):
        super().__init__(message)
        self.restarts = restarts
        self.iterations = iterations
        self.halvings = halvings
        self.best_residual = best_residual
        self.rejected_at_floor = rejected_at_floor
        self.rejected_stagnant = rejected_stagnant


class RootFindingError(TalexError):
    """Polynomial root extraction could not be certified to tolerance."""

    exit_code = 6


class CertificationError(TalexError):
    """A cross-check that guards a computed result failed (determinant
    identity, residual bound, symmetry check, degree bound)."""

    exit_code = 7
