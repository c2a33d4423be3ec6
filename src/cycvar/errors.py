"""Exception types shared across the package."""


class CycvarError(Exception):
    """Base class for all package errors.  `exit_code` is the status the
    command line exits with when the error reaches it: 2 (a violated
    precondition) unless a subclass sets another."""

    exit_code = 2


class ParseError(CycvarError):
    """Input text does not conform to the expression grammar."""

    exit_code = 1

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at column {position + 1})"
        super().__init__(message)


class PreconditionError(CycvarError):
    """An operation was invoked on data that violates its contract."""


class IdentityFailure(CycvarError):
    """A structural identity suite reported a counterexample."""

    exit_code = 3


class BoundExceeded(CycvarError):
    """A configured resource bound (jet order, search budget) was hit."""

    exit_code = 4
