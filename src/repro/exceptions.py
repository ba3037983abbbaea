"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError` raised by NumPy itself.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "ValidationError",
    "ShapeError",
    "NotFittedError",
    "NotPositiveDefiniteError",
    "ConvergenceError",
    "SpectrumError",
    "ConfigurationError",
    "JobExecutionError",
]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input value failed validation (wrong dtype, NaN, out of range)."""


class ShapeError(ValidationError):
    """An array argument has an incompatible shape."""

    def __init__(self, name: str, expected: str, actual: tuple[int, ...]):
        self.name = name
        self.expected = expected
        self.actual = actual
        super().__init__(
            f"argument {name!r} has shape {actual}, expected {expected}"
        )


class NotFittedError(ReproError, RuntimeError):
    """An estimator method requiring :meth:`fit` was called before it."""

    def __init__(self, estimator: object):
        name = type(estimator).__name__
        super().__init__(
            f"{name} is not fitted yet; call 'fit' before using this method"
        )


class NotPositiveDefiniteError(ReproError, ValueError):
    """A matrix required to be positive (semi-)definite is not."""


class ConvergenceError(ReproError, RuntimeError):
    """An iterative procedure failed to converge within its budget.

    Attributes
    ----------
    iterations:
        Iterations consumed before giving up, or ``None``.
    """

    def __init__(self, message: str, iterations: int | None = None):
        self.iterations = iterations
        if iterations is not None:
            message = f"{message} (after {iterations} iterations)"
        super().__init__(message)


class SpectrumError(ValidationError):
    """An eigenvalue specification is invalid (negative, empty, unordered)."""


class ConfigurationError(ReproError, ValueError):
    """An experiment or scheme configuration is inconsistent."""


class JobExecutionError(ReproError, RuntimeError):
    """A job failed inside an engine executor.

    Carries a flat message (task name, job key prefix, and the original
    error) plus the worker-side formatted traceback string, both plain
    strings so the exception survives pickling across process
    boundaries.  ``__traceback__`` objects do not pickle, so
    :attr:`traceback` is the only record of *where* the task failed
    once the error crosses back to the parent process.
    """

    def __init__(self, message: str, traceback: str | None = None):
        super().__init__(message)
        self.traceback = traceback

    def __reduce__(self):
        # Default Exception pickling replays only ``args``; carry the
        # traceback string through explicitly.
        return (type(self), (self.args[0] if self.args else "", self.traceback))
