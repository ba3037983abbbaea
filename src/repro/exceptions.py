"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch library failures without also swallowing programming
errors such as :class:`TypeError` raised by NumPy itself.
"""

from __future__ import annotations

from collections.abc import Sequence

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

    Beyond the iteration count, the raiser can attach the state the
    procedure died in — the final objective value, the last
    convergence delta, and the tail of the objective trajectory — so a
    non-convergent fit is diagnosable post-mortem from the exception
    alone, without re-running under tracing.

    Attributes
    ----------
    iterations:
        Iterations consumed before giving up, or ``None``.
    final_objective:
        Last objective value (e.g. mean log-likelihood), or ``None``.
    last_delta:
        Last convergence increment compared against the tolerance, or
        ``None``.
    trajectory_tail:
        The most recent objective values as a tuple, oldest first, or
        ``None``.
    """

    def __init__(
        self,
        message: str,
        iterations: int | None = None,
        *,
        final_objective: float | None = None,
        last_delta: float | None = None,
        trajectory_tail: Sequence[float] | None = None,
    ):
        self.iterations = iterations
        self.final_objective = (
            float(final_objective) if final_objective is not None else None
        )
        self.last_delta = (
            float(last_delta) if last_delta is not None else None
        )
        self.trajectory_tail = (
            tuple(float(value) for value in trajectory_tail)
            if trajectory_tail is not None
            else None
        )
        details = []
        if iterations is not None:
            details.append(f"after {iterations} iterations")
        if self.final_objective is not None:
            details.append(f"final objective {self.final_objective:.6g}")
        if self.last_delta is not None:
            details.append(f"last delta {self.last_delta:.3g}")
        if details:
            message = f"{message} ({', '.join(details)})"
        if self.trajectory_tail:
            tail = ", ".join(
                f"{value:.6g}" for value in self.trajectory_tail
            )
            message = f"{message}; trajectory tail [{tail}]"
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
