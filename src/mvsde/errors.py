"""Exception types shared across the package."""


class MvsdeError(Exception):
    """Base class for all package errors."""


class InvalidArgumentError(MvsdeError, ValueError):
    """An argument fails a documented precondition."""


class DomainViolationError(MvsdeError, ValueError):
    """A state lies outside the constraint set by more than the tolerance."""


class StepEvaluationError(MvsdeError, RuntimeError):
    """Coefficient evaluation failed during time stepping; carries the step index."""

    def __init__(self, message: str, step: int | None = None, particle: int | None = None):
        super().__init__(message)
        self.step = step
        self.particle = particle


class ConfigError(MvsdeError, ValueError):
    """An experiment configuration is malformed or inconsistent."""
