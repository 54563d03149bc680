"""Exception types shared across the package.

The CLI maps these onto exit codes: ConfigError -> 2, ConvergenceError -> 3,
SizeCapError -> 4, SingularOperatorError -> 5, anything else -> 1.
"""


class ConfigError(ValueError):
    """Invalid configuration or domain layout. Collects all messages at once."""

    def __init__(self, messages):
        if isinstance(messages, str):
            messages = [messages]
        self.messages = list(messages)
        super().__init__("; ".join(self.messages))


class SingularOperatorError(RuntimeError):
    """Subdomain system is structurally singular (e.g. no pressure anchoring)."""


class ConvergenceError(RuntimeError):
    """Interface CG failed to reach tolerance within the iteration budget."""

    def __init__(self, message, residuals=None):
        super().__init__(message)
        self.residuals = list(residuals) if residuals is not None else []


class SizeCapError(RuntimeError):
    """A precomputed object (flux basis) would exceed the configured memory cap."""
