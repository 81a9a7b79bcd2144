"""Exception types shared across the package.

The CLI maps these onto exit codes: config errors exit 2, numeric
failures exit 3.
"""


class SpinmoError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(SpinmoError):
    """Invalid configuration value or malformed config document."""


class ConvergenceError(SpinmoError):
    """An iterative numerical routine failed to converge."""
