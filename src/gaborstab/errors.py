"""Shared exception types with stable meanings across the package.

The CLI maps these onto process exit codes, so the distinction between a
malformed file, an out-of-range exponent pair, a failed eigensolve and an
exceeded memory budget must survive module boundaries.
"""


class GridFormatError(ValueError):
    """A grid file is malformed: bad magic, unsupported version, or truncated."""


class AdmissibilityError(ValueError):
    """An exponent or exponent pair violates the hypotheses of the bound being evaluated."""


class ConvergenceError(RuntimeError):
    """An iterative solve stopped without reaching its residual tolerance."""


class ResourceError(RuntimeError):
    """A computation would need more memory than its budget allows."""
