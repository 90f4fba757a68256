"""Exception hierarchy shared across the package."""


class MinRegimeError(Exception):
    """Base class for all package-specific errors."""


# --- series / metric kernels ---

class EmptySeries(MinRegimeError):
    """A return series (or the part surviving filtering) has no observations."""


class ZeroVariance(MinRegimeError):
    """A segment has zero return dispersion; the ratio metric is undefined."""


class SegmentTooShort(MinRegimeError):
    """A segment is too short to support the requested metric."""


class SeriesTooShort(MinRegimeError):
    """A series is too short for the requested window computation."""


class NonFiniteReturn(MinRegimeError, ValueError):
    """A return of a series is NaN or infinite."""


class WealthNonPositive(MinRegimeError):
    """A return of -100% or worse makes the wealth path non-positive."""


# --- partition engine ---

class Infeasible(MinRegimeError):
    """No valid partition exists for the given (n, s, d)."""


class NoValidPartition(MinRegimeError):
    """Every partition contains a segment with an undefined metric."""


# --- bias / extreme-value analytics ---

class InvalidModel(MinRegimeError):
    """Idealized-model parameters outside their domain."""


class QuadratureFailed(MinRegimeError):
    """Numerical integration did not converge to the requested accuracy."""


# --- analytics ---

class DegenerateVector(MinRegimeError):
    """A cross-sectional metric vector has zero variance; correlation undefined."""


class DateMismatch(MinRegimeError):
    """Strategy series cannot be aligned on a common set of dates."""


class InvalidBlock(MinRegimeError):
    """Bootstrap block length outside the valid range."""


# --- ingestion ---

class ParseError(MinRegimeError):
    """A cell of the input file failed to parse.

    Carries the 1-based row number and the column name.
    """

    def __init__(self, row: int, column: str, message: str):
        super().__init__(f"row {row}, column {column!r}: {message}")
        self.row = row
        self.column = column


class DateOrderError(MinRegimeError, ValueError):
    """Dates of a series are not strictly increasing."""
