"""Exception types shared across the package."""


class BimopError(Exception):
    """Base class for all bimop errors."""


class FrozenInstanceError(AttributeError):
    """Assignment to, or deletion of, an attribute of a frozen record."""


class ValidationError(BimopError):
    """Bad input: shapes, schemas, paths, preconditions."""


class NotSquare(ValidationError):
    pass


class DimensionMismatch(ValidationError):
    pass


class Singular(BimopError):
    """Linear system has no unique solution; carries the determinant."""

    def __init__(self, det):
        super().__init__(f"singular matrix (det = {det})")
        self.det = det


class NotNormal(BimopError):
    """Multi-index is not normal; carries det(M_n)."""

    def __init__(self, index, det):
        super().__init__(f"index {index} is not normal (det = {det})")
        self.index = index
        self.det = det


class EmptyIndex(ValidationError):
    """Type I polynomials are undefined for the zero multi-index."""


class TableExhausted(BimopError):
    """A raw moment table does not cover the requested order."""


class IndexOutOfRange(ValidationError):
    pass


class SchemaError(ValidationError):
    """Config document violates the schema; carries the JSON path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


class NegativeAlpha(ValidationError):
    """Exponent parameter outside the family's admissible range."""


class NotComparable(ValidationError):
    """Waypoints are not componentwise ordered."""


class ChainInvalid(ValidationError):
    pass


class PathInvalid(ValidationError):
    pass


class IndexTooSmall(ValidationError):
    """Some component of the multi-index is too small for the recurrence."""


class SurplusNegative(BimopError):
    """The componentwise bound has smaller modulus than the target."""


class BadV(ValidationError):
    """Candidate multi-index violates the product-construction constraints."""


class DivisionByZeroFactor(BimopError):
    """A univariate factor determinant is zero while the full one is not."""
