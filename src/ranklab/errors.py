"""Exception types raised by ranklab.

All inherit from RanklabError (itself a ValueError) so callers can catch
either the specific condition or everything at once.
"""


class RanklabError(ValueError):
    """Base class for all ranklab errors."""


class NotPrime(RanklabError):
    """The base characteristic q is not a prime number."""


class NoModulusKnown(RanklabError):
    """(q, e) is outside the embedded modulus table and none was supplied."""


class NotIrreducible(RanklabError):
    """A supplied modulus polynomial failed the irreducibility check."""


class NotPrimitive(RanklabError):
    """The residue class of x does not generate the multiplicative group."""


class NotASubfield(RanklabError):
    """Requested an embedding GF(q^n) -> GF(q^m) with n not dividing m."""


class FieldMismatch(RanklabError):
    """Operands belong to different fields."""


class StrideViolation(RanklabError):
    """A linearized polynomial has a coefficient off the required stride."""


class BudgetExceeded(RanklabError):
    """An exhaustive enumeration would exceed its configured budget."""


class ZeroShift(RanklabError):
    """Cyclic shift by zero requested."""


class AmbientMismatch(RanklabError):
    """Subspaces live in different ambient spaces."""


class DivisibilityViolation(RanklabError):
    """Integer parameters violate a required divisibility constraint."""


class ParamMismatch(RanklabError):
    """Arguments are inconsistent with the object they apply to."""


class BadDimension(RanklabError):
    """Code dimension/length parameters out of range."""


class DegreeTooHigh(RanklabError):
    """Message polynomial degree is not below the code dimension."""


class ContextMismatch(RanklabError):
    """Words belong to different code contexts (field or length)."""


class TooManyPunctures(RanklabError):
    """Puncturing by s >= minimum distance would merge codewords."""


class NegativeDiscriminant(RanklabError):
    """Square-root radius formula evaluated outside its domain."""


class RadiusTooLarge(RanklabError):
    """Radius parameter is at or beyond the minimum distance."""


class ShapeMismatch(RanklabError):
    """Matrix operands have incompatible shapes."""


class NoValidRadius(RanklabError):
    """No admissible decoding radius exists for the given parameters."""


class ConstraintViolation(RanklabError):
    """Scaled-family parameters violate the required inequalities."""


class BadParameters(RanklabError):
    """Parameters outside the domain of a comparison formula."""


class MalformedInstance(RanklabError):
    """An instance file is not shaped as its format requires: a field of the
    wrong JSON type, an unknown family parameter or an unknown kind."""


class InvariantViolation(RanklabError):
    """A property the construction guarantees (a distance identity, the
    MRD rank of a code, an instance's radius) failed to hold."""


def require(holds: bool, message: str) -> None:
    """Raise InvariantViolation unless holds; python -O keeps this check."""
    if not holds:
        raise InvariantViolation(message)
