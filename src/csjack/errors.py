"""Domain error types, and the type check of values read from JSON or
passed to a constructor.

Everything raised on bad mathematical input derives from AlgebraError, so
callers (and the command line driver) can catch one class.
"""


def checked_type(value, kinds: tuple, what: str):
    """value, read from a JSON payload or passed to a constructor, if its type
    is one of kinds (a bool is not an int); else TypeError, because converting
    it would misread it."""
    if type(value) not in kinds:
        raise TypeError(f"{what}: expected {' or '.join(k.__name__ for k in kinds)}, got {value!r}")
    return value


class AlgebraError(ValueError):
    """Base class for all domain errors raised by this package."""


# partition construction and combinatorics

class NotWeaklyDecreasing(AlgebraError):
    pass


class NegativePart(AlgebraError):
    pass


class WeightMismatch(AlgebraError):
    pass


class TooManyParts(AlgebraError):
    pass


# coefficient field

class DivisionByZero(AlgebraError):
    pass


class PoleAtValue(AlgebraError):
    pass


class NonIntegerBeta(AlgebraError):
    pass


# polynomial ring

class ContextMismatch(AlgebraError):
    pass


class IndexOutOfRange(AlgebraError):
    pass


class NonzeroRemainder(AlgebraError):
    pass


class LaurentInput(AlgebraError):
    pass


class NotSymmetric(AlgebraError):
    pass


class NotHomogeneous(AlgebraError):
    pass


class DegreeExceedsVariables(AlgebraError):
    pass


class BasisMismatch(AlgebraError):
    pass


class DegreeMismatch(AlgebraError):
    pass


# operator index sets

class EmptyIndexSet(AlgebraError):
    pass


class BadCardinality(AlgebraError):
    pass


# oracle checks

class InconsistentSystem(AlgebraError):
    pass


# float output

class OutOfFloatRange(AlgebraError):
    pass
