"""Domain error types, the type check of values read from JSON or passed to
a constructor, and read_rational, the one reader of rational text: cli
(spectrum's flags too) and fieldring load this module, fieldring may not
import cli, and a spectrum request loads no fieldring.

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


def read_rational(text: str) -> tuple[int, int]:
    """(num, den) in ints of Fraction(text)'s value, den 0 where it divides by zero:
    [sign] p/q or [sign] p[.d][e[sign]k], a digit next to the point, whitespace around.
    ValueError where Fraction(text) rejects the text; OverflowError, before 10^k is
    computed, for an exponent of more than 6 digits past leading zeros."""
    exponent = text.lower().partition("e")[2].strip().lstrip("+-").replace("_", "").lstrip("0")
    if len(exponent) > 6 and exponent.isdecimal():
        raise OverflowError(f"exponent of {text!r} has more than 6 digits")

    def digits(part: str) -> int:  # no sign or whitespace; int() checks the underscores
        if not part.replace("_", "").isdecimal():
            raise ValueError(f"Invalid literal for Fraction: {text!r}")
        return int(part)

    body = text.strip()
    sign, body = -1 if body[:1] == "-" else 1, body[1:] if body[:1] in ("+", "-") else body
    whole, slash, den = body.partition("/")
    if slash:
        return sign * digits(whole), digits(den)
    mantissa, e, exp = body.replace("E", "e").partition("e")
    whole, _, decimal = mantissa.partition(".")
    scale = 10 ** len(decimal.replace("_", ""))
    # a digit before the point or after it: "" raises where both are empty
    num = sign * (digits(whole or ("0" if decimal else "")) * scale + digits(decimal or "0"))
    k = (-1 if exp[:1] == "-" else 1) * digits(exp[1:] if exp[:1] in ("+", "-") else exp) if e else 0
    return num * 10 ** max(k, 0), scale * 10 ** max(-k, 0)


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
