"""Exception types shared across the library, and integers in messages."""


def format_int(n):
    """n in decimal below 2^63, else its bit length.

    A budget message may name an integer the input makes arbitrarily
    large, and Python refuses to print one past 4,300 digits: the message
    itself would raise ValueError in place of the typed error.
    """
    if abs(n) < 2 ** 63:
        return str(n)
    return f"<{n.bit_length()}-bit integer>"


class Error(Exception):
    """Base class for library errors."""


class InputError(Error):
    """Malformed user input (files, literals, arrangement data)."""


class RingMismatch(InputError):
    """Operands belong to different base rings."""


class AllGeneratorsZero(InputError):
    """An ideal was requested from generators that are all zero."""


class InvalidArrangement(InputError):
    """Arrangement data is malformed (zero column, ragged rows, ...)."""


class UnknownName(InputError):
    """Unknown built-in root system name."""


class ZeroInMultiplicativeSet(InputError):
    """A localization was requested at a set containing zero."""


class BudgetError(Error):
    """A configured resource budget was exceeded."""


class BudgetExceeded(BudgetError):
    """Enumeration budget exceeded."""


class NormFactorizationTooLarge(BudgetError):
    """Integer factorization budget exceeded."""


class PathInfeasible(BudgetError):
    """The requested computation path cannot run within its bounds."""


class ExponentTooLarge(BudgetError):
    """Layer enumeration would exceed the memory budget."""


class InternalCheckError(Error):
    """A mathematically impossible condition occurred (library bug)."""


class NonIntegralQuotient(InternalCheckError):
    """A determinantal ideal quotient failed to be integral."""


class ElementNotInModule(InputError):
    """Element coordinates are outside the module."""


class CertificateFailure(InternalCheckError):
    """A certificate or lattice self-check failed."""
