"""The errors bsym raises, one class for each kind of refusal a caller tells apart."""


class BsymError(Exception):
    """Base class for all library errors."""


class InvalidParameterError(BsymError, ValueError):
    """An input outside what it may be: a non-prime p, a width, an index, a
    length, a coefficient, a trial count, or a bound's hypothesis."""


class EnumerationTooLargeError(BsymError):
    """A code the engine refuses to walk: more codewords than the cap, or a
    packed codeword longer than the engine's bound."""


class UsageError(BsymError):
    """Invalid command-line invocation."""
