"""Exception hierarchy shared by all bsym modules."""


class BsymError(Exception):
    """Base class for all library errors."""


class NonPrimeError(BsymError):
    def __init__(self, p):
        super().__init__(f"p={p} is not prime")
        self.p = p


class InvalidParameterError(BsymError, ValueError):
    """A code or field parameter (e, m, trials) below its minimum."""


class NotAnElementError(BsymError, ValueError):
    def __init__(self, value, field):
        super().__init__(f"coefficient {value!r} is not an element of {field!r}: "
                         f"expected an int in range({field.q})")
        self.value = value


class WidthOutOfRangeError(BsymError):
    def __init__(self, b, n, lo):
        super().__init__(f"read width b={b} outside {lo}..{n} for length n={n}")
        self.b = b
        self.n = n
        self.lo = lo


class LengthMismatchError(BsymError):
    """Words of different lengths compared."""


class HypothesisViolatedError(BsymError):
    """A bound was requested outside the hypothesis under which it holds."""


class IndexOutOfRangeError(BsymError):
    """Generator exponent i outside [0, p^e]."""


class EnumerationTooLargeError(BsymError):
    """A code of q^k_dim codewords above the cap; the count is shown as a power."""

    def __init__(self, q, k_dim, cap):
        super().__init__(
            f"code has {q}^{k_dim} codewords, above the enumeration cap {cap}"
        )
        self.q = q
        self.k_dim = k_dim
        self.cap = cap


class PackedWordTooLargeError(BsymError):
    """A code of length p^e whose packed words are longer than the engine's bound."""

    def __init__(self, p, e, bits, bound):
        super().__init__(
            f"a codeword of length {p}^{e} packs into {bits}*{p}^{e} bits, "
            f"above the brute-force bound of {bound} bits"
        )
        self.bound = bound


class InvalidCapError(BsymError):
    def __init__(self, source, value):
        super().__init__(f"{source} must be an integer >= 1, got {value!r}")
        self.value = value


class DegreeTooLargeError(BsymError):
    """deg(g) violates the weight-decomposition precondition."""


class WidthTooLargeError(BsymError):
    """b violates the weight-decomposition precondition b <= p^e - deg(g)."""


class UsageError(BsymError):
    """Invalid command-line invocation."""
