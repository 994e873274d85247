"""Exception hierarchy shared by every layer of the package."""


def quoted(value) -> str:
    """An input as a diagnostic echoes it: its repr up to 40 characters, else
    the first 40 and the length of the whole.  A string is cut before its
    repr is taken, any other value after."""
    if isinstance(value, str):
        return repr(value) if len(value) <= 40 else f"{value[:40]!r}... ({len(value)} characters)"
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


class HopfError(Exception):
    """Base class; every error raised by this package derives from it."""


class RingMismatchError(HopfError):
    """Operands live over different coefficient rings."""


class RankMismatchError(HopfError):
    """Tensor operands have incompatible ranks."""


class SchemaError(HopfError):
    """A generator schema violates a structural invariant."""


class DomainError(HopfError):
    """Input is outside the mathematical domain of the operation."""


class CutoffExceededError(HopfError):
    """A computation asked for data beyond a declared degree cutoff."""


class TruncationError(HopfError):
    """A series coefficient beyond the sound truncation order was requested.

    ``required_order`` carries the order the input would need to make the
    computation sound, when it is known.
    """

    def __init__(self, message, required_order=None):
        super().__init__(message)
        self.required_order = required_order


class SingularInputError(HopfError):
    """Inversion of a series whose leading coefficient is not invertible."""


class UnsupportedRingError(HopfError):
    """The operation is only defined over a more specific ring."""


class VerificationError(HopfError):
    """An internal consistency check failed; carries a witness description."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness
