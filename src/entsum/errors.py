"""Exception types shared across the package."""


class EntsumError(Exception):
    """Base class for all package errors."""


class IncompatibleGroupError(EntsumError):
    """Operands live in different ambient groups (dimension or moduli mismatch)."""


class CapExceededError(EntsumError):
    """An exact computation would exceed its configured size cap.

    Raised loudly instead of truncating; the message names the cap and the
    offending size so callers can route to a constructive bound instead.
    """


class PreconditionError(EntsumError):
    """A documented operation precondition does not hold for the inputs."""


class CertificateError(EntsumError):
    """A transport certificate failed an exact marginal or pushforward check."""


class NonProperError(EntsumError):
    """A coset progression required to be proper has colliding sums."""


class SearchExhaustedError(EntsumError):
    """An exhaustive search ran out of candidates within its radius."""

    def __init__(self, message, spectrum=None):
        super().__init__(message)
        self.spectrum = spectrum


class PremiseError(EntsumError):
    """The determination premise of a conditional inequality is violated."""


class SchemaError(EntsumError):
    """An input file does not match the documented JSON schema."""
