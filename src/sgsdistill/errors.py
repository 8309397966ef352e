"""Exception types shared across the package."""


class DistillError(Exception):
    """Base class for every error this package raises deliberately."""


class ShapeMismatch(DistillError):
    pass


class EmptyClass(DistillError):
    pass


class EmptySet(DistillError):
    pass


class UnknownDomain(DistillError):
    pass


class TooFewDomains(DistillError):
    pass


class TooFewSamples(DistillError):
    pass


class NonHermitianInput(DistillError):
    pass


class GridTooLarge(DistillError):
    pass


class NotConvolutional(DistillError):
    pass


class InsufficientRange(DistillError):
    pass


class InvalidSpec(DistillError):
    pass


class InvalidConfig(DistillError):
    pass


class IoError(DistillError):
    """File-level failure: missing, truncated, or corrupted artifacts."""


class BadMagic(IoError):
    pass


class FormatVersionMismatch(IoError):
    pass


class ChecksumMismatch(IoError):
    pass


class DimensionMismatch(IoError):
    pass
