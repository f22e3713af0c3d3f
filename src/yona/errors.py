"""Exception types shared across the package."""


class GeometryError(ValueError):
    """An image, piece, or cut boundary has invalid geometry."""


class UnsupportedAugmentationError(ValueError):
    """An augmentation kind is not known to the engine."""


class FormatError(ValueError):
    """A file does not conform to its declared binary layout.

    ``offset`` is the byte position at which the problem was detected,
    when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        super().__init__(message)
        self.offset = offset


class CorruptRecordError(FormatError):
    """A dataset record was parsed but carries invalid field values."""


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss."""


class ReplayMismatch(AssertionError):
    """A composed mask does not replay from its sample's own noise stream."""
