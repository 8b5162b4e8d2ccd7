"""Exception types shared across the package."""


class ParloopError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(ParloopError):
    """Operand shapes are incompatible."""


class NumericError(ParloopError):
    """Non-finite or otherwise invalid numeric input."""


class EmptyContextError(ParloopError):
    """A query position has no attendable key."""


class InvalidLoopError(ParloopError):
    """Operation called with a loop index outside its valid range."""


class EmptyInputError(ParloopError):
    """A token sequence was empty where at least one token is required."""


class TokenError(ParloopError):
    """A token id lies outside [0, vocab)."""


class PositionError(ParloopError):
    """A cache write is not at the next position."""


class CapacityError(ParloopError):
    """Sequence position exceeds the configured maximum length."""


class ConfigError(ParloopError):
    """Invalid or inconsistent configuration."""


class CheckpointError(ParloopError):
    """Checkpoint file is missing, corrupted, or incompatible."""


class DivergenceError(ParloopError):
    """Training loss became non-finite."""
