"""Exception types shared across the package."""


class ConfigError(ValueError):
    """Invalid configuration: bad shapes, bad enum values, violated invariants."""


class NonFiniteError(RuntimeError):
    """A NaN or infinity appeared where finite numbers are required."""

    def __init__(self, message, layer_index=None):
        super().__init__(message)
        self.layer_index = layer_index


class ScheduleExhaustedError(RuntimeError):
    """A sparsity sample was requested at or past the schedule horizon."""


class DataFormatError(ValueError):
    """A serialized file failed to parse.

    byte_offset points at the position where decoding stopped.
    """

    def __init__(self, message, byte_offset=None):
        super().__init__(message)
        self.byte_offset = byte_offset


class CheckpointError(ValueError):
    """A checkpoint could not be loaded or does not match the config."""


class SchemaMismatchError(ValueError):
    """Run logs with differing shapes were passed to aggregation."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)
