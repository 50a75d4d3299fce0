"""Exception types shared across the package."""


class FormatError(ValueError):
    """Malformed binary or text container (bad magic, bad version, trailing bytes)."""


class TruncationError(FormatError):
    """Payload shorter than the header declares."""


class DimError(FormatError):
    """Tensor rank outside the supported range."""


class SchemaError(ValueError):
    """Metric records do not share a single key set."""


class ConfigError(ValueError):
    """Config file rejected; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(ValueError):
    """Argument outside a function's mathematical domain."""


class RangeError(ValueError):
    """Closed-form estimate outside its validity range (formula breakdown)."""


class CanvasError(ValueError):
    """Canvas bounds cannot be formed (no valid projected points or degenerate geometry)."""


class MaskError(ValueError):
    """A masked reduction received an empty mask."""
