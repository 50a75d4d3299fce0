"""Exception types shared across the package, and the one rule for
printing an outside integer in their messages."""


class FormatError(ValueError):
    """Malformed binary or text container (bad magic, bad version, bad rank,
    truncated or trailing bytes)."""


class ConfigError(ValueError):
    """Config file rejected; carries the offending line number when known."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DomainError(ValueError):
    """Argument outside a function's domain: out-of-range values, a closed
    form past its validity range, mismatched metric records, an empty mask."""


def _shown(n):
    """An integer beyond 2**53 in scientific notation, anything else as it
    is, so that no message prints dozens of digits."""
    if not isinstance(n, int) or abs(n) <= 2 ** 53:
        return n
    from decimal import Decimal      # imported on this error path alone
    return f"{Decimal(n):.3e}"
