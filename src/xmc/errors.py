"""Exception types shared across the package. Each class carries the exit
code ``cli.main`` returns when one of its errors reaches it."""


class XmcError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 1


class DimensionError(XmcError):
    """Operand shapes are incompatible; the message reports both shapes."""
    exit_code = 3


class DegenerateInputError(XmcError):
    """Numerically degenerate input, e.g. a zero row fed to a normalizer."""
    exit_code = 4


class UsageError(XmcError):
    """An API contract was violated by the caller."""
    exit_code = 1


class ContractError(XmcError):
    """A runtime invariant the caller promised does not hold."""
    exit_code = 1


class ConfigError(XmcError):
    """Invalid or inconsistent configuration values."""
    exit_code = 3


class DomainError(XmcError):
    """Argument outside the mathematical domain of a function."""
    exit_code = 3


class StratificationError(XmcError):
    """A label subsample cannot cover every class."""
    exit_code = 3


class ResampleError(XmcError):
    """A sampled scene cannot be rendered; the caller should redraw it."""
    exit_code = 1


class FormatError(XmcError):
    """A binary or text artifact does not match its expected layout."""
    exit_code = 3


class NumericError(XmcError):
    """A non-finite value appeared where a finite one is required."""
    exit_code = 4
