"""Exception types shared across the package: one class per exit code that
``cli.main`` returns. The message says what went wrong."""


class XmcError(Exception):
    """Base class for all package-specific errors; raised itself for an output
    that would be overwritten, an --out under a file or a frozen model to train."""
    exit_code = 1


class InputError(XmcError):
    """A configuration value, file, shape or argument outside what it must be."""
    exit_code = 3


class NumericError(XmcError):
    """A non-finite or degenerate value where a usable one is required."""
    exit_code = 4
