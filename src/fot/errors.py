"""Exception taxonomy shared across the package.

Exit-code mapping lives in the CLI: ConfigError, UsageError, FormatError and
ShapeError -> 2, DataError -> 3, NumericError -> 4.
"""


class FotError(Exception):
    pass


class ShapeError(FotError):
    """Operand shapes are incompatible with the requested operation."""


class ConfigError(FotError):
    """A configuration value is missing, malformed, or inconsistent."""


class UsageError(FotError):
    """An API was called outside its contract (wrong mode, bad argument)."""


class DataError(FotError):
    """Input data is unreadable, exhausted, or structurally invalid."""


class NumericError(FotError):
    """A numeric invariant broke (NaN/Inf, failed check)."""


class FormatError(FotError):
    """A binary artifact has a bad magic, version, or truncated payload."""
