"""Exception hierarchy shared by all mrforest modules."""


class MrfError(Exception):
    """Base class for all mrforest errors."""


class ParseError(MrfError):
    """A cell or row value is not a finite number, a row is ragged, or a model is corrupt."""


class SchemaError(MrfError):
    """Label column missing, fewer than two classes, or rows of the wrong width."""


class EmptyError(MrfError):
    """The input contains no data rows."""


class SizeError(MrfError):
    """A split, fold plan, or audit input violates a size constraint."""


class MismatchError(MrfError):
    """A class tally is not a 1-D vector of nonnegative counts."""


class ConfigError(MrfError):
    """Invalid hyper-parameter combination or violated training precondition."""


class DomainError(MrfError):
    """A numeric argument is outside the function's domain."""


class TooFewPairs(MrfError):
    """Not enough nonzero paired differences for a signed-rank test."""


class IoError(MrfError):
    """A report could not be written to its destination."""
