"""Exception hierarchy shared across the package."""


class IndexLabError(Exception):
    """Base class for every error raised by this package."""


class DatasetParseError(IndexLabError):
    """Malformed CSV content; message carries row and column context."""


class ValidationError(IndexLabError):
    """Structurally valid input whose values break a contract."""


class ColumnLookupError(IndexLabError, KeyError):
    """Requested column does not exist in the dataset."""

    def __str__(self) -> str:
        # KeyError repr-quotes its first argument; keep the message readable
        return str(self.args[0]) if self.args else ""


class DefinitionError(IndexLabError):
    """Invalid or incompletely scored index definition."""


class InsufficientDataError(IndexLabError):
    """Too few observations for the requested statistic."""


class DegenerateDataError(IndexLabError):
    """Zero variance or an otherwise degenerate numeric configuration."""


class DomainError(IndexLabError):
    """Argument outside the mathematical domain of a function."""


class SingularDesignError(IndexLabError):
    """Rank-deficient design matrix."""

