"""The package's two exception types, one per CLI exit code (4 and 3)."""


class DomainError(ValueError):
    """An input or result outside the physical or numerical domain (exit 4)."""


class CatalogError(ValueError):
    """A species catalog that is malformed or breaks a catalog invariant (exit 3).

    ``line`` and ``column`` are the 1-based location of the offence in the
    catalog text, or None where it has none.
    """

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        if line is not None and column is not None:
            message = f"line {line}, column {column}: {message}"
        elif line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
        self.column = column
