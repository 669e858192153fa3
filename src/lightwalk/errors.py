"""Exception types shared across the package."""


class DomainError(ValueError):
    """A physical-domain precondition was violated (bad mass, populations, ...)."""


class GridCoverageError(DomainError):
    """Momentum grid too narrow for the requested wavepacket (truncated tail)."""


class IntegratorError(ValueError):
    """Numeric integrator configured outside its validity bounds."""


class CatalogError(ValueError):
    """Base class for species-catalog problems."""


class CatalogParseError(CatalogError):
    """Malformed catalog text. Carries 1-based line and column of the offence."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class CatalogValidationError(CatalogError):
    """Structurally valid catalog text violating a catalog invariant."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line
