"""The two exception types, one per CLI exit code (4 and 3), and the domain rules behind them."""

import math
import sys

import numpy as np

MIN_MASS_KG = sys.float_info.min
# the most points a count flag may ask for: half the float64 values that numpy can size
# (sys.maxsize bytes), since np.linspace counts its points in a float, and the top 64
# counts below sys.maxsize // 8 round up past it there
MAX_ARRAY_LEN = sys.maxsize // 16


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


def check_time(t):
    """Return a time finite and >= 0 everywhere, as a float array."""
    times = np.asarray(t, dtype=float)
    bad = ~((0.0 <= times) & (times < math.inf))
    if bad.any():
        raise DomainError(f"time must be finite and non-negative, got {times[bad].flat[0]}")
    return times


def check_mass_kg(mass_kg: float) -> float:
    """Return a mass in kg that is a finite positive normal float, so that 1/M is finite."""
    if not MIN_MASS_KG <= mass_kg < math.inf:
        raise DomainError(f"mass must be finite and at least {MIN_MASS_KG:g} kg, got {mass_kg} kg")
    return mass_kg


def check_fraction(ground_fraction: float) -> float:
    """Return a ground-state fraction that lies in [0, 1]."""
    if not 0.0 <= ground_fraction <= 1.0:
        raise DomainError(f"ground fraction must lie in [0, 1], got {ground_fraction}")
    return ground_fraction
