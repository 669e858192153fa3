"""Physical constants and the unit conversions used at ingestion boundaries.

Everything downstream computes in SI. Masses in atomic mass units and
wavelengths in nanometres are converted exactly once, here or in the CLI.

A constant set is its atomic mass unit, the only constant in which the
sets differ: ``paper`` is the rounded u = 1.67e-27 kg that the embedded
reference table was tabulated with, ``codata`` the CODATA-2018 value.
Planck's constant is the exact SI value in both.
"""

from __future__ import annotations

import math

from .errors import DomainError, check_mass_kg

H_PLANCK = 6.62607015e-34  # J s, exact in SI
HBAR = H_PLANCK / (2.0 * math.pi)

U_ROUNDED = 1.67e-27  # kg, atomic mass unit rounded to 3 digits
U_CODATA = 1.66053906660e-27  # kg, CODATA 2018

CONSTANT_SETS = {"paper": U_ROUNDED, "codata": U_CODATA}


def mass_to_si(mass_u: float, amu: float = U_ROUNDED) -> float:
    """Convert a mass in atomic mass units to kg, refusing what :func:`check_mass_kg` refuses."""
    if not mass_u > 0:  # a negative mass in a negative unit is no mass either
        raise DomainError(f"mass must be positive, got {mass_u} u")
    return check_mass_kg(mass_u * amu)


def wavenumber(wavelength_m: float) -> float:
    """Angular wavenumber k = 2 pi / wavelength, in rad/m."""
    if not 0 < wavelength_m < math.inf:
        raise DomainError(f"wavelength must be finite and positive, got {wavelength_m}")
    return 2.0 * math.pi / wavelength_m
