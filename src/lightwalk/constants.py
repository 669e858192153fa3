"""Physical constants and the unit conversions used at ingestion boundaries.

Everything downstream computes in SI. Masses in atomic mass units and
wavelengths in nanometres are converted exactly once, here or in the CLI.

Two named constant sets are provided. They differ only in the atomic mass
unit: ``PAPER_CONSTANTS`` carries the rounded u = 1.67e-27 kg that the
embedded reference table was tabulated with, ``CODATA_CONSTANTS`` the
CODATA-2018 value. Planck's constant is the exact SI value in both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

H_PLANCK = 6.62607015e-34  # J s, exact in SI
HBAR = H_PLANCK / (2.0 * math.pi)

U_ROUNDED = 1.67e-27  # kg, atomic mass unit rounded to 3 digits
U_CODATA = 1.66053906660e-27  # kg, CODATA 2018


@dataclass(frozen=True)
class PhysicalConstants:
    """One self-consistent constant set (SI units throughout)."""

    h: float
    hbar: float
    u: float
    set_tag: str

    def __post_init__(self) -> None:
        expected_hbar = self.h / (2.0 * math.pi)
        if not math.isclose(self.hbar, expected_hbar, rel_tol=1e-15):
            raise DomainError("hbar must equal h / (2 pi)")
        if self.h <= 0 or self.u <= 0:
            raise DomainError("constants must be positive")


PAPER_CONSTANTS = PhysicalConstants(h=H_PLANCK, hbar=HBAR, u=U_ROUNDED, set_tag="paper")
CODATA_CONSTANTS = PhysicalConstants(h=H_PLANCK, hbar=HBAR, u=U_CODATA, set_tag="codata")

CONSTANT_SETS = {"paper": PAPER_CONSTANTS, "codata": CODATA_CONSTANTS}


def mass_to_si(mass_u: float, consts: PhysicalConstants = PAPER_CONSTANTS) -> float:
    """Convert a mass in atomic mass units to kg."""
    if not mass_u > 0:
        raise DomainError(f"mass must be positive, got {mass_u}")
    return mass_u * consts.u


def wavenumber(wavelength_m: float) -> float:
    """Angular wavenumber k = 2 pi / wavelength, in rad/m."""
    if not wavelength_m > 0:
        raise DomainError(f"wavelength must be positive, got {wavelength_m}")
    return 2.0 * math.pi / wavelength_m
