"""Plan optical purification runs from per-species drift speeds.

The period-averaged drift speed of each mixture member sets a linear
displacement; pairs separate when the displacement gap outruns the
ballistic spreading of the wavepackets. This module turns a catalog into
a speed table, evaluates pairwise gaps and widths at a given interaction
time, and solves for the minimum time at which each pair becomes
resolvable.
"""

from __future__ import annotations

import math
from dataclasses import KW_ONLY, dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog, Species
from .constants import HBAR, U_ROUNDED, mass_to_si
from .dynamics import WavepacketSpec, average_speed
from .errors import MIN_MASS_KG, DomainError, check_fraction, check_time

# Atomic-number ranges of the speed-ladder groups, lightest to heaviest.
LADDER_GROUPS: tuple[tuple[str, int, int], ...] = (
    ("H-He", 1, 2),
    ("Li-F", 3, 9),
    ("Ne-Ar", 10, 18),
    ("K-Kr", 19, 36),
    ("Rb-Xe", 37, 54),
    ("Cs-Rn", 55, 86),
    ("Fr-U", 87, 92),
)

_ELEMENT_NUMBERS = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8, "F": 9,
    "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15, "S": 16,
    "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Sc": 21, "Ti": 22, "V": 23,
    "Cr": 24, "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29, "Zn": 30,
    "Ga": 31, "Ge": 32, "As": 33, "Se": 34, "Br": 35, "Kr": 36, "Rb": 37,
    "Sr": 38, "Y": 39, "Zr": 40, "Nb": 41, "Mo": 42, "Tc": 43, "Ru": 44,
    "Rh": 45, "Pd": 46, "Ag": 47, "Cd": 48, "In": 49, "Sn": 50, "Sb": 51,
    "Te": 52, "I": 53, "Xe": 54, "Cs": 55, "Ba": 56, "La": 57, "Ce": 58,
    "Pr": 59, "Nd": 60, "Pm": 61, "Sm": 62, "Eu": 63, "Gd": 64, "Tb": 65,
    "Dy": 66, "Ho": 67, "Er": 68, "Tm": 69, "Yb": 70, "Lu": 71, "Hf": 72,
    "Ta": 73, "W": 74, "Re": 75, "Os": 76, "Ir": 77, "Pt": 78, "Au": 79,
    "Hg": 80, "Tl": 81, "Pb": 82, "Bi": 83, "Po": 84, "At": 85, "Rn": 86,
    "Fr": 87, "Ra": 88, "Ac": 89, "Th": 90, "Pa": 91, "U": 92,
}


@dataclass(frozen=True)
class MixtureMember:
    """One species in the mixture; the excited fraction is 1 - ground_fraction."""

    species: Species
    ground_fraction: float = 1.0
    _: KW_ONLY
    center_momentum: float = 0.0

    def __post_init__(self) -> None:
        check_fraction(self.ground_fraction)


@dataclass(frozen=True)
class SeparationReport:
    """Per-pair columns; ``time_required`` is NaN where the pair never resolves.

    ``pairs`` holds each pair's member indices ``(a, b)`` in ``np.triu_indices`` order.
    """

    names: tuple[str, ...]
    pairs: np.ndarray
    speed_gap: np.ndarray
    gap: np.ndarray
    width_a: np.ndarray
    width_b: np.ndarray
    resolvable: np.ndarray
    time_required: np.ndarray


def speed_table(catalog: Catalog, amu: float = U_ROUNDED) -> dict[str, float]:
    """Ground-state drift speed h/(2 M wavelength) by name, in catalog order."""
    return {sp.name: average_speed(sp, amu=amu) for sp in catalog}


def member_speed(member: MixtureMember, amu: float = U_ROUNDED) -> float:
    return average_speed(
        member.species,
        member.ground_fraction,
        center_momentum=member.center_momentum,
        amu=amu,
    )


def pairwise_gap(
    a: MixtureMember,
    b: MixtureMember,
    t: float,
    amu: float = U_ROUNDED,
) -> float:
    """Displacement gap |v_a - v_b| t from the period-averaged speeds.

    The sub-wavelength intra-period wiggle is deliberately ignored; the
    coherent-dynamics module resolves it when needed.
    """
    check_time(t)
    return abs(member_speed(a, amu) - member_speed(b, amu)) * t


def packet_width(spec: WavepacketSpec, mass_kg: float, t: float) -> float:
    """Ballistic spatial width of a minimum-uncertainty packet at time t.

    sigma_x(t) = sqrt(sigma_x0^2 + (sigma_p t / M)^2) with
    sigma_p = momentum_width / sqrt(2) and sigma_x0 = hbar / (2 sigma_p).
    """
    # inline check_time and check_mass_kg: _time_to_resolve calls this ~1e5 times per report
    if not 0.0 <= t < math.inf:
        raise DomainError(f"time must be finite and non-negative, got {t}")
    if not MIN_MASS_KG <= mass_kg < math.inf:
        raise DomainError(f"mass must be finite and at least {MIN_MASS_KG:g} kg, got {mass_kg} kg")
    sigma_p = spec.momentum_width / math.sqrt(2.0)
    sigma_x0 = HBAR / (2.0 * sigma_p)
    return math.hypot(sigma_x0, sigma_p * t / mass_kg)


def _width_at(momentum_width: float, mass_kg: float, t: float) -> float:
    spec = WavepacketSpec(center_momentum=0.0, momentum_width=momentum_width)
    return packet_width(spec, mass_kg, t)


def _time_to_resolve(
    speed_gap: float,
    mass_a: float,
    mass_b: float,
    kappa: float,
    momentum_width: float,
) -> float | None:
    """Smallest t with gap(t) = kappa * (width_a + width_b)(t), by bisection.

    The defining equation has exactly one root when the speed gap beats the
    combined asymptotic spreading rate (gap is linear, the width sum convex),
    and none otherwise. The bracket starts at [0, 10 s] and doubles until it
    holds the root.
    """
    sigma_p = momentum_width / math.sqrt(2.0)
    spreading_rate = kappa * sigma_p * (1.0 / mass_a + 1.0 / mass_b)
    if speed_gap <= spreading_rate:
        return None

    def shortfall(t: float) -> float:
        widths = _width_at(momentum_width, mass_a, t) + _width_at(momentum_width, mass_b, t)
        return speed_gap * t - kappa * widths

    lo, hi = 0.0, 10.0
    while shortfall(hi) < 0.0:
        hi *= 2.0
        if not math.isfinite(hi):
            return None
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if shortfall(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def separation_report(
    mixture: Sequence[MixtureMember],
    t: float,
    kappa: float = 2.0,
    momentum_width: float = 1e-28,
    amu: float = U_ROUNDED,
) -> SeparationReport:
    """Gap-versus-width verdict for every unordered pair of the mixture.

    A pair is resolvable at time t when its displacement gap is at least
    ``kappa`` times the summed packet widths; ``time_required`` is the
    smallest such time (NaN when spreading always wins).
    """
    if len(mixture) < 2:
        raise DomainError("mixture needs at least 2 members")
    if not 0 < kappa < math.inf:
        raise DomainError(f"kappa must be finite and positive, got {kappa}")

    masses = [mass_to_si(m.species.mass_u, amu) for m in mixture]
    speeds = np.array([member_speed(m, amu) for m in mixture])
    widths = np.array([_width_at(momentum_width, m, t) for m in masses])  # checks t, width
    a, b = np.triu_indices(len(mixture), 1)
    speed_gap = np.abs(speeds[a] - speeds[b])
    gap = speed_gap * t
    time_required = [
        _time_to_resolve(dv, masses[i], masses[j], kappa, momentum_width)
        for dv, i, j in zip(speed_gap.tolist(), a.tolist(), b.tolist())
    ]
    return SeparationReport(
        names=tuple(m.species.name for m in mixture), pairs=np.column_stack((a, b)),
        speed_gap=speed_gap, gap=gap, width_a=widths[a], width_b=widths[b],
        resolvable=gap >= kappa * (widths[a] + widths[b]),
        time_required=np.array(time_required, dtype=float),  # None becomes NaN
    )


def _element_symbol(name: str) -> str:
    symbol = name.split("-", 1)[0].strip()
    if symbol not in _ELEMENT_NUMBERS:
        raise DomainError(f"unknown element symbol in species name {name!r}")
    return symbol


def speed_ladder(
    catalog: Catalog, amu: float = U_ROUNDED
) -> list[tuple[str, float, tuple[str, ...]]]:
    """Mean ground-state speed per ladder group, lightest group first.

    Groups with no catalog members are omitted. Individual members may
    cross group boundaries (a heavy atom on a short transition can outrun
    a lighter one), but the group means step monotonically downward.
    """
    table = speed_table(catalog, amu)
    ladder = []
    for label, z_lo, z_hi in LADDER_GROUPS:
        members = tuple(
            sp.name
            for sp in catalog
            if z_lo <= _ELEMENT_NUMBERS[_element_symbol(sp.name)] <= z_hi
        )
        if members:
            mean = sum(table[name] for name in members) / len(members)
            ladder.append((label, mean, members))
    return ladder
