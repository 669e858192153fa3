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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .catalog import Catalog, Species
from .constants import PAPER_CONSTANTS, PhysicalConstants, mass_to_si
from .dynamics import WavepacketSpec, average_speed, check_populations
from .errors import DomainError

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
    """One species in the mixture with its internal-state populations."""

    species: Species
    ground_fraction: float = 1.0
    excited_fraction: float = 0.0
    center_momentum: float = 0.0

    def __post_init__(self) -> None:
        check_populations(self.ground_fraction, self.excited_fraction)


class SpeedEntry(NamedTuple):
    name: str
    mass_u: float
    wavelength_nm: float
    speed: float


@dataclass(frozen=True)
class PairSeparation:
    """Resolvability verdict for one unordered species pair."""

    name_a: str
    name_b: str
    speed_gap: float
    gap: float
    width_a: float
    width_b: float
    resolvable: bool
    time_required: float | None


@dataclass(frozen=True)
class SeparationReport:
    time: float
    kappa: float
    momentum_width: float
    pairs: tuple[PairSeparation, ...]


def speed_table(
    catalog: Catalog, consts: PhysicalConstants = PAPER_CONSTANTS
) -> list[SpeedEntry]:
    """Ground-state drift speed h/(2 M wavelength) for every catalog entry."""
    return [
        SpeedEntry(sp.name, sp.mass_u, sp.wavelength_nm, average_speed(sp, consts=consts))
        for sp in catalog
    ]


def member_speed(member: MixtureMember, consts: PhysicalConstants = PAPER_CONSTANTS) -> float:
    return average_speed(
        member.species,
        member.ground_fraction,
        member.excited_fraction,
        member.center_momentum,
        consts,
    )


def pairwise_gap(
    a: MixtureMember,
    b: MixtureMember,
    t: float,
    consts: PhysicalConstants = PAPER_CONSTANTS,
) -> float:
    """Displacement gap |v_a - v_b| t from the period-averaged speeds.

    The sub-wavelength intra-period wiggle is deliberately ignored; the
    coherent-dynamics module resolves it when needed.
    """
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    return abs(member_speed(a, consts) - member_speed(b, consts)) * t


def packet_width(
    spec: WavepacketSpec,
    mass_kg: float,
    t: float,
    consts: PhysicalConstants = PAPER_CONSTANTS,
) -> float:
    """Ballistic spatial width of a minimum-uncertainty packet at time t.

    sigma_x(t) = sqrt(sigma_x0^2 + (sigma_p t / M)^2) with
    sigma_p = momentum_width / sqrt(2) and sigma_x0 = hbar / (2 sigma_p).
    """
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if not mass_kg > 0:
        raise DomainError(f"mass must be positive, got {mass_kg}")
    sigma_p = spec.momentum_width / math.sqrt(2.0)
    sigma_x0 = consts.hbar / (2.0 * sigma_p)
    return math.hypot(sigma_x0, sigma_p * t / mass_kg)


def _width_at(momentum_width: float, mass_kg: float, t: float, consts: PhysicalConstants) -> float:
    spec = WavepacketSpec(center_momentum=0.0, momentum_width=momentum_width)
    return packet_width(spec, mass_kg, t, consts)


def _time_to_resolve(
    speed_gap: float,
    mass_a: float,
    mass_b: float,
    kappa: float,
    momentum_width: float,
    consts: PhysicalConstants,
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
        widths = _width_at(momentum_width, mass_a, t, consts) + _width_at(
            momentum_width, mass_b, t, consts
        )
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
    consts: PhysicalConstants = PAPER_CONSTANTS,
) -> SeparationReport:
    """Gap-versus-width verdict for every unordered pair of the mixture.

    A pair is resolvable at time t when its displacement gap is at least
    ``kappa`` times the summed packet widths; ``time_required`` is the
    smallest such time (None when spreading always wins).
    """
    if len(mixture) < 2:
        raise DomainError("mixture needs at least 2 members")
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if not kappa > 0:
        raise DomainError(f"kappa must be positive, got {kappa}")
    if not momentum_width > 0:
        raise DomainError(f"momentum width must be positive, got {momentum_width}")

    pairs = []
    for i, a in enumerate(mixture):
        mass_a = mass_to_si(a.species.mass_u, consts)
        width_a = _width_at(momentum_width, mass_a, t, consts)
        for b in mixture[i + 1 :]:
            mass_b = mass_to_si(b.species.mass_u, consts)
            width_b = _width_at(momentum_width, mass_b, t, consts)
            speed_gap = abs(member_speed(a, consts) - member_speed(b, consts))
            gap = speed_gap * t
            pairs.append(
                PairSeparation(
                    name_a=a.species.name,
                    name_b=b.species.name,
                    speed_gap=speed_gap,
                    gap=gap,
                    width_a=width_a,
                    width_b=width_b,
                    resolvable=gap >= kappa * (width_a + width_b),
                    time_required=_time_to_resolve(
                        speed_gap, mass_a, mass_b, kappa, momentum_width, consts
                    ),
                )
            )
    return SeparationReport(
        time=t, kappa=kappa, momentum_width=momentum_width, pairs=tuple(pairs)
    )


def _element_symbol(name: str) -> str:
    symbol = name.split("-", 1)[0].strip()
    if symbol not in _ELEMENT_NUMBERS:
        raise DomainError(f"unknown element symbol in species name {name!r}")
    return symbol


def speed_ladder(
    catalog: Catalog, consts: PhysicalConstants = PAPER_CONSTANTS
) -> list[tuple[str, float, tuple[str, ...]]]:
    """Mean ground-state speed per ladder group, lightest group first.

    Groups with no catalog members are omitted. Individual members may
    cross group boundaries (a heavy atom on a short transition can outrun
    a lighter one), but the group means step monotonically downward.
    """
    table = {entry.name: entry.speed for entry in speed_table(catalog, consts)}
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
