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

