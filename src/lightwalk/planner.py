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
from typing import Sequence

import numpy as np

from .catalog import Catalog, Species
from .constants import HBAR, U_ROUNDED, mass_to_si, wavenumber
from .dynamics import WavepacketSpec
from .errors import MIN_MASS_KG, DomainError, check_fraction, check_time


@dataclass(frozen=True)
class SeparationReport:
    """Per-pair columns; ``time_required`` is NaN where the pair never resolves.

    ``pairs`` holds each pair's species indices ``(a, b)`` in ``np.triu_indices`` order.
    """

    names: tuple[str, ...]
    pairs: np.ndarray
    speed_gap: np.ndarray
    gap: np.ndarray
    width_a: np.ndarray
    width_b: np.ndarray
    resolvable: np.ndarray
    time_required: np.ndarray


def average_speed(
    species: Species, ground_fraction: float = 1.0, *, amu: float = U_ROUNDED
) -> float:
    """Rabi-period-averaged drift speed of a species at rest.

    v = (n0 - n1) hbar k / (2 M) with n0 = ``ground_fraction`` and
    n1 = 1 - n0; for a ground-state atom this is h / (2 M wavelength).
    """
    check_fraction(ground_fraction)
    mass_kg = mass_to_si(species.mass_u, amu)
    k = wavenumber(species.wavelength_nm * 1e-9)
    return (ground_fraction - (1.0 - ground_fraction)) * HBAR * k / (2.0 * mass_kg)


def speed_table(catalog: Catalog, amu: float = U_ROUNDED) -> dict[str, float]:
    """Ground-state drift speed h/(2 M wavelength) by name, in catalog order."""
    return {sp.name: average_speed(sp, amu=amu) for sp in catalog}


def pairwise_gap(
    a: Species, b: Species, t: float, *, ground_fraction: float = 1.0, amu: float = U_ROUNDED
) -> float:
    """Displacement gap |v_a - v_b| t from the period-averaged speeds.

    Both species start at rest with the same ``ground_fraction``. The
    sub-wavelength intra-period wiggle is deliberately ignored; the
    coherent-dynamics module resolves it when needed.
    """
    check_time(t)
    speed_a = average_speed(a, ground_fraction, amu=amu)
    return abs(speed_a - average_speed(b, ground_fraction, amu=amu)) * t


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
        if mid == lo or mid == hi:  # adjacent floats: shortfall(lo) < 0 <= shortfall(hi) holds
            break
        if shortfall(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def separation_report(
    species: Sequence[Species],
    t: float,
    kappa: float = 2.0,
    momentum_width: float = 1e-28,
    amu: float = U_ROUNDED,
    *,
    ground_fraction: float = 1.0,
) -> SeparationReport:
    """Gap-versus-width verdict for every unordered pair of the mixture.

    Every species starts at rest with the same ``ground_fraction``. A pair
    is resolvable at time t when its displacement gap is at least
    ``kappa`` times the summed packet widths; ``time_required`` is the
    smallest such time (NaN when spreading always wins).
    """
    check_fraction(ground_fraction)
    if len(species) < 2:
        raise DomainError("mixture needs at least 2 members")
    if not 0 < kappa < math.inf:
        raise DomainError(f"kappa must be finite and positive, got {kappa}")

    masses = [mass_to_si(sp.mass_u, amu) for sp in species]
    speeds = np.array([average_speed(sp, ground_fraction, amu=amu) for sp in species])
    widths = np.array([_width_at(momentum_width, m, t) for m in masses])  # checks t, width
    a, b = np.triu_indices(len(species), 1)
    speed_gap = np.abs(speeds[a] - speeds[b])
    gap = speed_gap * t
    time_required = [
        _time_to_resolve(dv, masses[i], masses[j], kappa, momentum_width)
        for dv, i, j in zip(speed_gap.tolist(), a.tolist(), b.tolist())
    ]
    return SeparationReport(
        names=tuple(sp.name for sp in species), pairs=np.column_stack((a, b)),
        speed_gap=speed_gap, gap=gap, width_a=widths[a], width_b=widths[b],
        resolvable=gap >= kappa * (widths[a] + widths[b]),
        time_required=np.array(time_required, dtype=float),  # None becomes NaN
    )
