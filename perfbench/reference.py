"""Frozen reference model that the benchmark checks the program's output against.

The model is written from the physics, not from the package's code, and
freezes the constants the package's default ("paper") constant set uses.
Its results reproduce the outputs of the first benchmarked version of the
package within the tolerances in ``workloads.py``; later versions must do
the same.

Trajectory observables come from the closed form of each momentum block
with real initial amplitudes ``A`` (ground) and ``B`` (excited), shift
``d`` and coupling ``W``, ``S = sqrt(d^2 + W^2)``:

    |e(t)|^2 = (B^2 + C^2)/2 + (B^2 - C^2)/2 cos(S t),   C = (W A - d B)/S

so the excited population, the mean momentum and the exact time integral
of the mean velocity (the mean position) are weighted sums over blocks.
"""

from __future__ import annotations

import math

import numpy as np

H_PLANCK = 6.62607015e-34  # J s, exact in SI
HBAR = H_PLANCK / (2.0 * math.pi)
AMU = 1.67e-27  # kg; the rounded mass unit of the package's default constants

_ROW_CHUNK = 32  # time rows per block of the cos/sin tables, bounds memory


def wavenumber(wavelength_nm: float) -> float:
    return 2.0 * math.pi / (wavelength_nm * 1e-9)


def momentum_grid(center: float, width: float, half_span: float, n_points: int) -> np.ndarray:
    return np.linspace(center - half_span * width, center + half_span * width, n_points)


def block_shift(p, k: float, mass_kg: float, detuning: float):
    """Splitting of the block's bare frequencies: detuning + Doppler + recoil."""
    return detuning + p * k / mass_kg + HBAR * k * k / (2.0 * mass_kg)


def fastest_split(mass_u: float, wavelength_nm: float, rabi: float, detuning: float,
                  center_hbark: float, width_hbark: float, half_span: float) -> float:
    """Largest effective Rabi frequency on the packet's grid (at an end point)."""
    k = wavenumber(wavelength_nm)
    mass_kg = mass_u * AMU
    edges = np.array([center_hbark - half_span * width_hbark,
                      center_hbark + half_span * width_hbark]) * HBAR * k
    return float(np.hypot(block_shift(edges, k, mass_kg, detuning), rabi).max())


def trajectory(mass_u: float, wavelength_nm: float, rabi: float, detuning: float,
               center_hbark: float, width_hbark: float, c0sq: float, times: np.ndarray,
               half_span: float, n_points: int) -> dict[str, np.ndarray]:
    """Exact mean momentum, position, norm and excited population at ``times``."""
    k = wavenumber(wavelength_nm)
    recoil = HBAR * k
    mass_kg = mass_u * AMU
    width = width_hbark * recoil
    p = momentum_grid(center_hbark * recoil, width, half_span, n_points)
    dp = p[1] - p[0]
    envelope = np.exp(-((p - center_hbark * recoil) ** 2) / (2.0 * width**2))
    envelope /= math.sqrt(float((envelope**2).sum()) * dp)
    a = math.sqrt(c0sq) * envelope
    b = math.sqrt(1.0 - c0sq) * envelope
    shift = block_shift(p, k, mass_kg, detuning)
    split = np.hypot(shift, rabi)
    c = (rabi * a - shift * b) / split
    steady = 0.5 * (b * b + c * c) * dp
    beat = 0.5 * (b * b - c * c) * dp
    mean_p0 = float(((a * a + b * b) * p).sum() * dp)
    norm = float(((a * a + b * b)).sum() * dp)

    pop = np.empty(len(times))
    pop_integral = np.empty(len(times))
    for lo in range(0, len(times), _ROW_CHUNK):
        phase = np.outer(times[lo:lo + _ROW_CHUNK], split)
        pop[lo:lo + _ROW_CHUNK] = steady.sum() + np.cos(phase) @ beat
        pop_integral[lo:lo + _ROW_CHUNK] = (
            steady.sum() * times[lo:lo + _ROW_CHUNK] + np.sin(phase) @ (beat / split)
        )
    return {
        "mean_p": mean_p0 + recoil * pop,
        "mean_x": (mean_p0 * times + recoil * pop_integral) / mass_kg,
        "norm": np.full(len(times), norm),
        "pop_excited": pop,
        "recoil": np.float64(recoil),
        "mass_kg": np.float64(mass_kg),
    }


def separation(masses_u: np.ndarray, wavelengths_nm: np.ndarray, t: float, kappa: float,
               width_hbark: float, horizon: float = 10.0) -> dict[str, np.ndarray]:
    """Pairwise report of ground-state members at rest, pairs (i < j) in row order.

    ``t_required`` is NaN where the pair never resolves. The root of
    ``gap(t) = kappa (width_a + width_b)(t)`` is bracketed on ``[0, horizon]``
    and bisected to convergence.
    """
    k = 2.0 * math.pi / (np.asarray(wavelengths_nm) * 1e-9)
    mass_kg = np.asarray(masses_u) * AMU
    speed = HBAR * k / (2.0 * mass_kg)
    sigma_p = width_hbark * HBAR * (k.sum() / len(k)) / math.sqrt(2.0)
    sigma_x0 = HBAR / (2.0 * sigma_p)
    i, j = np.triu_indices(len(k), 1)
    speed_gap = np.abs(speed[i] - speed[j])
    inv_ma, inv_mb = 1.0 / mass_kg[i], 1.0 / mass_kg[j]

    def shortfall(time):
        widths = (np.hypot(sigma_x0, sigma_p * time * inv_ma)
                  + np.hypot(sigma_x0, sigma_p * time * inv_mb))
        return speed_gap * time - kappa * widths

    width_a = np.hypot(sigma_x0, sigma_p * t * inv_ma)
    width_b = np.hypot(sigma_x0, sigma_p * t * inv_mb)
    gap = speed_gap * t
    resolves = (speed_gap > kappa * sigma_p * (inv_ma + inv_mb)) & (shortfall(horizon) >= 0.0)
    lo, hi = np.zeros_like(gap), np.full_like(gap, horizon)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        ahead = shortfall(mid) >= 0.0
        hi, lo = np.where(ahead, mid, hi), np.where(ahead, lo, mid)
        if np.all(hi - lo <= 1e-15 * hi):
            break
    return {
        "i": i,
        "j": j,
        "speed_gap": speed_gap,
        "gap": gap,
        "width_a": width_a,
        "width_b": width_b,
        "resolvable": gap >= kappa * (width_a + width_b),
        "t_required": np.where(resolves, hi, np.nan),
    }
