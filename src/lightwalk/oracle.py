"""Brute-force numeric evolution of single momentum blocks.

Fixed-step classical RK4 on the 2x2 block equation, written exactly as the
coupled first-order system (bare kinetic phases on the diagonal, minus half
the coupling off-diagonal). This is the independent cross-check for the
dressed analytic solution; amplitudes are never renormalized, so norm
drift stays visible as a convergence diagnostic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    BlockAmplitudes,
    LightField,
    block_detuning,
    effective_rabi,
    kinetic_frequency,
)
from .errors import DomainError, IntegratorError

# resolution bounds for the fastest time scales present in a block
MAX_RABI_STEP = 0.01  # rabi * dt
MAX_SPLIT_STEP = 0.02  # effective_rabi * dt


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float
    method_tag: str = "rk4"
    max_steps: int = 5_000_000

    def __post_init__(self) -> None:
        if not self.dt > 0:
            raise IntegratorError(f"dt must be positive, got {self.dt}")
        if self.method_tag != "rk4":
            raise IntegratorError(f"unsupported method {self.method_tag!r}")
        if self.max_steps < 1:
            raise IntegratorError("max_steps must be at least 1")


def block_hamiltonian(p: float, field: LightField, mass_kg: float) -> np.ndarray:
    """2x2 frequency matrix of the block at momentum p (rad/s units)."""
    w_ground = kinetic_frequency(p, mass_kg)
    w_excited = field.detuning + kinetic_frequency(p + field.recoil_momentum, mass_kg)
    half_coupling = -0.5 * field.rabi
    return np.array(
        [[w_ground, half_coupling], [half_coupling, w_excited]], dtype=complex
    )


def rk4_propagate(matrix, amplitudes, t, dt, max_steps: int = 5_000_000) -> np.ndarray:
    """Integrate i d/dt y = matrix y over time t with classical RK4.

    Shapes broadcast: ``matrix`` is (..., 2, 2), ``amplitudes`` (..., 2),
    and ``t``/``dt`` scalars or (...)-shaped, so a batch of independent
    blocks integrates in lockstep. ``t`` must be finite and non-negative.
    The final partial step is shortened so each end time is hit exactly.
    For a constant matrix one RK4 step of size h is exactly
    ``y <- R(h A) y`` with ``A = -i matrix`` and the stability polynomial
    ``R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24``, so the n full steps are
    applied as ``R(dt A)^n`` by binary exponentiation (per-element n),
    followed by one remainder step.
    """
    rhs = -1j * np.asarray(matrix, dtype=complex)
    t = np.asarray(t, dtype=float)
    dt = np.asarray(dt, dtype=float)
    if not np.all(np.isfinite(t) & (t >= 0)):
        raise IntegratorError("t must be finite and non-negative")
    if np.any(dt <= 0):
        raise IntegratorError("dt must be positive")
    full = np.floor(t / dt + 1e-9)
    n_steps = int(full.max())
    if n_steps > max_steps:
        raise IntegratorError(f"{n_steps} steps exceed the configured maximum {max_steps}")
    eye = np.eye(2, dtype=complex)

    def step(h):
        z = h[..., None, None] * rhs  # Horner form of R(z)
        return eye + z @ (eye + z / 2 @ (eye + z / 3 @ (eye + z / 4)))

    base, power = step(dt), eye
    bits = np.maximum(full, 0).astype(np.int64)[..., None, None]
    while bits.any():
        power = np.where(bits & 1, base @ power, power)
        bits = bits >> 1
        base = base @ base
    propagator = step(np.maximum(t - full * dt, 0.0)) @ power
    return (propagator @ np.asarray(amplitudes, dtype=complex)[..., None])[..., 0]


def evolve_block_numeric(
    init: BlockAmplitudes,
    field: LightField,
    mass_kg: float,
    t: float,
    cfg: IntegratorConfig,
) -> BlockAmplitudes:
    """RK4 evolution of one block to time t (the oracle path)."""
    if t < 0:
        raise DomainError(f"time must be non-negative, got {t}")
    if field.rabi * cfg.dt > MAX_RABI_STEP * (1.0 + 1e-12):
        raise IntegratorError(
            f"rabi*dt = {field.rabi * cfg.dt:.3g} exceeds {MAX_RABI_STEP}"
        )
    split = float(
        effective_rabi(block_detuning(init.momentum, field, mass_kg), field.rabi)
    )
    if split * cfg.dt > MAX_SPLIT_STEP * (1.0 + 1e-12):
        raise IntegratorError(
            f"effective_rabi*dt = {split * cfg.dt:.3g} exceeds {MAX_SPLIT_STEP}"
        )
    if t == 0.0:
        return init
    matrix = block_hamiltonian(init.momentum, field, mass_kg)
    y0 = np.array([init.ground, init.excited], dtype=complex)
    y = rk4_propagate(matrix, y0, t, cfg.dt, cfg.max_steps)
    return BlockAmplitudes(init.momentum, complex(y[0]), complex(y[1]))


def suggested_dt(field: LightField, shift_bound: float = 0.0, resolution: float = 0.002) -> float:
    """A dt resolving the fastest block scale with margin."""
    fastest = math.hypot(shift_bound, field.rabi)
    if fastest <= 0:
        raise DomainError("cannot suggest a step for a block with no dynamics")
    return resolution / fastest
